// Command perfbench is the repository benchmark. It runs one workload
// against the real program — the training layers called in-process, a
// loopback TCP cluster, or fdaserve replicas behind fdagate — checks
// that every output is correct, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off).
// With -trace 1 the run is repeated with the layers' pluggable
// interfaces wrapped, and the metrics are the per-layer ones. The
// process exits non-zero when a correctness check fails.
//
// Run it through run.sh, which builds this module and the binaries it
// drives:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// binDir holds the fdaserve and fdagate binaries: the directory of
	// this binary, where run.sh builds them.
	binDir string
	// workDir receives fresh run stores and the span dumps.
	workDir string
	// procs is the core budget: worker parallelism and the load
	// generator's connection limit.
	procs int
}

// benchSpec is the part of BENCHMARK.json (read from the working
// directory, the repository root) the benchmark reads: the metric names
// and units it must report.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return spec, fmt.Errorf("%s lists no metrics", path)
	}
	return spec, nil
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchWorkload is one benchmark workload. run measures the end-to-end
// metrics with tracing off; traced measures the per-layer metrics of
// the layers the workload exercises at full size; mini measures the
// same per-layer metrics on a small instance, so a traced run of
// another workload can report the layers it does not exercise itself.
type benchWorkload struct {
	run    func(o options, r *report) error
	traced func(o options, r *report) error
	mini   func(o options, r *report) error
}

var workloads = map[string]benchWorkload{
	"train": {runTrain, tracedTrain, nil},
	"dist":  {runDist, tracedDist, miniDist},
	"serve": {runServe, tracedServe, miniServe},
}

func main() {
	var (
		o     options
		seed  = flag.Uint64("seed", 1, "workload seed: every input the workload generates derives from it")
		trace = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: train, dist or serve")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured duration of one run, in seconds")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/runs", "directory for run stores and span dumps")
	flag.Parse()
	o.seed, o.trace, o.procs = *seed, *trace == 1, runtime.GOMAXPROCS(0)

	w, ok := workloads[o.workload]
	if !ok || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload train|dist|serve, -trace 0|1 and -seconds > 0")
		os.Exit(2)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	o.binDir = filepath.Dir(exe)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fatal(err)
	}

	r := newReport()
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
		err = runTracedAll(o, w, r, defs)
	} else {
		err = w.run(o, r)
	}
	if err != nil {
		fatal(err)
	}
	if err := r.emit(os.Stdout, defs); err != nil {
		fatal(err)
	}
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

// runTracedAll runs the workload's traced variant, adds the direct
// layer probes, and fills each per-layer metric the workload does not
// exercise from a small traced instance of a workload that does.
func runTracedAll(o options, w benchWorkload, r *report, perLayer []metricDef) error {
	if err := w.traced(o, r); err != nil {
		return err
	}
	if err := probeLayers(o, r); err != nil {
		return err
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		other := workloads[name]
		if name == o.workload || other.mini == nil || r.hasAll(perLayer) {
			continue
		}
		sub := newReport()
		if err := other.mini(o, sub); err != nil {
			return fmt.Errorf("%s layer probe: %w", name, err)
		}
		r.fillFrom(sub, name)
	}
	return nil
}

// report collects one run's metrics, operation counts and correctness
// problems.
type report struct {
	values    map[string]metricValue
	order     []string
	attempted int
	failed    int
	problems  []string
}

type metricValue struct {
	value float64
	unit  string
	// n is the number of raw samples behind the value (0 for a count).
	n int
	// from names the workload that measured it when it is not the one
	// being run (per-layer metrics filled from a layer probe).
	from string
}

func newReport() *report { return &report{values: map[string]metricValue{}} }

func (r *report) set(name, unit string, v float64, n int) {
	if _, dup := r.values[name]; !dup {
		r.order = append(r.order, name)
	}
	r.values[name] = metricValue{value: v, unit: unit, n: n}
}

// problem records a failed correctness check; the run then exits
// non-zero.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

// ops counts attempted operations and those that failed, were refused
// or missed their target.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) hasAll(defs []metricDef) bool {
	for _, d := range defs {
		if _, ok := r.values[d.Name]; !ok {
			return false
		}
	}
	return true
}

// copyFrom copies the named metrics of another report.
func (r *report) copyFrom(sub *report, names ...string) {
	for _, name := range names {
		v := sub.values[name]
		r.set(name, v.unit, v.value, v.n)
	}
}

// fillFrom copies the metrics r lacks from a probe report and adopts
// the probe's correctness problems.
func (r *report) fillFrom(sub *report, from string) {
	for _, name := range sub.order {
		if _, ok := r.values[name]; ok {
			continue
		}
		v := sub.values[name]
		v.from = from
		r.order = append(r.order, name)
		r.values[name] = v
	}
	r.problems = append(r.problems, sub.problems...)
}

// emit prints one human-readable line per metric (value, unit, sample
// count), then lines for measured values BENCHMARK.json does not list
// in this mode, then the JSON result line.
func (r *report) emit(w *os.File, defs []metricDef) error {
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v.unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, v.unit, d.Unit)
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v.value)
		}
		note := ""
		if v.n > 0 {
			note = fmt.Sprintf("n=%d", v.n)
		}
		if v.from != "" {
			note += " (from the " + v.from + " layer probe)"
		}
		fmt.Fprintf(w, "%-30s %16.6f %-6s %s\n", d.Name, v.value, d.Unit, note)
		metrics[d.Name] = map[string]any{"value": v.value, "unit": d.Unit}
	}
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
	}
	for _, name := range r.order {
		if v := r.values[name]; !listed[name] {
			fmt.Fprintf(w, "%-30s %16.6f %-6s n=%d (not a metric of this mode)\n", name, v.value, v.unit, v.n)
		}
	}
	attempted := r.attempted
	if attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	// Every operation of the run, checks included. It reads 0 when
	// nothing fails, so ok_share is the gated form.
	fmt.Fprintf(w, "%-30s %16.6f %-6s n=%d (not a metric of this mode)\n", "failed_share",
		share(float64(r.failed), float64(attempted)), "share", attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
