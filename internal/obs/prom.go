package obs

import (
	"fmt"
	"io"
	"runtime/metrics"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per family,
// `_bucket{le=...}`/`_sum`/`_count` series per histogram. Families are
// emitted in name order; empty histogram buckets are elided (the
// cumulative bucket counts stay correct, and +Inf is always present).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b []byte
	lastFamily := ""
	for _, m := range r.sorted() {
		d := descOf(m)
		if d.name != lastFamily {
			lastFamily = d.name
			b = append(b, "# HELP "...)
			b = append(b, d.name...)
			b = append(b, ' ')
			b = append(b, strings.ReplaceAll(d.help, "\n", " ")...)
			b = append(b, "\n# TYPE "...)
			b = append(b, d.name...)
			switch m.(type) {
			case *Counter:
				b = append(b, " counter\n"...)
			case *Gauge:
				b = append(b, " gauge\n"...)
			case *Histogram:
				b = append(b, " histogram\n"...)
			}
		}
		switch m := m.(type) {
		case *Counter:
			b = append(b, d.name...)
			b = append(b, d.rendered...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, m.Value(), 10)
			b = append(b, '\n')
		case *Gauge:
			b = append(b, d.name...)
			b = append(b, d.rendered...)
			b = append(b, ' ')
			b = strconv.AppendFloat(b, m.Value(), 'g', -1, 64)
			b = append(b, '\n')
		case *Histogram:
			b = m.appendProm(b, d)
		}
	}
	_, err := w.Write(b)
	return err
}

// appendProm renders one histogram's bucket/sum/count series.
func (h *Histogram) appendProm(b []byte, d desc) []byte {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		b = appendSeries(b, d.name+"_bucket", d.rendered, "le", formatLe(h.bucketUpper(i)))
		b = append(b, ' ')
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSeries(b, d.name+"_bucket", d.rendered, "le", "+Inf")
	b = append(b, ' ')
	b = strconv.AppendUint(b, h.Count(), 10)
	b = append(b, '\n')
	b = append(b, d.name...)
	b = append(b, "_sum"...)
	b = append(b, d.rendered...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, h.Sum(), 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, d.name...)
	b = append(b, "_count"...)
	b = append(b, d.rendered...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, h.Count(), 10)
	b = append(b, '\n')
	return b
}

func formatLe(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendSeries writes name plus the metric's rendered labels merged
// with one extra label (the histogram's le).
func appendSeries(b []byte, name, rendered, extraKey, extraVal string) []byte {
	b = append(b, name...)
	if rendered == "" {
		b = append(b, '{')
	} else {
		b = append(b, rendered[:len(rendered)-1]...)
		b = append(b, ',')
	}
	b = append(b, extraKey...)
	b = append(b, `="`...)
	b = append(b, extraVal...)
	b = append(b, `"}`...)
	return b
}

// runtimeSamples is the fixed set of runtime/metrics series exposed:
// enough to correlate training behavior with scheduler and heap
// pressure without drowning the exposition.
var runtimeSamples = []struct {
	src  string // runtime/metrics name
	name string // exposed name
	kind string // prometheus type
}{
	{"/sched/goroutines:goroutines", "go_sched_goroutines", "gauge"},
	{"/sched/gomaxprocs:threads", "go_sched_gomaxprocs_threads", "gauge"},
	{"/memory/classes/heap/objects:bytes", "go_memory_heap_objects_bytes", "gauge"},
	{"/memory/classes/total:bytes", "go_memory_total_bytes", "gauge"},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "counter"},
	{"/sync/mutex/wait/total:seconds", "go_sync_mutex_wait_seconds_total", "counter"},
}

// RuntimeSample reads the exposed runtime/metrics series as a flat
// name→value map (the JSON /v1/metrics shape).
func RuntimeSample() map[string]float64 {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i := range samples {
		samples[i].Name = runtimeSamples[i].src
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[runtimeSamples[i].name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[runtimeSamples[i].name] = s.Value.Float64()
		}
	}
	return out
}

// WriteRuntimeMetrics renders the runtime/metrics sample set in
// Prometheus text format (appended after the registry's families on
// GET /metrics).
func WriteRuntimeMetrics(w io.Writer) error {
	vals := RuntimeSample()
	var b []byte
	for _, rs := range runtimeSamples {
		v, ok := vals[rs.name]
		if !ok {
			continue
		}
		b = fmt.Appendf(b, "# HELP %s runtime/metrics %s\n# TYPE %s %s\n%s %s\n",
			rs.name, rs.src, rs.name, rs.kind, rs.name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	_, err := w.Write(b)
	return err
}
