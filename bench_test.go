// Benchmarks regenerating every table and figure of the paper's
// evaluation at Tiny scale, plus ablation benches for the design choices
// called out in DESIGN.md §5 and sequential-vs-parallel comparison
// benches for the execution engine (DESIGN.md §3). Each benchmark
// executes the corresponding experiment runner once per iteration and
// reports the headline quantities (median communication, steps) as
// custom metrics, so `go test -bench=. -benchmem` prints the reproduced
// series alongside timing. Run `cmd/fdaexp -scale quick|full` for denser
// grids.
package repro

import (
	"testing"

	"repro/fda"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/tensor"
)

// benchOpts returns Tiny-scale options; seed fixed for comparability.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: experiments.Tiny, Seed: 1}
}

// reportClouds attaches per-strategy medians of (comm, steps) over
// reached runs to the benchmark output.
func reportClouds(b *testing.B, recs []experiments.Record) {
	b.Helper()
	type agg struct{ comm, steps, n float64 }
	sums := map[string]*agg{}
	for _, r := range recs {
		if !r.Reached {
			continue
		}
		a := sums[r.Strategy]
		if a == nil {
			a = &agg{}
			sums[r.Strategy] = a
		}
		a.comm += r.CommGB
		a.steps += float64(r.Steps)
		a.n++
	}
	for name, a := range sums {
		if a.n == 0 {
			continue
		}
		b.ReportMetric(a.comm/a.n*1e3, name+"_comm_MB/op")
		b.ReportMetric(a.steps/a.n, name+"_steps/op")
	}
}

func BenchmarkTable2Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(benchOpts())
		if t.Len() != 5 {
			b.Fatal("table rows")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure3(benchOpts()))
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure4(benchOpts()))
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure5(benchOpts()))
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure6(benchOpts()))
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure7(benchOpts())
		// Report the generalization gaps (paper: FDA ≈ 0, baselines > 0).
		for _, c := range curves {
			b.ReportMetric(c.Gap, c.Strategy+"_gap")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure8(benchOpts()))
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure9(benchOpts()))
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure10(benchOpts()))
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure11(benchOpts()))
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fits := experiments.Figure12(benchOpts())
		for _, f := range fits {
			b.ReportMetric(f.Slope*1e5, "slope_"+f.Setting+"_x1e5")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure13(benchOpts()))
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// ablationConfig is a small, fast shared workload.
func ablationConfig(seed uint64) fda.Config {
	spec, err := fda.ModelByName("lenet5s")
	if err != nil {
		panic(err)
	}
	train, test := fda.DatasetForModel(spec, seed)
	return fda.Config{
		K: 5, BatchSize: 32, Seed: seed,
		Model: spec.Build, Optimizer: spec.Optimizer,
		Train: train, Test: test,
		MaxSteps: 150, EvalEvery: 50,
	}
}

// BenchmarkAblationSketchSize sweeps the AMS sketch width, reporting sync
// counts and state traffic: wider sketches estimate variance more tightly
// (fewer syncs) at higher monitoring cost.
func BenchmarkAblationSketchSize(b *testing.B) {
	theta := 0.05
	for i := 0; i < b.N; i++ {
		for _, m := range []int{16, 64, 250} {
			s := core.NewSketchFDA(theta)
			s.L, s.M = 5, m
			res := fda.MustRun(ablationConfig(3), s)
			b.ReportMetric(float64(res.SyncCount), "syncs_m"+itoa(m))
			b.ReportMetric(float64(res.StateBytes)/1e6, "stateMB_m"+itoa(m))
		}
	}
}

// BenchmarkAblationXi compares LinearFDA's ξ heuristics: the paper's
// drift direction vs a random unit vector vs no deflation at all.
func BenchmarkAblationXi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range []string{"drift", "random", "zero"} {
			l := core.NewLinearFDA(0.05)
			l.XiMode = mode
			res := fda.MustRun(ablationConfig(4), l)
			b.ReportMetric(float64(res.SyncCount), "syncs_"+mode)
		}
	}
}

// BenchmarkAblationCostModel contrasts ring vs naive AllReduce
// accounting on identical trajectories.
func BenchmarkAblationCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ring := range []bool{true, false} {
			cfg := ablationConfig(5)
			cfg.Cost = fda.CostModel{BytesPerParam: 4, Ring: ring}
			res := fda.MustRun(cfg, fda.NewLinearFDA(0.05))
			name := "naive"
			if ring {
				name = "ring"
			}
			b.ReportMetric(float64(res.CommBytes)/1e6, "commMB_"+name)
		}
	}
}

// BenchmarkAblationOracle measures how many extra synchronizations the
// deployable estimators pay relative to exact variance monitoring.
func BenchmarkAblationOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []fda.Strategy{
			fda.NewOracleFDA(0.05), fda.NewSketchFDA(0.05), fda.NewLinearFDA(0.05),
		} {
			res := fda.MustRun(ablationConfig(6), s)
			b.ReportMetric(float64(res.SyncCount), "syncs_"+res.Strategy)
		}
	}
}

// BenchmarkAblationCompression composes top-k and quantization codecs
// with FDA's synchronization step (the paper's §2 compatibility claim).
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			name  string
			codec fda.Codec
		}{
			{"dense", nil},
			{"top10", fda.TopK{Fraction: 0.1}},
			{"q8", fda.Quantize{Bits: 8}},
		} {
			cfg := ablationConfig(7)
			cfg.SyncCodec = c.codec
			res := fda.MustRun(cfg, fda.NewLinearFDA(0.05))
			b.ReportMetric(float64(res.ModelBytes)/1e6, "modelMB_"+c.name)
			b.ReportMetric(res.FinalTestAcc, "acc_"+c.name)
		}
	}
}

// --- Parallel execution benches ---

// benchSweepJobs regenerates Figure 3's Tiny grid with the given job
// count; comparing the Jobs=1 and Jobs=GOMAXPROCS variants shows the
// sweep-level speedup while reportClouds proves the medians match.
func benchSweepJobs(b *testing.B, jobs int) {
	o := benchOpts()
	o.Jobs = jobs
	for i := 0; i < b.N; i++ {
		reportClouds(b, experiments.Figure3(o))
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchSweepJobs(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchSweepJobs(b, fda.AutoParallelism) }

// --- Warm-start benches ---

// BenchmarkSweepThetaCold / BenchmarkSweepThetaWarm measure prefix-keyed
// warm starts (DESIGN.md §10) on the thetasweep grid: three FDA variants
// times a Θ series per variant, one trajectory seed per variant, run
// sequentially. Cold trains every cell from step 0; Warm runs the same
// grid over a fresh snapshot store, so each Θ series' later cells
// restore the prefix its earlier cells published. Records are
// bit-identical either way — the wall-clock gap between the two is the
// warm-start saving, and the _Warm variant reports how many cells
// restored and how many steps the restores skipped.
func BenchmarkSweepThetaCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if recs := experiments.ThetaSweep(benchOpts()); len(recs) == 0 {
			b.Fatal("no records")
		}
	}
}

func BenchmarkSweepThetaWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := runstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		o := benchOpts()
		o.Store, o.Warm = st, true
		o.Stats = &experiments.SweepStats{}
		if recs := experiments.ThetaSweep(o); len(recs) == 0 {
			b.Fatal("no records")
		}
		b.ReportMetric(float64(o.Stats.SnapshotHits.Load()), "snapshot_hits/op")
		b.ReportMetric(float64(o.Stats.StepsSaved.Load()), "steps_saved/op")
	}
}

// benchRunParallelism times one training run's worker/eval loops at the
// given Config.Parallelism; the reported sync count is identical across
// settings by the determinism contract.
func benchRunParallelism(b *testing.B, par int) {
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig(12)
		cfg.Parallelism = par
		res := fda.MustRun(cfg, fda.NewLinearFDA(0.05))
		b.ReportMetric(float64(res.SyncCount), "syncs")
	}
}

func BenchmarkRunWorkersSequential(b *testing.B) { benchRunParallelism(b, 1) }
func BenchmarkRunWorkersParallel(b *testing.B)   { benchRunParallelism(b, fda.AutoParallelism) }

// benchStep times one worker's mini-batch step on a zoo model (the
// simulation's compute unit). Allocations reported here guard the
// zero-allocation contract of the fused kernel layer.
func benchStep(b *testing.B, model string) {
	spec, err := fda.ModelByName(model)
	if err != nil {
		b.Fatal(err)
	}
	train, _ := fda.DatasetForModel(spec, 1)
	net := spec.Build(fda.NewRNG(1))
	o := spec.Optimizer()
	sampler := newBenchSampler(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.LossGradBatch(sampler.batch(32))
		o.Step(net.Params(), net.Grads())
	}
}

// BenchmarkLocalStep isolates the per-step training cost of one worker on
// the smallest zoo model — the number the fused kernels of
// internal/tensor exist to move.
func BenchmarkLocalStep(b *testing.B) { benchStep(b, "lenet5s") }

// BenchmarkLocalStepDenseNet covers the largest conv stack (three conv
// stages, dropout, SGD-NM), whose kernel mix differs from LeNet's.
func BenchmarkLocalStepDenseNet(b *testing.B) { benchStep(b, "densenet121s") }

// --- Kernel benches (the fused layer of internal/tensor) ---

// benchSink defeats dead-code elimination of pure kernels.
var benchSink float64

func benchVecs(n int, count int) [][]float64 {
	rng := fda.NewRNG(uint64(n))
	out := make([][]float64, count)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = rng.Float64() - 0.5
		}
	}
	return out
}

func BenchmarkKernelDot(b *testing.B) {
	v := benchVecs(4096, 2)
	b.SetBytes(2 * 8 * 4096)
	for i := 0; i < b.N; i++ {
		benchSink += tensor.Dot(v[0], v[1])
	}
}

func BenchmarkKernelAXPY(b *testing.B) {
	v := benchVecs(4096, 2)
	b.SetBytes(3 * 8 * 4096)
	for i := 0; i < b.N; i++ {
		tensor.AXPY(1e-9, v[0], v[1])
	}
}

func BenchmarkKernelAXPY4x2(b *testing.B) {
	v := benchVecs(4096, 6)
	b.SetBytes(8 * 8 * 4096)
	for i := 0; i < b.N; i++ {
		tensor.AXPY4x2(1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9, 7e-9, 8e-9,
			v[0], v[1], v[2], v[3], v[4], v[5])
	}
}

func BenchmarkKernelSubThenSquaredNorm(b *testing.B) {
	v := benchVecs(4096, 3)
	b.SetBytes(3 * 8 * 4096)
	for i := 0; i < b.N; i++ {
		benchSink += tensor.SubThenSquaredNorm(v[0], v[1], v[2])
	}
}

func BenchmarkKernelMatMulBlocked(b *testing.B) {
	const n = 96
	m := benchVecs(n*n, 3)
	am := tensor.MatFrom(n, n, m[0])
	bm := tensor.MatFrom(n, n, m[1])
	dst := tensor.MatFrom(n, n, m[2])
	b.SetBytes(3 * 8 * n * n)
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, am, bm)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Telemetry benches (internal/obs, DESIGN.md §11) ---

// benchSessionStep times one end-to-end Session.Step of a K=4 lenet5s
// run — strategy bookkeeping, fabric collectives and telemetry gates
// included. The ObsOff/ObsOn pair is the telemetry layer's headline
// contrast: with telemetry disabled the instrumentation must cost one
// atomic load per gate, i.e. be unmeasurable against ObsOff's baseline
// noise.
func benchSessionStep(b *testing.B, enable bool) {
	if enable {
		fda.EnableTelemetry()
		defer fda.DisableTelemetry()
	}
	spec, err := fda.ModelByName("lenet5s")
	if err != nil {
		b.Fatal(err)
	}
	train, test := fda.DatasetForModel(spec, 1)
	cfg := fda.Config{
		K: 4, BatchSize: 32, Seed: 1,
		Model: spec.Build, Optimizer: spec.Optimizer,
		Train: train, Test: test,
		MaxSteps: b.N + 1, EvalEvery: 1 << 30,
	}
	sess, err := fda.NewSession(nil, cfg, fda.NewLinearFDA(spec.ThetaGrid[1]))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalStepSessionObsOff(b *testing.B) { benchSessionStep(b, false) }
func BenchmarkLocalStepSessionObsOn(b *testing.B)  { benchSessionStep(b, true) }

// The Obs micro benches price the telemetry primitives themselves, in
// both armed and disarmed states (the disarmed numbers are the cost
// every instrumented call site pays when observability is off).
func BenchmarkObsCounterAddOn(b *testing.B) {
	fda.EnableTelemetry()
	defer fda.DisableTelemetry()
	c := obs.Default.Counter("bench_counter_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsCounterAddOff(b *testing.B) {
	c := obs.Default.Counter("bench_counter_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramObserveOn(b *testing.B) {
	fda.EnableTelemetry()
	defer fda.DisableTelemetry()
	h := obs.Default.Histogram("bench_hist_seconds", "bench", obs.Seconds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*977 + 1)
	}
}

func BenchmarkObsHistogramObserveOff(b *testing.B) {
	h := obs.Default.Histogram("bench_hist_seconds", "bench", obs.Seconds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*977 + 1)
	}
}

func BenchmarkObsSpanDisarmed(b *testing.B) {
	fda.EnableTelemetry()
	defer fda.DisableTelemetry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := obs.StartRegion("bench", "bench")
		sp.End()
	}
}
