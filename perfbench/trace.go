package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/opt"
)

// The traced run times the layers from outside: it wraps the three
// pluggable interfaces a session calls through — comm.Fabric (set via
// Config.Fabric), core.Strategy and the Config.Optimizer factory — and
// subscribes a timestamping event sink. The wrappers only forward, so a
// traced run's Result is byte-identical to an untraced one (checked on
// every traced run).

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id reserves a span id; the span is recorded when it ends.
func (t *tracer) id() int64 { return t.next.Add(1) }

func (t *tracer) record(id, parent int64, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines in start order.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
	return f.Close()
}

// ledger accumulates the step-level layer times of traced sessions, in
// nanoseconds.
type ledger struct {
	steps         int64
	stepNS        int64
	localNS       int64
	stratNS       int64
	stratFabricNS int64
	evalNS        int64
	evals         int64
	fabricNS      int64
	fabricOps     int64
	allreduceNS   int64
	allreduceN    int64
	exchangeNS    int64
	exchangeN     int64
	// jobs, datasetNS and newSessionNS split the admission of traced
	// jobs into JobSpec.BuildConfig (dataset synthesis) and NewSession.
	jobs         int64
	datasetNS    int64
	newSessionNS int64
	// wireBytes is the framed socket traffic of TCP-fabric workers.
	wireBytes int64
	// The optimizer runs on the session's worker goroutines.
	optNS atomic.Int64
	optN  atomic.Int64
}

// add folds o into l; o must no longer be written.
func (l *ledger) add(o *ledger) {
	l.steps += o.steps
	l.stepNS += o.stepNS
	l.localNS += o.localNS
	l.stratNS += o.stratNS
	l.stratFabricNS += o.stratFabricNS
	l.evalNS += o.evalNS
	l.evals += o.evals
	l.fabricNS += o.fabricNS
	l.fabricOps += o.fabricOps
	l.allreduceNS += o.allreduceNS
	l.allreduceN += o.allreduceN
	l.exchangeNS += o.exchangeNS
	l.exchangeN += o.exchangeN
	l.jobs += o.jobs
	l.datasetNS += o.datasetNS
	l.newSessionNS += o.newSessionNS
	l.wireBytes += o.wireBytes
	l.optNS.Add(o.optNS.Load())
	l.optN.Add(o.optN.Load())
}

// report sets the core, opt and comm per-layer metrics.
func (l *ledger) report(r *report) {
	steps := float64(l.steps)
	r.set("core.local_ms", "ms", share(float64(l.localNS), steps)/1e6, int(l.steps))
	r.set("core.strategy_us", "us", share(float64(l.stratNS-l.stratFabricNS), steps)/1e3, int(l.steps))
	r.set("core.eval_ms", "ms", share(float64(l.evalNS), float64(l.evals))/1e6, int(l.evals))
	covered := l.localNS + l.stratNS + l.evalNS
	r.set("core.step_residual_share", "share", share(float64(l.stepNS-covered), float64(l.stepNS)), int(l.steps))
	r.set("opt.step_us", "us", share(float64(l.optNS.Load()), float64(l.optN.Load()))/1e3, int(l.optN.Load()))
	r.set("comm.allreduce_us", "us", share(float64(l.allreduceNS), float64(l.allreduceN))/1e3, int(l.allreduceN))
	r.set("comm.exchange_us", "us", share(float64(l.exchangeNS), float64(l.exchangeN))/1e3, int(l.exchangeN))
	r.set("comm.ops_per_step", "count", share(float64(l.fabricOps), steps), 0)
	r.set("comm.exposed_share", "share", share(float64(l.fabricNS), float64(l.stepNS)), int(l.steps))
	r.set("core.new_session_ms", "ms", share(float64(l.newSessionNS), float64(l.jobs))/1e6, int(l.jobs))
	r.set("data.dataset_ms", "ms", share(float64(l.datasetNS), float64(l.jobs))/1e6, int(l.jobs))
}

// sessionTrace is the tracing state of one session. Its fields are
// written on the stepping goroutine only, except the ledger's optimizer
// counters.
type sessionTrace struct {
	tr  *tracer
	led *ledger
	job int64 // parent span of the session's steps

	stepID, localID, evalID int64
	// cur is the open span fabric operations nest under.
	cur         int64
	stepStart   int64
	stepEventAt int64
	inStrategy  bool
}

func newSessionTrace(tr *tracer, job int64) *sessionTrace {
	return &sessionTrace{tr: tr, led: &ledger{}, job: job}
}

// step drives one traced Session.Step.
func (st *sessionTrace) step(sess *core.Session) (bool, error) {
	st.stepID, st.localID = st.tr.id(), st.tr.id()
	st.cur = st.stepID
	st.stepStart = st.tr.now()
	more, err := sess.Step()
	end := st.tr.now()
	st.led.steps++
	st.led.stepNS += end - st.stepStart
	st.tr.record(st.stepID, st.job, "core.step", st.stepStart, end)
	return more, err
}

// run drives a traced session to completion, like Session.Run.
func (st *sessionTrace) run(sess *core.Session) (core.Result, error) {
	for {
		more, err := st.step(sess)
		if err != nil {
			return sess.Result(), err
		}
		if !more {
			return sess.Result(), nil
		}
	}
}

// sink timestamps the events that bound evaluation: the StepEvent is
// emitted right after the strategy returns, the EvalEvent right after
// the global model is scored.
func (st *sessionTrace) sink(e core.Event) {
	switch e.(type) {
	case core.StepEvent:
		st.stepEventAt = st.tr.now()
		st.evalID = st.tr.id()
		st.cur = st.evalID
	case core.EvalEvent:
		now := st.tr.now()
		st.led.evalNS += now - st.stepEventAt
		st.led.evals++
		st.tr.record(st.evalID, st.stepID, "core.eval", st.stepEventAt, now)
	}
}

// wrapConfig returns cfg with its fabric and optimizer factory wrapped
// and the strategy wrapped for the same session trace. An unset fabric
// is replaced by the in-process cluster NewSession would have built.
func (st *sessionTrace) wrapConfig(cfg core.Config, strat core.Strategy) (core.Config, core.Strategy, error) {
	inner := cfg.Fabric
	if inner == nil {
		cost := cfg.Cost
		if cost.BytesPerParam == 0 {
			cost = comm.DefaultCostModel()
		}
		inner = comm.NewClusterWithCost(cfg.K, cost)
	}
	fab, err := wrapFabric(inner, st)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Fabric = fab
	factory := cfg.Optimizer
	cfg.Optimizer = func() opt.Optimizer { return wrapOptimizer(factory(), st) }
	return cfg, wrapStrategy(strat, st), nil
}

// --- core.Strategy ---

type tracedStrategy struct {
	inner core.Strategy
	st    *sessionTrace
}

// resumableStrategy is the optional checkpoint face Session.Snapshot
// probes a strategy for.
type resumableStrategy interface {
	StateSnapshot() (vecs [][]float64, counters []uint64)
	RestoreState(vecs [][]float64, counters []uint64) error
}

type tracedResumableStrategy struct {
	*tracedStrategy
	res resumableStrategy
}

func (s tracedResumableStrategy) StateSnapshot() ([][]float64, []uint64) {
	return s.res.StateSnapshot()
}

func (s tracedResumableStrategy) RestoreState(vecs [][]float64, counters []uint64) error {
	return s.res.RestoreState(vecs, counters)
}

func wrapStrategy(inner core.Strategy, st *sessionTrace) core.Strategy {
	t := &tracedStrategy{inner: inner, st: st}
	if res, ok := inner.(resumableStrategy); ok {
		return tracedResumableStrategy{t, res}
	}
	return t
}

func (s *tracedStrategy) Name() string       { return s.inner.Name() }
func (s *tracedStrategy) Init(env *core.Env) { s.inner.Init(env) }

// AfterLocalStep ends the step's local phase (every worker's local
// update) and times the strategy; fabric time inside it is subtracted
// for core.strategy_us.
func (s *tracedStrategy) AfterLocalStep(env *core.Env, t int) {
	st := s.st
	enter := st.tr.now()
	st.led.localNS += enter - st.stepStart
	st.tr.record(st.localID, st.stepID, "core.local", st.stepStart, enter)
	id := st.tr.id()
	st.cur, st.inStrategy = id, true
	s.inner.AfterLocalStep(env, t)
	exit := st.tr.now()
	st.cur, st.inStrategy = st.stepID, false
	st.led.stratNS += exit - enter
	st.tr.record(id, st.stepID, "core.strategy", enter, exit)
}

// --- opt.Optimizer ---

type tracedOptimizer struct {
	inner opt.Optimizer
	st    *sessionTrace
}

type tracedSnapOptimizer struct {
	*tracedOptimizer
	snap opt.Snapshotter
}

func (o tracedSnapOptimizer) StateSnapshot() ([][]float64, []uint64) {
	return o.snap.StateSnapshot()
}

func (o tracedSnapOptimizer) RestoreState(vecs [][]float64, counters []uint64) error {
	return o.snap.RestoreState(vecs, counters)
}

func wrapOptimizer(inner opt.Optimizer, st *sessionTrace) opt.Optimizer {
	t := &tracedOptimizer{inner: inner, st: st}
	if snap, ok := inner.(opt.Snapshotter); ok {
		return tracedSnapOptimizer{t, snap}
	}
	return t
}

func (o *tracedOptimizer) Reset()       { o.inner.Reset() }
func (o *tracedOptimizer) Name() string { return o.inner.Name() }

// Step runs on a worker goroutine; localID was set before the session
// dispatched the workers.
func (o *tracedOptimizer) Step(params, grads []float64) {
	st := o.st
	start := st.tr.now()
	o.inner.Step(params, grads)
	end := st.tr.now()
	st.led.optNS.Add(end - start)
	st.led.optN.Add(1)
	st.tr.record(st.tr.id(), st.localID, "opt.step", start, end)
}

// --- comm.Fabric ---

type tracedFabric struct {
	inner comm.Fabric
	st    *sessionTrace
}

// timedFabric is the time-modeling face a session and the compressed
// sync path probe a fabric for (comm.SimFabric implements all three).
type timedFabric interface {
	comm.StepTimer
	comm.VirtualClocker
	comm.TransferTimer
}

type tracedTimedFabric struct {
	*tracedFabric
	timed timedFabric
}

func (f tracedTimedFabric) StepDone(t int)               { f.timed.StepDone(t) }
func (f tracedTimedFabric) VirtualTime() float64         { return f.timed.VirtualTime() }
func (f tracedTimedFabric) SetVirtualTime(sec float64)   { f.timed.SetVirtualTime(sec) }
func (f tracedTimedFabric) TransferDone(b int64) float64 { return f.timed.TransferDone(b) }

// wrapFabric wraps inner, forwarding its time-modeling interfaces. A
// fabric implementing only part of them cannot be wrapped without
// changing what the session sees, so it is refused.
func wrapFabric(inner comm.Fabric, st *sessionTrace) (comm.Fabric, error) {
	t := &tracedFabric{inner: inner, st: st}
	if timed, ok := inner.(timedFabric); ok {
		return tracedTimedFabric{t, timed}, nil
	}
	_, step := inner.(comm.StepTimer)
	_, clock := inner.(comm.VirtualClocker)
	_, transfer := inner.(comm.TransferTimer)
	if step || clock || transfer {
		return nil, fmt.Errorf("fabric %T implements only part of the time-modeling interfaces", inner)
	}
	return t, nil
}

func (f *tracedFabric) K() int               { return f.inner.K() }
func (f *tracedFabric) Ranks() []int         { return f.inner.Ranks() }
func (f *tracedFabric) Meter() *comm.Meter   { return f.inner.Meter() }
func (f *tracedFabric) Cost() comm.CostModel { return f.inner.Cost() }
func (f *tracedFabric) Close() error         { return f.inner.Close() }

// done records one fabric operation. charged collectives count toward
// comm.allreduce_us, uncharged exchanges toward comm.exchange_us.
func (f *tracedFabric) done(name string, start int64, charged bool) {
	st := f.st
	end := st.tr.now()
	d := end - start
	st.led.fabricNS += d
	st.led.fabricOps++
	if st.inStrategy {
		st.led.stratFabricNS += d
	}
	if charged {
		st.led.allreduceNS += d
		st.led.allreduceN++
	} else {
		st.led.exchangeNS += d
		st.led.exchangeN++
	}
	st.tr.record(st.tr.id(), st.cur, name, start, end)
}

func (f *tracedFabric) AllReduce(kind string, local [][]float64) comm.CostReport {
	start := f.st.tr.now()
	rep := f.inner.AllReduce(kind, local)
	f.done("comm.allreduce", start, true)
	return rep
}

func (f *tracedFabric) AllReduceMean(kind string, dst []float64, local [][]float64) comm.CostReport {
	start := f.st.tr.now()
	rep := f.inner.AllReduceMean(kind, dst, local)
	f.done("comm.allreduce_mean", start, true)
	return rep
}

func (f *tracedFabric) Broadcast(kind string, root int, local [][]float64) comm.CostReport {
	start := f.st.tr.now()
	rep := f.inner.Broadcast(kind, root, local)
	f.done("comm.broadcast", start, true)
	return rep
}

func (f *tracedFabric) Gather(local [][]float64) [][]float64 {
	start := f.st.tr.now()
	all := f.inner.Gather(local)
	f.done("comm.gather", start, false)
	return all
}

func (f *tracedFabric) ExchangeBytes(kind string, local [][]byte) [][]byte {
	start := f.st.tr.now()
	all := f.inner.ExchangeBytes(kind, local)
	f.done("comm.exchange_bytes", start, false)
	return all
}
