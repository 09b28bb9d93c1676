package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// The train workload runs back-to-back in-process sessions, each to a
// target accuracy every seed reaches well inside its step cap. A pass is
// one job per spec below, all under one pass seed; the run does a fixed
// number of passes sized from -seconds, so two versions of the program
// do the same work and count the same bytes.

const (
	// trainPassSec is the measured duration of one train pass (2 vCPU).
	trainPassSec = 3.5
	// trainLimit is the job latency limit goodput counts against.
	trainLimit = 10 * time.Second
	// setupReps is how many times a run sets up to report setup_s.
	setupReps = 5
)

// densenetSeeds are the training seeds of the densenet121s jobs. They
// are fixed rather than drawn from the workload seed: densenet121s's
// steps to its target vary threefold across seeds, and some seeds sit at
// chance accuracy for over a hundred steps under LinearFDA, which would
// swamp every time metric of the workload. The lenet5s jobs, which vary
// far less, draw their seeds from the workload seed.
var densenetSeeds = []uint64{184110593, 160466513, 539770623, 575661148}

// trainPass returns the jobs of pass p: lenet5s under the three
// strategies FDA is compared on, each under its own seed from seeds,
// plus densenet121s under LinearFDA; all with K=4.
func trainPass(p int, seeds []uint64) []dist.JobSpec {
	lenet := func(strategy string, seed uint64) dist.JobSpec {
		return dist.JobSpec{Model: "lenet5s", Strategy: strategy, K: 4, Batch: 32,
			Steps: 400, EvalEvery: 10, Target: 0.8, Seed: seed}.WithDefaults()
	}
	return []dist.JobSpec{
		lenet("LinearFDA", seeds[0]), lenet("SketchFDA", seeds[1]), lenet("Synchronous", seeds[2]),
		dist.JobSpec{Model: "densenet121s", Strategy: "LinearFDA", K: 4, Batch: 32,
			Steps: 400, EvalEvery: 10, Target: 0.5, Seed: densenetSeeds[p%len(densenetSeeds)]}.WithDefaults(),
	}
}

// jobSeeds derives n training seeds from the workload seed.
func jobSeeds(seed uint64, n int) []uint64 {
	rng := tensor.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 + rng.Uint64()%1_000_000_000
	}
	return out
}

// passes sizes a run: how many passes of passSec fit in seconds.
func passes(seconds, passSec float64) int {
	n := int(seconds/passSec + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// jobOutcome is one finished training job.
type jobOutcome struct {
	spec dist.JobSpec
	// admit is the time from the job's start until its first step can
	// run; train is the time from there until the run ended.
	admit, train time.Duration
	res          core.Result
	body         []byte // the Result as JSON: the byte-identity currency
	err          error
}

func (j jobOutcome) ok() bool { return j.err == nil && j.res.ReachedTarget }

// runLocalJob builds and runs one job in-process: JobSpec.BuildConfig
// (dataset synthesis), the strategy, NewSession, then the session to its
// target. A non-nil tr traces it into led.
func runLocalJob(ctx context.Context, spec dist.JobSpec, parallelism int, tr *tracer, led *ledger) jobOutcome {
	out := jobOutcome{spec: spec}
	start := time.Now()
	var st *sessionTrace
	var jobStart int64
	if tr != nil {
		st = newSessionTrace(tr, tr.id())
		jobStart = tr.now()
	}
	cfg, err := spec.BuildConfig()
	if err != nil {
		out.err = err
		return out
	}
	cfg.Parallelism = parallelism
	dataDone := time.Now()
	sess, err := newSession(ctx, spec, cfg, st)
	built := time.Now()
	if err != nil {
		out.err = err
		return out
	}
	out.admit = built.Sub(start)
	out.res, out.err = finishSession(sess, st)
	out.train = time.Since(built)
	if st != nil {
		st.led.jobs++
		st.led.datasetNS += int64(dataDone.Sub(start))
		st.led.newSessionNS += int64(built.Sub(dataDone))
		led.add(st.led)
		tr.record(st.job, 0, "train.job", jobStart, tr.now())
	}
	if out.err == nil {
		out.body, out.err = json.Marshal(out.res)
	}
	return out
}

// newSession builds the spec's strategy and session from cfg; with a
// non-nil st the fabric, strategy and optimizer are wrapped and the
// event sink subscribed.
func newSession(ctx context.Context, spec dist.JobSpec, cfg core.Config, st *sessionTrace) (*core.Session, error) {
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		return nil, err
	}
	if st != nil {
		if cfg, strat, err = st.wrapConfig(cfg, strat); err != nil {
			return nil, err
		}
	}
	sess, err := core.NewSession(ctx, cfg, strat)
	if err != nil {
		return nil, err
	}
	if st != nil {
		sess.Subscribe(st.sink)
	}
	return sess, nil
}

// finishSession runs a session to its end, traced step by step when st
// is non-nil.
func finishSession(sess *core.Session, st *sessionTrace) (core.Result, error) {
	if st != nil {
		return st.run(sess)
	}
	return sess.Run()
}

// jobStats turns finished jobs into the end-to-end metrics of the train
// and dist workloads, over a measured wall-clock span.
func jobStats(r *report, jobs []jobOutcome, wall time.Duration, limit time.Duration) {
	var steps, good, failed int
	var jobMS, admitMS, trainS, commMB []float64
	for _, j := range jobs {
		if !j.ok() {
			failed++
			if j.err != nil {
				fmt.Printf("job %s/%s seed %d failed: %v\n", j.spec.Model, j.spec.Strategy, j.spec.Seed, j.err)
			} else {
				fmt.Printf("job %s/%s seed %d missed its target in %d steps\n", j.spec.Model, j.spec.Strategy, j.spec.Seed, j.res.Steps)
			}
			continue
		}
		steps += j.res.Steps
		total := j.admit + j.train
		if total <= limit {
			good++
		}
		jobMS = append(jobMS, ms(total))
		admitMS = append(admitMS, ms(j.admit))
		trainS = append(trainS, sec(j.train))
		commMB = append(commMB, float64(j.res.CommBytes)/1e6)
	}
	r.ops(len(jobs), failed)
	n := len(jobMS)
	r.set("steps_per_s", "1/s", float64(steps)/sec(wall), n)
	r.set("time_to_target_s", "s", median(trainS), n)
	r.set("comm_MB_to_target", "MB", mean(commMB), n)
	r.set("job_ms_p50", "ms", median(jobMS), n)
	r.set("job_ms_p90", "ms", quantile(jobMS, 0.9), n)
	r.set("admit_ms_p50", "ms", median(admitMS), n)
	r.set("admit_ms_p90", "ms", quantile(admitMS, 0.9), n)
	r.set("goodput_jobs_per_s", "1/s", float64(good)/sec(wall), n)
	r.set("ok_share", "share", share(float64(len(jobs)-failed), float64(len(jobs))), len(jobs))
}

// setRSS reports this process's peak RSS.
func setRSS(r *report) error {
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.set("peak_rss_MB", "MB", rss, 0)
	return nil
}

// trainPlan lists a run's jobs: n passes under seeds derived from seed.
func trainPlan(seed uint64, n int) []dist.JobSpec {
	seeds := jobSeeds(seed, 3*n)
	var plan []dist.JobSpec
	for p := 0; p < n; p++ {
		plan = append(plan, trainPass(p, seeds[3*p:])...)
	}
	return plan
}

// setupTrain times the set-up of one pass — every spec's datasets,
// strategy and session, up to the first step — setupReps times.
func setupTrain(ctx context.Context, pass []dist.JobSpec, parallelism int) (float64, error) {
	var reps []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		for _, spec := range pass {
			cfg, err := spec.BuildConfig()
			if err != nil {
				return 0, err
			}
			cfg.Parallelism = parallelism
			if _, err := newSession(ctx, spec, cfg, nil); err != nil {
				return 0, err
			}
		}
		reps = append(reps, sec(time.Since(start)))
	}
	return median(reps), nil
}

func runTrain(o options, r *report) error {
	ctx := context.Background()
	plan := trainPlan(o.seed, passes(o.seconds, trainPassSec))
	setup, err := setupTrain(ctx, plan[:4], o.procs)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup, setupReps)

	jobs := make([]jobOutcome, 0, len(plan))
	start := time.Now()
	for _, spec := range plan {
		jobs = append(jobs, runLocalJob(ctx, spec, o.procs, nil, nil))
	}
	wall := time.Since(start)
	jobStats(r, jobs, wall, trainLimit)

	// A repeated (spec, seed) must give a byte-identical Result.
	again := runLocalJob(ctx, plan[0], o.procs, nil, nil)
	r.ops(1, 0)
	checkSame(r, "repeated train job", plan[0], jobs[0].body, again.body)
	return setRSS(r)
}

// checkSame records a correctness problem unless two Result encodings
// of the same job are byte-identical.
func checkSame(r *report, what string, spec dist.JobSpec, want, got []byte) {
	if len(want) == 0 || !bytes.Equal(want, got) {
		r.problem("%s %s/%s seed %d: Result differs\n  want %s\n  got  %s", what, spec.Model, spec.Strategy, spec.Seed, want, got)
	}
}

// tracedTrain runs the same jobs twice, untraced then traced, checks the
// Results are byte-identical, reports the traced layer times and the
// tracing overhead on steps_per_s.
func tracedTrain(o options, r *report) error {
	ctx := context.Background()
	plan := trainPlan(o.seed, passes(o.seconds/2, trainPassSec))
	plain, plainWall := runJobs(plan, func(spec dist.JobSpec) jobOutcome {
		return runLocalJob(ctx, spec, o.procs, nil, nil)
	})
	tr := newTracer()
	led := &ledger{}
	traced, tracedWall := runJobs(plan, func(spec dist.JobSpec) jobOutcome {
		return runLocalJob(ctx, spec, o.procs, tr, led)
	})
	compareRuns(r, "traced train job", plain, traced)
	traceOverhead(r, plain, plainWall, traced, tracedWall)
	copyLatencies(r, plain, plainWall, trainLimit)
	led.report(r)
	chargedPerStep(r, traced)
	r.set("comm.wire_MB", "MB", 0, len(traced))
	return tr.write(filepath.Join(o.workDir, fmt.Sprintf("spans-train-seed%d.jsonl", o.seed)))
}

// runJobs runs plan through one job function and times the whole.
func runJobs(plan []dist.JobSpec, run func(dist.JobSpec) jobOutcome) ([]jobOutcome, time.Duration) {
	out := make([]jobOutcome, 0, len(plan))
	start := time.Now()
	for _, spec := range plan {
		out = append(out, run(spec))
	}
	return out, time.Since(start)
}

// compareRuns checks two runs of the same plan job by job.
func compareRuns(r *report, what string, want, got []jobOutcome) {
	failed := 0
	for i := range want {
		if !want[i].ok() || !got[i].ok() {
			failed++
		}
		checkSame(r, what, want[i].spec, want[i].body, got[i].body)
	}
	r.ops(len(want)+len(got), failed)
}

// copyLatencies reports the untraced jobs' latency percentiles among the
// per-layer metrics: on a noisy two-core machine they vary between runs
// by more than any regression bound, so they are diagnostics, not gates.
func copyLatencies(r *report, jobs []jobOutcome, wall, limit time.Duration) {
	e2e := newReport()
	jobStats(e2e, jobs, wall, limit)
	r.copyFrom(e2e, "job_ms_p50", "job_ms_p90", "admit_ms_p50", "admit_ms_p90")
}

// traceOverhead reports the share of steps_per_s the tracing costs.
func traceOverhead(r *report, plain []jobOutcome, plainWall time.Duration, traced []jobOutcome, tracedWall time.Duration) {
	rate := func(jobs []jobOutcome, wall time.Duration) float64 {
		steps := 0
		for _, j := range jobs {
			steps += j.res.Steps
		}
		return float64(steps) / sec(wall)
	}
	p, t := rate(plain, plainWall), rate(traced, tracedWall)
	r.set("bench.trace_overhead_share", "share", share(p-t, p), len(traced))
}

// chargedPerStep reports the charged communication per step.
func chargedPerStep(r *report, jobs []jobOutcome) {
	var bytes, steps int64
	for _, j := range jobs {
		bytes += j.res.CommBytes
		steps += int64(j.res.Steps)
	}
	r.set("comm.charged_kB_per_step", "kB", share(float64(bytes), float64(steps))/1e3, len(jobs))
}
