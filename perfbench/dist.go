package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
)

// The dist workload runs the lenet5s train specs as distributed jobs on
// the real loopback TCP fabric: one comm.Coordinator driven by
// dist.Coordinate, and K=2 worker sessions inside this process, one
// socket each. Under Synchronous the fabric carries the full model every
// step; under the FDA variants it carries a small state vector.

const (
	// distPassSec is the measured duration of one dist pass (2 vCPU).
	distPassSec = 1.6
	// distLimit is the job latency limit goodput counts against.
	distLimit = 5 * time.Second
	// distJobTimeout bounds one job, so a worker that never joins fails
	// the run instead of hanging it.
	distJobTimeout = 60 * time.Second
)

// distPlan lists a run's jobs: n passes of the three strategies, each
// job under its own seed derived from the workload seed.
func distPlan(seed uint64, n int) []dist.JobSpec {
	strategies := []string{"LinearFDA", "SketchFDA", "Synchronous"}
	var plan []dist.JobSpec
	for i, s := range jobSeeds(seed, len(strategies)*n) {
		plan = append(plan, dist.JobSpec{Model: "lenet5s", Strategy: strategies[i%len(strategies)], K: 2, Batch: 32,
			Steps: 400, EvalEvery: 10, Target: 0.8, Seed: s}.WithDefaults())
	}
	return plan
}

// workerOutcome is one worker's view of a distributed job.
type workerOutcome struct {
	join          time.Duration // DialFabric until the rank is assigned
	built         time.Time     // session ready for its first step
	wireTx, wireR int64
	st            *sessionTrace
	err           error
}

// runWorker is dist.RunWorker rebuilt from the public calls it makes
// (DialFabric, JobSpec.BuildConfig/BuildStrategy, NewSession,
// SendResult), so the traced run can wrap the fabric. With stop set, the
// worker returns once its session is built, without training.
func runWorker(ctx context.Context, addr string, tr *tracer, job int64, stop bool) (out workerOutcome) {
	dialStart := time.Now()
	fab, payload, err := comm.DialFabric(ctx, addr, comm.DefaultCostModel())
	out.join = time.Since(dialStart)
	if err != nil {
		out.err = err
		return out
	}
	defer fab.Close()
	if tr != nil {
		tr.record(tr.id(), job, "dist.join", tr.now()-int64(out.join), tr.now())
		out.st = newSessionTrace(tr, job)
	}
	var spec dist.JobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		out.err = fmt.Errorf("decoding job spec: %w", err)
		return out
	}
	spec = spec.WithDefaults()
	cfg, err := spec.BuildConfig()
	if err != nil {
		out.err = err
		return out
	}
	cfg.Fabric = fab
	cfg.Parallelism = 1
	dataDone := time.Now()
	sess, err := newSession(ctx, spec, cfg, out.st)
	out.built = time.Now()
	if out.st != nil {
		out.st.led.jobs++
		out.st.led.datasetNS += int64(dataDone.Sub(dialStart) - out.join)
		out.st.led.newSessionNS += int64(out.built.Sub(dataDone))
	}
	if err != nil || stop {
		out.err = err
		return out
	}
	res, err := runFabricSession(sess, out.st)
	if err != nil {
		out.err = err
		return out
	}
	body, err := json.Marshal(res)
	if err != nil {
		out.err = err
		return out
	}
	if err := fab.SendResult(body); err != nil {
		out.err = fmt.Errorf("reporting result: %w", err)
		return out
	}
	out.wireTx, out.wireR = fab.WireBytes()
	return out
}

// runFabricSession runs a session to its end, converting fabric
// transport panics into errors as dist.RunWorker does.
func runFabricSession(sess *core.Session, st *sessionTrace) (res core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			var fe *comm.FabricError
			if e, ok := p.(error); ok && errors.As(e, &fe) {
				err = fe
				return
			}
			panic(p)
		}
	}()
	return finishSession(sess, st)
}

// runDistJob runs one job on coord: K worker goroutines join and train
// while dist.Coordinate relays and verifies. A non-nil tr traces the
// workers into led; joins collects their join times.
func runDistJob(coord *comm.Coordinator, spec dist.JobSpec, tr *tracer, led *ledger, joins *[]float64) jobOutcome {
	ctx, cancel := context.WithTimeout(context.Background(), distJobTimeout)
	defer cancel()
	out := jobOutcome{spec: spec}
	var jobID, jobStart int64
	if tr != nil {
		jobID, jobStart = tr.id(), tr.now()
	}
	start := time.Now()
	workers := make([]workerOutcome, spec.K)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workers[w] = runWorker(ctx, coord.Addr(), tr, jobID, false)
		}(w)
	}
	out.res, out.err = dist.Coordinate(ctx, coord, spec)
	wg.Wait()
	end := time.Now()
	built := start
	for _, w := range workers {
		if w.err != nil && out.err == nil {
			out.err = w.err
		}
		if w.built.After(built) {
			built = w.built
		}
		if joins != nil {
			*joins = append(*joins, ms(w.join))
		}
		if w.st != nil {
			led.add(w.st.led)
		}
		led.wireBytes += w.wireTx + w.wireR
	}
	out.admit, out.train = built.Sub(start), end.Sub(built)
	if tr != nil {
		tr.record(jobID, 0, "dist.job", jobStart, tr.now())
	}
	if out.err == nil {
		out.body, out.err = json.Marshal(out.res)
	}
	return out
}

// setupDist times, setupReps times, the set-up of a distributed job:
// a coordinator listening, K workers joined, each worker's datasets and
// session built. The sessions are then dropped without training.
func setupDist(spec dist.JobSpec) (float64, error) {
	var reps []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		coord, err := comm.ListenCoordinator("127.0.0.1:0", spec.K)
		if err != nil {
			return 0, err
		}
		job, err := json.Marshal(spec)
		if err != nil {
			return 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), distJobTimeout)
		served := make(chan struct{})
		go func() {
			defer close(served)
			coord.Serve(ctx, job) // ends in a transport error once the workers leave
		}()
		workers := make([]workerOutcome, spec.K)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				workers[w] = runWorker(ctx, coord.Addr(), nil, 0, true)
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		cancel()
		<-served
		coord.Close()
		for _, w := range workers {
			if w.err != nil {
				return 0, w.err
			}
		}
		reps = append(reps, sec(elapsed))
	}
	return median(reps), nil
}

func runDist(o options, r *report) error {
	plan := distPlan(o.seed, passes(o.seconds, distPassSec))
	setup, err := setupDist(plan[0])
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup, setupReps)

	coord, err := comm.ListenCoordinator("127.0.0.1:0", 2)
	if err != nil {
		return err
	}
	defer coord.Close()
	jobs, wall := runJobs(plan, func(spec dist.JobSpec) jobOutcome {
		return runDistJob(coord, spec, nil, &ledger{}, nil)
	})
	jobStats(r, jobs, wall, distLimit)
	if err := setRSS(r); err != nil {
		return err
	}

	// Each distributed Result must equal the in-process run of the same
	// spec (the cross-fabric parity contract), and a repeat must match.
	ctx := context.Background()
	for _, j := range jobs {
		ref := runLocalJob(ctx, j.spec, o.procs, nil, nil)
		checkSame(r, "dist job vs in-process", j.spec, ref.body, j.body)
	}
	again := runDistJob(coord, plan[0], nil, &ledger{}, nil)
	r.ops(len(jobs)+1, 0)
	checkSame(r, "repeated dist job", plan[0], jobs[0].body, again.body)
	return nil
}

func tracedDist(o options, r *report) error {
	return traceDistPlan(o, r, distPlan(o.seed, passes(o.seconds/2, distPassSec)))
}

// miniDist is the dist layer probe: one LinearFDA job.
func miniDist(o options, r *report) error {
	return traceDistPlan(o, r, distPlan(o.seed, 1)[:1])
}

// traceDistPlan runs plan untraced and then traced on one coordinator,
// checks the Results are byte-identical and reports the layer times.
func traceDistPlan(o options, r *report, plan []dist.JobSpec) error {
	coord, err := comm.ListenCoordinator("127.0.0.1:0", 2)
	if err != nil {
		return err
	}
	defer coord.Close()
	plain, plainWall := runJobs(plan, func(spec dist.JobSpec) jobOutcome {
		return runDistJob(coord, spec, nil, &ledger{}, nil)
	})
	tr := newTracer()
	led := &ledger{}
	var joins []float64
	traced, tracedWall := runJobs(plan, func(spec dist.JobSpec) jobOutcome {
		return runDistJob(coord, spec, tr, led, &joins)
	})
	compareRuns(r, "traced dist job", plain, traced)
	traceOverhead(r, plain, plainWall, traced, tracedWall)
	copyLatencies(r, plain, plainWall, distLimit)
	led.report(r)
	chargedPerStep(r, traced)
	r.set("comm.wire_MB", "MB", float64(led.wireBytes)/1e6/float64(len(traced)), len(traced))
	r.set("dist.join_ms", "ms", mean(joins), len(joins))
	return tr.write(filepath.Join(o.workDir, fmt.Sprintf("spans-dist-seed%d.jsonl", o.seed)))
}
