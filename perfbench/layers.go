package main

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/tensor"
)

// lossGradReps is how many batches each direct LossGradBatch probe
// times, per model.
var lossGradReps = map[string]int{"lenet5s": 60, "densenet121s": 20}

// probeLayers times the nn layer directly: Network.LossGradBatch on a
// batch of 32, for each model the workloads train. It reports the median
// call time.
func probeLayers(o options, r *report) error {
	for _, name := range []string{"lenet5s", "densenet121s"} {
		spec, err := models.ByName(name)
		if err != nil {
			return err
		}
		train, _ := models.DatasetFor(spec, o.seed)
		rng := tensor.NewRNG(o.seed)
		net := spec.Build(rng.Split())
		sampler := data.NewSampler(train, rng.Split())
		reps := lossGradReps[name]
		times := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			b := sampler.Sample(32)
			start := time.Now()
			net.LossGradBatch(b)
			times = append(times, ms(time.Since(start)))
		}
		r.set("nn.lossgrad_ms."+name, "ms", median(times), reps)
	}
	r.ops(1, 0)
	return checkTimedFabric(o, r)
}

// checkTimedFabric runs a short job on the simulated fabric untraced and
// traced and compares the Results. The workloads run no time-modelling
// fabric, so this is what shows the fabric wrapper forwards the
// interfaces the session probes: a dropped StepTimer or VirtualClocker
// would change the virtual clock in the Result.
func checkTimedFabric(o options, r *report) error {
	spec := dist.JobSpec{Model: "lenet5s", Strategy: "LinearFDA", K: 2, Batch: 32,
		Steps: 20, EvalEvery: 10, Seed: o.seed}.WithDefaults()
	run := func(traced bool) ([]byte, error) {
		cfg, err := spec.BuildConfig()
		if err != nil {
			return nil, err
		}
		cfg.Fabric = comm.NewSimFabric(spec.K, comm.DefaultCostModel(), comm.ScenarioStraggler)
		var st *sessionTrace
		if traced {
			st = newSessionTrace(newTracer(), 0)
		}
		sess, err := newSession(context.Background(), spec, cfg, st)
		if err != nil {
			return nil, err
		}
		res, err := finishSession(sess, st)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	want, err := run(false)
	if err != nil {
		return err
	}
	got, err := run(true)
	if err != nil {
		return err
	}
	r.ops(2, 0)
	checkSame(r, "traced simulated-fabric job", spec, want, got)
	return nil
}
