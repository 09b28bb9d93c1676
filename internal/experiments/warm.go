package experiments

import (
	"fmt"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// cellWarm is one grid cell's warm-start context: the snapshot store to
// consult and publish through, the cell's registry spec (whose
// trajectory-determining fields key the prefix addresses), the
// publication cadence and the sweep's counters.
type cellWarm struct {
	store *runstore.Store
	spec  runstore.Spec
	every int
	stats *SweepStats
}

// warmCell returns the warm-start context for one grid cell, or nil when
// warm starts are off or no store is attached — runWarm degrades to
// core.MustRun on nil.
func (o Options) warmCell(spec runstore.Spec) *cellWarm {
	if !o.Warm || o.Store == nil {
		return nil
	}
	return &cellWarm{store: o.Store, spec: spec, every: o.WarmEvery, stats: o.Stats}
}

// runWarm is core.MustRun with prefix-keyed snapshot reuse (DESIGN.md
// §10). When the strategy shares a prefix family, the cell first
// restores the longest stored trajectory prefix it can prove it would
// have produced itself (sharer.AcceptPrefix over the published guard),
// then trains only the divergent tail while publishing its own
// pre-first-sync prefixes for sibling cells. The returned result is
// bit-identical to a cold run's: restores are gated on the exact
// complement of the strategy's synchronization predicate, and snapshot
// store failures only cost reuse, never correctness.
func runWarm(cfg core.Config, strat core.Strategy, warm *cellWarm) core.Result {
	sharer, ok := strat.(core.PrefixSharer)
	if warm == nil || !ok {
		return core.MustRun(cfg, strat)
	}
	sess, err := core.NewSession(nil, cfg, strat)
	if err != nil {
		panic(err)
	}
	prefix := warm.spec.Prefix(sharer.PrefixFamily())

	// Restore the longest admissible stored prefix, if any. baseGuard
	// carries the restored manifest's guard forward: the session never
	// re-observes the restored steps' statistics, so its own running
	// maximum restarts low and republished prefixes must take the max.
	var baseGuard float64
	rsp := obs.StartRegion("warmstart.restore", "runstore")
	restored := 0
	if blob, m, found, err := warm.store.BestSnapshot(prefix, cfg.MaxSteps, sharer.AcceptPrefix); err != nil || found {
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: snapshot store: %v\n", err)
		}
		if found {
			snap, err := checkpoint.Unmarshal(blob)
			if err == nil {
				err = sess.Restore(snap)
			}
			if err != nil {
				// The blob was CRC-verified and its spec re-hashed, so a
				// restore failure is a shape bug, not data rot. Surfacing it
				// as a panic matches MustRun's contract.
				panic(fmt.Errorf("experiments: restore prefix %s@%d: %w", m.Hash, m.Steps, err))
			}
			baseGuard = m.Guard
			restored = m.Steps
			if warm.stats != nil {
				warm.stats.SnapshotHits.Add(1)
				warm.stats.StepsSaved.Add(int64(m.Steps))
			}
		}
	}
	if rsp.Active() {
		rsp.EndArgs("restored_steps", restored, "hit", restored > 0)
	}

	every := warm.every
	if every <= 0 {
		every = cfg.EvalEvery
	}
	if every <= 0 {
		every = 1
	}
	if err := sess.PublishPrefixes(every, func(steps int, snap *checkpoint.Snapshot) {
		guard := sharer.PrefixGuard()
		if baseGuard > guard {
			guard = baseGuard
		}
		blob, err := checkpoint.Marshal(snap)
		if err == nil {
			err = warm.store.PutSnapshot(prefix, steps, guard, blob)
		}
		if err != nil {
			// Publication failures cost siblings a warm start, nothing else.
			fmt.Fprintf(os.Stderr, "experiments: snapshot publish: %v\n", err)
		}
	}); err != nil {
		panic(err)
	}

	res, err := sess.Run()
	if err != nil {
		panic(err)
	}
	return res
}

// ThetaSweep ("thetasweep") is the warm-start showcase grid: every FDA
// variant across the model's Θ grid at fixed K, with all cells of one
// variant sharing a single trajectory seed. Θ only decides when the
// first synchronization fires, so with Options.Warm each cell serves
// its siblings trajectory-prefix snapshots and the sweep's wall clock
// collapses toward one trajectory per variant plus divergent tails —
// BenchmarkSweepThetaCold/_Warm measure cold vs warm.
func ThetaSweep(o Options) []Record {
	lw := newLazyWorkload("lenet5s", o.Seed)
	// The grid extends past the paper's ThetaGrid into the late-sync
	// regime: the silent prefix ahead of the first synchronization grows
	// roughly linearly in Θ (≈14 steps at the paper grid's top for
	// LinearFDA, ≈190 — the whole run — for OracleFDA at 8×), and warm
	// starts can only ever reuse that prefix. Small-Θ cells sync within
	// a handful of steps and would dilute the showcase to noise.
	top := lw.spec.ThetaGrid[len(lw.spec.ThetaGrid)-1]
	thetas := []float64{top, 2 * top, 4 * top, 8 * top}
	if o.Scale == Tiny {
		thetas = thetas[1:]
	}
	const fixedK = 5
	targets := []float64{0.93}

	type cell struct {
		strat string
		theta float64
		seed  uint64
	}
	var cells []cell
	seed := o.Seed + 5000
	for _, strat := range []string{"LinearFDA", "SketchFDA", "OracleFDA"} {
		// One trajectory seed for the whole Θ series: that is what makes
		// the cells prefix-siblings rather than independent trajectories.
		seed++
		for _, th := range thetas {
			cells = append(cells, cell{strat, th, seed})
		}
	}
	specs := make([]runstore.Spec, len(cells))
	for i, c := range cells {
		specs[i] = o.cellSpec("thetasweep", "lenet5s", c.strat, c.theta, fixedK, "iid", targets, c.seed)
	}
	recs := flatten(runGrid(o, specs, func(i int) []Record {
		c := cells[i]
		return runToTargetsWarm("thetasweep", lw.get(), c.strat, c.theta, fixedK,
			data.IID(), targets, c.seed, o.warmCell(specs[i]))
	}))
	printRecords(o.out(), fmt.Sprintf("thetasweep — %s: cost vs Θ (K=%d, shared trajectory seeds)",
		lw.spec.PaperModel, fixedK), recs)
	return recs
}
