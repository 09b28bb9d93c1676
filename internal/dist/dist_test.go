package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
)

// testSpec is a fast distributed job: the smallest zoo model, two
// workers, a handful of steps.
func testSpec() JobSpec {
	return JobSpec{
		Model: "lenet5s", Strategy: "LinearFDA", Theta: 0.1,
		K: 2, Batch: 16, Steps: 24, EvalEvery: 8, Seed: 9,
	}
}

// runDistributed executes spec as a real coordinator + K worker
// processes collapsed into goroutines (same code paths, same wire
// protocol, loopback sockets).
func runDistributed(t *testing.T, spec JobSpec) (core.Result, []core.Result) {
	t.Helper()
	coord, err := comm.ListenCoordinator("127.0.0.1:0", spec.K)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	workerRes := make([]core.Result, spec.K)
	workerErr := make([]error, spec.K)
	for w := 0; w < spec.K; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, rank, err := RunWorker(ctx, coord.Addr(), 1)
			if err != nil {
				workerErr[w] = err
				return
			}
			workerRes[rank] = res
		}(w)
	}
	res, err := Coordinate(ctx, coord, spec)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	for w, werr := range workerErr {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}
	return res, workerRes
}

// TestDistributedMatchesLocal pins the whole dist stack: a coordinator
// driving RunWorker processes over real sockets produces exactly the
// Result (accuracy bits, byte counts, sync schedule, history) of an
// in-process run built from the same JobSpec.
func TestDistributedMatchesLocal(t *testing.T) {
	spec := testSpec().WithDefaults()

	cfg, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}

	distRes, workerRes := runDistributed(t, spec)
	if !reflect.DeepEqual(local, distRes) {
		t.Fatalf("distributed result diverged from local:\n%+v\nvs\n%+v", distRes, local)
	}
	for rank, wr := range workerRes {
		if math.Float64bits(wr.FinalTestAcc) != math.Float64bits(local.FinalTestAcc) {
			t.Fatalf("rank %d accuracy %v, local %v", rank, wr.FinalTestAcc, local.FinalTestAcc)
		}
		if wr.CommBytes != local.CommBytes {
			t.Fatalf("rank %d charged %d bytes, local %d", rank, wr.CommBytes, local.CommBytes)
		}
	}
	if local.SyncCount == 0 {
		t.Fatal("degenerate test: no synchronizations happened")
	}
}

// TestDistributedCompressedSync sends the drifts through the real wire
// codec path (Encode on the sender, framed exchange, Decode on every
// receiver) and still matches the local run bit-for-bit.
func TestDistributedCompressedSync(t *testing.T) {
	spec := testSpec()
	spec.TopK = 0.25
	spec.QBits = 8
	spec = spec.WithDefaults()

	cfg, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	distRes, _ := runDistributed(t, spec)
	if !reflect.DeepEqual(local, distRes) {
		t.Fatalf("compressed distributed result diverged:\n%+v\nvs\n%+v", distRes, local)
	}
	if local.SyncCount == 0 {
		t.Fatal("degenerate test: no synchronizations happened")
	}
}

// TestCoordinateRejectsDivergence exercises the verification half of
// Coordinate through its helper.
func TestCoordinateRejectsDivergence(t *testing.T) {
	a := core.Result{Steps: 10, FinalTestAcc: 0.5}
	b := a
	if err := sameResult(a, b); err != nil {
		t.Fatalf("equal results rejected: %v", err)
	}
	b.FinalTestAcc = math.Nextafter(0.5, 1)
	if err := sameResult(a, b); err == nil {
		t.Fatal("diverged accuracy accepted")
	}
	b = a
	b.CommBytes = 1
	if err := sameResult(a, b); err == nil {
		t.Fatal("diverged byte accounting accepted")
	}
}

// TestJobSpecDefaults pins the documented zero-value behavior.
func TestJobSpecDefaults(t *testing.T) {
	s := JobSpec{Model: "lenet5s", Strategy: "LinearFDA"}.WithDefaults()
	if s.K != 5 || s.Batch != 32 || s.Steps != 200 || s.EvalEvery != 20 || s.Seed != 1 {
		t.Fatalf("defaults: %+v", s)
	}
	if s.Theta <= 0 {
		t.Fatalf("theta default not taken from the model grid: %v", s.Theta)
	}
	if _, err := (JobSpec{Model: "nope", Strategy: "LinearFDA"}).WithDefaults().BuildConfig(); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := (JobSpec{Strategy: "nope"}).BuildStrategy(core.Config{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestJobSpecKeyGolden pins Key byte for byte. fdaserve journals these
// keys and names resume checkpoints sessions/<first 8 bytes of their
// SHA-256, hex>.ckpt, and fdagate routes by their full SHA-256, so a
// changed key would orphan every journaled job and checkpoint and move
// every affinity owner.
func TestJobSpecKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		key  string
		sha  string
	}{
		{"defaulted", JobSpec{Model: "lenet5s", Strategy: "LinearFDA"},
			"train|lenet5s|LinearFDA|0.052360000000000004|10|5|32|200|20|0|iid|1",
			"1ffbfd69fc99a5c161cc8c565cfe6f3248f70ed0c21b45c6f71bec4c4e9ca706"},
		{"spelled-out", JobSpec{Model: "vgg16s", Strategy: "FedAdam", Theta: 0.25, Tau: 7, K: 3, Batch: 16,
			Steps: 400, EvalEvery: 40, Target: 0.95, Het: "dir0.5", Seed: 9},
			"train|vgg16s|FedAdam|0.25|7|3|16|400|40|0.95|dir0.5|9",
			"28a5e957432792444a63ca3549848c619c09f3083df7fc4c4b42563a9f25c69b"},
		{"distributed", JobSpec{Model: "lenet5s", Strategy: "SketchFDA", K: 2, Steps: 30, Seed: 4, Distributed: true},
			"train|lenet5s|SketchFDA|0.052360000000000004|10|2|32|30|20|0|iid|4|dist",
			"d0b0f0e7d08b83e177217919e74a4cc85e3075dbb3c2a949f5ecb920f307c158"},
	} {
		key := tc.spec.WithDefaults().Key()
		if key != tc.key {
			t.Errorf("%s: key %q, want %q", tc.name, key, tc.key)
		}
		if sum := sha256.Sum256([]byte(key)); hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("%s: sha256 %x, want %s", tc.name, sum, tc.sha)
		}
	}
}

// TestJobSpecValidate: the admission checks reject every bad spec
// without synthesizing data, with structured field errors for config
// fields.
func TestJobSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  JobSpec
		field string // wanted first *core.ConfigError field; "" = any error
	}{
		{"no model", JobSpec{Strategy: "LinearFDA"}, ""},
		{"unknown model", JobSpec{Model: "nope", Strategy: "LinearFDA"}, ""},
		{"unknown strategy", JobSpec{Model: "lenet5s", Strategy: "Nope"}, ""},
		{"bad het", JobSpec{Model: "lenet5s", Strategy: "LinearFDA", Het: "bogus"}, ""},
		{"negative k", JobSpec{Model: "lenet5s", Strategy: "LinearFDA", K: -2}, "K"},
	} {
		err := tc.spec.WithDefaults().Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var cerr *core.ConfigError
		if tc.field != "" && (!errors.As(err, &cerr) || cerr.Fields[0].Field != tc.field) {
			t.Errorf("%s: error %v, want a *core.ConfigError on %s", tc.name, err, tc.field)
		}
	}
	for _, strategy := range []string{"LinearFDA", "FedAdam"} {
		if err := (JobSpec{Model: "lenet5s", Strategy: strategy}).WithDefaults().Validate(); err != nil {
			t.Errorf("valid %s spec rejected: %v", strategy, err)
		}
	}
}
