package comm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestCostModelNaive(t *testing.T) {
	cm := CostModel{BytesPerParam: 4, Ring: false}
	if got := cm.PerWorkerBytes(100, 8); got != 400 {
		t.Fatalf("naive per-worker = %d", got)
	}
	if got := cm.TotalBytes(100, 8); got != 3200 {
		t.Fatalf("naive total = %d", got)
	}
}

func TestCostModelRing(t *testing.T) {
	cm := DefaultCostModel()
	// K=4, n=100: per worker 2*(3/4)*400 = 600 bytes.
	if got := cm.PerWorkerBytes(100, 4); got != 600 {
		t.Fatalf("ring per-worker = %d", got)
	}
	if got := cm.TotalBytes(100, 4); got != 2400 {
		t.Fatalf("ring total = %d", got)
	}
	// Single worker communicates the payload under either model.
	if got := cm.PerWorkerBytes(100, 1); got != 400 {
		t.Fatalf("K=1 per-worker = %d", got)
	}
}

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter()
	m.Charge("state", 10)
	m.Charge("state", 5)
	m.Charge("model", 100)
	if m.TotalBytes() != 115 {
		t.Fatalf("total = %d", m.TotalBytes())
	}
	if m.BytesFor("state") != 15 || m.OpsFor("state") != 2 {
		t.Fatalf("state = %d bytes %d ops", m.BytesFor("state"), m.OpsFor("state"))
	}
	kinds := m.Kinds()
	if len(kinds) != 2 || kinds[0] != "model" || kinds[1] != "state" {
		t.Fatalf("kinds = %v", kinds)
	}
	m.Reset()
	if m.TotalBytes() != 0 {
		t.Fatal("reset failed")
	}
}

func makeVecs(k, n int, seed uint64) [][]float64 {
	rng := tensor.NewRNG(seed)
	vecs := make([][]float64, k)
	for i := range vecs {
		vecs[i] = make([]float64, n)
		tensor.Normal(rng, vecs[i], 0, 1)
	}
	return vecs
}

func TestAllReduceAverageInPlace(t *testing.T) {
	c := NewCluster(4)
	vecs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	c.AllReduce("model", vecs)
	for i, v := range vecs {
		if v[0] != 4 || v[1] != 5 {
			t.Fatalf("worker %d has %v want [4 5]", i, v)
		}
	}
	// Cost: ring, n=2, K=4: total = 4 * 2*(3/4)*8 = 48 bytes.
	if got := c.Meter().BytesFor("model"); got != 48 {
		t.Fatalf("charged %d bytes", got)
	}
}

func TestAllReduceMeanLeavesInputs(t *testing.T) {
	c := NewCluster(2)
	vecs := [][]float64{{2, 4}, {6, 8}}
	dst := make([]float64, 2)
	c.AllReduceMean("state", dst, vecs)
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("mean = %v", dst)
	}
	if vecs[0][0] != 2 || vecs[1][1] != 8 {
		t.Fatal("inputs were mutated")
	}
	if c.Meter().OpsFor("state") != 1 {
		t.Fatal("op not metered")
	}
}

func TestAllReduceScalars(t *testing.T) {
	c := NewCluster(3)
	got := c.AllReduceScalars("norm", []float64{1, 2, 6})
	if got != 3 {
		t.Fatalf("scalar mean = %v", got)
	}
}

func TestAllReduceValidation(t *testing.T) {
	c := NewCluster(2)
	for _, f := range []func(){
		func() { c.AllReduce("x", [][]float64{{1}}) },
		func() { c.AllReduce("x", [][]float64{{1}, {1, 2}}) },
		func() { c.AllReduceScalars("x", []float64{1}) },
		func() { NewCluster(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: AllReduce leaves all workers with identical vectors whose
// value equals the arithmetic mean of the inputs.
func TestAllReduceProperty(t *testing.T) {
	f := func(kRaw, nRaw uint8, seed uint16) bool {
		k := int(kRaw%6) + 1
		n := int(nRaw%50) + 1
		vecs := makeVecs(k, n, uint64(seed))
		want := make([]float64, n)
		tensor.Mean(want, vecs...)
		c := NewCluster(k)
		c.AllReduce("m", vecs)
		for _, v := range vecs {
			for i := range v {
				if math.Abs(v[i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkProfileCommTime(t *testing.T) {
	m := NewMeter()
	m.Charge("model", 1e9) // 1 GB = 8e9 bits
	tFL := ProfileFL.CommTime(m)
	tHPC := ProfileHPC.CommTime(m)
	if tFL <= tHPC {
		t.Fatalf("FL time %v should exceed HPC time %v", tFL, tHPC)
	}
	// 8e9 bits / 0.5e9 bps = 16 s plus latency.
	if math.Abs(tFL-16.02) > 0.1 {
		t.Fatalf("FL time = %v want ≈ 16.02", tFL)
	}
}

func TestProfilesOrdering(t *testing.T) {
	if !(ProfileFL.BandwidthBps < ProfileBalanced.BandwidthBps &&
		ProfileBalanced.BandwidthBps < ProfileHPC.BandwidthBps) {
		t.Fatal("profile bandwidth ordering broken")
	}
}
