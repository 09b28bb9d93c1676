// Package comm is the communication fabric of a K-worker training
// cluster: an averaging AllReduce (the paper's only collective) behind
// the pluggable Fabric interface, a byte-accurate cost meter, and
// network profiles for translating bytes into estimated wall-clock time.
//
// The paper's hardware (44 GPU nodes on InfiniBand, MPI AllReduce) is
// replaced by three interchangeable backends: the in-process reference
// Cluster below (a faithful substitution for the paper's evaluation
// because its two metrics — total bytes transmitted by all workers, and
// in-parallel learning steps — are counted, not timed, and the
// simulation counts them exactly), the SimFabric virtual-clock model
// (sim.go), and the TCPFabric socket backend (tcp.go, coordinator.go)
// for genuinely multi-process training. Every backend reduces with the
// same rank-ordered kernels, so results are bit-identical across them;
// ring AllReduce appears only as byte accounting (CostModel.Ring).
package comm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// CostModel controls how AllReduce operations are charged.
type CostModel struct {
	// BytesPerParam is the wire size of one tensor element. The paper
	// transmits float32 models, so the default (see DefaultCostModel) is 4
	// even though the simulation computes in float64.
	BytesPerParam int
	// Ring selects ring-AllReduce accounting: each worker sends
	// 2(K−1)/K × payload bytes per operation. When false, the naive model
	// charges each worker the full payload (send to aggregation).
	Ring bool
}

// DefaultCostModel matches the paper's accounting assumptions.
func DefaultCostModel() CostModel {
	return CostModel{BytesPerParam: 4, Ring: true}
}

// PerWorkerBytes returns how many bytes one worker transmits for an
// AllReduce over a payload of n elements in a K-worker cluster.
func (cm CostModel) PerWorkerBytes(n, k int) int64 {
	payload := int64(n) * int64(cm.BytesPerParam)
	if !cm.Ring || k <= 1 {
		return payload
	}
	// Ring all-reduce: reduce-scatter + all-gather, each moving
	// (K−1)/K of the payload per worker, i.e. ⌊2·payload·(K−1)/K⌋.
	// Split payload = q·K + r so the intermediate products stay below
	// 2·payload + 2·K² instead of 2·payload·(K−1), which overflows
	// int64 for multi-exabyte payloads well inside int64's own range.
	kk := int64(k)
	q, r := payload/kk, payload%kk
	return 2*q*(kk-1) + 2*r*(kk-1)/kk
}

// TotalBytes returns the cluster-wide bytes for one AllReduce, i.e. the
// per-worker cost times K — the paper's "total data transmitted by all
// workers".
func (cm CostModel) TotalBytes(n, k int) int64 {
	return cm.PerWorkerBytes(n, k) * int64(k)
}

// Meter accumulates communication statistics, keyed by operation kind
// (for example "state" vs "model"), so experiments can report how much of
// the traffic was monitoring overhead versus synchronization.
type Meter struct {
	mu    sync.Mutex
	bytes map[string]int64
	ops   map[string]int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{bytes: map[string]int64{}, ops: map[string]int64{}}
}

// Charge records one operation of the given kind costing b bytes.
func (m *Meter) Charge(kind string, b int64) {
	chargeObs(kind, b)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytes[kind] += b
	m.ops[kind]++
}

// TotalBytes returns the bytes across all kinds.
func (m *Meter) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, b := range m.bytes {
		t += b
	}
	return t
}

// BytesFor returns the bytes charged to one kind.
func (m *Meter) BytesFor(kind string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes[kind]
}

// OpsFor returns the operation count for one kind.
func (m *Meter) OpsFor(kind string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops[kind]
}

// Kinds returns the sorted set of operation kinds seen so far.
func (m *Meter) Kinds() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.bytes))
	//fda:allow(detmap, key collection is sorted two lines below; result is order-independent)
	for k := range m.bytes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a copy of the per-kind byte and operation counters,
// the state a training checkpoint needs so a resumed run's cost
// accounting continues exactly where it stopped.
func (m *Meter) Snapshot() (bytes, ops map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bytes = make(map[string]int64, len(m.bytes))
	ops = make(map[string]int64, len(m.ops))
	for k, v := range m.bytes {
		bytes[k] = v
	}
	for k, v := range m.ops {
		ops[k] = v
	}
	return bytes, ops
}

// Restore overwrites the meter's counters with a Snapshot.
func (m *Meter) Restore(bytes, ops map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytes = make(map[string]int64, len(bytes))
	m.ops = make(map[string]int64, len(ops))
	for k, v := range bytes {
		m.bytes[k] = v
	}
	for k, v := range ops {
		m.ops[k] = v
	}
}

// Reset clears all counters.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytes = map[string]int64{}
	m.ops = map[string]int64{}
}

// Cluster is the in-process reference fabric: a simulated group of K
// workers sharing an AllReduce. It is the specification the other
// Fabric backends are tested against.
type Cluster struct {
	k     int
	cost  CostModel
	meter *Meter
	ranks []int

	// scratch is the sequential AllReduce's mean buffer, reused across
	// calls so model synchronizations don't allocate. Collectives on one
	// Cluster are inherently serialized (they model a blocking collective
	// and are only ever issued from the run's reduction goroutine), so a
	// single buffer suffices.
	scratch []float64
}

// NewCluster returns a cluster of k workers with the default cost model.
func NewCluster(k int) *Cluster {
	return NewClusterWithCost(k, DefaultCostModel())
}

// NewClusterWithCost returns a cluster of k workers charging under cm.
func NewClusterWithCost(k int, cm CostModel) *Cluster {
	if k <= 0 {
		panic(fmt.Sprintf("comm: non-positive cluster size %d", k))
	}
	return &Cluster{k: k, cost: cm, meter: NewMeter(), ranks: allRanks(k)}
}

// K implements Fabric.
func (c *Cluster) K() int { return c.k }

// Ranks implements Fabric: the in-process cluster owns every rank.
func (c *Cluster) Ranks() []int { return c.ranks }

// Meter implements Fabric.
func (c *Cluster) Meter() *Meter { return c.meter }

// Cost implements Fabric.
func (c *Cluster) Cost() CostModel { return c.cost }

// Close implements Fabric (no resources to release in-process).
func (c *Cluster) Close() error { return nil }

// charge meters one collective over n elements and builds its report.
func (c *Cluster) charge(kind string, n int) CostReport {
	per := c.cost.PerWorkerBytes(n, c.k)
	total := per * int64(c.k)
	c.meter.Charge(kind, total)
	return CostReport{Elements: n, PerWorker: per, Bytes: total}
}

func (c *Cluster) checkArity(op string, vecs [][]float64) int {
	if len(vecs) != c.k {
		panic(fmt.Sprintf("comm: %s over %d vectors in a %d-worker cluster", op, len(vecs), c.k))
	}
	n := len(vecs[0])
	for i, v := range vecs {
		if len(v) != n {
			panic(fmt.Sprintf("comm: %s ragged vector %d: %d != %d", op, i, len(v), n))
		}
	}
	return n
}

// AllReduce averages the K equal-length vectors in place: after the call
// every vecs[i] holds the element-wise mean. The operation is charged to
// the meter under kind. This models MPI_Allreduce(MPI_SUM)/K with the
// result replacing each worker's buffer, exactly the paper's
// synchronization primitive w^(k) ← w̄.
func (c *Cluster) AllReduce(kind string, vecs [][]float64) CostReport {
	sp := startOp("AllReduce")
	rep := c.allReduce(kind, vecs)
	endOp(sp, kind, rep)
	return rep
}

// allReduce is the span-free body, shared with SimFabric's override so
// a simulated collective traces once (with its virtual time attached).
func (c *Cluster) allReduce(kind string, vecs [][]float64) CostReport {
	n := c.checkArity("AllReduce", vecs)
	if cap(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	mean := c.scratch[:n]
	tensor.Mean(mean, vecs...)
	for _, v := range vecs {
		copy(v, mean)
	}
	return c.charge(kind, n)
}

// AllReduceMean averages the vectors into dst without modifying them,
// charging the same cost as AllReduce. This models the aggregation of
// local states S̄ = AllReduce(S^(k)) where workers keep their own states.
func (c *Cluster) AllReduceMean(kind string, dst []float64, vecs [][]float64) CostReport {
	sp := startOp("AllReduceMean")
	rep := c.allReduceMean(kind, dst, vecs)
	endOp(sp, kind, rep)
	return rep
}

func (c *Cluster) allReduceMean(kind string, dst []float64, vecs [][]float64) CostReport {
	c.checkArity("AllReduceMean", vecs)
	tensor.Mean(dst, vecs...)
	return c.charge(kind, len(dst))
}

// Broadcast implements Fabric: every worker's vector is overwritten with
// rank root's, charged under the naive model ((K−1)·payload total).
func (c *Cluster) Broadcast(kind string, root int, vecs [][]float64) CostReport {
	sp := startOp("Broadcast")
	rep := c.broadcast(kind, root, vecs)
	endOp(sp, kind, rep)
	return rep
}

func (c *Cluster) broadcast(kind string, root int, vecs [][]float64) CostReport {
	n := c.checkArity("Broadcast", vecs)
	if root < 0 || root >= c.k {
		panic(fmt.Sprintf("comm: Broadcast root %d outside cluster of %d", root, c.k))
	}
	for i, v := range vecs {
		if i != root {
			copy(v, vecs[root])
		}
	}
	payload := int64(n) * int64(c.cost.BytesPerParam)
	total := payload * int64(c.k-1)
	c.meter.Charge(kind, total)
	return CostReport{Elements: n, PerWorker: payload, Bytes: total}
}

// Gather implements Fabric: in-process, the contributions already are
// the cluster's vectors.
func (c *Cluster) Gather(local [][]float64) [][]float64 {
	c.checkArity("Gather", local)
	return local
}

// ExchangeBytes implements Fabric: in-process, payloads are returned
// as-is.
func (c *Cluster) ExchangeBytes(kind string, local [][]byte) [][]byte {
	if len(local) != c.k {
		panic(fmt.Sprintf("comm: ExchangeBytes over %d payloads in a %d-worker cluster", len(local), c.k))
	}
	return local
}

// AllReduceScalars averages one scalar per worker, charging a 1-element
// AllReduce. (Reference-cluster helper, not part of the Fabric surface.)
func (c *Cluster) AllReduceScalars(kind string, xs []float64) float64 {
	if len(xs) != c.k {
		panic("comm: AllReduceScalars arity mismatch")
	}
	// tensor.Sum is left-to-right, so this is bit-identical to the
	// sequential loop it replaced (fdavet/floatsum).
	s := tensor.Sum(xs)
	c.charge(kind, 1)
	return s / float64(len(xs))
}

// NetworkProfile translates metered bytes and step counts into estimated
// wall-clock time for a deployment scenario (paper §4.3, Figure 12).
type NetworkProfile struct {
	Name string
	// BandwidthBps is the per-link usable bandwidth in bits per second.
	BandwidthBps float64
	// LatencySec is the fixed per-collective overhead.
	LatencySec float64
}

// The three settings of Figure 12.
var (
	// ProfileFL models a federated deployment on a shared 0.5 Gbps channel.
	ProfileFL = NetworkProfile{Name: "FL", BandwidthBps: 0.5e9, LatencySec: 20e-3}
	// ProfileBalanced sits between the federated and HPC regimes.
	ProfileBalanced = NetworkProfile{Name: "Balanced", BandwidthBps: 10e9, LatencySec: 1e-3}
	// ProfileHPC models the paper's ARIS InfiniBand FDR14 fabric (56 Gb/s).
	ProfileHPC = NetworkProfile{Name: "ARIS-HPC", BandwidthBps: 56e9, LatencySec: 5e-6}
)

// CommTime estimates the wall-clock seconds spent communicating given a
// meter: transmitted bits over bandwidth plus per-operation latency.
func (p NetworkProfile) CommTime(m *Meter) float64 {
	var ops int64
	for _, k := range m.Kinds() {
		ops += m.OpsFor(k)
	}
	bits := float64(m.TotalBytes()) * 8
	return bits/p.BandwidthBps + float64(ops)*p.LatencySec
}
