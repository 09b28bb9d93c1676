package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeClock is a manually advanced monotonic clock.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64       { return c.ns.Load() }
func (c *fakeClock) advance(ns int64) { c.ns.Add(ns) }
func (c *fakeClock) clock() Clock     { return c.now }

func testPool(t *testing.T, clk *fakeClock, bases ...string) *Pool {
	t.Helper()
	p, err := NewPool(bases, Options{Now: clk.clock()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTrainSpecKeyMatchesDefaults(t *testing.T) {
	// A spec that spells out the defaults and one that leaves them zero
	// must share a key — otherwise gateway affinity and server dedupe
	// would disagree on "the same job".
	short := TrainSpec{Model: "lenet5s", Strategy: "LinearFDA"}
	short.ApplyDefaults()
	long := TrainSpec{
		Model: "lenet5s", Strategy: "LinearFDA", Theta: short.Theta,
		Tau: 10, K: 5, Batch: 32, Steps: 200, EvalEvery: 20, Het: "iid", Seed: 1,
	}
	if short.Key() != long.Key() {
		t.Fatalf("defaulted key %q != spelled-out key %q", short.Key(), long.Key())
	}
	if !strings.HasPrefix(short.Key(), "train|lenet5s|LinearFDA|") {
		t.Fatalf("unexpected key shape %q", short.Key())
	}
	dist := short
	dist.Distributed = true
	if dist.Key() == short.Key() {
		t.Fatal("distributed jobs must dedupe under their own key space")
	}
}

func TestAffinityAddressStability(t *testing.T) {
	// Equivalent bodies (defaults spelled out vs omitted, different key
	// order) must produce one address; undecodable or incomplete bodies
	// must carry no affinity.
	a1, ok1 := AffinityAddress("train", []byte(`{"model":"lenet5s","strategy":"LinearFDA"}`))
	a2, ok2 := AffinityAddress("train", []byte(`{"strategy":"LinearFDA","seed":1,"model":"lenet5s","tau":10}`))
	if !ok1 || !ok2 || a1 != a2 {
		t.Fatalf("equivalent train bodies disagree: %q(%v) vs %q(%v)", a1, ok1, a2, ok2)
	}
	if a1 != Address(func() string {
		s := TrainSpec{Model: "lenet5s", Strategy: "LinearFDA"}
		s.ApplyDefaults()
		return s.Key()
	}()) {
		t.Fatal("AffinityAddress does not match Address(Key())")
	}
	if _, ok := AffinityAddress("train", []byte(`{"strategy":"LinearFDA"}`)); ok {
		t.Fatal("model-less body must not carry affinity")
	}
	if _, ok := AffinityAddress("train", []byte(`not json`)); ok {
		t.Fatal("undecodable body must not carry affinity")
	}
	s1, ok := AffinityAddress("sweep", []byte(`{"experiment":"fig3"}`))
	s2, _ := AffinityAddress("sweep", []byte(`{"experiment":"fig3","scale":"quick","seed":1}`))
	if !ok || s1 != s2 {
		t.Fatalf("equivalent sweep bodies disagree: %q vs %q", s1, s2)
	}
}

func TestRendezvousDeterministicAndBalanced(t *testing.T) {
	clk := &fakeClock{}
	bases := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	p1 := testPool(t, clk, bases...)
	p2 := testPool(t, clk, bases[3], bases[1], bases[0], bases[2]) // reordered

	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		addr := Address(fmt.Sprintf("spec-%d", i))
		o1 := p1.Rank(addr)[0].Base
		o2 := p2.Rank(addr)[0].Base
		if o1 != o2 {
			t.Fatalf("owner depends on configuration order: %s vs %s for %s", o1, o2, addr)
		}
		counts[o1]++
	}
	// Rendezvous hashing over 4 replicas should land near 250 each;
	// anything outside [150, 350] indicates a broken hash.
	for base, n := range counts {
		if n < 150 || n > 350 {
			t.Fatalf("unbalanced ownership: %s owns %d of 1000", base, n)
		}
	}
}

func TestRendezvousMinimalDisruption(t *testing.T) {
	// Removing one replica must only remap the addresses it owned;
	// every other address keeps its owner (the property that makes
	// rendezvous hashing cache-friendly under membership change).
	clk := &fakeClock{}
	all := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	full := testPool(t, clk, all...)
	reduced := testPool(t, clk, all[:3]...)
	moved := 0
	for i := 0; i < 500; i++ {
		addr := Address(fmt.Sprintf("spec-%d", i))
		was := full.Rank(addr)[0].Base
		now := reduced.Rank(addr)[0].Base
		if was == all[3] {
			moved++
			continue // owner removed; must move somewhere
		}
		if was != now {
			t.Fatalf("address %s moved from surviving owner %s to %s", addr, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("test vacuous: removed replica owned nothing")
	}
}

func TestCandidatesAffinityAndLoadOrder(t *testing.T) {
	clk := &fakeClock{}
	p := testPool(t, clk, "http://a:1", "http://b:1", "http://c:1")
	addr := Address("some-spec")
	owner := p.Rank(addr)[0]

	// Give the owner the deepest queue: affinity must still win the
	// first slot (cache hits beat load), with the rest ordered by load.
	for _, r := range p.replicas {
		r.mu.Lock()
		r.inflight = 1
		r.mu.Unlock()
	}
	owner.mu.Lock()
	owner.inflight = 100
	owner.mu.Unlock()

	cands := p.Candidates(addr)
	if len(cands) != 3 || cands[0] != owner {
		t.Fatalf("affinity owner not first: got %v", cands)
	}

	// Without an address the ordering is pure least-loaded: the owner
	// (load 100) must now sort last.
	cands = p.Candidates("")
	if cands[len(cands)-1] != owner {
		t.Fatalf("least-loaded fallback ignored load: got %s last, want %s", cands[len(cands)-1].Base, owner.Base)
	}
}

func TestCandidatesOverloadAndQuarantine(t *testing.T) {
	clk := &fakeClock{}
	p := testPool(t, clk, "http://a:1", "http://b:1", "http://c:1")
	addr := Address("spec")
	ranked := p.Rank(addr)
	owner, second := ranked[0], ranked[1]

	// An overloaded owner is deprioritized (but still attempted last).
	p.OnOverload(owner, 2)
	cands := p.Candidates(addr)
	if cands[0] == owner {
		t.Fatal("overloaded owner still leads the candidate list")
	}
	if cands[len(cands)-1] != owner {
		t.Fatal("overloaded owner should remain as the last-resort candidate")
	}
	// The window expires with the clock.
	clk.advance(3e9)
	if cands = p.Candidates(addr); cands[0] != owner {
		t.Fatal("owner did not recover first slot after the overload window")
	}

	// A quarantined replica is excluded entirely.
	p.OnTransportError(second, fmt.Errorf("connection refused"))
	for _, c := range p.Candidates(addr) {
		if c == second {
			t.Fatal("quarantined replica still a candidate")
		}
	}
	// A successful exchange reinstates it immediately.
	p.OnSuccess(second)
	found := false
	for _, c := range p.Candidates(addr) {
		found = found || c == second
	}
	if !found {
		t.Fatal("recovered replica not reinstated")
	}
}

func TestQuarantineBackoffDoubles(t *testing.T) {
	clk := &fakeClock{}
	p, err := NewPool([]string{"http://a:1"}, Options{
		Now: clk.clock(), QuarantineBaseNS: 1e9, QuarantineMaxNS: 8e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := p.Replicas()[0]
	wantWindows := []int64{1e9, 2e9, 4e9, 8e9, 8e9} // doubling, capped
	for i, want := range wantWindows {
		p.OnTransportError(r, fmt.Errorf("down"))
		r.mu.Lock()
		got := r.quarantinedUntil - clk.now()
		r.mu.Unlock()
		if got != want {
			t.Fatalf("failure %d: quarantine window %d, want %d", i+1, got, want)
		}
	}
	if got := p.RetryAfterSec(); got != 8 {
		t.Fatalf("RetryAfterSec = %d, want 8 (soonest window)", got)
	}
	// The window must actually gate polling probes until it elapses.
	if r.available() {
		t.Fatal("quarantined replica reports available")
	}
}

func TestSplitID(t *testing.T) {
	clk := &fakeClock{}
	p := testPool(t, clk, "http://a:1", "http://b:1")
	r := p.Replicas()[0]
	id := r.Prefix() + "-r17"
	got, upstream, ok := p.SplitID(id)
	if !ok || got != r || upstream != "r17" {
		t.Fatalf("SplitID(%q) = %v, %q, %v", id, got, upstream, ok)
	}
	for _, bad := range []string{"", "r17", "ffffff-r17", "-r17", r.Prefix() + "-"} {
		if _, _, ok := p.SplitID(bad); ok {
			t.Fatalf("SplitID(%q) unexpectedly resolved", bad)
		}
	}
}

// TestPollAdoptsReplicaState pins the load tracker's one input: a
// replica that serves nothing but /v1/healthz still has its identity,
// in-flight count, admission cap and draining status adopted.
func TestPollAdoptsReplicaState(t *testing.T) {
	var draining atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		status := "ok"
		if draining.Load() {
			status = "draining"
		}
		fmt.Fprintf(w, `{"status":%q,"replica":"r-test","version":"fdaserve test","in_flight":5,"max_queue":8}`, status)
	}))
	defer ts.Close()
	clk := &fakeClock{}
	p := testPool(t, clk, ts.URL)
	p.Poll(t.Context())
	v := p.Views()[0]
	if v.Name != "r-test" || v.InFlight != 5 || v.MaxQueue != 8 || v.Draining || !v.Healthy {
		t.Fatalf("poll state not adopted: %+v", v)
	}
	draining.Store(true)
	p.Poll(t.Context())
	if !p.Views()[0].Draining {
		t.Fatal("draining flag not adopted")
	}
	if got := p.Candidates(""); len(got) != 0 {
		t.Fatalf("draining replica still a candidate: %v", got)
	}
}
