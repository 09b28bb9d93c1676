package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// stubReplica is a minimal fdaserve stand-in: it accepts submissions,
// serves id-scoped reads and the /v1/healthz the load tracker polls (no
// metrics endpoint at all), and can be flipped into overload (503) or
// dead (connection reset) states.
type stubReplica struct {
	ts       *httptest.Server
	submits  atomic.Int64
	overload atomic.Bool
	dead     atomic.Bool
}

func newStubReplica(t *testing.T, name string) *stubReplica {
	t.Helper()
	s := &stubReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/train", func(w http.ResponseWriter, r *http.Request) {
		if s.overload.Load() {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"at capacity"}`)
			return
		}
		n := s.submits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"r%d","kind":"train","status":"running","replica":%q}`+"\n", n, name)
	})
	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `[{"id":"r1","status":"done","replica":%q}]`, name)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"status":"done","replica":%q}`+"\n", r.PathValue("id"), name)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","replica":%q,"in_flight":0,"max_queue":0}`, name)
	})
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.dead.Load() {
			// Simulate a killed process: reset the connection without a
			// response, which the gateway sees as a transport error.
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
			panic("stub cannot hijack")
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func testGateway(t *testing.T, clk *fakeClock, stubs ...*stubReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	bases := make([]string, len(stubs))
	for i, s := range stubs {
		bases[i] = s.ts.URL
	}
	pool, err := NewPool(bases, Options{Now: clk.clock()})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(pool, GatewayOptions{Now: clk.clock()})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

func stubByBase(stubs []*stubReplica, base string) *stubReplica {
	for _, s := range stubs {
		if s.ts.URL == base {
			return s
		}
	}
	return nil
}

const trainBody = `{"model":"lenet5s","strategy":"LinearFDA","steps":20}`

func postTrain(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url+"/v1/train", "application/json", strings.NewReader(trainBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	b, _ := io.ReadAll(resp.Body)
	if len(b) > 0 {
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("bad response body %q: %v", b, err)
		}
	}
	return resp, m
}

func TestGatewayRoutesSubmissionToAffinityOwner(t *testing.T) {
	clk := &fakeClock{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b"), newStubReplica(t, "c")}
	gw, ts := testGateway(t, clk, stubs...)

	addr, ok := AffinityAddress("train", []byte(trainBody))
	if !ok {
		t.Fatal("train body carries no affinity")
	}
	owner := gw.Pool().Rank(addr)[0]

	resp, m := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ownerStub := stubByBase(stubs, owner.Base)
	if got := ownerStub.submits.Load(); got != 1 {
		t.Fatalf("affinity owner received %d submissions, want 1", got)
	}
	var id string
	if err := json.Unmarshal(m["id"], &id); err != nil || !strings.HasPrefix(id, owner.Prefix()+"-") {
		t.Fatalf("id %q not namespaced with owner prefix %q", id, owner.Prefix())
	}
	// Resubmission routes to the same owner — the cache-affinity
	// property that turns dedupe hits into actual hits.
	for i := 0; i < 5; i++ {
		postTrain(t, ts.URL)
	}
	if got := ownerStub.submits.Load(); got != 6 {
		t.Fatalf("owner received %d of 6 submissions", got)
	}

	// The id round-trips: a status poll for the namespaced id reaches
	// the owner and comes back re-namespaced.
	resp2, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var v struct {
		ID      string `json:"id"`
		Replica string `json:"replica"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.ID != id {
		t.Fatalf("poll id %q, want %q", v.ID, id)
	}
	if base := stubByBase(stubs, owner.Base); base == nil || v.Replica == "" {
		t.Fatalf("poll did not reach a replica: %+v", v)
	}
}

func TestGatewayFailsOverOn503(t *testing.T) {
	clk := &fakeClock{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	gw, ts := testGateway(t, clk, stubs...)

	addr, _ := AffinityAddress("train", []byte(trainBody))
	owner := gw.Pool().Rank(addr)[0]
	stubByBase(stubs, owner.Base).overload.Store(true)

	resp, m := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202 via fallback", resp.StatusCode)
	}
	var id string
	json.Unmarshal(m["id"], &id)
	other := gw.Pool().Rank(addr)[1]
	if !strings.HasPrefix(id, other.Prefix()+"-") {
		t.Fatalf("id %q not served by fallback replica %q", id, other.Prefix())
	}
	// The owner sits in an overload window now: the next submission goes
	// straight to the fallback without re-hammering it.
	before := stubByBase(stubs, owner.Base).submits.Load()
	postTrain(t, ts.URL)
	if got := stubByBase(stubs, owner.Base).submits.Load(); got != before {
		t.Fatal("overloaded owner was re-attempted inside its Retry-After window")
	}
}

func TestGatewayRoutesAroundDeadReplicaAndRejoins(t *testing.T) {
	clk := &fakeClock{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	gw, ts := testGateway(t, clk, stubs...)

	addr, _ := AffinityAddress("train", []byte(trainBody))
	owner := gw.Pool().Rank(addr)[0]
	ownerStub := stubByBase(stubs, owner.Base)
	ownerStub.dead.Store(true)

	resp, _ := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202 via survivor", resp.StatusCode)
	}
	if owner.available() {
		t.Fatal("dead replica not quarantined after transport error")
	}

	// Recovery: the replica comes back, its backoff window elapses, and
	// the poll probe reinstates it.
	ownerStub.dead.Store(false)
	clk.advance(60e9)
	gw.Pool().Poll(t.Context())
	if !owner.available() {
		t.Fatal("recovered replica not reinstated by poll probe")
	}
	before := ownerStub.submits.Load()
	postTrain(t, ts.URL)
	if ownerStub.submits.Load() != before+1 {
		t.Fatal("affinity traffic did not return to the recovered owner")
	}
}

func TestGatewayDegradesWith503WhenClusterDown(t *testing.T) {
	clk := &fakeClock{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	_, ts := testGateway(t, clk, stubs...)
	for _, s := range stubs {
		s.dead.Store(true)
	}
	// First submission discovers both replicas dead (transport errors);
	// it must come back as a 503 with a Retry-After, not hang or 502.
	resp, _ := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Second submission finds them quarantined: same contract.
	resp, _ = postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d (Retry-After %q), want 503 with hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestGatewayAdmissionGate(t *testing.T) {
	clk := &fakeClock{}
	stub := newStubReplica(t, "a")
	pool, err := NewPool([]string{stub.ts.URL}, Options{Now: clk.clock()})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(pool, GatewayOptions{Now: clk.clock(), MaxPending: 1})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	// Occupy the single admission slot; the next submission must be
	// refused at the gate, before any replica is contacted.
	gw.pending <- struct{}{}
	resp, _ := postTrain(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 from the gateway gate", resp.StatusCode)
	}
	if stub.submits.Load() != 0 {
		t.Fatal("gated submission still reached the replica")
	}
	<-gw.pending
	if resp, _ := postTrain(t, ts.URL); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d after gate freed, want 202", resp.StatusCode)
	}
}

func TestGatewayMergesRunListings(t *testing.T) {
	clk := &fakeClock{}
	stubs := []*stubReplica{newStubReplica(t, "a"), newStubReplica(t, "b")}
	gw, ts := testGateway(t, clk, stubs...)

	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("merged %d runs, want 2", len(views))
	}
	seen := map[string]bool{}
	for _, v := range views {
		i := strings.IndexByte(v.ID, '-')
		if i < 0 || gw.Pool().ByPrefix(v.ID[:i]) == nil {
			t.Fatalf("merged id %q not namespaced", v.ID)
		}
		seen[v.ID[:i]] = true
	}
	if len(seen) != 2 {
		t.Fatalf("listing did not cover both replicas: %v", seen)
	}

	// One replica down: the listing stays partial, not failed.
	stubs[0].dead.Store(true)
	resp2, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Fdagate-Partial") == "" {
		t.Fatalf("degraded listing: status %d, partial header %q", resp2.StatusCode, resp2.Header.Get("X-Fdagate-Partial"))
	}
}

// TestGatewayServesItsOwnRegistry pins the gateway's metrics surface:
// GET /metrics and GET /v1/metrics render the gateway process's obs
// registry (per-replica gauges, routing counters) like any other
// process; the gateway fans out to no replica to answer them.
func TestGatewayServesItsOwnRegistry(t *testing.T) {
	clk := &fakeClock{}
	stub := newStubReplica(t, "a")
	_, ts := testGateway(t, clk, stub)
	stub.dead.Store(true) // a fan-out would now fail; the registry must not care

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.ValidatePrometheusText(string(b)); err != nil {
		t.Fatalf("gateway exposition does not parse: %v\n%s", err, b)
	}
	want := fmt.Sprintf(`fdagate_replica_up{replica=%q}`, stub.ts.URL)
	if !strings.Contains(string(b), want) {
		t.Fatalf("gateway exposition missing %s:\n%s", want, b)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.MetricsDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range doc.Telemetry.Gauges {
		found = found || (g.Name == "fdagate_replica_up" && g.Labels["replica"] == stub.ts.URL)
	}
	if !found || doc.Runtime["go_sched_goroutines"] < 1 {
		t.Fatalf("gateway /v1/metrics lacks its registry or runtime sample: %+v", doc)
	}
}

func TestRewriteIDPreservesFieldBytes(t *testing.T) {
	// Every field except id must pass through byte-for-byte — the
	// property behind the routing-parity guarantee. Note 1e-7: a decode
	// into float64 would re-encode differently; RawMessage must not.
	body := []byte(`{"accuracy":0.9000000000000001,"id":"r3","loss":1e-7,"nested":{"z":1,"a":2}}`)
	out := rewriteID(body, "abc123")
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["id"]) != `"abc123-r3"` {
		t.Fatalf("id = %s", m["id"])
	}
	if string(m["accuracy"]) != "0.9000000000000001" || string(m["loss"]) != "1e-7" {
		t.Fatalf("float bytes mangled: accuracy=%s loss=%s", m["accuracy"], m["loss"])
	}
	if string(m["nested"]) != `{"z":1,"a":2}` {
		t.Fatalf("nested object bytes mangled: %s", m["nested"])
	}
	// Bodies without a string id pass through untouched.
	for _, raw := range []string{`[1,2,3]`, `{"id":7}`, `plain`} {
		if got := rewriteID([]byte(raw), "abc123"); string(got) != raw {
			t.Fatalf("rewriteID(%q) = %q, want passthrough", raw, got)
		}
	}
}
