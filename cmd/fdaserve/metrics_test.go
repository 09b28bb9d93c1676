package main

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// TestHealthzAndMetrics covers the liveness and metrics endpoints:
// healthz responds before any job exists and carries the admission
// state the gateway polls, and the registry's job gauges reflect job
// lifecycle counts, uptime and the simulated-bytes aggregate after a
// run completes.
func TestHealthzAndMetrics(t *testing.T) {
	ts := testServer(t, t.TempDir())

	var hz struct {
		Status   string `json:"status"`
		Version  string `json:"version"`
		InFlight *int64 `json:"in_flight"`
		MaxQueue *int64 `json:"max_queue"`
	}
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.Version == "" {
		t.Fatal("healthz carries no version")
	}
	if hz.InFlight == nil || *hz.InFlight != 0 || hz.MaxQueue == nil {
		t.Fatalf("healthz lacks the admission state: %+v", hz)
	}

	m := getMetrics(t, ts.URL)
	if m.GaugeSum("fdaserve_jobs") != 0 || m.GaugeSum("fdaserve_simulated_bytes") != 0 {
		t.Fatalf("fresh server metrics: %+v", m.Gauges)
	}
	if m.GaugeSum("fdaserve_uptime_seconds") < 0 {
		t.Fatalf("negative uptime %v", m.GaugeSum("fdaserve_uptime_seconds"))
	}

	// Run one tiny sweep to completion, then the counters must move.
	var v jobView
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":1}`, http.StatusAccepted, &v)
	waitStatus(t, ts, v.ID, statusDone)

	m = getMetrics(t, ts.URL)
	if m.GaugeSum("fdaserve_jobs", "status", statusDone) != 1 || m.GaugeSum("fdaserve_jobs") != 1 ||
		m.GaugeSum("fdaserve_jobs", "status", statusRunning) != 0 {
		t.Fatalf("post-run job counts: %+v", m.Gauges)
	}
	if got := m.GaugeSum("fdaserve_simulated_bytes"); got <= 0 {
		t.Fatalf("completed sweep contributed %g simulated bytes", got)
	}
	if got := m.GaugeSum("fdaserve_store_runs"); got <= 0 {
		t.Fatalf("completed sweep left %g cached runs", got)
	}
}

// getMetrics fetches GET /v1/metrics and returns its registry snapshot.
func getMetrics(t *testing.T, base string) obs.Snap {
	t.Helper()
	var doc obs.MetricsDoc
	getJSON(t, base+"/v1/metrics", http.StatusOK, &doc)
	return doc.Telemetry
}

// TestPromMetricsEndpoint covers GET /metrics: after HTTP traffic and a
// completed train job, the exposition parses as Prometheus text and
// carries the per-route HTTP latency histogram, the job run-time and
// queue-wait histograms, the session counters and the runtime samples.
func TestPromMetricsEndpoint(t *testing.T) {
	ts := testServer(t, t.TempDir())

	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, nil)
	var v jobView
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":2,"batch":8,"steps":8,"eval_every":4,"seed":5}`,
		http.StatusAccepted, &v)
	waitStatus(t, ts, v.ID, statusDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("exposition content type %q", ct)
	}
	body := readAll(t, resp)
	if err := obs.ValidatePrometheusText(body); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"fdaserve_http_request_seconds_bucket",
		`route="GET /v1/healthz"`,
		"fdaserve_http_requests_total",
		"fdaserve_job_run_seconds_count",
		`kind="train"`,
		"fdaserve_job_queue_wait_seconds_count",
		"fda_steps_total",
		"go_sched_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// The JSON twin carries the registry snapshot and runtime samples.
	var doc obs.MetricsDoc
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &doc)
	if len(doc.Telemetry.Counters) == 0 || len(doc.Telemetry.Histograms) == 0 {
		t.Fatalf("telemetry snapshot empty: %+v", doc.Telemetry)
	}
	if doc.Telemetry.CounterSum("fda_steps_total") <= 0 {
		t.Fatal("fda_steps_total missing from the /v1/metrics snapshot")
	}
	if _, ok := doc.Runtime["go_sched_goroutines"]; !ok {
		t.Fatalf("runtime samples missing goroutine count: %+v", doc.Runtime)
	}
}

// TestMetricsOneSource pins that /v1/metrics and /metrics are two
// renderings of one registry: after a sweep and a train job, every
// gauge and counter the JSON serves appears in the Prometheus scrape
// with the same value — including the job counts by status and the
// simulated bytes. The JSON read is bracketed by two
// scrapes; a series stable across the bracket must match exactly, and
// one that moves (the HTTP counters of these very requests, uptime)
// must lie within it.
func TestMetricsOneSource(t *testing.T) {
	ts := testServer(t, t.TempDir())
	var sweep, train jobView
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":3}`, http.StatusAccepted, &sweep)
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":2,"batch":8,"steps":8,"eval_every":4,"seed":6}`,
		http.StatusAccepted, &train)
	waitStatus(t, ts, sweep.ID, statusDone)
	waitStatus(t, ts, train.ID, statusDone)

	before := scrape(t, ts.URL)
	snap := getMetrics(t, ts.URL)
	after := scrape(t, ts.URL)

	series := map[string]float64{}
	for _, c := range snap.Counters {
		series[seriesKey(c.Name, c.Labels)] = float64(c.Value)
	}
	for _, g := range snap.Gauges {
		series[seriesKey(g.Name, g.Labels)] = g.Value
	}
	for key, v := range series {
		lo, okLo := before[key]
		hi, okHi := after[key]
		if !okLo || !okHi {
			t.Fatalf("%s = %g on /v1/metrics but absent from /metrics", key, v)
		}
		if v < lo || v > hi {
			t.Fatalf("%s = %g on /v1/metrics, outside the bracketing scrapes [%g, %g]", key, v, lo, hi)
		}
	}
	for key, want := range map[string]float64{
		`fdaserve_jobs{status="done"}`:    2,
		`fdaserve_jobs{status="running"}`: 0,
		`fdaserve_jobs_in_flight`:         0,
	} {
		if series[key] != want || before[key] != want || after[key] != want {
			t.Fatalf("%s: json %g, scrapes %g/%g, want %g", key, series[key], before[key], after[key], want)
		}
	}
	if b := series["fdaserve_simulated_bytes"]; b <= 0 || before["fdaserve_simulated_bytes"] != b {
		t.Fatalf("simulated bytes: json %g, scrape %g", b, before["fdaserve_simulated_bytes"])
	}
}

// scrape fetches GET /metrics and indexes its samples by seriesKey.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if err := obs.ValidatePrometheusText(body); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		name, block, _ := strings.Cut(line[:sp], "{")
		labels := map[string]string{}
		for _, pair := range splitLabelPairs(strings.TrimSuffix(block, "}")) {
			k, val, _ := strings.Cut(pair, "=")
			labels[k] = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(strings.Trim(val, `"`))
		}
		out[seriesKey(name, labels)] = v
	}
	return out
}

// splitLabelPairs splits a k="v",... block on the commas outside
// quoted values.
func splitLabelPairs(block string) []string {
	var parts []string
	quoted, start := false, 0
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '\\':
			i++
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				parts = append(parts, block[start:i])
				start = i + 1
			}
		}
	}
	if start < len(block) {
		parts = append(parts, block[start:])
	}
	return parts
}

// seriesKey renders name{k="v",...} with labels in sorted order.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + "=" + strconv.Quote(labels[k])
	}
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// TestAccessLog pins the structured access log: one line per request
// with method, path, route pattern, status, duration and the job id.
func TestAccessLog(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st, 2, context.Background())
	var buf bytes.Buffer
	srv.accessLog = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/v1/runs/r404", http.StatusNotFound, nil)
	line := buf.String()
	for _, want := range []string{
		"msg=access", "method=GET", "path=/v1/runs/r404",
		`route="GET /v1/runs/{id}"`, "status=404", "dur=", "job=r404",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %q: %q", want, line)
		}
	}
}

// waitStatus polls a job until it reaches the wanted terminal status.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v jobView
		getJSON(t, ts.URL+"/v1/runs/"+id, http.StatusOK, &v)
		if v.Status == want {
			return v
		}
		if v.Status != statusRunning {
			t.Fatalf("job %s reached %q (err %q), want %q", id, v.Status, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTrainDistributedEndToEnd drives a distributed train job through
// the HTTP API: the server coordinates on its fabric address, two
// worker "processes" (dist.RunWorker in goroutines — the same code
// fdarun -worker runs) join, and the job lands done with the verified
// cluster result counted into the metrics.
func TestTrainDistributedEndToEnd(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st, 2, context.Background())
	srv.fabricAddr = "127.0.0.1:0"
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	// Distributed without -fabric is a client error.
	noFabric := testServer(t, t.TempDir())
	postJSON(t, noFabric.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","distributed":true}`, http.StatusBadRequest, nil)

	var v jobView
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"LinearFDA","k":2,"batch":16,"steps":16,"eval_every":8,"seed":7,"distributed":true}`,
		http.StatusAccepted, &v)

	// The coordinator listens on an ephemeral port; the job view
	// announces it once the listener is bound.
	addr := waitFabricAddr(t, ts, v.ID)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, _, errs[w] = dist.RunWorker(context.Background(), addr, 1)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	final := waitStatus(t, ts, v.ID, statusDone)
	if final.Steps != 16 {
		t.Fatalf("distributed job ran %d steps, want 16", final.Steps)
	}

	if got := getMetrics(t, ts.URL).GaugeSum("fdaserve_simulated_bytes"); got <= 0 {
		t.Fatalf("distributed run contributed %g simulated bytes", got)
	}
}

// waitFabricAddr polls the job view until the coordinator address is
// published.
func waitFabricAddr(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		getJSON(t, ts.URL+"/v1/runs/"+id, http.StatusOK, &v)
		if v.FabricAddr != "" {
			return v.FabricAddr
		}
		if v.Status != statusRunning {
			t.Fatalf("job %s reached %q before binding its fabric listener", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("coordinator address never published")
	return ""
}
