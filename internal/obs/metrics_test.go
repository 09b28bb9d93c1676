package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// withEnabled runs the body with the global gate on, restoring the
// prior state (tests in this package share the process-wide switch).
func withEnabled(t *testing.T, body func()) {
	t.Helper()
	prev := On()
	Enable()
	defer func() {
		if !prev {
			Disable()
		}
	}()
	body()
}

func TestCounterGateAndValue(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	Disable()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter recorded %d, want 0", got)
	}
	withEnabled(t, func() {
		c.Add(5)
		c.Inc()
	})
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h", "k", "v")
	b := r.Counter("c_total", "h", "k", "v")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c := r.Counter("c_total", "h", "k", "w"); c == a {
		t.Fatal("different label value returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("c_total", "h", "k", "v")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", Seconds)
	withEnabled(t, func() {
		// 90 fast observations ~1µs, 10 slow ~1ms.
		for i := 0; i < 90; i++ {
			h.Observe(1000)
		}
		for i := 0; i < 10; i++ {
			h.Observe(1_000_000)
		}
	})
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	wantSum := (90*1000 + 10*1_000_000) / 1e9
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	// The p50 must land in the fast bucket, the p99 in the slow one.
	// Bucket upper bounds overestimate by at most 2×.
	if p50 := h.Quantile(0.50); p50 < 1000/1e9 || p50 > 2048/1e9 {
		t.Fatalf("p50 = %v, want ~1µs", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 1_000_000/1e9 || p99 > 2_097_152/1e9 {
		t.Fatalf("p99 = %v, want ~1ms", p99)
	}
	if p := h.Quantile(0.50); h.Quantile(0.99) < p {
		t.Fatal("quantiles are not monotone")
	}
}

func TestHistogramSinceDropsZeroStart(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "h", Seconds)
	// A start stamp of 0 means the clock was read while disabled: the
	// interval straddles the enable switch and must be dropped.
	withEnabled(t, func() { h.Since(0) })
	if h.Count() != 0 {
		t.Fatalf("Since(0) recorded %d observations, want 0", h.Count())
	}
	withEnabled(t, func() { h.Since(Clock()) })
	if h.Count() != 1 {
		t.Fatalf("Since(Clock()) recorded %d observations, want 1", h.Count())
	}
}

func TestSnapshotAndCounterSum(t *testing.T) {
	r := NewRegistry()
	withEnabled(t, func() {
		r.Counter("syncs_total", "h", "strategy", "A").Add(3)
		r.Counter("syncs_total", "h", "strategy", "B").Add(4)
		r.Gauge("up", "h").Set(1)
		r.Gauge("jobs", "h", "status", "done").Set(2)
		r.Gauge("jobs", "h", "status", "failed").Set(3)
		r.Histogram("d_seconds", "h", Seconds).Observe(5000)
	})
	s := r.Snapshot()
	if len(s.Counters) != 2 || len(s.Gauges) != 3 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot shape = %d/%d/%d", len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	if got := s.CounterSum("syncs_total"); got != 7 {
		t.Fatalf("CounterSum = %d, want 7", got)
	}
	if got := s.CounterSum("syncs_total", "strategy", "B"); got != 4 {
		t.Fatalf("CounterSum(strategy=B) = %d, want 4", got)
	}
	if got := s.GaugeSum("jobs"); got != 5 {
		t.Fatalf("GaugeSum = %g, want 5", got)
	}
	if got := s.GaugeSum("jobs", "status", "failed"); got != 3 {
		t.Fatalf("GaugeSum(status=failed) = %g, want 3", got)
	}
	if s.Counters[0].Labels["strategy"] != "A" {
		t.Fatalf("snapshot not label-sorted: %+v", s.Counters)
	}
	if s.Histograms[0].Count != 1 || s.Histograms[0].P50 <= 0 {
		t.Fatalf("histogram snapshot = %+v", s.Histograms[0])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	withEnabled(t, func() {
		r.Counter("jobs_total", "jobs seen", "status", `we"ird`).Add(2)
		r.Gauge("uptime_seconds", "uptime").Set(1.5)
		h := r.Histogram("req_seconds", "request latency", Seconds, "route", "GET /x")
		h.Observe(1000)
		h.Observe(1_000_000)
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		`jobs_total{status="we\"ird"} 2`,
		"# TYPE uptime_seconds gauge",
		"uptime_seconds 1.5",
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{route="GET /x",le="+Inf"} 2`,
		`req_seconds_count{route="GET /x"} 2`,
		`req_seconds_sum{route="GET /x"} 0.001001`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	// The validator must reject as well as accept: the live-scrape checks
	// (fdaload -check) depend on both directions.
	if err := ValidatePrometheusText("not a metric line\n"); err == nil {
		t.Fatal("garbage exposition accepted")
	}
}

// TestValidatorRoundTrip: the validator accepts what a registry with
// untouched series writes (zero counter, empty histogram) and rejects
// malformed text — the fdaload -check scrape depends on both directions.
func TestValidatorRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("smoke_total", "A counter.", "kind", "a").Add(0)
	r.Histogram("smoke_seconds", "A histogram.", Seconds)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheusText(sb.String()); err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, sb.String())
	}
	if err := ValidatePrometheusText("not a metric line\n"); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestServeHandlers pins the handler pair every binary mounts: GET
// /metrics and GET /v1/metrics render the same registry series.
func TestServeHandlers(t *testing.T) {
	r := NewRegistry()
	withEnabled(t, func() {
		r.Counter("req_total", "h", "code", "200").Add(7)
		r.Gauge("depth", "h").Set(2.5)
	})
	prom := httptest.NewRecorder()
	r.ServePrometheus(prom, httptest.NewRequest("GET", "/metrics", nil))
	if ct := prom.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("exposition content type %q", ct)
	}
	text := prom.Body.String()
	for _, want := range []string{`req_total{code="200"} 7`, "depth 2.5", "go_sched_goroutines "} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatal(err)
	}

	js := httptest.NewRecorder()
	r.ServeJSON(js, httptest.NewRequest("GET", "/v1/metrics", nil))
	var doc MetricsDoc
	if err := json.Unmarshal(js.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Telemetry.CounterSum("req_total", "code", "200") != 7 || doc.Telemetry.GaugeSum("depth") != 2.5 {
		t.Fatalf("JSON twin diverges from the exposition: %+v", doc.Telemetry)
	}
	if doc.Runtime["go_sched_goroutines"] < 1 {
		t.Fatalf("runtime sample missing: %+v", doc.Runtime)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRuntimeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "go_sched_goroutines ") {
		t.Fatalf("runtime exposition missing goroutines:\n%s", buf.String())
	}
	if err := ValidatePrometheusText(buf.String()); err != nil {
		t.Fatal(err)
	}
	if RuntimeSample()["go_sched_goroutines"] < 1 {
		t.Fatal("RuntimeSample reports no goroutines")
	}
}
