package cluster

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestInstrument pins the middleware both servers share: series under
// the caller's prefix keyed by mux pattern and status, and one access
// line per request when a logger is given.
func TestInstrument(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such run", http.StatusNotFound)
	})
	var log bytes.Buffer
	ts := httptest.NewServer(Instrument("instrumenttest", slog.New(slog.NewTextHandler(&log, nil)), mux))
	t.Cleanup(ts.Close)

	for _, path := range []string{"/v1/runs/r7", "/nowhere"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	snap := obs.Default.Snapshot()
	for _, want := range []map[string]string{
		{"route": "GET /v1/runs/{id}", "code": "404"},
		{"route": "(unmatched)", "code": "404"},
	} {
		found := false
		for _, c := range snap.Counters {
			found = found || (c.Name == "instrumenttest_http_requests_total" &&
				c.Labels["route"] == want["route"] && c.Labels["code"] == want["code"])
		}
		if !found {
			t.Errorf("no instrumenttest_http_requests_total series %v", want)
		}
	}
	found := false
	for _, h := range snap.Histograms {
		found = found || (h.Name == "instrumenttest_http_request_seconds" && h.Labels["route"] == "GET /v1/runs/{id}")
	}
	if !found {
		t.Error("no instrumenttest_http_request_seconds series for the route")
	}
	for _, want := range []string{"msg=access", "path=/v1/runs/r7", `route="GET /v1/runs/{id}"`, "status=404", "dur=", "job=r7"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("access log missing %q: %q", want, log.String())
		}
	}
}
