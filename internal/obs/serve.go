package obs

import (
	"encoding/json"
	"net/http"
)

// MetricsDoc is the GET /v1/metrics document: the registry snapshot
// plus the runtime/metrics sample — the JSON twin of GET /metrics,
// carrying exactly the same registry series.
type MetricsDoc struct {
	Telemetry Snap               `json:"telemetry"`
	Runtime   map[string]float64 `json:"runtime"`
}

// ServePrometheus implements GET /metrics: the registry in Prometheus
// text format followed by the runtime/metrics samples. Together with
// ServeJSON it is the only metrics surface of every binary; a server
// whose gauges derive from its own state samples them before calling
// either.
func (r *Registry) ServePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := r.WritePrometheus(w); err != nil {
		return // client went away; nothing to salvage
	}
	_ = WriteRuntimeMetrics(w)
}

// ServeJSON implements GET /v1/metrics: the registry snapshot and the
// runtime sample as one MetricsDoc.
func (r *Registry) ServeJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(MetricsDoc{Telemetry: r.Snapshot(), Runtime: RuntimeSample()})
}
