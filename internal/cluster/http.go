package cluster

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// MaxBodyBytes bounds every submission body fdaserve and fdagate read.
// Larger bodies are answered 413.
const MaxBodyBytes = 1 << 20

// Instrument wraps an API mux with per-route telemetry: the
// <prefix>_http_request_seconds latency histogram and the
// <prefix>_http_requests_total status counter, timed with obs.Clock.
// The route label is the mux pattern (ServeMux sets r.Pattern on the
// same request value, so it is readable after ServeHTTP), so
// /v1/runs/r1 and /v1/runs/r2 share the /v1/runs/{id} series. A
// non-nil log receives one structured access line per request.
func Instrument(prefix string, log *slog.Logger, next http.Handler) http.Handler {
	var routes sync.Map // route pattern -> *routeTele
	teleFor := func(route string) *routeTele {
		if t, ok := routes.Load(route); ok {
			return t.(*routeTele)
		}
		t := &routeTele{seconds: obs.Default.Histogram(prefix+"_http_request_seconds",
			"HTTP request latency by route pattern.", obs.Seconds, "route", route)}
		actual, _ := routes.LoadOrStore(route, t)
		return actual.(*routeTele)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := obs.Clock()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = "(unmatched)"
		}
		t := teleFor(route)
		t.seconds.Since(start)
		t.counter(prefix, route, sw.status).Inc()
		if log != nil {
			var dur time.Duration
			if start != 0 {
				dur = time.Duration(obs.Clock() - start)
			}
			attrs := []any{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Duration("dur", dur),
			}
			if id := r.PathValue("id"); id != "" {
				attrs = append(attrs, slog.String("job", id))
			}
			log.Info("access", attrs...)
		}
	})
}

// routeTele caches one route's metric handles, so a request costs one
// sync.Map load instead of a registry lookup.
type routeTele struct {
	seconds *obs.Histogram
	byCode  sync.Map // status code (int) -> *obs.Counter
}

func (t *routeTele) counter(prefix, route string, code int) *obs.Counter {
	if c, ok := t.byCode.Load(code); ok {
		return c.(*obs.Counter)
	}
	c := obs.Default.Counter(prefix+"_http_requests_total",
		"HTTP requests by route pattern and status code.", "route", route, "code", strconv.Itoa(code))
	actual, _ := t.byCode.LoadOrStore(code, c)
	return actual.(*obs.Counter)
}

// statusWriter records the response status for Instrument. It must
// implement http.Flusher: SSE streams through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
