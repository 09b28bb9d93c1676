package main

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is fdaserve's observability surface (DESIGN.md §11): the
// instrument middleware wraps the whole API with per-route latency
// histograms, status-code counters and a structured access log; the
// server-derived gauges are registered here and refreshed by sample();
// and GET /metrics / GET /v1/metrics serve the process-wide registry —
// session, fabric, runstore, HTTP and job telemetry alike — through the
// obs handler pair.

// Job scheduling telemetry. Queue wait is the admission→start interval
// (zero-ish under the in-process executor, real under a queueing one);
// run time is start→terminal-status per job kind.
var (
	jobQueueWait = obs.Default.Histogram("fdaserve_job_queue_wait_seconds",
		"Delay between a job's admission and its execute goroutine starting.", obs.Seconds)
	jobRunSweep = obs.Default.Histogram("fdaserve_job_run_seconds",
		"Job wall-clock from execution start to terminal status.", obs.Seconds, "kind", "sweep")
	jobRunTrain = obs.Default.Histogram("fdaserve_job_run_seconds",
		"Job wall-clock from execution start to terminal status.", obs.Seconds, "kind", "train")
	// jobsRejected counts submissions refused by the -max-queue
	// admission cap (503 + Retry-After) — shed load, observable apart
	// from failures.
	jobsRejected = obs.Default.Counter("fdaserve_jobs_rejected_total",
		"Job submissions refused by the -max-queue admission cap.")
	// The server-derived gauges below are refreshed by sample() right
	// before either metrics endpoint reads the registry, so GET /metrics
	// and GET /v1/metrics serve the same numbers from the same source.
	jobsInFlight = obs.Default.Gauge("fdaserve_jobs_in_flight",
		"Admitted jobs that have not reached a terminal status.")
	jobsMaxQueue = obs.Default.Gauge("fdaserve_jobs_max_queue",
		"The -max-queue admission cap (0 = unbounded).")
	gDraining = obs.Default.Gauge("fdaserve_draining",
		"1 while the replica refuses new submissions (POST /v1/drain), else 0.")
	gBytesSimulated = obs.Default.Gauge("fdaserve_simulated_bytes",
		"Communication volume accounted by every job finished since start.")
	gStoreRuns = obs.Default.Gauge("fdaserve_store_runs",
		"Cached run manifests in the run registry.")
	gStoreSnapshots = obs.Default.Gauge("fdaserve_store_snapshots",
		"Trajectory-prefix snapshots in the run registry.")
	gSnapshotHits = obs.Default.Gauge("fdaserve_snapshot_hits",
		"Sweep cells warm-started from a prefix snapshot, summed over jobs.")
	gStepsSaved = obs.Default.Gauge("fdaserve_steps_saved",
		"Training steps skipped by warm starts, summed over jobs.")
	gUptime = obs.Default.Gauge("fdaserve_uptime_seconds",
		"Seconds since the server started.")
)

// jobStatuses are the fdaserve_jobs gauge's status labels: the job
// status values, with "queued" split off "running" for admitted jobs
// whose execute goroutine has not started yet.
var jobStatuses = []string{"queued", statusRunning, statusDone, statusFailed, statusCancelled, statusInterrupted}

var jobsByStatus = func() []*obs.Gauge {
	gs := make([]*obs.Gauge, len(jobStatuses))
	for i, st := range jobStatuses {
		gs[i] = obs.Default.Gauge("fdaserve_jobs", "Jobs known to the server by status.", "status", st)
	}
	return gs
}()

// sample refreshes every server-derived gauge from live state. It runs
// before either metrics endpoint reads the registry (sampled).
func (s *server) sample() {
	counts := map[string]int{}
	var hits, saved int64
	s.mu.Lock()
	for _, j := range s.byID {
		v := j.view()
		st := v.Status
		if st == statusRunning && j.startedNs.Load() == 0 {
			st = "queued"
		}
		counts[st]++
		hits += v.SnapshotHits
		saved += v.StepsSaved
	}
	s.mu.Unlock()
	for i, st := range jobStatuses {
		jobsByStatus[i].Set(float64(counts[st]))
	}
	jobsInFlight.Set(float64(s.active.Load()))
	jobsMaxQueue.Set(float64(s.maxQueue))
	drain := 0.0
	if s.draining.Load() {
		drain = 1
	}
	gDraining.Set(drain)
	gBytesSimulated.Set(float64(s.bytesSimulated.Load()))
	gStoreRuns.Set(float64(s.store.Count()))
	gStoreSnapshots.Set(float64(s.store.SnapshotCount()))
	gSnapshotHits.Set(float64(hits))
	gStepsSaved.Set(float64(saved))
	gUptime.Set(time.Since(s.started).Seconds())
}

// sampled wraps one of the obs metrics handlers so the gauges it reads
// are current.
func (s *server) sampled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.sample()
		h(w, r)
	}
}

func jobRunSeconds(kind string) *obs.Histogram {
	if kind == "train" {
		return jobRunTrain
	}
	return jobRunSweep
}

// httpTele caches the per-route metric handles so the middleware does
// one sync.Map load per request instead of a registry lookup (same
// idiom as the fabric's meter counters).
type httpTele struct {
	seconds *obs.Histogram
	byCode  sync.Map // status code (int) -> *obs.Counter
}

var httpRoutes sync.Map // route pattern -> *httpTele

func httpTeleFor(route string) *httpTele {
	if t, ok := httpRoutes.Load(route); ok {
		return t.(*httpTele)
	}
	t := &httpTele{seconds: obs.Default.Histogram("fdaserve_http_request_seconds",
		"HTTP request latency by route pattern.", obs.Seconds, "route", route)}
	actual, _ := httpRoutes.LoadOrStore(route, t)
	return actual.(*httpTele)
}

func (t *httpTele) counter(route string, code int) *obs.Counter {
	if c, ok := t.byCode.Load(code); ok {
		return c.(*obs.Counter)
	}
	c := obs.Default.Counter("fdaserve_http_requests_total",
		"HTTP requests by route pattern and status code.", "route", route, "code", strconv.Itoa(code))
	actual, _ := t.byCode.LoadOrStore(code, c)
	return actual.(*obs.Counter)
}

// statusWriter records the response status for the middleware. It must
// implement http.Flusher: the SSE endpoint streams through it.
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

// instrument wraps the API mux with telemetry and access logging. The
// route label is the mux pattern (r.Pattern is populated by ServeMux on
// the same request value, so it is readable here after ServeHTTP), so
// /v1/runs/r1 and /v1/runs/r2 share the /v1/runs/{id} series instead of
// exploding cardinality.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = "(unmatched)"
		}
		dur := time.Since(start)
		t := httpTeleFor(route)
		t.seconds.Observe(int64(dur))
		t.counter(route, sw.status).Inc()
		if s.accessLog != nil {
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
			s.accessLog.Info("access", attrs...)
		}
	})
}
