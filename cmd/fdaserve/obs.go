package main

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// This file is fdaserve's observability surface (DESIGN.md §11): the
// server-derived gauges are registered here and refreshed by sample(),
// and GET /metrics / GET /v1/metrics serve the process-wide registry —
// session, fabric, runstore, HTTP and job telemetry alike — through the
// obs handler pair. The per-route HTTP telemetry and access log come
// from cluster.Instrument, which fdagate shares.

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
