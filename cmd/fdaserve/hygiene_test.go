package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/runstore"
)

// TestTrainFailureDropsCheckpoint pins the orphan-checkpoint fix: a
// train job that fails terminally must remove its session checkpoint,
// even when the failure is a panic out of session construction.
func TestTrainFailureDropsCheckpoint(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(st, 2, context.Background())
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	// Plant a stale checkpoint under the exact key the submission will
	// compute; a negative Θ makes the strategy's Init panic, so the job
	// fails before a single step.
	req := trainRequest{TrainSpec: cluster.TrainSpec{Model: "lenet5s", Strategy: "SketchFDA", Theta: -1, K: 3, Steps: 40}}
	req.withDefaults()
	ckpt := s.checkpointPath(req.canonicalKey())
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	var v jobView
	postJSON(t, ts.URL+"/v1/train",
		`{"model":"lenet5s","strategy":"SketchFDA","theta":-1,"k":3,"steps":40}`,
		http.StatusAccepted, &v)
	waitStatus(t, ts, v.ID, statusFailed)
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("failed train job left checkpoint %s (stat err %v)", ckpt, err)
	}
}

// TestSweepSessionCheckpoints pins the startup TTL sweep: checkpoints
// older than the TTL go, fresh ones and foreign files stay.
func TestSweepSessionCheckpoints(t *testing.T) {
	dir := t.TempDir()
	sessions := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(sessions, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(sessions, "deadbeef.ckpt")
	fresh := filepath.Join(sessions, "cafef00d.ckpt")
	other := filepath.Join(sessions, "notes.txt")
	for _, p := range []string{old, fresh, other} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(other, stale, stale); err != nil {
		t.Fatal(err)
	}

	if n := sweepSessionCheckpoints(dir, 24*time.Hour); n != 1 {
		t.Fatalf("swept %d checkpoints, want 1", n)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("expired checkpoint survived the sweep")
	}
	for _, p := range []string{fresh, other} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("sweep removed %s: %v", p, err)
		}
	}
	// No sessions directory at all is a quiet no-op.
	if n := sweepSessionCheckpoints(t.TempDir(), time.Hour); n != 0 {
		t.Fatalf("sweep of empty store removed %d", n)
	}
}

// TestJournalRecovery pins the journal read-back: after a restart, jobs
// journaled mid-run resurface as "interrupted" in /v1/runs, their keys
// give way to resubmissions, the ID counter continues past every
// journaled ID, and the journal file is compacted to one line per job.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First server life: one sweep runs to completion, a second is
	// journaled as running and never transitions (simulating a crash).
	first := newServer(st, 2, context.Background())
	ts := httptest.NewServer(first.routes())
	var done jobView
	postJSON(t, ts.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":1}`, http.StatusAccepted, &done)
	waitStatus(t, ts, done.ID, statusDone)
	ts.Close()
	crashed := jobView{ID: "r7", Kind: "sweep", Experiment: "smoke", Scale: "tiny", Seed: 9,
		Status: statusRunning, Cells: 2, Executed: 1}
	first.journal.record(crashed, "sweep|smoke|tiny|9")
	// A torn tail line (crash mid-append) must not poison recovery.
	if err := appendLine(filepath.Join(dir, "jobs.jsonl"), []byte(`{"time":"2026-08-08T0`)); err != nil {
		t.Fatal(err)
	}

	// Second life over the same store directory.
	second := newServer(st, 2, context.Background())
	second.recoverJournal()
	ts2 := httptest.NewServer(second.routes())
	t.Cleanup(ts2.Close)

	var views []jobView
	getJSON(t, ts2.URL+"/v1/runs", http.StatusOK, &views)
	if len(views) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (the interrupted one): %+v", len(views), views)
	}
	v := views[0]
	if v.ID != "r7" || v.Status != statusInterrupted || v.Error == "" {
		t.Fatalf("recovered job = %+v", v)
	}
	if v.Cells != 2 || v.Executed != 1 {
		t.Fatalf("recovered job lost its progress counters: %+v", v)
	}
	if got := getMetrics(t, ts2.URL).GaugeSum("fdaserve_jobs", "status", statusInterrupted); got != 1 {
		t.Fatalf("metrics interrupted = %g, want 1", got)
	}
	// Records of an interrupted job are a conflict, not a null payload.
	getJSON(t, ts2.URL+"/v1/runs/r7/records", http.StatusConflict, nil)

	// The journal is compacted to one line per job, torn tail dropped.
	b, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(string(b)), "\n") + 1; n != 2 {
		t.Fatalf("compacted journal holds %d lines, want 2:\n%s", n, b)
	}

	// Resubmitting the interrupted spec starts a fresh job with a fresh
	// ID past every journaled one — the interrupted shell gave way.
	var re jobView
	postJSON(t, ts2.URL+"/v1/runs", `{"experiment":"smoke","scale":"tiny","seed":9}`, http.StatusAccepted, &re)
	if re.ID != "r8" {
		t.Fatalf("resubmission got ID %s, want r8 (counter continues past journal)", re.ID)
	}
	waitStatus(t, ts2, re.ID, statusDone)
}
