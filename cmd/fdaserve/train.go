package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
)

// This file implements single-run training sessions as first-class
// server jobs: POST /v1/train starts a core.Session, its typed events
// stream over the job's SSE endpoint, DELETE cancels it between steps
// and writes a full-state checkpoint into the store directory, and
// resubmitting the same spec restores that checkpoint and continues
// bit-identically to a run that was never interrupted (the session
// resume contract, pinned by TestTrainCancelResumeExact).

// checkpointPath addresses the resume checkpoint of a train spec inside
// the store directory.
func (s *server) checkpointPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.store.Dir(), "sessions", hex.EncodeToString(sum[:8])+".ckpt")
}

// handleTrain implements POST /v1/train: the body is a dist.JobSpec,
// validated at the door without synthesizing its datasets (that costs
// hundreds of milliseconds, so it happens on the job goroutine) and
// registered under its dedupe key.
func (s *server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var spec dist.JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	spec = spec.WithDefaults()
	if spec.TopK != 0 || spec.QBits != 0 {
		// The dedupe key does not cover sync compression, and the HTTP
		// API does not offer it.
		writeError(w, http.StatusBadRequest, "topk and qbits are not accepted by /v1/train")
		return
	}
	if err := spec.Validate(); err != nil {
		var cerr *core.ConfigError
		if errors.As(err, &cerr) {
			fields := make([]map[string]string, 0, len(cerr.Fields))
			for _, f := range cerr.Fields {
				fields = append(fields, map[string]string{"field": f.Field, "msg": f.Msg})
			}
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error(), "fields": fields})
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if spec.Distributed && s.fabricAddr == "" {
		writeError(w, http.StatusBadRequest, "distributed training requires the server to be started with -fabric")
		return
	}

	j, ctx, existing, err := s.createJob(spec.Key(), func(j *job) {
		j.Kind = "train"
		j.Experiment = spec.Model + "/" + spec.Strategy
		j.Seed = spec.Seed
	})
	if err != nil {
		s.writeUnavailable(w, err)
		return
	}
	if existing {
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	run := s.train
	if spec.Distributed {
		run = s.trainDistributed
	}
	s.start(j, func() (any, error) { return run(ctx, j, spec) })
	writeJSON(w, http.StatusAccepted, j.view())
}

// trainDistributed coordinates one multi-process training run: the job
// listens on the server's fabric address, waits for the K worker
// processes, relays their collectives and returns the verified cluster
// Result. Cancellation (DELETE or shutdown) closes the coordinator,
// which unblocks the workers with transport errors.
func (s *server) trainDistributed(ctx context.Context, j *job, spec dist.JobSpec) (any, error) {
	coord, err := comm.ListenCoordinator(s.fabricAddr, spec.K)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	j.mu.Lock()
	j.fabricAddr = coord.Addr()
	j.mu.Unlock()
	j.events.publish("fabric", map[string]any{"addr": coord.Addr(), "workers": spec.K})

	res, err := dist.Coordinate(ctx, coord, spec)
	if err != nil {
		return nil, err
	}
	j.steps.Store(int64(res.Steps))
	j.syncs.Store(int64(res.SyncCount))
	return res, nil
}

// train drives one core.Session under ctx, restoring a prior
// interrupted submission's checkpoint when one exists and writing one
// when this run is cancelled. A run that fails or panics leaves no
// checkpoint: re-running the same deterministic spec re-fails, so the
// sessions directory only ever holds resumable state.
func (s *server) train(ctx context.Context, j *job, spec dist.JobSpec) (any, error) {
	ckpt := s.checkpointPath(j.key)
	defer func() {
		if r := recover(); r != nil {
			os.Remove(ckpt)
			panic(r)
		}
	}()

	cfg, err := spec.BuildConfig()
	if err != nil {
		return nil, err
	}
	cfg.Parallelism = s.jobs
	strat, err := spec.BuildStrategy(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(ctx, cfg, strat)
	if err != nil {
		os.Remove(ckpt)
		return nil, err
	}
	if snap, err := checkpoint.Load(ckpt); err == nil {
		if err := sess.Restore(snap); err != nil {
			// A stale or mismatched checkpoint must not poison the run:
			// drop it and train from scratch.
			fmt.Fprintf(os.Stderr, "fdaserve: dropping bad checkpoint %s: %v\n", ckpt, err)
			os.Remove(ckpt)
		} else {
			j.resumed.Store(true)
			j.steps.Store(int64(sess.StepCount()))
		}
	}

	sess.Subscribe(func(e core.Event) {
		switch ev := e.(type) {
		case core.StepEvent:
			j.steps.Store(int64(ev.Step))
			j.events.publish("step", ev)
		case core.SyncEvent:
			j.syncs.Store(int64(ev.SyncCount))
			j.events.publish("sync", ev)
		case core.EvalEvent:
			j.events.publish("eval", ev)
		case core.DoneEvent:
			j.events.publish("done", ev)
		}
	})

	res, err := sess.Run()
	switch {
	case err == nil:
		os.Remove(ckpt) // the run is complete; nothing left to resume
		return res, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if snap, serr := sess.Snapshot(); serr == nil {
			if werr := saveCheckpoint(ckpt, snap); werr != nil {
				fmt.Fprintf(os.Stderr, "fdaserve: saving resume checkpoint: %v\n", werr)
			}
		} else {
			fmt.Fprintf(os.Stderr, "fdaserve: snapshotting cancelled session: %v\n", serr)
		}
	default:
		os.Remove(ckpt)
	}
	return nil, err
}

// sweepSessionCheckpoints removes session resume checkpoints older than
// ttl from <store>/sessions. A checkpoint is only useful to a
// resubmission of the same spec; one that has sat unclaimed past the
// TTL is an orphan — its job was abandoned, or a crash skipped the
// cleanup paths. Returns how many files were removed.
func sweepSessionCheckpoints(storeDir string, ttl time.Duration) int {
	dir := filepath.Join(storeDir, "sessions")
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	n := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".ckpt") {
			continue
		}
		info, err := de.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, de.Name())) == nil {
			n++
		}
	}
	return n
}

// saveCheckpoint writes snap to path, creating the sessions directory on
// first use.
func saveCheckpoint(path string, snap *checkpoint.Snapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return checkpoint.Save(path, snap)
}

// appendLine appends one line to path (creating it as needed).
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
