package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The serve workload sends open-loop Poisson traffic through fdagate to
// two fdaserve replicas sharing one fresh run store. The mix is mostly
// unique short lenet5s train jobs (real work, K=2, strategies in
// rotation), resubmissions of earlier specs (the read and dedupe path)
// and a few tiny smoke sweeps (the experiments/runstore write path).
// Every request is timed from the moment it was due.

const (
	// serveRate is the arrival rate in requests per second: about 30% of
	// the capacity measured for this mix on the parent commit (2 vCPU).
	// Nearer saturation, queueing amplifies the machine's own noise past
	// any usable regression bound (perfbench/README.md).
	serveRate = 3.0
	// serveSteps is the length of every serve train job. The jobs run
	// a fixed number of steps, without an accuracy target, so that each
	// does the same work and latency reflects the service rather than
	// how many steps a seed needs.
	serveSteps = 30
	// serveJobs is the replicas' -jobs setting: each train job steps its
	// workers on one core, so concurrent jobs spread over the cores.
	serveJobs = 1
	// servePoll is how often the client polls an unfinished job; the
	// median job takes several times longer.
	servePoll = 50 * time.Millisecond
	// serveLimit is the train-job latency limit goodput counts against.
	serveLimit = 3 * time.Second
	// serveDrain bounds the wait for jobs still running after the last
	// arrival.
	serveDrain = 60 * time.Second
	// Arrival i is a sweep when i%sweepEvery == 2 and a resubmission
	// when i%resubmitEvery == 3 (and it is not a sweep); every other
	// arrival is a new train job.
	sweepEvery    = 20
	resubmitEvery = 7
	// hopEvery is how often the traced run pairs a poll with the same
	// GET sent straight to the owning replica.
	hopEvery = 3
)

// arrivalSeed fixes the arrival times, while the workload seed picks
// what arrives: with each seed drawing its own bursts, latency percentiles
// varied more between seeds than any usable regression bound.
const arrivalSeed = 20250317

var serveStrategies = []string{"LinearFDA", "SketchFDA", "Synchronous"}

// arrival is one scheduled request.
type arrival struct {
	// seg is the segment the arrival belongs to; due is relative to the
	// segment's start.
	seg  int
	due  time.Duration
	kind string // "train", "resubmit" or "sweep"
	path string
	body []byte
	spec dist.JobSpec // train and resubmit
	seed uint64       // sweep
	orig int          // resubmit: index of the original train arrival
	// phase delays the first poll after the submission returns: a
	// uniform offset within servePoll, so observed completion times are
	// dithered rather than quantized to whole poll intervals.
	phase time.Duration
}

// serveSchedule expands the seed into n = serveRate·seconds arrivals: a
// Poisson process conditioned on n arrivals in the window, i.e. the
// internal/workload expansion rescaled so arrival n+1 falls at its end.
// Fixing n keeps the amount of work the same on every seed. The window
// is cut into setupReps equal segments, each served by a freshly booted
// cluster; a resubmission repeats a spec of its own segment.
func serveSchedule(seed uint64, seconds float64) ([]arrival, error) {
	n := int(serveRate*seconds + 0.5)
	if n < 1 {
		n = 1
	}
	window := time.Duration(seconds * float64(time.Second))
	times := workload.Arrival{Process: "poisson", Rate: serveRate}.Times(tensor.NewRNG(arrivalSeed), int64(20*window))
	if len(times) <= n {
		return nil, fmt.Errorf("poisson expansion gave %d arrivals, need %d", len(times), n+1)
	}
	scale := float64(window) / float64(times[n])
	pick := tensor.NewRNG(seed)
	var trains []int // this segment's train arrivals
	nTrain := 0
	out := make([]arrival, n)
	for i := range out {
		a := &out[i]
		at := time.Duration(float64(times[i]) * scale)
		segLen := window / setupReps
		if a.seg = min(int(at/segLen), setupReps-1); i > 0 && a.seg != out[i-1].seg {
			trains = trains[:0]
		}
		a.due = at - time.Duration(a.seg)*segLen
		a.phase = time.Duration(pick.Float64() * float64(servePoll))
		switch {
		case i%sweepEvery == 2:
			a.kind, a.path, a.seed = "sweep", "/v1/runs", 1+pick.Uint64()%1_000_000_000
			a.body, _ = json.Marshal(map[string]any{"experiment": "smoke", "scale": "tiny", "seed": a.seed})
		case i%resubmitEvery == 3 && len(trains) > 0:
			a.orig = trains[pick.Intn(len(trains))]
			a.kind, a.path, a.spec, a.body = "resubmit", "/v1/train", out[a.orig].spec, out[a.orig].body
		default:
			a.kind, a.path = "train", "/v1/train"
			a.spec = dist.JobSpec{Model: "lenet5s", Strategy: serveStrategies[nTrain%len(serveStrategies)],
				K: 2, Batch: 32, Steps: serveSteps, EvalEvery: 10, Seed: 1 + pick.Uint64()%1_000_000_000}.WithDefaults()
			a.body, _ = json.Marshal(map[string]any{"model": a.spec.Model, "strategy": a.spec.Strategy,
				"k": a.spec.K, "batch": a.spec.Batch, "steps": a.spec.Steps, "eval_every": a.spec.EvalEvery,
				"seed": a.spec.Seed})
			trains = append(trains, i)
			nTrain++
		}
	}
	return out, nil
}

// --- the cluster under test ---

// cluster is two fdaserve replicas sharing a fresh store, behind fdagate.
type cluster struct {
	dir      string
	procs    []*exec.Cmd // replicas first, then the gateway
	replicas []string
	gateway  string
	// prefixes maps the gateway's job-id namespaces to replica bases.
	prefixes map[string]string
}

// bootCluster starts the replicas and then the gateway in a fresh
// directory and waits until all three answer /v1/healthz.
func bootCluster(o options, dir string) (*cluster, error) {
	c := &cluster{dir: dir, prefixes: map[string]string{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c, err
	}
	store := filepath.Join(dir, "store")
	for i := 0; i < 2; i++ {
		port, err := freePort()
		if err != nil {
			return c, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		if err := c.start(o, fmt.Sprintf("replica%d", i), "fdaserve", "-addr", addr, "-store", store,
			"-jobs", fmt.Sprint(serveJobs), "-name", fmt.Sprintf("r%d", i)); err != nil {
			return c, err
		}
		c.replicas = append(c.replicas, "http://"+addr)
	}
	for _, base := range c.replicas {
		if err := waitHealthy(base); err != nil {
			return c, err
		}
	}
	port, err := freePort()
	if err != nil {
		return c, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	if err := c.start(o, "gateway", "fdagate", "-addr", addr, "-replicas", strings.Join(c.replicas, ",")); err != nil {
		return c, err
	}
	c.gateway = "http://" + addr
	if err := waitHealthy(c.gateway); err != nil {
		return c, err
	}
	var table struct {
		Replicas []struct{ Base, Prefix string } `json:"replicas"`
	}
	if err := getJSON(c.gateway+"/v1/cluster", &table); err != nil {
		return c, err
	}
	for _, r := range table.Replicas {
		c.prefixes[r.Prefix] = r.Base
	}
	return c, nil
}

func (c *cluster) start(o options, name, bin string, args ...string) error {
	logf, err := os.Create(filepath.Join(c.dir, name+".log"))
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(o.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The children die with the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	c.procs = append(c.procs, cmd)
	return nil
}

// stop reads each replica's peak RSS, then kills every process and
// waits for it to exit.
func (c *cluster) stop() (replicaRSS []float64) {
	for i, cmd := range c.procs {
		if i < len(c.replicas) {
			if rss, err := peakRSSMB(cmd.Process.Pid); err == nil {
				replicaRSS = append(replicaRSS, rss)
			}
		}
		cmd.Process.Kill()
		cmd.Wait() // exits by SIGKILL
	}
	c.procs = nil
	return replicaRSS
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// Fine-grained: a boot takes a few of these, and setup_s is
		// their median.
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s did not become healthy", base)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// --- the open-loop load generator ---

// request is the client's record of one arrival.
type request struct {
	a       *arrival
	id      string // gateway job id
	status  int    // submission HTTP status
	admit   time.Duration
	done    time.Duration // from the window start; 0 until observed
	final   string        // terminal job status
	records json.RawMessage
	err     error
	polls   int
}

// serveRun is one traffic window against a booted cluster.
type serveRun struct {
	o      options
	c      *cluster
	client *http.Client
	traced bool
	reqs   []*request
	late   []float64 // ms each task started after it was due
	window time.Duration
	failed int
	tasks  int

	// span sums, over segments, the time to each segment's last
	// completion.
	span time.Duration

	mu      sync.Mutex // guards the fields below, written by the workers
	pollMS  []float64  // poll round trips
	hopMS   []float64  // gateway minus direct, same GET
	lastEnd time.Duration
}

// task is one unit of client work: a submission, a poll or a records
// fetch.
type task struct {
	due  time.Duration
	kind string // "submit", "poll", "records"
	req  *request
}

// drive sends the schedule and follows every job to completion, with at
// most o.procs requests in flight.
func (s *serveRun) drive(sched []arrival) error {
	tr := &http.Transport{MaxConnsPerHost: s.o.procs, MaxIdleConnsPerHost: s.o.procs, MaxIdleConns: 2 * s.o.procs}
	defer tr.CloseIdleConnections()
	s.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}

	q := &taskHeap{}
	for i := range sched {
		r := &request{a: &sched[i]}
		s.reqs = append(s.reqs, r)
		heap.Push(q, task{due: sched[i].due, kind: "submit", req: r})
	}
	start := time.Now()
	deadline := s.window/setupReps + serveDrain
	work := make(chan task)
	// Sized to the worker count, so a worker never blocks handing back
	// its follow-ups and closing work always ends every worker.
	results := make(chan []task, s.o.procs)
	for w := 0; w < s.o.procs; w++ {
		go func() {
			for t := range work {
				results <- s.do(t, start)
			}
		}()
	}
	busy := 0
	for q.Len() > 0 || busy > 0 {
		var next *task
		var wait <-chan time.Time
		if q.Len() > 0 && busy < s.o.procs {
			t := (*q)[0]
			if d := t.due - time.Since(start); d > 0 {
				wait = time.After(d)
			} else {
				next = &t
			}
		}
		if time.Since(start) > deadline {
			close(work)
			return fmt.Errorf("jobs still running %v after the last arrival", serveDrain)
		}
		if next != nil {
			heap.Pop(q)
			busy++
			s.late = append(s.late, ms(time.Since(start)-next.due))
			work <- *next
			continue
		}
		select {
		case follow := <-results:
			busy--
			for _, t := range follow {
				heap.Push(q, t)
			}
		case <-wait:
		}
	}
	close(work)
	return nil
}

// do executes one task and returns its follow-up tasks.
func (s *serveRun) do(t task, start time.Time) []task {
	r := t.req
	now := func() time.Duration { return time.Since(start) }
	switch t.kind {
	case "submit":
		var view struct{ ID, Status string }
		code, err := s.call("POST", s.c.gateway+r.a.path, r.a.body, &view)
		r.admit, r.status, r.id = now()-r.a.due, code, view.ID
		if err != nil {
			r.err = err
			return nil
		}
		if r.a.kind == "resubmit" {
			return nil
		}
		return []task{{due: now() + r.a.phase, kind: "poll", req: r}}
	case "poll":
		var view struct{ Status string }
		sent := now()
		_, err := s.call("GET", s.c.gateway+"/v1/runs/"+r.id, nil, &view)
		got := now()
		s.mu.Lock()
		s.pollMS = append(s.pollMS, ms(got-sent))
		s.mu.Unlock()
		r.polls++
		if err == nil && s.traced && r.polls%hopEvery == 0 {
			s.hop(r.id, r.polls%(2*hopEvery) == 0)
		}
		switch {
		case err != nil:
			r.err = err
		case view.Status == "running":
			return []task{{due: got + servePoll, kind: "poll", req: r}}
		case view.Status == "done":
			r.done, r.final = got, view.Status
			return []task{{due: got, kind: "records", req: r}}
		default:
			r.final = view.Status
			r.err = fmt.Errorf("job %s ended %s", r.id, view.Status)
		}
	case "records":
		var body struct{ Records json.RawMessage }
		if _, err := s.call("GET", s.c.gateway+"/v1/runs/"+r.id+"/records", nil, &body); err != nil {
			r.err = err
		}
		r.records = body.Records
		s.mu.Lock()
		s.lastEnd = max(s.lastEnd, now())
		s.mu.Unlock()
	}
	return nil
}

// hop times the same status GET through the gateway and straight to
// the owning replica, alternating which goes first, and records the
// difference.
func (s *serveRun) hop(id string, gatewayFirst bool) {
	prefix, upstream, ok := strings.Cut(id, "-")
	base := s.c.prefixes[prefix]
	if !ok || base == "" {
		return
	}
	get := func(url string) (time.Duration, error) {
		var view struct{ Status string }
		start := time.Now()
		_, err := s.call("GET", url, nil, &view)
		return time.Since(start), err
	}
	urls := []string{s.c.gateway + "/v1/runs/" + id, base + "/v1/runs/" + upstream}
	if !gatewayFirst {
		urls[0], urls[1] = urls[1], urls[0]
	}
	a, errA := get(urls[0])
	b, errB := get(urls[1])
	if errA != nil || errB != nil {
		return
	}
	d := a - b
	if !gatewayFirst {
		d = -d
	}
	s.mu.Lock()
	s.hopMS = append(s.hopMS, ms(d))
	s.mu.Unlock()
}

// taskHeap orders pending tasks by due time (container/heap).
type taskHeap []task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// call sends one request and decodes a 2xx JSON answer into v.
func (s *serveRun) call(method, url string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.Unmarshal(raw, v)
}

// --- one run of the workload ---

// serveOutcome is what one traffic window measured.
type serveOutcome struct {
	run   *serveRun
	setup float64
	// segmentRSS is, per segment, the sum of the replicas' peak RSS;
	// replicaRSS lists every replica's.
	segmentRSS, replicaRSS []float64
}

// runWindow serves the schedule segment by segment, each on a freshly
// booted cluster in a fresh directory; the boots time set-up. Spreading
// a run over several replica processes averages out the layout and
// runtime state one process happens to get.
func runWindow(o options, sched []arrival, window time.Duration, traced bool, tag string) (*serveOutcome, error) {
	root := filepath.Join(o.workDir, fmt.Sprintf("serve-%d-%s", os.Getpid(), tag))
	defer os.RemoveAll(root)
	s := &serveRun{o: o, traced: traced, window: window}
	out := &serveOutcome{run: s}
	var boots []float64
	for seg, lo := 0, 0; seg < setupReps; seg++ {
		hi := lo
		for hi < len(sched) && sched[hi].seg == seg {
			hi++
		}
		start := time.Now()
		c, err := bootCluster(o, filepath.Join(root, fmt.Sprint(seg)))
		boots = append(boots, sec(time.Since(start)))
		if err == nil {
			s.c, s.lastEnd = c, 0
			err = s.drive(sched[lo:hi])
			s.span += s.lastEnd
		}
		rss := c.stop()
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, v := range rss {
			sum += v
		}
		out.segmentRSS = append(out.segmentRSS, sum)
		out.replicaRSS = append(out.replicaRSS, rss...)
		lo = hi
	}
	out.setup = median(boots)
	return out, nil
}

// tally counts attempted and failed operations and reports the ones
// that failed.
func (s *serveRun) tally(r *report) {
	attempted, failed := 0, 0
	for _, q := range s.reqs {
		attempted++
		ok := q.err == nil && q.status/100 == 2
		if ok && q.a.kind != "resubmit" {
			ok = q.final == "done" && len(q.records) > 0
			if ok && q.a.kind == "train" {
				var res core.Result
				ok = json.Unmarshal(q.records, &res) == nil && res.Steps == q.a.spec.Steps
			}
		}
		if !ok {
			failed++
			fmt.Printf("%s request due %v (%s) failed: status %d final %q err %v\n", q.a.kind, q.a.due, q.id, q.status, q.final, q.err)
		}
	}
	r.ops(attempted, failed)
	s.tasks, s.failed = attempted, failed
}

// trainResult decodes a completed train job's records.
func trainResult(q *request) (core.Result, bool) {
	var res core.Result
	if q.a.kind != "train" || q.final != "done" || json.Unmarshal(q.records, &res) != nil {
		return res, false
	}
	return res, true
}

// endToEnd sets the serve workload's end-to-end metrics.
func (out *serveOutcome) endToEnd(r *report) {
	s := out.run
	span := s.span
	var steps, good int
	var jobMS, ttt, commMB, admitMS []float64
	for _, q := range s.reqs {
		if q.status/100 == 2 {
			admitMS = append(admitMS, ms(q.admit))
		}
		res, ok := trainResult(q)
		if !ok {
			continue
		}
		lat := q.done - q.a.due
		steps += res.Steps
		if lat <= serveLimit {
			good++
		}
		jobMS = append(jobMS, ms(lat))
		ttt = append(ttt, sec(q.done-q.a.due-q.admit))
		commMB = append(commMB, float64(res.CommBytes)/1e6)
	}
	n := len(jobMS)
	r.set("setup_s", "s", out.setup, setupReps)
	r.set("steps_per_s", "1/s", float64(steps)/sec(span), n)
	r.set("time_to_target_s", "s", median(ttt), n)
	r.set("comm_MB_to_target", "MB", mean(commMB), n)
	r.set("job_ms_p50", "ms", median(jobMS), n)
	r.set("job_ms_p90", "ms", quantile(jobMS, 0.9), n)
	r.set("admit_ms_p50", "ms", median(admitMS), len(admitMS))
	r.set("admit_ms_p90", "ms", quantile(admitMS, 0.9), len(admitMS))
	r.set("goodput_jobs_per_s", "1/s", float64(good)/sec(span), n)
	r.set("ok_share", "share", share(float64(s.tasks-s.failed), float64(s.tasks)), s.tasks)
	r.set("peak_rss_MB", "MB", median(out.segmentRSS), len(out.segmentRSS))
}

// verifyServe checks every completed job's records against the
// in-process run of its spec, and every deduplicated resubmission
// against its original. The in-process train runs use the replicas'
// parallelism, so their times are the jobs' service times; a non-nil tr
// traces them into led. It returns them by request.
func verifyServe(o options, r *report, s *serveRun, tr *tracer, led *ledger) map[*request]jobOutcome {
	ctx := context.Background()
	refs := map[*request]jobOutcome{}
	for _, q := range s.reqs {
		switch {
		case q.a.kind == "resubmit":
			orig := s.reqs[q.a.orig]
			if q.err == nil && orig.err == nil && q.status == http.StatusOK && q.id != orig.id {
				r.problem("resubmission of %s deduped onto a different job %s", orig.id, q.id)
			}
		case q.final != "done":
		case q.a.kind == "train":
			ref := runLocalJob(ctx, q.a.spec, serveJobs, tr, led)
			refs[q] = ref
			res, _ := trainResult(q)
			got, _ := json.Marshal(res)
			checkSame(r, "serve job vs in-process", q.a.spec, ref.body, got)
		case q.a.kind == "sweep":
			ref, err := experiments.Run("smoke", experiments.Options{Scale: experiments.Tiny, Seed: q.a.seed, Jobs: o.procs})
			want, _ := json.Marshal(ref)
			var recs []experiments.Record
			if json.Unmarshal(q.records, &recs) != nil || err != nil {
				r.problem("sweep %s: records do not decode (%v)", q.id, err)
				continue
			}
			if got, _ := json.Marshal(recs); !bytes.Equal(want, got) {
				r.problem("sweep %s seed %d: records differ from the in-process sweep\n  want %s\n  got  %s", q.id, q.a.seed, want, got)
			}
		}
	}
	return refs
}

func runServe(o options, r *report) error {
	sched, err := serveSchedule(o.seed, o.seconds)
	if err != nil {
		return err
	}
	out, err := runWindow(o, sched, time.Duration(o.seconds*float64(time.Second)), false, "run")
	if err != nil {
		return err
	}
	out.run.tally(r)
	out.endToEnd(r)
	verifyServe(o, r, out.run, nil, nil)
	return nil
}

func tracedServe(o options, r *report) error { return traceServe(o, r, o.seconds/2) }

// miniServe is the serve layer probe: a short window.
func miniServe(o options, r *report) error { return traceServe(o, r, 4) }

// traceServe runs the schedule untraced and then traced, each on fresh
// clusters, and reports the serve layers. The traced window pairs polls
// with direct replica GETs; every completed train job's spec is then run
// in-process, traced, for its service time.
func traceServe(o options, r *report, seconds float64) error {
	sched, err := serveSchedule(o.seed, seconds)
	if err != nil {
		return err
	}
	window := time.Duration(seconds * float64(time.Second))
	plain, err := runWindow(o, sched, window, false, "plain")
	if err != nil {
		return err
	}
	traced, err := runWindow(o, sched, window, true, "traced")
	if err != nil {
		return err
	}
	s := traced.run
	s.tally(r)
	plainE2E, tracedE2E := newReport(), newReport()
	plain.endToEnd(plainE2E)
	traced.endToEnd(tracedE2E)
	p, t := plainE2E.values["steps_per_s"].value, tracedE2E.values["steps_per_s"].value
	r.set("bench.trace_overhead_share", "share", share(p-t, p), len(s.reqs))
	r.copyFrom(plainE2E, "job_ms_p50", "job_ms_p90", "admit_ms_p50", "admit_ms_p90")

	// Traced and untraced windows ran the same specs: equal records.
	for i, q := range s.reqs {
		pq := plain.run.reqs[i]
		if q.final == "done" && pq.final == "done" && q.a.kind == "train" {
			a, _ := trainResult(pq)
			b, _ := trainResult(q)
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			checkSame(r, "traced serve job", q.a.spec, ja, jb)
		}
	}

	tr := newTracer()
	led := &ledger{}
	refByReq := verifyServe(o, r, s, tr, led)
	var refs []jobOutcome
	var service, wait, sweeps []float64
	resubmits, hits, affine := 0, 0, 0
	for _, q := range s.reqs {
		switch q.a.kind {
		case "train":
			ref, ok := refByReq[q]
			if !ok {
				continue
			}
			refs = append(refs, ref)
			svc := ref.admit + ref.train
			service = append(service, ms(svc))
			wait = append(wait, ms(q.done-q.a.due-svc))
		case "resubmit":
			resubmits++
			if q.status == http.StatusOK {
				hits++
			}
			orig := s.reqs[q.a.orig]
			if p1, _, ok := strings.Cut(q.id, "-"); ok && strings.HasPrefix(orig.id, p1+"-") {
				affine++
			}
		case "sweep":
			if q.final == "done" {
				sweeps = append(sweeps, ms(q.done-q.a.due))
			}
		}
	}
	led.report(r)
	chargedPerStep(r, refs)
	r.set("comm.wire_MB", "MB", 0, len(refs))
	r.set("fdaserve.service_ms", "ms", median(service), len(service))
	r.set("fdaserve.wait_ms_p50", "ms", median(wait), len(wait))
	r.set("fdaserve.wait_ms_p90", "ms", quantile(wait, 0.9), len(wait))
	r.set("fdaserve.poll_ms_p50", "ms", median(s.pollMS), len(s.pollMS))
	r.set("fdaserve.dedupe_hit_share", "share", share(float64(hits), float64(resubmits)), resubmits)
	r.set("cluster.hop_ms_p50", "ms", median(s.hopMS), len(s.hopMS))
	r.set("cluster.affinity_share", "share", share(float64(affine), float64(resubmits)), resubmits)
	r.set("experiments.sweep_ms_p50", "ms", median(sweeps), len(sweeps))
	r.set("fdaserve.rss_MB", "MB", mean(traced.replicaRSS), len(traced.replicaRSS))
	r.set("loadgen.late_ms_p99", "ms", quantile(s.late, 0.99), len(s.late))
	return tr.write(filepath.Join(o.workDir, fmt.Sprintf("spans-serve-seed%d.jsonl", o.seed)))
}
