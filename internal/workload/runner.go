package workload

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Clock abstracts the runner's time source so the package stays off
// the ambient wall clock (fdavet wallclock scope): cmd/fdaload injects
// a real monotonic clock, tests inject a virtual one that fires the
// whole schedule instantly. All values are nanoseconds since the
// clock's epoch.
type Clock interface {
	Now() int64
	// WaitUntil blocks until Now() >= ns or stop closes. A nil stop
	// never fires.
	WaitUntil(ns int64, stop <-chan struct{})
}

// Outcome is one request's result as observed by the client.
type Outcome struct {
	// Status is the HTTP status code, 0 on a transport error.
	Status int
	Err    error
}

// Target executes one request against the system under load. The
// driver's HTTP client implements it; tests substitute fakes.
type Target interface {
	Do(req Request) Outcome
}

// RunOptions shapes one open-loop execution of a schedule.
type RunOptions struct {
	Clock Clock
	// MaxInFlight bounds concurrent outstanding requests (default
	// 4096). The runner stays open-loop — request start times follow
	// the schedule, not the responses — but dispatch blocks when the
	// bound is reached, and every such stall is counted in
	// RunStats.Delayed so saturation is visible rather than silent.
	MaxInFlight int
	// Stop aborts the run early (remaining requests stay unissued).
	Stop <-chan struct{}
	// DurationNS is the schedule's nominal span, used for the offered
	// rate; zero falls back to the last request offset.
	DurationNS int64
}

// KindStats is one request kind's slice of a run report. Latency
// quantiles come from the obs power-of-two-bucket histograms, so each
// is an upper bound at most 2× the true quantile (DESIGN.md §11);
// MeanMs is exact.
type KindStats struct {
	Kind      Kind  `json:"kind"`
	Scheduled int64 `json:"scheduled"`
	Issued    int64 `json:"issued"`
	OK        int64 `json:"ok"`
	// Rejected counts 503 admission-cap responses — shed load, tallied
	// apart from errors because rejection is the server working as
	// configured.
	Rejected int64 `json:"rejected,omitempty"`
	// Conflicts counts 404/409 responses: an open-loop poll racing a
	// job's lifecycle (records before done, cancel after done), an
	// expected background rate, not a failure.
	Conflicts int64 `json:"conflicts,omitempty"`
	// Errors counts everything unexpected: transport failures, 5xx
	// other than 503, and 4xx other than 404/409.
	Errors int64   `json:"errors,omitempty"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// RunStats summarizes one open-loop run.
type RunStats struct {
	DurationSec float64 `json:"duration_sec"`
	OfferedRPS  float64 `json:"offered_rps"`
	// AchievedRPS is completed-OK requests per elapsed second.
	AchievedRPS float64     `json:"achieved_rps"`
	Scheduled   int64       `json:"scheduled"`
	Issued      int64       `json:"issued"`
	OK          int64       `json:"ok"`
	Rejected    int64       `json:"rejected,omitempty"`
	Conflicts   int64       `json:"conflicts,omitempty"`
	Errors      int64       `json:"errors,omitempty"`
	Delayed     int64       `json:"delayed,omitempty"`
	MaxInFlight int64       `json:"max_in_flight"`
	Kinds       []KindStats `json:"kinds"`
}

// kindIndex maps a kind to its fixed position in Kinds() order (-1 if
// unknown), so collectors live in a slice and reports iterate in
// stable order.
func kindIndex(k Kind) int {
	for i, v := range Kinds() {
		if v == k {
			return i
		}
	}
	return -1
}

// kindCollector accumulates one kind's outcomes during a run.
type kindCollector struct {
	scheduled atomic.Int64
	issued    atomic.Int64
	ok        atomic.Int64
	rejected  atomic.Int64
	conflicts atomic.Int64
	errors    atomic.Int64
	lat       *obs.Histogram
}

// Run executes the schedule open-loop against target: each request is
// dispatched at its offset on the injected clock (never gated on a
// prior response), concurrency is bounded by MaxInFlight, and
// client-side latency lands in per-kind obs histograms. Telemetry is
// enabled for the process — the histograms are useless otherwise, and
// training results are telemetry-independent by the PR 7 parity
// contract.
func Run(reqs []Request, target Target, opt RunOptions) RunStats {
	obs.Enable()
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = 4096
	}
	clk := opt.Clock
	reg := obs.NewRegistry()
	collectors := make([]*kindCollector, len(Kinds()))
	for i, k := range Kinds() {
		collectors[i] = &kindCollector{
			lat: reg.Histogram("fdaload_request_seconds",
				"Client-observed request latency by request kind.", obs.Seconds, "kind", string(k)),
		}
	}
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		hiwater  atomic.Int64
		delayed  atomic.Int64
	)
	sem := make(chan struct{}, opt.MaxInFlight)
	start := clk.Now()
	var issuedTotal int64
	for i := range reqs {
		req := reqs[i]
		ki := kindIndex(req.Kind)
		if ki < 0 {
			continue
		}
		c := collectors[ki]
		c.scheduled.Add(1)
		clk.WaitUntil(start+req.Offset, opt.Stop)
		if stopped(opt.Stop) {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			// The in-flight bound is binding: record the stall, then
			// block for a slot (or the stop signal).
			delayed.Add(1)
			select {
			case sem <- struct{}{}:
			case <-opt.Stop:
			}
		}
		if stopped(opt.Stop) {
			break
		}
		issuedTotal++
		c.issued.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			n := inflight.Add(1)
			for {
				hw := hiwater.Load()
				if n <= hw || hiwater.CompareAndSwap(hw, n) {
					break
				}
			}
			t0 := clk.Now()
			out := target.Do(req)
			c.lat.Observe(clk.Now() - t0)
			inflight.Add(-1)
			switch {
			case out.Err == nil && out.Status >= 200 && out.Status < 300:
				c.ok.Add(1)
			case out.Status == 503:
				c.rejected.Add(1)
			case out.Status == 404 || out.Status == 409:
				c.conflicts.Add(1)
			default:
				c.errors.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Now() - start

	stats := RunStats{
		DurationSec: float64(elapsed) / 1e9,
		Issued:      issuedTotal,
		Delayed:     delayed.Load(),
		MaxInFlight: hiwater.Load(),
	}
	span := opt.DurationNS
	if span == 0 && len(reqs) > 0 {
		span = reqs[len(reqs)-1].Offset
	}
	for i, k := range Kinds() {
		c := collectors[i]
		if c.scheduled.Load() == 0 {
			continue
		}
		ks := KindStats{
			Kind:      k,
			Scheduled: c.scheduled.Load(),
			Issued:    c.issued.Load(),
			OK:        c.ok.Load(),
			Rejected:  c.rejected.Load(),
			Conflicts: c.conflicts.Load(),
			Errors:    c.errors.Load(),
			P50Ms:     c.lat.Quantile(0.50) * 1e3,
			P95Ms:     c.lat.Quantile(0.95) * 1e3,
			P99Ms:     c.lat.Quantile(0.99) * 1e3,
		}
		if n := c.lat.Count(); n > 0 {
			ks.MeanMs = c.lat.Sum() / float64(n) * 1e3
		}
		stats.Scheduled += ks.Scheduled
		stats.OK += ks.OK
		stats.Rejected += ks.Rejected
		stats.Conflicts += ks.Conflicts
		stats.Errors += ks.Errors
		stats.Kinds = append(stats.Kinds, ks)
	}
	if span > 0 {
		stats.OfferedRPS = float64(stats.Scheduled) / (float64(span) / 1e9)
	}
	if elapsed > 0 {
		stats.AchievedRPS = float64(stats.OK) / (float64(elapsed) / 1e9)
	}
	return stats
}

func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}
