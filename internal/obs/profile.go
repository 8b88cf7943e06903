package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Profiler is the continuous serving profiler: a low-overhead sampling
// aggregator that folds per-node kernel timings across requests into
// rolling top-K tables, so a live system can answer "which workload is
// hot right now" without tracing every request.
//
// Sampling is per run: SampleRun admits 1 in SampleEvery runs, and only
// sampled runs pay the per-node clock reads. Recording goes through
// pre-resolved ProfHandles (one map lookup at session construction, none
// at run time) and is allocation-free. Aggregates roll over two
// half-windows — Snapshot reports the last one to two Window spans, so a
// workload that went cold ages out instead of haunting the table forever.
//
// Per-(model, kind) latency histograms are additionally published into a
// metrics Registry under profile.node_ns.<model>.<kind>, where kind is
// the operator kind refined by the selected kernel for convolutions
// (e.g. conv2d/gemm), so quantiles reach the /metrics endpoint.
type Profiler struct {
	opts ProfilerOptions
	reg  *Registry

	runs atomic.Uint64 // run counter driving the sampling decision

	mu      sync.Mutex
	entries map[ProfKey]*profEntry
	epoch   time.Time // start of the current half-window
}

// ProfilerOptions configures a Profiler; the zero value selects the
// defaults noted per field.
type ProfilerOptions struct {
	// SampleEvery admits 1 in N runs to profiling (default 8; 1 profiles
	// every run; negative disables sampling entirely).
	SampleEvery int
	// TopK bounds the snapshot table (default 12).
	TopK int
	// Window is the rolling half-window; aggregates older than two
	// windows age out (default 30s).
	Window time.Duration
	// Registry receives the per-(model, kind) histograms (default
	// DefaultRegistry).
	Registry *Registry
}

// ProfKey identifies one profiled node.
type ProfKey struct {
	Model  string
	Node   string
	Kind   string // operator kind, refined by conv kernel (e.g. conv2d/gemm)
	Device string
}

// profCell is one half-window of accumulation for one node.
type profCell struct {
	count int64
	sumNs float64
	maxNs float64
}

type profEntry struct {
	key ProfKey
	mu  sync.Mutex
	cur profCell
	prv profCell
}

// ProfHandle records samples for one node; resolve it once per session
// with Profiler.Handle and call Record per sampled execution.
type ProfHandle struct {
	e *profEntry
	h *Histogram
}

// NewProfiler creates a profiler; zero options select the defaults.
func NewProfiler(opts ProfilerOptions) *Profiler {
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 8
	}
	if opts.TopK <= 0 {
		opts.TopK = 12
	}
	if opts.Window <= 0 {
		opts.Window = 30 * time.Second
	}
	if opts.Registry == nil {
		opts.Registry = DefaultRegistry
	}
	return &Profiler{opts: opts, reg: opts.Registry, entries: map[ProfKey]*profEntry{}, epoch: time.Now()}
}

// SampleRun decides whether the next run is profiled: 1 in SampleEvery,
// via one atomic increment. Nil-safe (false).
func (p *Profiler) SampleRun() bool {
	if p == nil || p.opts.SampleEvery < 0 {
		return false
	}
	return p.runs.Add(1)%uint64(p.opts.SampleEvery) == 0
}

// Handle resolves (creating if needed) the recording handle for one node.
// Call at session construction, not per run.
func (p *Profiler) Handle(key ProfKey) ProfHandle {
	if p == nil {
		return ProfHandle{}
	}
	p.mu.Lock()
	e, ok := p.entries[key]
	if !ok {
		e = &profEntry{key: key}
		p.entries[key] = e
	}
	p.mu.Unlock()
	return ProfHandle{e: e, h: p.reg.Histogram("profile.node_ns." + key.Model + "." + key.Kind)}
}

// Record folds one node execution into the aggregates; allocation-free.
func (h ProfHandle) Record(wallNs float64) {
	if h.e == nil {
		return
	}
	h.e.mu.Lock()
	h.e.cur.count++
	h.e.cur.sumNs += wallNs
	if wallNs > h.e.cur.maxNs {
		h.e.cur.maxNs = wallNs
	}
	h.e.mu.Unlock()
	h.h.Observe(wallNs)
}

// rotate ages the half-windows when the current one has run its span.
// Called with p.mu held.
func (p *Profiler) rotateLocked(now time.Time) {
	if now.Sub(p.epoch) < p.opts.Window {
		return
	}
	// More than two windows idle: both halves are stale.
	drop := now.Sub(p.epoch) >= 2*p.opts.Window
	for _, e := range p.entries {
		e.mu.Lock()
		if drop {
			e.prv = profCell{}
		} else {
			e.prv = e.cur
		}
		e.cur = profCell{}
		e.mu.Unlock()
	}
	p.epoch = now
}

// ProfileEntry is one row of a profile snapshot, aggregated over the
// rolling window.
type ProfileEntry struct {
	Model   string  `json:"model"`
	Node    string  `json:"node"`
	Kind    string  `json:"kind"`
	Device  string  `json:"device"`
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MeanUs  float64 `json:"mean_us"`
	MaxUs   float64 `json:"max_us"`
}

// ProfileSnapshot is the rolling top-K view of where execution time goes.
type ProfileSnapshot struct {
	Taken       time.Time      `json:"taken"`
	Window      time.Duration  `json:"window_ns"`
	SampledRuns uint64         `json:"sampled_runs"`
	Top         []ProfileEntry `json:"top"`
}

// Snapshot returns the rolling top-K table, hottest (by total time) first.
func (p *Profiler) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	now := time.Now()
	p.mu.Lock()
	p.rotateLocked(now)
	rows := make([]ProfileEntry, 0, len(p.entries))
	for _, e := range p.entries {
		e.mu.Lock()
		count := e.cur.count + e.prv.count
		sum := e.cur.sumNs + e.prv.sumNs
		max := e.cur.maxNs
		if e.prv.maxNs > max {
			max = e.prv.maxNs
		}
		e.mu.Unlock()
		if count == 0 {
			continue
		}
		rows = append(rows, ProfileEntry{
			Model: e.key.Model, Node: e.key.Node, Kind: e.key.Kind, Device: e.key.Device,
			Count: count, TotalMs: sum / 1e6, MeanUs: sum / float64(count) / 1e3, MaxUs: max / 1e3,
		})
	}
	p.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalMs != rows[j].TotalMs {
			return rows[i].TotalMs > rows[j].TotalMs
		}
		return rows[i].Node < rows[j].Node // deterministic ties
	})
	if len(rows) > p.opts.TopK {
		rows = rows[:p.opts.TopK]
	}
	var sampled uint64
	if p.opts.SampleEvery > 0 {
		sampled = p.runs.Load() / uint64(p.opts.SampleEvery)
	}
	return ProfileSnapshot{Taken: now, Window: 2 * p.opts.Window, SampledRuns: sampled, Top: rows}
}

// DefaultProfiler is the profiler the serving runtime feeds by default.
var DefaultProfiler = NewProfiler(ProfilerOptions{})

// Profile snapshots the default profiler; /debug/profile serves the
// snapshot as JSON.
func Profile() ProfileSnapshot { return DefaultProfiler.Snapshot() }
