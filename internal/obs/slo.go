package obs

import (
	"sort"
	"sync"
	"time"
)

// SLO monitoring: rolling per-model latency and error-rate windows with a
// burn-rate alarm. Record classifies every finished request; Stats folds
// the live window into p50/p99 latency, bad-request rate, and the burn
// rate (bad rate over the configured error budget). Publish mirrors the
// stats into registry gauges (slo.p99_ms.<model>, slo.burn_rate.<model>,
// slo.alarm.<model>) so they reach the /metrics endpoint.

// Outcome classifies one finished request for the SLO monitor.
type Outcome int

const (
	// OutcomeOK: the request completed successfully.
	OutcomeOK Outcome = iota
	// OutcomeError: the request failed in execution.
	OutcomeError
	// OutcomeShed: admission control shed the request because the system
	// was overloaded (true ErrOverloaded). Sheds burn error budget but
	// record no latency.
	OutcomeShed
	// OutcomeDeadline: the request's own deadline expired (or its context
	// was cancelled) before it reached a session. Deadline burn is the
	// caller's latency budget, not the server shedding — tracked apart
	// from sheds so the shed rate reflects real overload.
	OutcomeDeadline
)

// SLOOptions configures an SLOMonitor; the zero value selects the
// defaults noted per field.
type SLOOptions struct {
	// Window is the rolling horizon (default 60s).
	Window time.Duration
	// Buckets is the ring granularity inside the window (default 12).
	Buckets int
	// ErrorBudget is the tolerated bad-request fraction (default 0.01).
	ErrorBudget float64
	// BurnAlarm raises the alarm when the burn rate — bad rate over
	// budget — exceeds it (default 2).
	BurnAlarm float64
	// Registry receives the published gauges (default DefaultRegistry).
	Registry *Registry
}

// sloBucket is one time slice of the rolling window.
type sloBucket struct {
	id       int64 // bucket epoch; a stale slot is reset when touched or read
	counts   [histBuckets]int64
	n        int64 // latency samples
	sumNs    float64
	minNs    float64
	maxNs    float64
	total    int64 // all requests, including sheds
	errs     int64
	shed     int64
	deadline int64
}

type sloModel struct {
	buckets []sloBucket
	gP50    *Gauge
	gP99    *Gauge
	gBad    *Gauge
	gBurn   *Gauge
	gAlarm  *Gauge
}

// SLOMonitor tracks rolling serving health per model. Safe for concurrent
// use; nil-safe.
type SLOMonitor struct {
	opts      SLOOptions
	bucketDur time.Duration

	mu     sync.Mutex
	models map[string]*sloModel
}

// NewSLOMonitor creates a monitor; zero options select the defaults.
func NewSLOMonitor(opts SLOOptions) *SLOMonitor {
	if opts.Window <= 0 {
		opts.Window = 60 * time.Second
	}
	if opts.Buckets <= 0 {
		opts.Buckets = 12
	}
	if opts.ErrorBudget <= 0 {
		opts.ErrorBudget = 0.01
	}
	if opts.BurnAlarm <= 0 {
		opts.BurnAlarm = 2
	}
	if opts.Registry == nil {
		opts.Registry = DefaultRegistry
	}
	return &SLOMonitor{
		opts:      opts,
		bucketDur: opts.Window / time.Duration(opts.Buckets),
		models:    map[string]*sloModel{},
	}
}

func (m *SLOMonitor) modelLocked(model string) *sloModel {
	sm, ok := m.models[model]
	if !ok {
		r := m.opts.Registry
		sm = &sloModel{
			buckets: make([]sloBucket, m.opts.Buckets),
			gP50:    r.Gauge("slo.p50_ms." + model),
			gP99:    r.Gauge("slo.p99_ms." + model),
			gBad:    r.Gauge("slo.bad_rate." + model),
			gBurn:   r.Gauge("slo.burn_rate." + model),
			gAlarm:  r.Gauge("slo.alarm." + model),
		}
		m.models[model] = sm
	}
	return sm
}

// Record classifies one finished request into the rolling window.
func (m *SLOMonitor) Record(model string, lat time.Duration, oc Outcome) {
	if m == nil {
		return
	}
	now := time.Now()
	id := now.UnixNano() / int64(m.bucketDur)
	m.mu.Lock()
	sm := m.modelLocked(model)
	b := &sm.buckets[id%int64(len(sm.buckets))]
	if b.id != id {
		*b = sloBucket{id: id}
	}
	b.total++
	switch oc {
	case OutcomeError:
		b.errs++
	case OutcomeShed:
		b.shed++
	case OutcomeDeadline:
		b.deadline++
	default:
		ns := float64(lat.Nanoseconds())
		b.counts[bucketFor(ns)]++
		if b.n == 0 || ns < b.minNs {
			b.minNs = ns
		}
		if b.n == 0 || ns > b.maxNs {
			b.maxNs = ns
		}
		b.n++
		b.sumNs += ns
	}
	m.mu.Unlock()
}

// SLOStats is the rolling view of one model's serving health.
type SLOStats struct {
	Model    string        `json:"model"`
	Window   time.Duration `json:"window_ns"`
	Requests int64         `json:"requests"`
	Errors   int64         `json:"errors"`
	Shed     int64         `json:"shed"`
	Deadline int64         `json:"deadline"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
	MeanMs   float64       `json:"mean_ms"`
	BadRate  float64       `json:"bad_rate"`
	BurnRate float64       `json:"burn_rate"`
	Alarm    bool          `json:"alarm"`
}

// Stats folds the live window for one model.
func (m *SLOMonitor) Stats(model string) SLOStats {
	if m == nil {
		return SLOStats{Model: model}
	}
	now := time.Now()
	minID := now.UnixNano()/int64(m.bucketDur) - int64(m.opts.Buckets) + 1
	m.mu.Lock()
	defer m.mu.Unlock()
	sm, ok := m.models[model]
	if !ok {
		return SLOStats{Model: model, Window: m.opts.Window}
	}
	return m.statsLocked(model, sm, minID)
}

func (m *SLOMonitor) statsLocked(model string, sm *sloModel, minID int64) SLOStats {
	// Merge live buckets into one histogram and fold quantiles off it.
	var h Histogram
	st := SLOStats{Model: model, Window: m.opts.Window}
	for i := range sm.buckets {
		b := &sm.buckets[i]
		if b.id < minID {
			continue
		}
		st.Requests += b.total
		st.Errors += b.errs
		st.Shed += b.shed
		st.Deadline += b.deadline
		for j, c := range b.counts {
			h.counts[j] += c
		}
		if b.n > 0 {
			if h.n == 0 || b.minNs < h.min {
				h.min = b.minNs
			}
			if h.n == 0 || b.maxNs > h.max {
				h.max = b.maxNs
			}
			h.n += b.n
			h.sum += b.sumNs
		}
	}
	if h.n > 0 {
		st.P50 = time.Duration(h.quantileLocked(0.50))
		st.P99 = time.Duration(h.quantileLocked(0.99))
		st.MeanMs = h.sum / float64(h.n) / 1e6
	}
	if st.Requests > 0 {
		// A bad request is an error, a shed or a missed deadline.
		st.BadRate = float64(st.Errors+st.Shed+st.Deadline) / float64(st.Requests)
		st.BurnRate = st.BadRate / m.opts.ErrorBudget
		st.Alarm = st.BurnRate > m.opts.BurnAlarm
	}
	return st
}

// Publish refreshes the registry gauges for every tracked model and
// returns the stats, sorted by model.
func (m *SLOMonitor) Publish() []SLOStats {
	if m == nil {
		return nil
	}
	now := time.Now()
	minID := now.UnixNano()/int64(m.bucketDur) - int64(m.opts.Buckets) + 1
	m.mu.Lock()
	names := make([]string, 0, len(m.models))
	for name := range m.models {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SLOStats, 0, len(names))
	for _, name := range names {
		sm := m.models[name]
		st := m.statsLocked(name, sm, minID)
		sm.gP50.Set(float64(st.P50.Nanoseconds()) / 1e6)
		sm.gP99.Set(float64(st.P99.Nanoseconds()) / 1e6)
		sm.gBad.Set(st.BadRate)
		sm.gBurn.Set(st.BurnRate)
		alarm := 0.0
		if st.Alarm {
			alarm = 1
		}
		sm.gAlarm.Set(alarm)
		out = append(out, st)
	}
	m.mu.Unlock()
	return out
}

// DefaultSLO is the monitor serving pools record into by default;
// /debug/slo serves its published stats as JSON.
var DefaultSLO = NewSLOMonitor(SLOOptions{})
