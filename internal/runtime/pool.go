package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"unigpu/internal/obs"
	"unigpu/internal/tensor"
)

// ErrOverloaded is returned by SessionPool.Run when the admission
// controller sheds the request: every pooled session is busy and the
// bounded wait queue is full (or the request's deadline cannot be met).
var ErrOverloaded = errors.New("runtime: session pool overloaded, request shed")

var mAdmissionShed = obs.DefaultRegistry.Counter("admission.shed")

// PoolOptions configures a SessionPool.
type PoolOptions struct {
	// Sessions is the number of pooled sessions — the maximum concurrent
	// in-flight runs (default 1). Each costs one arena.
	Sessions int
	// QueueDepth bounds how many requests may wait for a session beyond
	// the in-flight ones; a request arriving past that is shed immediately
	// with ErrOverloaded (default 0: no queueing, shed as soon as every
	// session is busy).
	QueueDepth int
	// Session configures every pooled session. When Session.Faults is set
	// and Session.Breaker is nil, the pool installs one shared circuit
	// breaker — the sessions serve the same simulated device, so its
	// quarantine state must be shared. Session.Model labels every pool
	// metric, trace and SLO window (default "default").
	Session SessionOptions
	// Device labels this pool's metrics and health entry with the device
	// replica it serves: pool.in_flight.<model>.<device> and friends, plus
	// a breaker.state.<device> gauge on the pool-installed breaker. Empty
	// keeps the single-device metric names (pool.in_flight.<model>,
	// breaker.state) backward-compatible. The Fleet sets it per replica.
	Device string

	// Requests assigns request IDs and samples per-request traces (default
	// obs.DefaultRequests). SLO is the rolling health monitor (default
	// obs.DefaultSLO).
	Requests *obs.RequestTracker
	SLO      *obs.SLOMonitor

	// Batch enables the batching front-end: concurrent Run calls are
	// coalesced into one execution on a plan compiled for that batch size
	// (see BatcherOptions). Nil — or a nil Batch.PlanFor — keeps the
	// per-request path.
	Batch *BatcherOptions
}

// SessionPool is the serving edge over one compiled Plan: a fixed set of
// pooled sessions behind an admission controller. Run admits a request if
// a session is idle or the bounded queue has room, sheds it with
// ErrOverloaded otherwise (counter admission.shed), and honours request
// deadlines while queued. All methods are safe for concurrent use.
//
// Every request gets an ID (sampled ones a full trace), the pooled
// sessions feed obs.DefaultProfiler unless Session.Profiler names another,
// finished requests land in the SLO monitor's rolling windows, and the
// pool registers a /healthz source reflecting breaker and occupancy state.
type SessionPool struct {
	plan    *Plan
	idle    chan *Session
	breaker *Breaker
	// admitted counts the requests holding or waiting for a session;
	// capacity is Sessions+QueueDepth, the most acquire admits.
	admitted atomic.Int32
	capacity int32
	sessOpts SessionOptions
	batcher  *Batcher

	// Telemetry. Gauge and histogram handles are resolved once;
	// Registry.Reset zeroes them in place, keeping handles valid. label is
	// model plus the optional ".<device>" suffix used in metric and health
	// names; unregister takes the pool's health source off /healthz.
	model      string
	label      string
	requests   *obs.RequestTracker
	slo        *obs.SLOMonitor
	gInflight  *obs.Gauge
	gWait      *obs.Gauge
	hQueueWait *obs.Histogram
	unregister func()
}

// NewSessionPool builds the pool and preallocates every session's arena.
func NewSessionPool(p *Plan, opts PoolOptions) *SessionPool {
	n := opts.Sessions
	if n < 1 {
		n = 1
	}
	so := opts.Session
	if so.Faults != nil && so.Breaker == nil {
		so.Breaker = NewBreaker(BreakerOptions{Device: opts.Device})
	}
	model := so.Model
	if model == "" {
		model = "default"
	}
	label := model
	if opts.Device != "" {
		label = model + "." + opts.Device
	}
	if so.Profiler == nil {
		so.Profiler = obs.DefaultProfiler
	}
	sp := &SessionPool{
		plan:       p,
		idle:       make(chan *Session, n),
		breaker:    so.Breaker,
		capacity:   int32(n + opts.QueueDepth),
		model:      model,
		label:      label,
		sessOpts:   so,
		requests:   opts.Requests,
		slo:        opts.SLO,
		gInflight:  obs.DefaultRegistry.Gauge("pool.in_flight." + label),
		gWait:      obs.DefaultRegistry.Gauge("pool.wait_queue." + label),
		hQueueWait: obs.DefaultRegistry.Histogram("pool.queue_wait_ns"),
	}
	if sp.requests == nil {
		sp.requests = obs.DefaultRequests
	}
	if sp.slo == nil {
		sp.slo = obs.DefaultSLO
	}
	sp.gInflight.Set(0)
	sp.gWait.Set(0)
	sp.registerHealth()
	for i := 0; i < n; i++ {
		sp.idle <- p.NewSessionWith(so)
	}
	if opts.Batch != nil && opts.Batch.PlanFor != nil {
		sp.batcher = newBatcher(sp, *opts.Batch)
	}
	return sp
}

// Batcher returns the batching front-end, or nil when batching is off.
func (sp *SessionPool) Batcher() *Batcher { return sp.batcher }

// Close stops the batching front-end (if any), failing queued requests
// with ErrPoolClosed, and takes the pool off /healthz: a pool closed with
// its breaker open must not stay unhealthy forever, nor its health closure
// pin the plan and its packed weights. The per-request path keeps working.
func (sp *SessionPool) Close() {
	if sp.batcher != nil {
		sp.batcher.close()
	}
	sp.unregister()
}

// registerHealth wires the pool into /healthz: unhealthy while the shared
// circuit breaker has the device quarantined, with breaker state and
// occupancy in the detail either way. A later pool serving the same model
// replaces the entry, and closing this one then leaves it in place.
func (sp *SessionPool) registerHealth() {
	sp.unregister = obs.RegisterHealth("pool."+sp.label, func() obs.HealthStatus {
		st := sp.breaker.State()
		busy := cap(sp.idle) - len(sp.idle)
		return obs.HealthStatus{
			OK: st != BreakerOpen,
			Detail: fmt.Sprintf("breaker %s, %d/%d sessions busy, %d queued",
				st, busy, cap(sp.idle), sp.queued()),
		}
	})
}

// Breaker returns the circuit breaker shared by the pooled sessions, or
// nil when the pool runs without fault injection.
func (sp *SessionPool) Breaker() *Breaker { return sp.breaker }

// queued is how many admitted requests are waiting for a session.
func (sp *SessionPool) queued() int {
	return max(0, int(sp.admitted.Load())-cap(sp.idle))
}

// refreshGauges publishes the occupancy gauges. It runs on every change of
// admitted or idle — admission, a waiter leaving on its deadline, release —
// so neither gauge can stick at a stale value.
func (sp *SessionPool) refreshGauges() {
	sp.gInflight.Set(float64(cap(sp.idle) - len(sp.idle)))
	sp.gWait.Set(float64(sp.queued()))
}

// acquire admits the request and returns an idle session. Admission is one
// counting step: the request past capacity is shed with ErrOverloaded, any
// other blocks until a session is idle or its context is done (ctx.Err()).
// There is no probe of idle to go stale between two steps, because release
// frees the count before it returns the session. batched marks a request
// the batching queue already admitted: it is counted, never shed. The
// sampled recorder (nil otherwise) gets its admission and queue segments
// closed.
func (sp *SessionPool) acquire(ctx context.Context, req *obs.ActiveRequest, batched bool) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n := sp.admitted.Add(1); !batched {
		if n > sp.capacity {
			sp.admitted.Add(-1)
			return nil, ErrOverloaded
		}
		req.MarkAdmitted()
	}
	var s *Session
	select {
	case s = <-sp.idle:
	default:
		// Every session is busy: wait in the queue.
		sp.refreshGauges()
		t0 := time.Now()
		select {
		case s = <-sp.idle:
			sp.hQueueWait.Observe(float64(time.Since(t0).Nanoseconds()))
		case <-ctx.Done():
			sp.admitted.Add(-1)
			sp.refreshGauges()
			return nil, ctx.Err()
		}
	}
	req.MarkAcquired()
	sp.refreshGauges()
	return s, nil
}

// release returns a session to the pool.
func (sp *SessionPool) release(s *Session) {
	sp.admitted.Add(-1)
	sp.idle <- s
	sp.refreshGauges()
}

// serve is the one per-request run path: acquire a session, run, copy the
// outputs out of its arena, release.
func (sp *SessionPool) serve(ctx context.Context, req *obs.ActiveRequest, feeds map[string]*tensor.Tensor, batched bool) ([]*tensor.Tensor, error) {
	s, err := sp.acquire(ctx, req, batched)
	if err != nil {
		return nil, err
	}
	defer sp.release(s)
	if req != nil {
		ctx = obs.ContextWithRequest(ctx, req)
	}
	outs, err := s.RunContext(ctx, feeds)
	if err != nil {
		return nil, err
	}
	res := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		res[i] = o.Clone()
	}
	return res, nil
}

// Run admits the request, executes it on a pooled session (or through the
// batching front-end), and returns copies of the outputs (unlike
// Session.Run, the results own their storage — the session and its arena go
// back to the pool before Run returns). Every Run is one tracked request:
// it gets an ID, a sampled subset gets a full per-request trace, and its
// outcome lands in the SLO window. Only a true overload shed counts as
// OutcomeShed; a request whose own context expired or was cancelled is a
// distinct deadline outcome, so the shed rate reflects real server overload
// (admission.shed counts both).
func (sp *SessionPool) Run(ctx context.Context, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	req := sp.requests.Start(sp.model) // nil unless this request is sampled
	start := time.Now()
	var outs []*tensor.Tensor
	var err error
	if sp.batcher != nil {
		outs, err = sp.batcher.run(ctx, req, feeds)
	} else {
		outs, err = sp.serve(ctx, req, feeds, false)
	}
	oc := obs.OutcomeOK
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		mAdmissionShed.Inc()
		req.MarkShed()
		oc = obs.OutcomeShed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		mAdmissionShed.Inc()
		oc = obs.OutcomeDeadline
	default:
		oc = obs.OutcomeError
	}
	req.Finish(err)
	sp.slo.Record(sp.model, time.Since(start), oc)
	return outs, err
}
