package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unigpu/internal/graph"
	"unigpu/internal/obs"
	"unigpu/internal/sim"
)

// Fault-tolerance metrics. Handles are cached once; Registry.Reset zeroes
// them in place, so they stay valid across resets.
var (
	mFaultRetries = obs.DefaultRegistry.Counter("fault.retries")
	mCPUReexec    = obs.DefaultRegistry.Counter("fault.cpu_reexec")
	mBreakerState = obs.DefaultRegistry.Gauge("breaker.state")
)

// NodeError is a structured failure of one scheduled node: a recovered
// operator panic or a node-level execution error, attributed to the node
// and the device it was placed on. Panics carry the goroutine stack.
type NodeError struct {
	Node   string
	Device graph.DeviceClass
	Cause  error
	Stack  []byte
}

func (e *NodeError) Error() string {
	if len(e.Stack) > 0 {
		return fmt.Sprintf("runtime: node %q (%s): %v\n%s", e.Node, e.Device, e.Cause, e.Stack)
	}
	return fmt.Sprintf("runtime: node %q (%s): %v", e.Node, e.Device, e.Cause)
}

func (e *NodeError) Unwrap() error { return e.Cause }

// BreakerState is the circuit breaker's tri-state.
type BreakerState int32

const (
	// BreakerClosed: the device is healthy; GPU dispatches proceed.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the device is quarantined; GPU-placed nodes route to
	// the CPU without attempting a dispatch until probation elapses.
	BreakerOpen
	// BreakerHalfOpen: probation elapsed and one probe dispatch is in
	// flight; its outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// BreakerOptions configures a circuit breaker.
type BreakerOptions struct {
	// Threshold is how many consecutive persistent GPU-node failures open
	// the breaker (default 3).
	Threshold int
	// Probation is how long the breaker stays open before letting one
	// probe dispatch through (default 250ms).
	Probation time.Duration
	// Device labels the breaker's state gauge with the replica it guards
	// (breaker.state.<device>), so a fleet scrape distinguishes which
	// device is quarantined. Empty keeps the single-device gauge name
	// breaker.state unchanged.
	Device string
}

// Breaker is a per-device circuit breaker. While closed, GPU dispatches
// proceed and persistent failures accumulate; at Threshold consecutive
// failures it opens, quarantining the device so GPU-placed nodes route
// straight to the CPU. After Probation it half-opens: exactly one dispatch
// probes the device, and its outcome closes or re-opens the breaker.
// A Breaker is safe for concurrent use and is meant to be shared by every
// session serving the same device (SessionPool does this); a nil *Breaker
// always allows dispatch. The gauge breaker.state tracks transitions
// (0 closed, 1 open, 2 half-open).
type Breaker struct {
	opts  BreakerOptions
	state atomic.Int32
	gauge *obs.Gauge

	mu       sync.Mutex
	failures int
	openedAt time.Time
}

// NewBreaker creates a closed breaker; zero options select the defaults.
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = 3
	}
	if opts.Probation <= 0 {
		opts.Probation = 250 * time.Millisecond
	}
	g := mBreakerState
	if opts.Device != "" {
		g = obs.DefaultRegistry.Gauge("breaker.state." + opts.Device)
		// A per-device gauge reads closed from birth; the legacy shared
		// gauge keeps its set-on-first-transition behaviour (the metrics
		// goldens depend on it).
		g.Set(float64(BreakerClosed))
	}
	return &Breaker{opts: opts, gauge: g}
}

// State returns the breaker's current state.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	return BreakerState(b.state.Load())
}

func (b *Breaker) setState(s BreakerState) {
	b.state.Store(int32(s))
	b.gauge.Set(float64(s))
}

// Expire ends an open breaker's probation immediately, so the next Allow
// caller becomes the half-open probe. The fleet's heal scheduler calls it
// right after a driver reset (FaultInjector.Heal), replacing the passive
// probation timer with its own probe schedule; a closed or half-open
// breaker is unchanged.
func (b *Breaker) Expire() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if BreakerState(b.state.Load()) == BreakerOpen {
		b.openedAt = time.Time{}
	}
	b.mu.Unlock()
}

// Allow reports whether a GPU dispatch may be attempted. Closed: always.
// Open: false until probation elapses, then the first caller transitions
// the breaker to half-open and becomes the probe. Half-open: false (a
// probe is already in flight). The fast path is one atomic load.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	if BreakerState(b.state.Load()) == BreakerClosed {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.opts.Probation {
			return false
		}
		b.setState(BreakerHalfOpen)
		return true // this caller is the probe
	default: // half-open, probe in flight
		return false
	}
}

// Success records a successful GPU dispatch: it closes a half-open breaker
// and resets the consecutive-failure count.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.failures = 0
	if BreakerState(b.state.Load()) != BreakerClosed {
		b.setState(BreakerClosed)
	}
	b.mu.Unlock()
}

// Failure records a persistent GPU-node failure (retries exhausted or the
// device lost). It re-opens a half-open breaker immediately and opens a
// closed one once Threshold consecutive failures accumulate.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	switch BreakerState(b.state.Load()) {
	case BreakerHalfOpen:
		b.openedAt = time.Now()
		b.setState(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.opts.Threshold {
			b.openedAt = time.Now()
			b.setState(BreakerOpen)
		}
	}
	b.mu.Unlock()
}

// sleepCtx sleeps for d or until ctx is cancelled; it reports whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-t.C:
		return true
	}
}

// maxRetries bounds per-node dispatch retries of a transient fault; the
// dispatch after the last one that fails is a persistent fault.
const maxRetries = 2

// jitter is a tiny xorshift PRNG for backoff jitter, private to the
// session (which runs on one goroutine), so it needs no lock.
func (s *Session) jitter() uint64 {
	x := s.jitterState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.jitterState = x
	return x
}

// backoffFor returns the jittered exponential backoff before retry
// `attempt` (0-based): base<<attempt plus up to one base of jitter.
func (s *Session) backoffFor(attempt int) time.Duration {
	base := s.retryBackoff
	if attempt > 10 {
		attempt = 10
	}
	d := base << uint(attempt)
	return d + time.Duration(s.jitter()%uint64(base+1))
}

// gpuGate passes one GPU-placed node through the device-health machinery:
// the circuit breaker, the fault injector, and bounded jittered retries of
// transient faults. It returns ok=true when the dispatch succeeded and the
// node may execute "on the GPU"; ok=false when the node must re-execute on
// the CPU lane instead (persistent fault, or quarantined device). A
// non-nil error is terminal (context cancelled during a hang or backoff).
func (s *Session) gpuGate(ctx context.Context, i int) (ok bool, err error) {
	pn := &s.plan.nodes[i]
	req := s.req // sampled request recorder, nil on the fault-free hot path
	if !s.breaker.Allow() {
		return false, nil // quarantined: route to CPU without dispatching
	}
	for attempt := 0; ; attempt++ {
		var t0 time.Time
		if req != nil {
			t0 = time.Now()
		}
		derr := s.faults.Dispatch(ctx, pn.name)
		if derr == nil {
			s.breaker.Success()
			return true, nil
		}
		if req != nil {
			// Attribute the failed dispatch — including an injected queue
			// hang — to the request's retry segment.
			req.AddRetry(time.Since(t0))
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		var f *sim.Fault
		if errors.As(derr, &f) && f.Transient() && attempt < maxRetries {
			mFaultRetries.Inc()
			if req != nil {
				t0 = time.Now()
			}
			slept := sleepCtx(ctx, s.backoffFor(attempt))
			if req != nil {
				req.AddRetry(time.Since(t0)) // backoff is retry time too
			}
			if !slept {
				return false, ctx.Err()
			}
			continue
		}
		// Persistent: retries exhausted or the device is lost.
		s.breaker.Failure()
		return false, nil
	}
}
