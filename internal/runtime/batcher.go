package runtime

import (
	"context"
	"errors"
	"sync"
	"time"

	"unigpu/internal/obs"
	"unigpu/internal/tensor"
)

// Batching front-end for SessionPool: concurrent single-image requests are
// coalesced into one batched execution. A single dispatcher goroutine pulls
// requests off a bounded queue, lingers up to MaxLinger (or until MaxBatch
// requests are waiting), gathers the per-request feeds into one batched
// input tensor, runs a plan compiled for exactly that batch size, and
// scatters the output rows back to the callers. Plans are compiled lazily
// per batch size — one singleflight compile each, re-walking the tuning-DB
// warm path — and until a size's plan is ready its requests degrade to the
// pool's per-request sessions, so enabling batching never stalls traffic
// behind a compile.

// ErrPoolClosed is returned for requests still queued (or arriving) when
// the pool is closed.
var ErrPoolClosed = errors.New("runtime: session pool closed")

// BatcherOptions configures the batching front-end of a SessionPool.
type BatcherOptions struct {
	// MaxBatch caps how many requests one execution coalesces (default 8).
	MaxBatch int
	// MaxLinger bounds how long the dispatcher holds the first request of
	// a forming batch waiting for companions (default 2ms).
	MaxLinger time.Duration
	// QueueDepth bounds the request queue; a request arriving when it is
	// full is shed with ErrOverloaded (default 4*MaxBatch). With batching
	// enabled this queue is the pool's admission point.
	QueueDepth int
	// PlanFor compiles a plan for the given batch size (required). It is
	// invoked at most once per size (singleflight) from a background
	// goroutine; the result is cached for the life of the pool.
	PlanFor func(batch int) (*Plan, error)
}

// batchResult is what a coalesced request resolves to.
type batchResult struct {
	outs []*tensor.Tensor
	err  error
}

// batchRequest is one caller waiting in the batching queue.
type batchRequest struct {
	ctx   context.Context
	feeds map[string]*tensor.Tensor
	res   chan batchResult // buffered 1: completion never blocks the dispatcher
	req   *obs.ActiveRequest
}

func (r *batchRequest) complete(outs []*tensor.Tensor, err error) {
	select {
	case r.res <- batchResult{outs: outs, err: err}:
	default:
	}
}

// batchEntry caches one batch size's compiled plan, its dedicated session,
// and the reusable gather buffers. done closes when the compile finishes.
type batchEntry struct {
	done  chan struct{}
	plan  *Plan
	sess  *Session
	feeds map[string]*tensor.Tensor
	err   error
}

func (e *batchEntry) readyNow() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Batcher coalesces SessionPool requests into batched executions.
type Batcher struct {
	opts  BatcherOptions
	pool  *SessionPool
	queue chan *batchRequest

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	// closeMu makes enqueue and close mutually exclusive: run enqueues
	// under the read lock, close flips closed under the write lock before
	// signalling stop. Without it a request could slip into the queue after
	// the dispatcher's final drain and hang its caller forever.
	closeMu sync.RWMutex
	closed  bool

	mu      sync.Mutex
	entries map[int]*batchEntry

	// Telemetry.
	hBatchSize *obs.Histogram
	hLinger    *obs.Histogram
	cFormed    *obs.Counter
	cDegraded  *obs.Counter
}

// newBatcher wires a batching front-end onto sp and starts the dispatcher.
func newBatcher(sp *SessionPool, opts BatcherOptions) *Batcher {
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 8
	}
	if opts.MaxLinger <= 0 {
		opts.MaxLinger = 2 * time.Millisecond
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 4 * opts.MaxBatch
	}
	b := &Batcher{
		opts:       opts,
		pool:       sp,
		queue:      make(chan *batchRequest, opts.QueueDepth),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		entries:    map[int]*batchEntry{},
		hBatchSize: obs.DefaultRegistry.Histogram("batch.size." + sp.label),
		hLinger:    obs.DefaultRegistry.Histogram("batch.linger_wait_ns"),
		cFormed:    obs.DefaultRegistry.Counter("batch.formed." + sp.label),
		cDegraded:  obs.DefaultRegistry.Counter("batch.degraded." + sp.label),
	}
	go b.dispatch()
	return b
}

// Warm compiles (and caches) the plans for the given batch sizes,
// blocking until each is ready. Benchmarks call it so steady-state
// measurements exclude the one-time compile.
func (b *Batcher) Warm(sizes ...int) error {
	var firstErr error
	for _, n := range sizes {
		if n < 2 || n > b.opts.MaxBatch {
			continue
		}
		e := b.entry(n)
		<-e.done
		if e.err != nil && firstErr == nil {
			firstErr = e.err
		}
	}
	return firstErr
}

// entry returns the cache slot for batch size n, launching the singleflight
// compile on first request.
func (b *Batcher) entry(n int) *batchEntry {
	b.mu.Lock()
	e, ok := b.entries[n]
	if !ok {
		e = &batchEntry{done: make(chan struct{})}
		b.entries[n] = e
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer close(e.done)
			plan, err := b.opts.PlanFor(n)
			if err != nil {
				e.err = err
				return
			}
			e.plan = plan
			e.sess = plan.NewSessionWith(b.pool.sessOpts)
			e.feeds = make(map[string]*tensor.Tensor, len(plan.inputs))
			for _, in := range plan.inputs {
				e.feeds[in.name] = tensor.New(in.shape...)
			}
		}()
	}
	b.mu.Unlock()
	return e
}

// testBatchEnqueuePause, when set (tests only), runs between the closed
// check and the enqueue — the window where a concurrent close could
// otherwise drain the queue first and strand the request.
var testBatchEnqueuePause func()

// run is the batched half of SessionPool.Run (which owns the request's
// accounting): bounded-queue admission, then wait for the dispatcher to
// resolve the request.
func (b *Batcher) run(ctx context.Context, req *obs.ActiveRequest, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Feed shapes are validated against the per-request plan up front so a
	// malformed request can never poison a formed batch.
	if err := b.pool.plan.validateFeeds(feeds); err != nil {
		return nil, err
	}
	br := &batchRequest{ctx: ctx, feeds: feeds, res: make(chan batchResult, 1), req: req}
	b.closeMu.RLock()
	if b.closed {
		b.closeMu.RUnlock()
		return nil, ErrPoolClosed
	}
	if testBatchEnqueuePause != nil {
		testBatchEnqueuePause()
	}
	select {
	case b.queue <- br:
		b.closeMu.RUnlock()
		req.MarkAdmitted()
	default:
		b.closeMu.RUnlock()
		return nil, ErrOverloaded
	}
	select {
	case res := <-br.res:
		return res.outs, res.err
	case <-ctx.Done():
		// The dispatcher may still pick the request up; its buffered result
		// channel absorbs the late completion.
		return nil, ctx.Err()
	}
}

// dispatch is the single batching loop: pull one request, linger for
// companions, execute the formed batch.
func (b *Batcher) dispatch() {
	defer close(b.done)
	for {
		var first *batchRequest
		select {
		case first = <-b.queue:
		case <-b.stop:
			b.drain()
			return
		}
		batch := append(make([]*batchRequest, 0, b.opts.MaxBatch), first)
		linger0 := time.Now()
		timer := time.NewTimer(b.opts.MaxLinger)
	gathering:
		for len(batch) < b.opts.MaxBatch {
			select {
			case r := <-b.queue:
				batch = append(batch, r)
			case <-timer.C:
				break gathering
			case <-b.stop:
				break gathering
			}
		}
		timer.Stop()
		b.hLinger.Observe(float64(time.Since(linger0).Nanoseconds()))
		// Drop members whose context expired while the batch formed.
		live := batch[:0]
		for _, r := range batch {
			if err := r.ctx.Err(); err != nil {
				r.complete(nil, err)
				continue
			}
			live = append(live, r)
		}
		b.execute(live)
		select {
		case <-b.stop:
			b.drain()
			return
		default:
		}
	}
}

// drain fails everything still queued once the pool is closing.
func (b *Batcher) drain() {
	for {
		select {
		case r := <-b.queue:
			r.complete(nil, ErrPoolClosed)
		default:
			return
		}
	}
}

// execute resolves one formed batch: batched run when that size's plan is
// cached and ready, per-request degradation otherwise.
func (b *Batcher) execute(live []*batchRequest) {
	n := len(live)
	if n == 0 {
		return
	}
	if n == 1 {
		b.observeBatch(1)
		live[0].req.SetBatchSize(1)
		b.fallback(live[0])
		return
	}
	e := b.entry(n)
	if !e.readyNow() || e.err != nil {
		// Plan still compiling (or failed to compile): degrade to the
		// pooled per-request sessions rather than stalling the dispatcher.
		for _, r := range live {
			r.req.SetBatchSize(1)
		}
		b.degrade(live)
		return
	}
	b.observeBatch(n)

	// Gather: copy each member's feed into its row of the batched input.
	t0 := time.Now()
	for _, in := range e.plan.inputs {
		dst := e.feeds[in.name]
		row := dst.Size() / n
		for i, r := range live {
			copy(dst.Data()[i*row:(i+1)*row], r.feeds[in.name].Data())
		}
	}
	gather := time.Since(t0)
	for _, r := range live {
		r.req.AddGather(gather)
		r.req.SetBatchSize(n)
	}

	// The batched run is cancelled only when every member has given up.
	runCtx, cancel := context.WithCancel(context.Background())
	watchDone := make(chan struct{})
	go func() {
		defer cancel()
		for _, r := range live {
			select {
			case <-r.ctx.Done():
			case <-watchDone:
				return
			}
		}
	}()
	outs, err := e.sess.RunContext(runCtx, e.feeds)
	close(watchDone)
	cancel()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			for _, r := range live {
				cerr := r.ctx.Err()
				if cerr == nil {
					cerr = err
				}
				r.complete(nil, cerr)
			}
			return
		}
		// A poisoned batch must not fail its siblings collectively: retry
		// each member on the per-request path, where retries, re-exec and
		// the breaker handle the fault individually.
		b.degrade(live)
		return
	}

	// Scatter: each member gets fresh row tensors it owns outright.
	for i, r := range live {
		t1 := time.Now()
		rows := make([]*tensor.Tensor, len(outs))
		for j, o := range outs {
			shape := append([]int{1}, o.Shape()[1:]...)
			rowElems := o.Size() / n
			rt := tensor.New(shape...)
			copy(rt.Data(), o.Data()[i*rowElems:(i+1)*rowElems])
			rows[j] = rt
		}
		r.req.AddScatter(time.Since(t1))
		r.complete(rows, nil)
	}
}

func (b *Batcher) observeBatch(n int) {
	b.hBatchSize.Observe(float64(n))
	b.cFormed.Inc()
}

// degrade resolves every member on the per-request path, concurrently, so
// the dispatcher is free to form the next batch.
func (b *Batcher) degrade(live []*batchRequest) {
	b.cDegraded.Inc()
	for _, r := range live {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.fallback(r)
		}()
	}
}

// fallback executes one request on the pool's per-request sessions. The
// request already passed admission (the batching queue), so the acquire
// blocks instead of shedding on queue depth.
func (b *Batcher) fallback(r *batchRequest) {
	r.complete(b.pool.serve(r.ctx, r.req, r.feeds, true))
}

// close stops the dispatcher, fails queued requests with ErrPoolClosed,
// and waits for in-flight compiles and degraded runs to finish.
func (b *Batcher) close() {
	b.stopOnce.Do(func() {
		// Take the write lock before signalling stop: every in-flight run
		// has either finished its enqueue (the dispatcher's final drain will
		// sweep it) or will observe closed and shed — nothing can land in
		// the queue after the drain.
		b.closeMu.Lock()
		b.closed = true
		b.closeMu.Unlock()
		close(b.stop)
	})
	<-b.done
	b.wg.Wait()
}
