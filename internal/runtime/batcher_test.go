package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// zooPlanBuilder returns a PlanFor for one zoo model: rebuild at batch n,
// same graph passes as the per-request plan. Weight seeding is batch-
// independent, so every batch size computes the identical function per row.
func zooPlanBuilder(name string, size int) func(n int) (*runtime.Plan, error) {
	return func(n int) (*runtime.Plan, error) {
		m := models.BuildN(name, size, n, false)
		graph.Optimize(m.Graph)
		graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
		return runtime.NewPlan(m.Graph)
	}
}

// TestBatchedBitIdentityZoo: every zoo model served through the batching
// front-end must return outputs bit-identical to the frozen reference
// executor run per request — gather, the batch-N plan, and scatter must
// never change a single ULP of any request's result.
func TestBatchedBitIdentityZoo(t *testing.T) {
	const clients = 3
	for name, size := range goldenModelCases() {
		t.Run(name, func(t *testing.T) {
			build := zooPlanBuilder(name, size)

			// Per-request references on an independently built graph.
			mref := models.Build(name, size, false)
			graph.Optimize(mref.Graph)
			graph.PlaceDevices(mref.Graph, graph.PlacementOptions{})
			inputs := make([]map[string]*tensor.Tensor, clients)
			want := make([][]*tensor.Tensor, clients)
			for i := 0; i < clients; i++ {
				in := tensor.New(1, 3, size, size)
				in.FillRandom(int64(100 + i))
				inputs[i] = map[string]*tensor.Tensor{"data": in}
				w, err := executeReference(mref.Graph, inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = w
			}

			plan1, err := build(1)
			if err != nil {
				t.Fatal(err)
			}
			pool := runtime.NewSessionPool(plan1, runtime.PoolOptions{
				Sessions: 2, QueueDepth: clients,
				Batch: &runtime.BatcherOptions{
					MaxBatch: clients, MaxLinger: 500 * time.Millisecond, PlanFor: build,
				},
			})
			defer pool.Close()
			if err := pool.Batcher().Warm(clients); err != nil {
				t.Fatalf("warm: %v", err)
			}

			got := make([][]*tensor.Tensor, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			wg.Add(clients)
			for i := 0; i < clients; i++ {
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = pool.Run(context.Background(), inputs[i])
				}(i)
			}
			wg.Wait()
			for i := 0; i < clients; i++ {
				if errs[i] != nil {
					t.Fatalf("client %d: %v", i, errs[i])
				}
				tensorsEqual(t, fmt.Sprintf("client %d", i), got[i], want[i])
			}
		})
	}
}

// TestBatcherScatterMixedDeadlines: requests cancelled or expired while a
// batch forms get their own context error, and the surviving members of
// the same batch still succeed with bit-identical outputs.
func TestBatcherScatterMixedDeadlines(t *testing.T) {
	const name, size = "SqueezeNet1.0", 48
	build := zooPlanBuilder(name, size)
	mref := models.Build(name, size, false)
	graph.Optimize(mref.Graph)
	graph.PlaceDevices(mref.Graph, graph.PlacementOptions{})

	mkInput := func(seed int64) map[string]*tensor.Tensor {
		in := tensor.New(1, 3, size, size)
		in.FillRandom(seed)
		return map[string]*tensor.Tensor{"data": in}
	}
	liveA, liveB := mkInput(1), mkInput(2)
	wantA, err := executeReference(mref.Graph, liveA)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := executeReference(mref.Graph, liveB)
	if err != nil {
		t.Fatal(err)
	}

	plan1, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan1, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 8,
		Batch: &runtime.BatcherOptions{
			// MaxBatch larger than the live requests: the batch can only
			// close via the linger timer, giving the cancellations below
			// time to land while the batch forms.
			MaxBatch: 6, MaxLinger: 150 * time.Millisecond, PlanFor: build,
		},
	})
	defer pool.Close()
	if err := pool.Batcher().Warm(2, 3, 4); err != nil {
		t.Fatalf("warm: %v", err)
	}

	type result struct {
		outs []*tensor.Tensor
		err  error
	}
	var wg sync.WaitGroup
	results := make([]result, 4)
	run := func(i int, ctx context.Context, feeds map[string]*tensor.Tensor) {
		defer wg.Done()
		outs, err := pool.Run(ctx, feeds)
		results[i] = result{outs, err}
	}
	cancelCtx, cancelNow := context.WithCancel(context.Background())
	deadlineCtx, cancelDeadline := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelDeadline()
	wg.Add(4)
	go run(0, context.Background(), liveA)
	go run(1, context.Background(), liveB)
	go run(2, cancelCtx, mkInput(3))
	go run(3, deadlineCtx, mkInput(4))
	time.Sleep(20 * time.Millisecond) // all four are queued or lingering
	cancelNow()
	wg.Wait()

	if results[0].err != nil || results[1].err != nil {
		t.Fatalf("live requests failed: %v / %v", results[0].err, results[1].err)
	}
	tensorsEqual(t, "live A", results[0].outs, wantA)
	tensorsEqual(t, "live B", results[1].outs, wantB)
	if !errors.Is(results[2].err, context.Canceled) {
		t.Fatalf("cancelled request: got %v, want context.Canceled", results[2].err)
	}
	if !errors.Is(results[3].err, context.DeadlineExceeded) {
		t.Fatalf("expired request: got %v, want context.DeadlineExceeded", results[3].err)
	}
}

// TestBatcherMaxBatchTrigger: with an effectively infinite linger, a full
// batch must still fire as soon as MaxBatch requests are queued.
func TestBatcherMaxBatchTrigger(t *testing.T) {
	build := zooPlanBuilder("SqueezeNet1.0", 32)
	plan1, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan1, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 4,
		Batch: &runtime.BatcherOptions{
			MaxBatch: 2, MaxLinger: time.Hour, PlanFor: build,
		},
	})
	defer pool.Close()
	if err := pool.Batcher().Warm(2); err != nil {
		t.Fatalf("warm: %v", err)
	}
	in := tensor.New(1, 3, 32, 32)
	in.FillRandom(5)
	feeds := map[string]*tensor.Tensor{"data": in}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pool.Run(context.Background(), feeds)
		}(i)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("runs failed: %v / %v", errs[0], errs[1])
	}
	// With the hour-long linger, completion inside the test timeout proves
	// the max-batch trigger fired; bound it loosely for slow CI anyway.
	if wall := time.Since(start); wall > time.Minute {
		t.Fatalf("full batch took %v; max-batch trigger did not fire", wall)
	}
}

// TestBatcherLingerTrigger: a lone request must not wait for a full batch —
// the linger timer closes the batch and the request completes (on the
// per-request fallback path for n=1).
func TestBatcherLingerTrigger(t *testing.T) {
	build := zooPlanBuilder("SqueezeNet1.0", 32)
	plan1, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	const linger = 60 * time.Millisecond
	pool := runtime.NewSessionPool(plan1, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 4,
		Batch: &runtime.BatcherOptions{
			MaxBatch: 8, MaxLinger: linger, PlanFor: build,
		},
	})
	defer pool.Close()
	in := tensor.New(1, 3, 32, 32)
	in.FillRandom(6)
	start := time.Now()
	if _, err := pool.Run(context.Background(), map[string]*tensor.Tensor{"data": in}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	// The lone request rides the linger window before executing; allow
	// generous slack both ways for coarse timers and slow CI.
	if wall < linger/2 {
		t.Fatalf("lone request completed in %v, before the %v linger window", wall, linger)
	}
	if wall > time.Minute {
		t.Fatalf("lone request took %v; linger trigger did not fire", wall)
	}
}

// TestBatcherPlanSingleflight (meaningful under -race): concurrent batches
// of the same size must compile that size's plan exactly once, however many
// requests race on the cold cache.
func TestBatcherPlanSingleflight(t *testing.T) {
	var calls sync.Map // batch size -> *atomic.Int32
	inner := zooPlanBuilder("SqueezeNet1.0", 32)
	build := func(n int) (*runtime.Plan, error) {
		c, _ := calls.LoadOrStore(n, new(atomic.Int32))
		c.(*atomic.Int32).Add(1)
		return inner(n)
	}
	plan1, err := inner(1)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan1, runtime.PoolOptions{
		Sessions: 2, QueueDepth: 32,
		Batch: &runtime.BatcherOptions{
			MaxBatch: 4, MaxLinger: 5 * time.Millisecond, PlanFor: build,
		},
	})
	defer pool.Close()

	in := tensor.New(1, 3, 32, 32)
	in.FillRandom(9)
	feeds := map[string]*tensor.Tensor{"data": in}
	const clients, rounds = 8, 3
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := pool.Run(context.Background(), feeds); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}()
	}
	// Concurrent Warm calls race with the dispatcher's own misses.
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func() {
			defer wg.Done()
			if err := pool.Batcher().Warm(2, 3, 4); err != nil {
				t.Errorf("warm: %v", err)
			}
		}()
	}
	wg.Wait()

	total := 0
	calls.Range(func(k, v any) bool {
		n := v.(*atomic.Int32).Load()
		if n > 1 {
			t.Errorf("PlanFor(%v) called %d times, want at most 1", k, n)
		}
		total += int(n)
		return true
	})
	if total == 0 {
		t.Fatal("PlanFor never called; batching path not exercised")
	}
}

// TestBatchedFaultSoak: seeded random faults under the batching front-end.
// Batched runs that fault degrade to the per-request sessions, where
// retries, CPU re-execution and the shared breaker recover them — every
// request must still return bit-identical outputs, and closing the pool
// must leave no goroutine behind.
func TestBatchedFaultSoak(t *testing.T) {
	runs := 5
	if v := os.Getenv("UNIGPU_SOAK_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("UNIGPU_SOAK_RUNS=%q: %v", v, err)
		}
		if runs = n / 10; runs < 5 {
			runs = 5
		}
	}
	const name, size, clients = "SqueezeNet1.0", 32, 6
	build := zooPlanBuilder(name, size)
	mref := models.Build(name, size, false)
	graph.Optimize(mref.Graph)
	graph.PlaceDevices(mref.Graph, graph.PlacementOptions{})
	inputs := make([]map[string]*tensor.Tensor, clients)
	want := make([][]*tensor.Tensor, clients)
	for i := range inputs {
		in := tensor.New(1, 3, size, size)
		in.FillRandom(int64(31 + i))
		inputs[i] = map[string]*tensor.Tensor{"data": in}
		w, err := executeReference(mref.Graph, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	plan1, err := build(1)
	if err != nil {
		t.Fatal(err)
	}

	baseline := goruntime.NumGoroutine()
	for run := 0; run < runs; run++ {
		inj := sim.NewFaultInjector(sim.FaultConfig{
			Seed: int64(run), Rate: 0.2, HangLatency: 10 * time.Microsecond,
		})
		pool := runtime.NewSessionPool(plan1, runtime.PoolOptions{
			Sessions: 2, QueueDepth: 2 * clients,
			Session: faultSessionOpts(inj),
			Batch: &runtime.BatcherOptions{
				MaxBatch: clients, MaxLinger: 5 * time.Millisecond, PlanFor: build,
			},
		})
		var wg sync.WaitGroup
		wg.Add(clients)
		for i := 0; i < clients; i++ {
			go func(i int) {
				defer wg.Done()
				outs, err := pool.Run(context.Background(), inputs[i])
				if err != nil {
					t.Errorf("soak run %d client %d: %v", run, i, err)
					return
				}
				tensorsEqual(t, fmt.Sprintf("soak run %d client %d", run, i), outs, want[i])
			}(i)
		}
		wg.Wait()
		pool.Close()
		if t.Failed() {
			return
		}
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestBatcherPoolClose: Close fails queued requests with ErrPoolClosed and
// subsequent Runs are rejected instead of hanging on a dead dispatcher.
func TestBatcherPoolClose(t *testing.T) {
	build := zooPlanBuilder("SqueezeNet1.0", 32)
	plan1, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan1, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 4,
		Batch: &runtime.BatcherOptions{MaxBatch: 4, MaxLinger: time.Millisecond, PlanFor: build},
	})
	in := tensor.New(1, 3, 32, 32)
	in.FillRandom(11)
	feeds := map[string]*tensor.Tensor{"data": in}
	if _, err := pool.Run(context.Background(), feeds); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if _, err := pool.Run(context.Background(), feeds); !errors.Is(err, runtime.ErrPoolClosed) {
		t.Fatalf("run after close: got %v, want ErrPoolClosed", err)
	}
	pool.Close() // idempotent
}

// serialBatchPlanBuilder is a PlanFor over the cheap serial-ops function:
// batch n widens the leading data dimension, every row computes the same
// function, and no convolutions keep each compile and run fast enough to
// hammer the close path hundreds of times.
func serialBatchPlanBuilder() func(n int) (*runtime.Plan, error) {
	return func(n int) (*runtime.Plan, error) {
		g := graph.New()
		in := g.Input("data", n, 8, 8, 8)
		a := g.Apply("a", &graph.ActivationOp{Act: ops.ActReLU}, in)
		l := g.Apply("l", &graph.SigmoidOp{}, a)
		j := g.Apply("j", &graph.AddOp{}, l, a)
		sm := g.Apply("sm", &graph.SoftmaxOp{}, j)
		g.SetOutputs(sm)
		return runtime.NewPlan(g)
	}
}

// TestPoolCloseWhileBatchedInFlight is the Close-race regression test
// (satellite of the fleet PR): Close racing concurrent batched Runs must
// drain every request — each caller gets a result or ErrPoolClosed /
// ErrOverloaded, never a hang — without leaking goroutines or panicking in
// scatter. Before the closeMu fix, a request could slip into the queue
// after the dispatcher's final drain and block its caller forever; this
// test hung. Run under -race in CI.
func TestPoolCloseWhileBatchedInFlight(t *testing.T) {
	build := serialBatchPlanBuilder()
	baseline := goruntime.NumGoroutine()
	for round := 0; round < 30; round++ {
		plan, err := build(1)
		if err != nil {
			t.Fatal(err)
		}
		pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
			Sessions: 2, QueueDepth: 8,
			Batch: &runtime.BatcherOptions{MaxBatch: 4, MaxLinger: 50 * time.Microsecond, PlanFor: build},
		})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				in := tensor.New(1, 8, 8, 8)
				in.FillRandom(seed)
				feeds := map[string]*tensor.Tensor{"data": in}
				<-start
				for k := 0; k < 40; k++ {
					_, err := pool.Run(context.Background(), feeds)
					if err != nil {
						if errors.Is(err, runtime.ErrPoolClosed) || errors.Is(err, runtime.ErrOverloaded) {
							continue // closing or momentarily full: both fine
						}
						t.Errorf("round %d: unexpected error: %v", round, err)
						return
					}
				}
			}(int64(round*10 + c))
		}
		close(start)
		// Vary the close point from "immediately" to "mid-steady-state" so
		// different rounds race Close against enqueue, linger, and scatter.
		time.Sleep(time.Duration(round%6) * 50 * time.Microsecond)
		pool.Close()
		wg.Wait() // the regression: a pre-fix race left a caller stuck here
	}
	assertNoGoroutineLeak(t, baseline)
}
