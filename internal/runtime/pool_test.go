package runtime_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"unigpu/internal/obs"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
)

// TestPoolRunCopiesOutputs: pool results own their storage — two
// back-to-back runs through the same pooled session must not alias.
func TestPoolRunCopiesOutputs(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{Sessions: 1})
	a, err := pool.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	tensorsEqual(t, "pool run a", a, want)
	tensorsEqual(t, "pool run b", b, want)
	if &a[0].Data()[0] == &b[0].Data()[0] {
		t.Fatal("pool outputs must be copies, not arena-backed aliases")
	}
}

// TestPoolShedsWhenOverloaded: with every session busy and the queue
// full, requests shed immediately with ErrOverloaded and the
// admission.shed counter grows.
func TestPoolShedsWhenOverloaded(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	// One session, no queue; the only session is pinned down by a long
	// injected queue hang.
	inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: 300 * time.Millisecond}).
		Script(sim.FaultQueueHang)
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 0,
		Session: runtime.SessionOptions{Faults: inj, RetryBackoff: time.Microsecond},
	})
	shed0 := obs.DefaultRegistry.Counter("admission.shed").Value()

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		if _, err := pool.Run(context.Background(), feeds); err != nil {
			t.Errorf("held run: %v", err)
		}
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // the hold is now inside the hang
	if _, err := pool.Run(context.Background(), feeds); !errors.Is(err, runtime.ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if d := obs.DefaultRegistry.Counter("admission.shed").Value() - shed0; d < 1 {
		t.Fatalf("admission.shed grew by %d, want >= 1", d)
	}
	wg.Wait()
	// Pool drained: requests are admitted again.
	if _, err := pool.Run(context.Background(), feeds); err != nil {
		t.Fatalf("post-drain run: %v", err)
	}
}

// TestPoolQueueAdmitsWithinDepth: a request that fits in the wait queue
// blocks until a session frees and then succeeds.
func TestPoolQueueAdmitsWithinDepth(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: 100 * time.Millisecond}).
		Script(sim.FaultQueueHang)
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 1,
		Session: runtime.SessionOptions{Faults: inj, RetryBackoff: time.Microsecond},
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := pool.Run(context.Background(), feeds); err != nil {
			t.Errorf("held run: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := pool.Run(context.Background(), feeds); err != nil {
		t.Fatalf("queued run within depth must succeed, got %v", err)
	}
	wg.Wait()
}

// TestPoolDeadlineShedding: an expired deadline sheds before running, and
// a deadline that fires while queued sheds the waiter.
func TestPoolDeadlineShedding(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{Sessions: 1, QueueDepth: 4})
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := pool.Run(expired, feeds); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want DeadlineExceeded", err)
	}

	// Pin the only session, then queue a request whose deadline fires
	// while it waits.
	inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: 200 * time.Millisecond}).
		Script(sim.FaultQueueHang)
	pool = runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 4,
		Session: runtime.SessionOptions{Faults: inj, RetryBackoff: time.Microsecond},
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := pool.Run(context.Background(), feeds); err != nil {
			t.Errorf("held run: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if _, err := pool.Run(ctx, feeds); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued past deadline: got %v, want DeadlineExceeded", err)
	}
	wg.Wait()
}

// TestPoolConcurrentServing (run with -race): many clients through a small
// pool with faults injected; admitted requests must return bit-identical
// outputs, shed ones exactly ErrOverloaded, and the shared breaker keeps a
// consistent state.
func TestPoolConcurrentServing(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(sim.FaultConfig{Seed: 3, Rate: 0.2, HangLatency: 20 * time.Microsecond})
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 3, QueueDepth: 8,
		Session: runtime.SessionOptions{Faults: inj, RetryBackoff: 5 * time.Microsecond},
	})
	if pool.Breaker() == nil {
		t.Fatal("fault-injected pool must install a shared breaker")
	}
	const clients, requests = 8, 20
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				outs, err := pool.Run(context.Background(), feeds)
				if errors.Is(err, runtime.ErrOverloaded) {
					continue // shed under load: expected
				}
				if err != nil {
					t.Errorf("pool run: %v", err)
					return
				}
				for i, v := range want[0].Data() {
					if outs[0].Data()[i] != v {
						t.Errorf("output differs at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolDeviceLabels (fleet satellite): PoolOptions.Device suffixes the
// pool's metrics, health entry, and pool-installed breaker gauge with the
// replica name, so a fleet scrape can tell devices apart; an unset Device
// keeps the original single-device names (see TestTelemetryWiring and the
// Prometheus golden for the legacy shape).
func TestPoolDeviceLabels(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(sim.FaultConfig{})
	so := faultSessionOpts(inj)
	so.Model = "labelled"
	sp := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1, Device: "dev-a", Session: so,
	})
	if _, err := sp.Run(context.Background(), feeds); err != nil {
		t.Fatal(err)
	}
	if v, ok := obs.DefaultRegistry.Gauge("pool.in_flight.labelled.dev-a").Value(); !ok || v != 0 {
		t.Fatalf("pool.in_flight.labelled.dev-a = %v %v, want 0 after drain", v, ok)
	}
	if v, ok := obs.DefaultRegistry.Gauge("breaker.state.dev-a").Value(); !ok || v != float64(runtime.BreakerClosed) {
		t.Fatalf("breaker.state.dev-a = %v %v, want closed", v, ok)
	}
	// Check only this pool's entry: earlier tests in the package may have
	// left other health sources registered (and unhealthy).
	_, checks := obs.Health()
	st, present := checks["pool.labelled.dev-a"]
	if !present {
		t.Fatalf("health entry pool.labelled.dev-a missing; have %v", keysOf(checks))
	}
	if !st.OK {
		t.Fatalf("health entry pool.labelled.dev-a not ok: %+v", st)
	}
	sp.Close()
}

// TestPoolCloseLeavesHealthz: a standalone pool closed while its breaker is
// open must take its own entry off /healthz — nobody else will, and the
// entry's closure would otherwise keep the process unhealthy and the pool,
// plan and packed weights reachable for good.
func TestPoolCloseLeavesHealthz(t *testing.T) {
	g, _ := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	so := faultSessionOpts(sim.NewFaultInjector(sim.FaultConfig{}))
	so.Model = "closing"
	sp := runtime.NewSessionPool(plan, runtime.PoolOptions{Sessions: 1, Session: so})
	for sp.Breaker().State() != runtime.BreakerOpen {
		sp.Breaker().Failure()
	}
	_, checks := obs.Health()
	if st, present := checks["pool.closing"]; !present || st.OK {
		t.Fatalf("pool with an open breaker: health entry %+v (present=%v), want unhealthy", st, present)
	}
	sp.Close()
	_, checks = obs.Health()
	if st, present := checks["pool.closing"]; present {
		t.Fatalf("closed pool still on /healthz: %+v", st)
	}
}

// TestPoolCloseKeepsNewerHealthz: closing a pool takes only its own
// /healthz entry away. A newer pool serving the same model replaced it, and
// that pool's entry, unhealthy while its breaker is open, stays until the
// newer pool closes too.
func TestPoolCloseKeepsNewerHealthz(t *testing.T) {
	g, _ := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *runtime.SessionPool {
		so := faultSessionOpts(sim.NewFaultInjector(sim.FaultConfig{}))
		so.Model = "twin"
		return runtime.NewSessionPool(plan, runtime.PoolOptions{Sessions: 1, Session: so})
	}
	older, newer := open(), open()
	defer newer.Close()
	for newer.Breaker().State() != runtime.BreakerOpen {
		newer.Breaker().Failure()
	}
	older.Close()
	_, checks := obs.Health()
	st, present := checks["pool.twin"]
	if !present {
		t.Fatalf("closing the older pool removed the newer one's entry; have %v", keysOf(checks))
	}
	if st.OK {
		t.Fatalf("newer pool's breaker is open, entry reports healthy: %+v", st)
	}
	newer.Close()
	if _, checks = obs.Health(); checks["pool.twin"] != (obs.HealthStatus{}) {
		t.Fatalf("closed newer pool still on /healthz: %+v", checks["pool.twin"])
	}
}

func keysOf(m map[string]obs.HealthStatus) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
