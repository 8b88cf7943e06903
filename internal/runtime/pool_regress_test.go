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

// Regression tests for two serving-edge bugs: a wait-queue gauge that stuck
// at its last value when a queued waiter left on a deadline, and context
// errors misclassified as overload sheds in the SLO window. (A third, a
// wrongful shed when a session was released between two admission probes,
// cannot recur: admission is one counting step.)

// TestPoolWaitQueueGaugeRefreshOnExit: the pool.wait_queue.<model> gauge
// must return to the real waiter count when a queued request leaves on its
// deadline — not only when the next waiter happens to enter the queue.
func TestPoolWaitQueueGaugeRefreshOnExit(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: 200 * time.Millisecond}).
		Script(sim.FaultQueueHang)
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 4,
		Session: runtime.SessionOptions{
			Faults: inj, RetryBackoff: time.Microsecond, Model: "gaugetest",
		},
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := pool.Run(context.Background(), feeds); err != nil {
			t.Errorf("held run: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // the hold is now inside the hang
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := pool.Run(ctx, feeds); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued past deadline: got %v, want DeadlineExceeded", err)
	}
	// The deadline waiter is gone; the gauge must say so immediately.
	if v, ok := obs.DefaultRegistry.Gauge("pool.wait_queue.gaugetest").Value(); !ok || v != 0 {
		t.Fatalf("wait-queue gauge after deadline exit: %v (ok=%v), want 0", v, ok)
	}
	wg.Wait()
}

// TestPoolOutcomeClassification: the SLO window must count an expired or
// cancelled request as a deadline outcome and reserve the shed counter for
// true ErrOverloaded admission sheds.
func TestPoolOutcomeClassification(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	slo := obs.NewSLOMonitor(obs.SLOOptions{})
	inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: 150 * time.Millisecond}).
		Script(sim.FaultQueueHang)
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 0, SLO: slo,
		Session: runtime.SessionOptions{
			Faults: inj, RetryBackoff: time.Microsecond, Model: "octest",
		},
	})

	// 1: an already-expired context is a deadline outcome, not a shed.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := pool.Run(expired, feeds); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired run: got %v, want DeadlineExceeded", err)
	}
	st := slo.Stats("octest")
	if st.Deadline != 1 || st.Shed != 0 {
		t.Fatalf("after expired run: deadline=%d shed=%d, want 1/0", st.Deadline, st.Shed)
	}

	// 2: a queue-full rejection is a shed outcome.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := pool.Run(context.Background(), feeds); err != nil {
			t.Errorf("held run: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // the hold is now inside the hang
	if _, err := pool.Run(context.Background(), feeds); !errors.Is(err, runtime.ErrOverloaded) {
		t.Fatalf("overloaded run: got %v, want ErrOverloaded", err)
	}
	st = slo.Stats("octest")
	if st.Deadline != 1 || st.Shed != 1 {
		t.Fatalf("after overload: deadline=%d shed=%d, want 1/1", st.Deadline, st.Shed)
	}
	wg.Wait()
}
