package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"unigpu/internal/graph"
	"unigpu/internal/ops"
	"unigpu/internal/tensor"
)

// TestBatcherCloseEnqueueRace (whitebox): a batched Run that passed the
// closed check must have its enqueue covered by the dispatcher's final
// drain. The testBatchEnqueuePause hook pins the race deterministically:
// it starts Close exactly inside the check-to-enqueue window and gives it
// time to run. Under the closeMu fix, Close blocks until the enqueue
// finishes and the drain resolves the request with ErrPoolClosed; before
// the fix, Close drained an empty queue first and the late enqueue
// stranded the caller forever.
func TestBatcherCloseEnqueueRace(t *testing.T) {
	build := func(n int) (*Plan, error) {
		g := graph.New()
		in := g.Input("data", n, 4)
		g.SetOutputs(g.Apply("act", &graph.ActivationOp{Act: ops.ActReLU}, in))
		return NewPlan(g)
	}
	plan, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSessionPool(plan, PoolOptions{
		Sessions: 1,
		Batch:    &BatcherOptions{MaxBatch: 4, MaxLinger: time.Millisecond, PlanFor: build},
	})

	closeDone := make(chan struct{})
	var once sync.Once
	testBatchEnqueuePause = func() {
		once.Do(func() {
			go func() {
				sp.Close()
				close(closeDone)
			}()
			// Give Close every chance to win the race: with the fix it
			// parks on closeMu until this Run's enqueue is done; without
			// it, it finishes the final drain before the enqueue lands.
			time.Sleep(50 * time.Millisecond)
		})
	}
	defer func() { testBatchEnqueuePause = nil }()

	in := tensor.New(1, 4)
	in.FillRandom(3)
	runDone := make(chan error, 1)
	go func() {
		_, err := sp.Run(context.Background(), map[string]*tensor.Tensor{"data": in})
		runDone <- err
	}()

	select {
	case err := <-runDone:
		if err != nil && !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("raced Run: got %v, want success or ErrPoolClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run stranded by a Close that raced its enqueue")
	}
	<-closeDone
}
