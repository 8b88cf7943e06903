package runtime_test

import (
	"fmt"
	"sync"
	"testing"

	"unigpu/internal/runtime"
)

// TestRouterPrefersCheapOracle: with no load and full weights, the router
// ranks replicas by the cost oracle alone — the cheapest device first.
func TestRouterPrefersCheapOracle(t *testing.T) {
	r := runtime.NewRouter([]float64{5, 1, 3}, runtime.RouterOptions{})
	want := []int{1, 2, 0}
	got := r.Rank()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
}

// TestRouterLoadSteersAway: in-flight requests raise a replica's score, so
// placement spills to the next-cheapest replica instead of queueing on one.
func TestRouterLoadSteersAway(t *testing.T) {
	r := runtime.NewRouter([]float64{1, 3}, runtime.RouterOptions{})
	if got := r.Rank()[0]; got != 0 {
		t.Fatalf("idle best = %d, want 0", got)
	}
	// Replica 0 at 1ms with 2 in flight scores 1*(1+2)=3; replica 1 idle
	// scores 3 — tie breaks to the lower index. A third in-flight tips it.
	r.Begin(0)
	r.Begin(0)
	r.Begin(0)
	if got := r.Rank()[0]; got != 1 {
		t.Fatalf("loaded best = %d, want 1", got)
	}
	r.End(0)
	r.End(0)
	r.End(0)
	if got := r.Rank()[0]; got != 0 {
		t.Fatalf("drained best = %d, want 0", got)
	}
}

// TestRouterZeroWeightRanksLast: a quarantined (zero-weight) replica is
// never excluded — it ranks after every weighted replica as a last resort,
// and returns once its weight recovers.
func TestRouterZeroWeightRanksLast(t *testing.T) {
	r := runtime.NewRouter([]float64{1, 2, 3}, runtime.RouterOptions{})
	r.SetWeight(0, 0)
	got := r.Rank()
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
	// Partial weight (the heal ramp): 1ms/0.25 = 4 effective, still after
	// the 2ms and 3ms healthy replicas but ahead of nothing-at-all.
	r.SetWeight(0, 0.25)
	got = r.Rank()
	for i, w := range []int{1, 2, 0} {
		if got[i] != w {
			t.Fatalf("ramping Rank = %v, want [1 2 0]", got)
		}
	}
	r.SetWeight(0, 1)
	if got := r.Rank()[0]; got != 0 {
		t.Fatalf("recovered best = %d, want 0", got)
	}
}

// TestRouterEWMACorrection: observed latencies drift the estimate away
// from the oracle; with feedback disabled (negative alpha) Observe is a
// no-op and the estimate stays the pure oracle.
func TestRouterEWMACorrection(t *testing.T) {
	r := runtime.NewRouter([]float64{1, 1}, runtime.RouterOptions{EWMAAlpha: 0.5})
	r.Observe(0, 9) // 1 + 0.5*(9-1) = 5
	if got := r.Estimate(0); got != 5 {
		t.Fatalf("Estimate(0) = %v, want 5", got)
	}
	// Replica 0 now looks 5x slower than its oracle: placement flips.
	if got := r.Rank()[0]; got != 1 {
		t.Fatalf("Rank()[0] = %d, want 1 after slow observations", got)
	}

	det := runtime.NewRouter([]float64{1, 1}, runtime.RouterOptions{EWMAAlpha: -1})
	det.Observe(0, 1000)
	if got := det.Estimate(0); got != 1 {
		t.Fatalf("deterministic Estimate(0) = %v, want 1 (Observe disabled)", got)
	}
}

// TestRouterPlacementDeterminism: two routers fed the identical operation
// sequence produce identical rankings at every step — the property the
// fleet's placement-determinism guarantee is built on. Run under -race in
// CI (make verify).
func TestRouterPlacementDeterminism(t *testing.T) {
	run := func() []string {
		r := runtime.NewRouter([]float64{2.5, 1.0, 4.0}, runtime.RouterOptions{EWMAAlpha: -1})
		var trace []string
		step := func() {
			trace = append(trace, fmt.Sprint(r.Rank()))
		}
		step()
		r.Begin(1)
		step()
		r.Begin(1)
		r.Begin(0)
		step()
		r.SetWeight(1, 0) // quarantine the favourite
		step()
		r.End(1)
		r.End(1)
		r.SetWeight(1, 0.25) // heal ramp, step 1
		step()
		r.SetWeight(1, 1)
		r.End(0)
		step()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: placements diverge: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRouterConcurrentSafety: hammer every router method from parallel
// goroutines; the -race CI job turns any unsynchronized access into a
// failure, and ranks must always be a permutation.
func TestRouterConcurrentSafety(t *testing.T) {
	const n = 4
	r := runtime.NewRouter([]float64{1, 2, 3, 4}, runtime.RouterOptions{EWMAAlpha: 0.2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				i := (g + k) % n
				r.Begin(i)
				r.Observe(i, float64(1+k%7))
				r.SetWeight(i, float64(k%5)/4)
				order := r.Rank()
				seen := make([]bool, n)
				for _, j := range order {
					seen[j] = true
				}
				for j, ok := range seen {
					if !ok {
						t.Errorf("Rank %v missing replica %d", order, j)
						break
					}
				}
				r.End(i)
			}
		}(g)
	}
	wg.Wait()
}
