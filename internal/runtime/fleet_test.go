package runtime_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unigpu/internal/obs"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// healOff disables automatic healing; tests drive HealNow explicitly.
var healOff = runtime.HealPolicy{ProbeAfter: -1}

// newTestFleet builds one fleet replica per predictMs entry, each with its
// own plan (fresh serial-ops graph, identical function) and a scripted
// fault injector (Rate 0: faults only via Fleet.Kill). It returns the
// fleet, the shared feeds, and the reference outputs every replica must
// reproduce bit-identically.
func newTestFleet(t *testing.T, predict []float64, heal runtime.HealPolicy,
	ropts runtime.RouterOptions) (*runtime.Fleet, map[string]*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	reps := make([]runtime.ReplicaConfig, len(predict))
	for i := range predict {
		g, _ := buildSerialOpsGraph()
		plan, err := runtime.NewPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("dev-%d", i)
		inj := sim.NewFaultInjector(sim.FaultConfig{Seed: int64(i), Device: name})
		reps[i] = runtime.ReplicaConfig{
			Name:      name,
			Plan:      plan,
			PredictMs: predict[i],
			Pool: runtime.PoolOptions{
				Sessions:   2,
				QueueDepth: 8,
				Session:    faultSessionOpts(inj),
			},
		}
	}
	fleet, err := runtime.NewFleet(runtime.FleetOptions{
		Replicas: reps,
		Router:   ropts,
		Heal:     heal,
	})
	if err != nil {
		t.Fatal(err)
	}
	gref, feeds := buildSerialOpsGraph()
	want, err := executeReference(gref, feeds)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, feeds, want
}

// outputsEqual is tensorsEqual without t.Fatalf, safe for client goroutines.
func outputsEqual(got, want []*tensor.Tensor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Shape().Equal(want[i].Shape()) {
			return false
		}
		g, w := got[i].Data(), want[i].Data()
		for j := range g {
			if g[j] != w[j] {
				return false
			}
		}
	}
	return true
}

// TestFleetBitIdentity: requests served through the fleet — serial and
// concurrent, across heterogeneous replicas — return outputs bit-identical
// to the single-device reference execution.
func TestFleetBitIdentity(t *testing.T) {
	fleet, feeds, want := newTestFleet(t, []float64{1.2, 0.8, 2.5}, healOff,
		runtime.RouterOptions{})
	defer fleet.Close()
	for i := 0; i < 10; i++ {
		got, err := fleet.Run(context.Background(), feeds)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		tensorsEqual(t, fmt.Sprintf("serial run %d", i), got, want)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				got, err := fleet.Run(context.Background(), feeds)
				if err != nil {
					errs <- fmt.Errorf("client %d run %d: %v", c, k, err)
					return
				}
				if !outputsEqual(got, want) {
					errs <- fmt.Errorf("client %d run %d: outputs diverged", c, k)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFleetPlacementDeterminism (satellite): same seeds + same fault
// script ⇒ identical placement decisions. Observation feedback is off
// (negative EWMAAlpha) and requests are serial, so placement is a pure
// function of the oracle, quarantine state, and request order. Runs under
// -race in CI (make verify).
func TestFleetPlacementDeterminism(t *testing.T) {
	script := func() ([]int, error) {
		fleet, feeds, _ := newTestFleet(t, []float64{2.0, 1.0, 3.0}, healOff,
			runtime.RouterOptions{EWMAAlpha: -1})
		defer fleet.Close()
		var placements []int
		for i := 0; i < 15; i++ {
			if i == 5 {
				fleet.Kill(1) // lose the favourite mid-script
			}
			_, idx, err := fleet.RunRouted(context.Background(), feeds)
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			placements = append(placements, idx)
		}
		return placements, nil
	}
	a, err := script()
	if err != nil {
		t.Fatal(err)
	}
	b, err := script()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placements diverge at request %d: %v vs %v", i, a, b)
		}
	}
	// The script's shape is also fixed: the favourite serves until the
	// kill, then traffic drains to the next-cheapest replica.
	for i := 0; i < 5; i++ {
		if a[i] != 1 {
			t.Fatalf("request %d placed on %d, want 1 (cheapest oracle)", i, a[i])
		}
	}
	for i := 5; i < 15; i++ {
		if a[i] != 0 {
			t.Fatalf("request %d placed on %d, want 0 (drain target)", i, a[i])
		}
	}
}

// TestFleetQuarantineDrains: killing a device quarantines its replica and
// drains traffic to survivors with zero request failures; the quarantined
// replica's weight drops to 0 and its state is visible in Stats.
func TestFleetQuarantineDrains(t *testing.T) {
	fleet, feeds, want := newTestFleet(t, []float64{1.0, 2.0, 3.0}, healOff,
		runtime.RouterOptions{EWMAAlpha: -1})
	defer fleet.Close()
	if _, idx, err := fleet.RunRouted(context.Background(), feeds); err != nil || idx != 0 {
		t.Fatalf("healthy placement = %d (%v), want 0", idx, err)
	}
	fleet.Kill(0)
	if got := fleet.State(0); got != runtime.ReplicaQuarantined {
		t.Fatalf("state after kill = %v, want quarantined", got)
	}
	if w := fleet.Stats()[0].Weight; w != 0 {
		t.Fatalf("weight after kill = %v, want 0", w)
	}
	for i := 0; i < 10; i++ {
		got, idx, err := fleet.RunRouted(context.Background(), feeds)
		if err != nil {
			t.Fatalf("post-kill run %d failed: %v", i, err)
		}
		if idx == 0 {
			t.Fatalf("post-kill run %d placed on the quarantined replica", i)
		}
		tensorsEqual(t, fmt.Sprintf("post-kill run %d", i), got, want)
	}
	st := fleet.Stats()
	if st[0].State != runtime.ReplicaQuarantined || !st[0].DeviceLost {
		t.Fatalf("stats[0] = %+v, want quarantined + device lost", st[0])
	}
	if st[1].Served+st[2].Served < 10 {
		t.Fatalf("survivors served %d+%d, want >= 10", st[1].Served, st[2].Served)
	}
}

// TestFleetHealRamp: a healed replica re-enters at partial weight and
// climbs stepwise — probe → 1/4 → 2/4 → 3/4 → full — as successes
// accumulate, rather than being slammed with full traffic.
func TestFleetHealRamp(t *testing.T) {
	heal := runtime.HealPolicy{ProbeAfter: -1, RampSteps: 3, RampSuccesses: 4}
	fleet, feeds, _ := newTestFleet(t, []float64{1.0, 10.0, 10.0}, heal,
		runtime.RouterOptions{EWMAAlpha: -1})
	defer fleet.Close()
	fleet.Kill(0)
	if _, _, err := fleet.RunRouted(context.Background(), feeds); err != nil {
		t.Fatal(err)
	}
	if got := fleet.State(0); got != runtime.ReplicaQuarantined {
		t.Fatalf("state = %v, want quarantined", got)
	}
	if !fleet.HealNow(0) {
		t.Fatal("HealNow failed on a healed device")
	}
	if got := fleet.State(0); got != runtime.ReplicaRamping {
		t.Fatalf("state after probe = %v, want ramping", got)
	}
	// Weight staircase: 1/4 for the first RampSuccesses successes, then
	// 2/4, 3/4, and finally full weight + active. The ramping replica's
	// effective score (1ms / weight) stays below the 10ms alternatives, so
	// every serial request lands on it and advances the ramp.
	wantWeights := []float64{0.25, 0.5, 0.75}
	for step, w := range wantWeights {
		if got := fleet.Stats()[0].Weight; got != w {
			t.Fatalf("ramp step %d: weight = %v, want %v", step, got, w)
		}
		for k := 0; k < heal.RampSuccesses; k++ {
			_, idx, err := fleet.RunRouted(context.Background(), feeds)
			if err != nil {
				t.Fatal(err)
			}
			if idx != 0 {
				t.Fatalf("ramp request placed on %d, want 0", idx)
			}
		}
	}
	if got := fleet.State(0); got != runtime.ReplicaActive {
		t.Fatalf("state after ramp = %v, want active", got)
	}
	if got := fleet.Stats()[0].Weight; got != 1 {
		t.Fatalf("weight after ramp = %v, want 1", got)
	}
}

// TestFleetAutoHeal (satellite): the supervisor wires FaultInjector.Heal
// into the breaker's half-open probe path — a killed device recovers and
// serves again with no explicit HealNow call from the serving layer's
// user.
func TestFleetAutoHeal(t *testing.T) {
	heal := runtime.HealPolicy{
		ProbeAfter: 20 * time.Millisecond, ProbeEvery: 20 * time.Millisecond,
		RampSteps: 1, RampSuccesses: 1,
	}
	fleet, feeds, _ := newTestFleet(t, []float64{1.0, 10.0, 10.0}, heal,
		runtime.RouterOptions{EWMAAlpha: -1})
	defer fleet.Close()
	fleet.Kill(0)
	if _, _, err := fleet.RunRouted(context.Background(), feeds); err != nil {
		t.Fatal(err)
	}
	if got := fleet.State(0); got != runtime.ReplicaQuarantined {
		t.Fatalf("state = %v, want quarantined", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := fleet.State(0)
		if st == runtime.ReplicaRamping || st == runtime.ReplicaActive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never auto-healed; state %v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Heal was actually applied to the device, not just the bookkeeping.
	if fleet.Stats()[0].DeviceLost {
		t.Fatal("device still lost after auto-heal probe")
	}
	// And the healed replica demonstrably serves traffic again.
	before := fleet.Served(0)
	for i := 0; i < 8; i++ {
		if _, _, err := fleet.RunRouted(context.Background(), feeds); err != nil {
			t.Fatal(err)
		}
	}
	if fleet.Served(0) <= before {
		t.Fatalf("healed replica served %d then %d, want it serving again",
			before, fleet.Served(0))
	}
}

// TestFleetAllQuarantinedStillServes: with every device lost, requests
// still succeed bit-identically — quarantined pools serve via CPU
// re-execution, so the fleet degrades instead of failing.
func TestFleetAllQuarantinedStillServes(t *testing.T) {
	fleet, feeds, want := newTestFleet(t, []float64{1.0, 2.0}, healOff,
		runtime.RouterOptions{EWMAAlpha: -1})
	defer fleet.Close()
	fleet.Kill(0)
	fleet.Kill(1)
	got, err := fleet.Run(context.Background(), feeds)
	if err != nil {
		t.Fatalf("all-quarantined run failed: %v", err)
	}
	tensorsEqual(t, "all-quarantined", got, want)
	for i := 0; i < fleet.Len(); i++ {
		if fleet.State(i) != runtime.ReplicaQuarantined {
			t.Fatalf("replica %d state = %v, want quarantined", i, fleet.State(i))
		}
	}
}

// TestFleetCloseKeepsNewerTelemetry: closing a fleet takes only its own
// /healthz and /debug/fleet registrations away. A newer fleet with the
// same replica names replaced them, and its entries stay until it closes
// too.
func TestFleetCloseKeepsNewerTelemetry(t *testing.T) {
	older, _, _ := newTestFleet(t, []float64{1.0, 2.0}, healOff, runtime.RouterOptions{EWMAAlpha: -1})
	newer, _, _ := newTestFleet(t, []float64{1.0, 2.0}, healOff, runtime.RouterOptions{EWMAAlpha: -1})
	defer newer.Close()
	newer.Kill(0)
	older.Close()
	debugFleet := func() int {
		rec := httptest.NewRecorder()
		obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
		return rec.Code
	}
	_, checks := obs.Health()
	if st, ok := checks["fleet.dev-0"]; !ok || st.OK {
		t.Fatalf("newer fleet's killed replica: health entry %+v (present=%v), want unhealthy", st, ok)
	}
	if _, ok := checks["fleet.dev-1"]; !ok {
		t.Fatal("closing the older fleet removed the newer one's fleet.dev-1 entry")
	}
	if code := debugFleet(); code != http.StatusOK {
		t.Fatalf("/debug/fleet after closing the older fleet: status %d, want 200", code)
	}
	newer.Close()
	_, checks = obs.Health()
	for _, name := range []string{"fleet.dev-0", "fleet.dev-1"} {
		if st, ok := checks[name]; ok {
			t.Fatalf("closed fleet still on /healthz: %s %+v", name, st)
		}
	}
	if code := debugFleet(); code != http.StatusNotFound {
		t.Fatalf("/debug/fleet after closing both fleets: status %d, want 404", code)
	}
}

// TestFleetSoak is the CI fleet soak (make soak): concurrent clients over
// a three-replica fleet, the favourite device killed a third of the way
// in and healed at two thirds. Asserts zero non-deadline request failures,
// every output bit-identical to single-device execution, the healed
// replica demonstrably serving again, and no goroutine leaks. Scaled by
// UNIGPU_SOAK_RUNS like the other soaks; run under -race in the soak job.
func TestFleetSoak(t *testing.T) {
	runs := 25
	if v := os.Getenv("UNIGPU_SOAK_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("UNIGPU_SOAK_RUNS=%q: %v", v, err)
		}
		runs = n
	}
	total := runs * 3
	const clients = 6
	baseline := goruntime.NumGoroutine()
	heal := runtime.HealPolicy{ProbeAfter: -1, RampSteps: 2, RampSuccesses: 2}
	// Observation feedback off: the victim keeps the cheapest oracle, so
	// post-heal traffic reliably reaches it even at partial ramp weight.
	fleet, feeds, want := newTestFleet(t, []float64{1.0, 5.0, 8.0}, heal,
		runtime.RouterOptions{EWMAAlpha: -1})
	const victim = 0
	killAt, healAt := total/3, 2*total/3
	var (
		counter      atomic.Int64
		killOnce     sync.Once
		healOnce     sync.Once
		servedAtHeal atomic.Int64
	)
	servedAtHeal.Store(-1)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := int(counter.Add(1))
				if n > total {
					return
				}
				if n >= killAt {
					killOnce.Do(func() { fleet.Kill(victim) })
				}
				if n >= healAt {
					healOnce.Do(func() {
						for !fleet.HealNow(victim) {
							time.Sleep(time.Millisecond)
						}
						servedAtHeal.Store(fleet.Served(victim))
					})
				}
				got, err := fleet.Run(context.Background(), feeds)
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %v", c, n, err)
					return
				}
				if !outputsEqual(got, want) {
					errs <- fmt.Errorf("client %d request %d: outputs diverged", c, n)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if servedAtHeal.Load() < 0 {
		t.Fatal("heal script never ran")
	}
	if after := fleet.Served(victim); after <= servedAtHeal.Load() {
		t.Errorf("healed replica served %d before heal and %d after; want post-heal traffic",
			servedAtHeal.Load(), after)
	}
	if st := fleet.State(victim); st == runtime.ReplicaQuarantined {
		t.Errorf("victim still quarantined at soak end")
	}
	fleet.Close()
	assertNoGoroutineLeak(t, baseline)
}
