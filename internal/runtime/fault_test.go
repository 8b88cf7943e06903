package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// poisonOp panics on execution after `healthy` calls — the poisoned
// operator of the panic-recovery regression tests.
type poisonOp struct{}

func (poisonOp) Kind() string                                 { return "poison" }
func (poisonOp) InferShape(ins []tensor.Shape) tensor.Shape   { return ins[0].Clone() }
func (poisonOp) GPUFriendly() bool                            { return true }
func (poisonOp) ExecuteInto(*tensor.Tensor, []*tensor.Tensor) { panic("poisoned operator") }

// buildPoisonedGraph places a panicking operator mid-graph.
func buildPoisonedGraph() (*graph.Graph, map[string]*tensor.Tensor) {
	g := graph.New()
	in := g.Input("data", 1, 4, 4, 4)
	a := g.Apply("a", &graph.SigmoidOp{}, in)
	p := g.Apply("poisoned", poisonOp{}, a)
	b := g.Apply("b", &graph.FlattenOp{}, p)
	g.SetOutputs(b)
	feed := tensor.New(1, 4, 4, 4)
	feed.FillRandom(5)
	return g, map[string]*tensor.Tensor{"data": feed}
}

// faultSessionOpts keeps fault-path tests fast: tight backoff, default
// retries.
func faultSessionOpts(inj *sim.FaultInjector) runtime.SessionOptions {
	return runtime.SessionOptions{Faults: inj, RetryBackoff: 10 * time.Microsecond}
}

// TestPanicRecoverySerial: a poisoned operator panic in the serial Run
// surfaces as a structured *NodeError (node, device, stack) instead of
// crashing the process, and the session stays reusable.
func TestPanicRecoverySerial(t *testing.T) {
	g, feeds := buildPoisonedGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	_, err = s.Run(feeds)
	if err == nil {
		t.Fatal("poisoned run must error")
	}
	var ne *runtime.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error is %T, want *runtime.NodeError: %v", err, err)
	}
	if ne.Node != "poisoned" {
		t.Fatalf("error names node %q, want \"poisoned\"", ne.Node)
	}
	if !strings.Contains(ne.Cause.Error(), "poisoned operator") {
		t.Fatalf("cause %v does not carry the panic value", ne.Cause)
	}
	if len(ne.Stack) == 0 || !strings.Contains(string(ne.Stack), "goroutine") {
		t.Fatal("NodeError must capture debug.Stack()")
	}
	// The session survives the panic for subsequent (failing) runs.
	if _, err := s.Run(feeds); err == nil {
		t.Fatal("second poisoned run must also error, not crash")
	}
}

// TestPanicRecoveryConcurrent: private sessions over one shared plan panic
// on many goroutines at once; every panic converts to a *NodeError on its
// own session without disturbing the others or leaking goroutines.
func TestPanicRecoveryConcurrent(t *testing.T) {
	g, feeds := buildPoisonedGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	baseline := goruntime.NumGoroutine()
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			s := plan.NewSession()
			for i := 0; i < 5; i++ {
				_, err := s.Run(feeds)
				var ne *runtime.NodeError
				if !errors.As(err, &ne) || ne.Node != "poisoned" {
					errs <- fmt.Errorf("client %d run %d: got %v, want *NodeError on \"poisoned\"", c, i, err)
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
	assertNoGoroutineLeak(t, baseline)
}

// TestTransientFaultRetry: a scripted transient kernel fault is retried
// with backoff and the run succeeds bit-identically, on the GPU, without
// CPU re-execution.
func TestTransientFaultRetry(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	retries0 := obs.DefaultRegistry.Counter("fault.retries").Value()
	reexec0 := obs.DefaultRegistry.Counter("fault.cpu_reexec").Value()
	inj := sim.NewFaultInjector(sim.FaultConfig{}).
		Script(sim.FaultTransientKernel, sim.FaultMemPressure)
	s := plan.NewSessionWith(faultSessionOpts(inj))
	got, err := s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	tensorsEqual(t, "transient-retry", got, want)
	if d := obs.DefaultRegistry.Counter("fault.retries").Value() - retries0; d < 2 {
		t.Fatalf("fault.retries grew by %d, want >= 2", d)
	}
	if d := obs.DefaultRegistry.Counter("fault.cpu_reexec").Value() - reexec0; d != 0 {
		t.Fatalf("transient faults must not re-execute on CPU, counter grew by %d", d)
	}
}

// TestDeviceLossQuarantine: device loss fails GPU dispatches permanently;
// nodes re-execute on the CPU lane, the circuit breaker opens after the
// failure threshold, and outputs stay bit-identical.
func TestDeviceLossQuarantine(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	reexec0 := obs.DefaultRegistry.Counter("fault.cpu_reexec").Value()
	inj := sim.NewFaultInjector(sim.FaultConfig{}).Script(sim.FaultDeviceLost)
	br := runtime.NewBreaker(runtime.BreakerOptions{Threshold: 2, Probation: time.Hour})
	opts := faultSessionOpts(inj)
	opts.Breaker = br
	s := plan.NewSessionWith(opts)
	got, err := s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	tensorsEqual(t, "device-loss", got, want)
	if br.State() != runtime.BreakerOpen {
		t.Fatalf("breaker %v, want open after device loss", br.State())
	}
	reexec := obs.DefaultRegistry.Counter("fault.cpu_reexec").Value() - reexec0
	if int(reexec) != plan.NumNodes() {
		t.Fatalf("every node is GPU-placed and the device is lost: cpu_reexec=%d, want %d",
			reexec, plan.NumNodes())
	}
	// Quarantined: subsequent runs skip the dispatch gate entirely and
	// still match.
	got, err = s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	tensorsEqual(t, "quarantined", got, want)
	if n := inj.Counts()[sim.FaultDeviceLost.String()]; n != 1 {
		t.Fatalf("quarantine must stop dispatch attempts, injector saw %d device-lost probes", n)
	}
}

// TestBreakerHalfOpenRecovery: after probation the breaker lets one probe
// through; a healed device closes it and traffic returns to the GPU.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(sim.FaultConfig{}).Script(sim.FaultDeviceLost)
	br := runtime.NewBreaker(runtime.BreakerOptions{Threshold: 1, Probation: 20 * time.Millisecond})
	opts := faultSessionOpts(inj)
	opts.Breaker = br
	s := plan.NewSessionWith(opts)
	if _, err := s.Run(feeds); err != nil {
		t.Fatal(err)
	}
	if br.State() != runtime.BreakerOpen {
		t.Fatalf("breaker %v, want open", br.State())
	}
	inj.Heal()
	time.Sleep(25 * time.Millisecond)
	counts0 := inj.Counts()
	got, err := s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	tensorsEqual(t, "half-open recovery", got, want)
	if br.State() != runtime.BreakerClosed {
		t.Fatalf("breaker %v after healthy probe, want closed", br.State())
	}
	if counts := inj.Counts(); !maps.Equal(counts, counts0) {
		t.Fatalf("healed device must not fault: counts went from %v to %v", counts0, counts)
	}
}

// TestBreakerReopensOnFailedProbe: a probe against a still-lost device
// re-opens the breaker immediately.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(sim.FaultConfig{}).Script(sim.FaultDeviceLost)
	br := runtime.NewBreaker(runtime.BreakerOptions{Threshold: 1, Probation: time.Millisecond})
	opts := faultSessionOpts(inj)
	opts.Breaker = br
	s := plan.NewSessionWith(opts)
	if _, err := s.Run(feeds); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := s.Run(feeds); err != nil { // probe fails, breaker re-opens
		t.Fatal(err)
	}
	if br.State() != runtime.BreakerOpen {
		t.Fatalf("breaker %v after failed probe, want open", br.State())
	}
}

// TestGoldenZooUnderFaults is the acceptance criterion: with every fault
// kind injected, whole-zoo outputs stay bit-identical to the fault-free
// reference — CPU re-execution uses the same kernels.
func TestGoldenZooUnderFaults(t *testing.T) {
	var seed int64 = 11
	for name, size := range goldenModelCases() {
		t.Run(name, func(t *testing.T) {
			m := models.Build(name, size, false)
			graph.Optimize(m.Graph)
			graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
			feed := tensor.New(1, 3, size, size)
			feed.FillRandom(7)
			feeds := map[string]*tensor.Tensor{"data": feed}
			want, err := executeReference(m.Graph, feeds)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := runtime.NewPlan(m.Graph)
			if err != nil {
				t.Fatal(err)
			}
			seed++
			inj := sim.NewFaultInjector(sim.FaultConfig{
				Seed: seed, Rate: 0.4, HangLatency: 50 * time.Microsecond,
			})
			s := plan.NewSessionWith(faultSessionOpts(inj))
			for run := 0; run < 2; run++ {
				got, err := s.Run(feeds)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				tensorsEqual(t, fmt.Sprintf("faulted run %d", run), got, want)
			}
		})
	}
}

// TestEveryFaultKindBitIdentical exercises each kind in isolation through
// the scripted injector and requires bit-identity.
func TestEveryFaultKindBitIdentical(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range sim.AllFaultKinds {
		t.Run(kind.String(), func(t *testing.T) {
			inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: 50 * time.Microsecond}).
				Script(kind, kind, kind)
			s := plan.NewSessionWith(faultSessionOpts(inj))
			got, err := s.Run(feeds)
			if err != nil {
				t.Fatal(err)
			}
			tensorsEqual(t, kind.String(), got, want)
			if inj.Counts()[kind.String()] == 0 {
				t.Fatalf("fault kind %s was never injected", kind)
			}
		})
	}
}

// TestRunContextCancel: cancellation during an injected queue hang returns
// context.Canceled promptly (well before the hang latency), with no
// goroutine leak, and the session stays reusable.
func TestRunContextCancel(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	baseline := goruntime.NumGoroutine()
	inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: 30 * time.Second}).
		Script(sim.FaultQueueHang)
	s := plan.NewSessionWith(faultSessionOpts(inj))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := s.RunContext(ctx, feeds); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The cancelled session is reusable and still correct.
	got, err := s.Run(feeds)
	if err != nil {
		t.Fatalf("session must survive cancellation: %v", err)
	}
	tensorsEqual(t, "post-cancel", got, want)
	assertNoGoroutineLeak(t, baseline)
}

// TestRunContextDeadline: an already-expired deadline fails fast with
// DeadlineExceeded before any node runs.
func TestRunContextDeadline(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := plan.NewSession().RunContext(ctx, feeds); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestConcurrentFaultNoDeadlock (run with -race): sessions on many
// goroutines share one plan and one breaker, as a pool's do, under
// randomized mid-run faults. No run deadlocks, every output is
// bit-identical to the reference, and no goroutine leaks.
func TestConcurrentFaultNoDeadlock(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	baseline := goruntime.NumGoroutine()
	breaker := runtime.NewBreaker(runtime.BreakerOptions{})
	const clients, runs = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for run := 0; run < runs; run++ {
				inj := sim.NewFaultInjector(sim.FaultConfig{
					Seed: int64(c*runs + run), Rate: 0.5, HangLatency: 20 * time.Microsecond,
				})
				opts := faultSessionOpts(inj)
				opts.Breaker = breaker
				got, err := plan.NewSessionWith(opts).Run(feeds)
				if err != nil {
					errs <- fmt.Errorf("client %d run %d: %v", c, run, err)
					return
				}
				for i, v := range want[0].Data() {
					if got[0].Data()[i] != v {
						errs <- fmt.Errorf("client %d run %d: output differs at %d", c, run, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestFaultSoak is the CI soak job (make soak): N seeded runs with random
// faults of every kind over a real zoo model, every output bit-identical
// to the fault-free reference. N defaults to a quick 25 and is raised to
// 500 by UNIGPU_SOAK_RUNS in the soak job.
func TestFaultSoak(t *testing.T) {
	runs := 25
	if v := os.Getenv("UNIGPU_SOAK_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("UNIGPU_SOAK_RUNS=%q: %v", v, err)
		}
		runs = n
	}
	size := 48
	m := models.Build("SqueezeNet1.0", size, false)
	graph.Optimize(m.Graph)
	graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
	feed := tensor.New(1, 3, size, size)
	feed.FillRandom(13)
	feeds := map[string]*tensor.Tensor{"data": feed}
	want, err := executeReference(m.Graph, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	baseline := goruntime.NumGoroutine()
	var injected [4]int64
	for run := 0; run < runs; run++ {
		inj := sim.NewFaultInjector(sim.FaultConfig{
			Seed: int64(run), Rate: 0.3, HangLatency: 10 * time.Microsecond,
		})
		got, err := plan.NewSessionWith(faultSessionOpts(inj)).Run(feeds)
		if err != nil {
			t.Fatalf("soak run %d: %v", run, err)
		}
		tensorsEqual(t, fmt.Sprintf("soak run %d", run), got, want)
		for k, kind := range sim.AllFaultKinds {
			injected[k] += inj.Counts()[kind.String()]
		}
	}
	for k, kind := range sim.AllFaultKinds {
		if injected[k] == 0 {
			t.Errorf("soak never injected %s", kind)
		}
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestFeedValidation: mismatched feeds fail fast with errors naming the
// input, the expectation, and what was fed.
func TestFeedValidation(t *testing.T) {
	g, _ := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	cases := []struct {
		name  string
		feeds map[string]*tensor.Tensor
		want  []string
	}{
		{"missing", map[string]*tensor.Tensor{}, []string{`"data"`, "not fed"}},
		{"nil", map[string]*tensor.Tensor{"data": nil}, []string{`"data"`, "nil tensor", "(1,8,8,8)"}},
		{"shape", map[string]*tensor.Tensor{"data": tensor.New(1, 8, 8)},
			[]string{`"data"`, "(1,8,8)", "(1,8,8,8)"}},
	}
	for _, tc := range cases {
		_, err := s.Run(tc.feeds)
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("%s: error %q missing %q", tc.name, err, frag)
			}
		}
	}
}

// assertNoGoroutineLeak polls until the goroutine count returns to the
// baseline (workers park asynchronously after Run returns).
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := goruntime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
