package unigpu

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestCompileAndRunClassification(t *testing.T) {
	eng := NewEngine()
	cm, err := eng.Compile("SqueezeNet1.0", JetsonNano, CompileOptions{InputSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if cm.PredictedLatencyMs <= 0 {
		t.Fatal("latency must be positive")
	}
	in := NewTensor(cm.InputShape()...)
	in.FillRandom(1)
	out, err := cm.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data() {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("softmax output sums to %v", sum)
	}
}

func TestCompileUnknownModel(t *testing.T) {
	if _, err := NewEngine().Compile("VGG", DeepLens, CompileOptions{}); err == nil {
		t.Fatal("unknown models must error (the paper excludes VGG as too large for the edge)")
	}
}

func TestSkipTuningIsSlower(t *testing.T) {
	eng := NewEngine()
	tuned, err := eng.Compile("SqueezeNet1.0", JetsonNano, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	untuned, err := eng.Compile("SqueezeNet1.0", JetsonNano, CompileOptions{SkipTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.PredictedLatencyMs >= untuned.PredictedLatencyMs {
		t.Fatalf("tuned %.2f ms should beat untuned %.2f ms",
			tuned.PredictedLatencyMs, untuned.PredictedLatencyMs)
	}
}

func TestFallbackPlacement(t *testing.T) {
	eng := NewEngine()
	fb, err := eng.Compile("SSD_MobileNet1.0", DeepLens, CompileOptions{InputSize: 128, FallbackNMS: true})
	if err != nil {
		t.Fatal(err)
	}
	if fb.NodesOnCPU == 0 || fb.CopiesInserted == 0 {
		t.Fatalf("fallback should place ops on the CPU and insert copies, got %d/%d",
			fb.NodesOnCPU, fb.CopiesInserted)
	}
	all, err := eng.Compile("SSD_MobileNet1.0", DeepLens, CompileOptions{InputSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if all.NodesOnCPU != 0 {
		t.Fatal("default placement keeps everything on the GPU")
	}
	// The fallback graph still runs functionally.
	in := NewTensor(fb.InputShape()...)
	in.FillRandom(3)
	if _, err := fb.Run(in); err != nil {
		t.Fatal(err)
	}
}

func TestAiSageDefaultsTo300ForSSD(t *testing.T) {
	eng := NewEngine()
	cm, err := eng.Compile("SSD_ResNet50", AiSage, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.InputShape()[2]; got != 300 {
		t.Fatalf("aiSage SSD input = %d, want 300", got)
	}
}

// TestDeviceAttachedFaultInjector: a fault injector attached to the
// platform's GPU device reaches sessions automatically, degraded runs
// stay bit-identical to healthy ones, and the session pool sheds excess
// load with ErrOverloaded. The platform is copied so the shared globals
// stay pristine for other tests.
func TestDeviceAttachedFaultInjector(t *testing.T) {
	gpu := *DeepLens.GPU
	gpu.Faults = NewFaultInjector(FaultConfig{Seed: 9, Rate: 0.3, HangLatency: 20 * time.Microsecond})
	plat := &Platform{Name: "flaky-deeplens", GPU: &gpu, CPU: DeepLens.CPU}

	eng := NewEngine()
	healthy, err := eng.Compile("SqueezeNet1.0", DeepLens, CompileOptions{InputSize: 64, SkipTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := eng.Compile("SqueezeNet1.0", plat, CompileOptions{InputSize: 64, SkipTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	in := NewTensor(healthy.InputShape()...)
	in.FillRandom(17)
	want, err := healthy.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := flaky.NewSessionWith(SessionOptions{RetryBackoff: 5 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.RunContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(gpu.Faults.Counts()) == 0 {
		t.Fatal("device-attached injector never reached the session")
	}
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("degraded output differs from healthy at %d", i)
		}
	}

	pool, err := flaky.NewSessionPool(PoolOptions{
		Sessions: 2, QueueDepth: 2,
		Session: SessionOptions{RetryBackoff: 5 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Breaker() == nil {
		t.Fatal("fault-injected pool must install a shared breaker")
	}
	out, err := pool.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if out.Data()[i] != v {
			t.Fatalf("pooled output differs from healthy at %d", i)
		}
	}

	// An already-cancelled context is shed before any node runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Run(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool run: got %v, want context.Canceled", err)
	}
	if _, err := sess.RunContext(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled session run: got %v, want context.Canceled", err)
	}
}

func TestPublicSurfaces(t *testing.T) {
	if len(ModelNames()) != 6 {
		t.Fatal("six evaluation models")
	}
	if len(Platforms()) != 3 {
		t.Fatal("three platforms")
	}
	for _, p := range Platforms() {
		if p.GPU == nil || p.CPU == nil {
			t.Fatal("platforms pair a GPU with a CPU")
		}
	}
}

// TestFleetServing: the public fleet compiles the model once per platform,
// routes by predicted latency, survives a scripted kill (drain to
// survivors, zero failures, bit-identical outputs), and the healed replica
// ramps back in and serves again.
func TestFleetServing(t *testing.T) {
	eng := NewEngine()
	fleet, err := eng.NewFleet("SqueezeNet1.0", CompileOptions{InputSize: 64}, FleetOptions{
		Heal:   HealPolicy{ProbeAfter: -1, RampSteps: 1, RampSuccesses: 1},
		Router: RouterOptions{EWMAAlpha: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if fleet.Len() != 3 {
		t.Fatalf("fleet has %d replicas, want the 3 paper platforms", fleet.Len())
	}
	if got := fleet.Name(0); got != "aws-deeplens-0" {
		t.Fatalf("replica 0 named %q, want aws-deeplens-0", got)
	}
	in := NewTensor(fleet.Model(0).InputShape()...)
	in.FillRandom(7)
	want, err := fleet.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	// Every replica, healthy or failed over, must reproduce this output
	// bit-identically.
	check := func(phase string) {
		t.Helper()
		out, err := fleet.Run(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for i, v := range out.Data() {
			if v != want.Data()[i] {
				t.Fatalf("%s: output diverged at %d: %v != %v", phase, i, v, want.Data()[i])
			}
		}
	}
	check("healthy")

	// Kill whichever replica is serving, then verify traffic drains to the
	// survivors with no failures.
	victim := 0
	best := fleet.Stats()
	for i, st := range best {
		if st.Served > best[victim].Served {
			victim = i
		}
	}
	fleet.Kill(victim)
	for k := 0; k < 5; k++ {
		check("post-kill")
	}
	if st := fleet.State(victim); st != ReplicaQuarantined {
		t.Fatalf("victim state = %v, want quarantined", st)
	}

	if !fleet.HealNow(victim) {
		t.Fatal("HealNow failed")
	}
	served := fleet.Served(victim)
	for k := 0; k < 8; k++ {
		check("post-heal")
	}
	if fleet.Served(victim) <= served && fleet.State(victim) == ReplicaQuarantined {
		t.Fatal("healed replica never returned to service")
	}
	if len(fleet.Stats()) != 3 {
		t.Fatalf("stats rows = %d, want 3", len(fleet.Stats()))
	}
}
