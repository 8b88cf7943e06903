package runtime_test

import (
	"context"
	"os"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
)

// TestRequestTraceAttributionSerial: for serial sessions the request
// trace's segments — admission, queue, exec, retry, reexec, overhead —
// tile the wall clock exactly, including under injected faults where
// retry backoff and CPU re-execution eat real time.
func TestRequestTraceAttributionSerial(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	checkTiling := func(t *testing.T, tr obs.RequestTrace) {
		t.Helper()
		sum := tr.Admission + tr.Queue + tr.Exec + tr.Retry + tr.Reexec + tr.Overhead
		if sum != tr.Wall {
			t.Fatalf("request %d: segments sum to %v, wall is %v (adm %v queue %v exec %v retry %v reexec %v ovh %v)",
				tr.ID, sum, tr.Wall, tr.Admission, tr.Queue, tr.Exec, tr.Retry, tr.Reexec, tr.Overhead)
		}
		if len(tr.Nodes) == 0 {
			t.Fatalf("request %d: no node events", tr.ID)
		}
		for _, n := range tr.Nodes {
			if n.Lane == "" {
				t.Fatalf("request %d: node %s without a lane", tr.ID, n.Name)
			}
			if n.Reexec && n.Lane != "cpu/0" {
				t.Fatalf("request %d: re-execution on lane %s, want cpu/0", tr.ID, n.Lane)
			}
		}
	}

	// Phase 1: transient faults and queue hangs — dispatches eventually
	// succeed on the GPU, so traces carry exec time plus attributed retry
	// time, and the segments tile the wall clock.
	inj := sim.NewFaultInjector(sim.FaultConfig{HangLatency: time.Millisecond}).
		Script(sim.FaultTransientKernel, sim.FaultQueueHang, sim.FaultTransientKernel)
	tracker := obs.NewRequestTracker(obs.RequestTrackerOptions{SampleEvery: 1, Keep: 64})
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1, QueueDepth: 4,
		Session:  runtime.SessionOptions{Model: "attrib", Faults: inj, RetryBackoff: 50 * time.Microsecond},
		Requests: tracker,
		SLO:      obs.NewSLOMonitor(obs.SLOOptions{Registry: obs.NewRegistry()}),
	})
	const runs = 12
	for i := 0; i < runs; i++ {
		if _, err := pool.Run(context.Background(), feeds); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	traces := tracker.Snapshot()
	if len(traces) != runs {
		t.Fatalf("sampled traces = %d, want %d (SampleEvery 1)", len(traces), runs)
	}
	if n := traces[runs-1].ID; n != runs {
		t.Fatalf("request IDs assigned = %d, want %d (every request)", n, runs)
	}
	var sawRetry bool
	for _, tr := range traces {
		if tr.Model != "attrib" {
			t.Fatalf("trace model = %q", tr.Model)
		}
		if tr.Exec <= 0 {
			t.Fatalf("request %d: exec segment empty", tr.ID)
		}
		checkTiling(t, tr)
		sawRetry = sawRetry || tr.Retry > 0
	}
	if !sawRetry {
		t.Error("no trace attributed retry time despite scripted transient faults")
	}

	// Phase 2: device loss quarantines the GPU, so every node re-executes
	// on the CPU lane — the wall clock lands in the reexec segment and the
	// tiling still holds.
	injLost := sim.NewFaultInjector(sim.FaultConfig{}).Script(sim.FaultDeviceLost)
	trackerLost := obs.NewRequestTracker(obs.RequestTrackerOptions{SampleEvery: 1, Keep: 8})
	poolLost := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1,
		Session:  runtime.SessionOptions{Model: "attrib-lost", Faults: injLost, RetryBackoff: 50 * time.Microsecond},
		Requests: trackerLost,
		SLO:      obs.NewSLOMonitor(obs.SLOOptions{Registry: obs.NewRegistry()}),
	})
	for i := 0; i < 2; i++ {
		if _, err := poolLost.Run(context.Background(), feeds); err != nil {
			t.Fatalf("lost-device run %d: %v", i, err)
		}
	}
	var sawReexec bool
	for _, tr := range trackerLost.Snapshot() {
		checkTiling(t, tr)
		sawReexec = sawReexec || tr.Reexec > 0
	}
	if !sawReexec {
		t.Error("no trace attributed CPU re-execution despite scripted device loss")
	}
	pool.Close()
	poolLost.Close()
}

// TestPoolTelemetryWiring: the pool publishes occupancy gauges and a
// queue-wait histogram into the default registry and registers a
// /healthz source keyed by model.
func TestPoolTelemetryWiring(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1,
		Session:  runtime.SessionOptions{Model: "wiring"},
		Requests: obs.NewRequestTracker(obs.RequestTrackerOptions{}),
		SLO:      obs.NewSLOMonitor(obs.SLOOptions{Registry: obs.NewRegistry()}),
	})
	if _, err := pool.Run(context.Background(), feeds); err != nil {
		t.Fatal(err)
	}
	if v, ok := obs.DefaultRegistry.Gauge("pool.in_flight.wiring").Value(); !ok || v != 0 {
		t.Fatalf("pool.in_flight.wiring = %v %v, want 0 after drain", v, ok)
	}
	if _, ok := obs.DefaultRegistry.Gauge("pool.wait_queue.wiring").Value(); !ok {
		t.Fatal("pool.wait_queue.wiring gauge missing")
	}
	_, checks := obs.Health()
	st, ok := checks["pool.wiring"]
	if !ok {
		t.Fatalf("health source pool.wiring missing: %v", checks)
	}
	if !st.OK {
		t.Fatalf("fault-free pool unhealthy: %+v", st)
	}
	t.Cleanup(pool.Close)
}

// TestSessionProfilerRecords: a session with a profiler sampling every
// run reports every plan node in the snapshot under the session's model,
// with the conv kind refined by the chosen kernel.
func TestSessionProfilerRecords(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.NewProfiler(obs.ProfilerOptions{SampleEvery: 1, TopK: 64, Registry: obs.NewRegistry()})
	s := plan.NewSessionWith(runtime.SessionOptions{Model: "profme", Profiler: prof})
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := s.Run(feeds); err != nil {
			t.Fatal(err)
		}
	}
	snap := prof.Snapshot()
	if len(snap.Top) == 0 {
		t.Fatal("profiler snapshot empty after sampled runs")
	}
	var total int64
	for _, row := range snap.Top {
		if row.Model != "profme" {
			t.Fatalf("row model = %q", row.Model)
		}
		if row.Count != runs {
			t.Fatalf("node %s count = %d, want %d", row.Node, row.Count, runs)
		}
		total += row.Count
	}
	if snap.SampledRuns != runs {
		t.Fatalf("sampled runs = %d, want %d", snap.SampledRuns, runs)
	}
}

// TestPlanDebugInfo: compiled plans self-register for /debug/plans with
// node, kernel and memory metadata.
func TestPlanDebugInfo(t *testing.T) {
	g, _ := buildConvGraph(ops.KernelAuto)
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	plan.SetLabel("debug-info-test")
	found := false
	for _, info := range runtime.PlanInfos() {
		if info.Label != "debug-info-test" {
			continue
		}
		found = true
		if info.Nodes == 0 || len(info.Kernels) == 0 {
			t.Fatalf("plan info incomplete: %+v", info)
		}
		if info.GPUNodes+info.CPUNodes != info.Nodes {
			t.Fatalf("device split %d+%d != %d nodes", info.GPUNodes, info.CPUNodes, info.Nodes)
		}
	}
	if !found {
		t.Fatal("compiled plan missing from PlanInfos")
	}
}

// TestPlanRegistryDoesNotPinPlans: /debug/plans keeps a plan's metadata,
// not the plan (whose packed conv weights run to hundreds of MB for a zoo
// model). A dropped plan must become collectable, its record must stay in
// the dump unchanged, and a live plan's record must equal its Info.
func TestPlanRegistryDoesNotPinPlans(t *testing.T) {
	collected := make(chan struct{})
	var before runtime.PlanInfo
	func() {
		g, _ := buildConvGraph(ops.KernelAuto)
		plan, err := runtime.NewPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		plan.SetLabel("registry-drop-test")
		before = plan.Info()
		goruntime.SetFinalizer(plan, func(*runtime.Plan) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		goruntime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("dropped plan was not collected: something still pins it")
		case <-time.After(10 * time.Millisecond):
		}
	}

	g, _ := buildConvGraph(ops.KernelAuto)
	live, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	live.SetLabel("registry-live-test")
	var dropped, alive *runtime.PlanInfo
	for _, info := range runtime.PlanInfos() {
		info := info
		switch info.Label {
		case "registry-drop-test":
			dropped = &info
		case "registry-live-test":
			alive = &info
		}
	}
	if dropped == nil || !reflect.DeepEqual(*dropped, before) {
		t.Errorf("collected plan's record = %+v, want %+v", dropped, before)
	}
	if alive == nil || !reflect.DeepEqual(*alive, live.Info()) {
		t.Errorf("live plan's record = %+v, want its Info %+v", alive, live.Info())
	}
}

// TestProfilerOverheadGate re-runs the BenchmarkSessionRun body with the
// serving profiler attached at its production sampling rate and fails if
// the attached profiler costs more than the gate allows. CI machines are
// noisy, so the default gate is lenient; UNIGPU_BENCH_GATE=strict enforces
// the 3% budget the design targets.
func TestProfilerOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("benchmark gate meaningless under -race")
	}
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	// The two sessions are timed turn and turn about, 2000 runs at a time, and
	// each keeps its best of 60 turns: this host drifts by more than the gate
	// between one second and the next, so a base measured before the profiled
	// run says which second was the quiet one.
	open := func(opts runtime.SessionOptions) *runtime.Session {
		s := plan.NewSessionWith(opts)
		if _, err := s.Run(feeds); err != nil {
			t.Fatal(err)
		}
		return s
	}
	prof := obs.NewProfiler(obs.ProfilerOptions{Registry: obs.NewRegistry()}) // production 1-in-8 sampling
	sessions := []*runtime.Session{open(runtime.SessionOptions{}), open(runtime.SessionOptions{Model: "gate", Profiler: prof})}
	best := []float64{0, 0}
	const runs = 2000
	for turn := 0; turn < 60; turn++ {
		for k, s := range sessions {
			start := time.Now()
			for j := 0; j < runs; j++ {
				if _, err := s.Run(feeds); err != nil {
					t.Fatal(err)
				}
			}
			if ns := float64(time.Since(start).Nanoseconds()) / runs; best[k] == 0 || ns < best[k] {
				best[k] = ns
			}
		}
	}
	base, profiled := best[0], best[1]

	limit := 12.0 // lenient: shared CI machines jitter far more than the real cost
	if os.Getenv("UNIGPU_BENCH_GATE") == "strict" {
		limit = 3.0
	}
	overhead := 100 * (profiled/base - 1)
	t.Logf("session run: base %.0f ns/op, profiled %.0f ns/op, overhead %+.2f%% (limit %.0f%%)", base, profiled, overhead, limit)
	if overhead > limit {
		t.Fatalf("profiler overhead %.2f%% exceeds the %.0f%% gate", overhead, limit)
	}
}

// BenchmarkSessionRunProfiled is BenchmarkSessionRun with the serving
// profiler attached at the production sampling rate — the diff against
// the plain benchmark is the continuous-profiling overhead.
func BenchmarkSessionRunProfiled(b *testing.B) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		b.Fatal(err)
	}
	prof := obs.NewProfiler(obs.ProfilerOptions{Registry: obs.NewRegistry()})
	s := plan.NewSessionWith(runtime.SessionOptions{Model: "bench", Profiler: prof})
	if _, err := s.Run(feeds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolRunTraced is the fully-observed serving path: pooled
// session, every request traced (SampleEvery 1), SLO recording — the
// upper bound of telemetry cost.
func BenchmarkPoolRunTraced(b *testing.B) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		b.Fatal(err)
	}
	pool := runtime.NewSessionPool(plan, runtime.PoolOptions{
		Sessions: 1,
		Session:  runtime.SessionOptions{Model: "bench-traced"},
		Requests: obs.NewRequestTracker(obs.RequestTrackerOptions{SampleEvery: 1, Keep: 16}),
		SLO:      obs.NewSLOMonitor(obs.SLOOptions{Registry: obs.NewRegistry()}),
	})
	ctx := context.Background()
	if _, err := pool.Run(ctx, feeds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Run(ctx, feeds); err != nil {
			b.Fatal(err)
		}
	}
}
