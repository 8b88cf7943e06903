package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// executeReference is a frozen copy of the seed serial executor (pre-plan,
// pre-arena): every node evaluated into a fresh allocation (graph.Eval). The
// plan-and-arena runtime must stay bit-identical to it.
func executeReference(g *graph.Graph, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	refs := map[*graph.Node]int{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			refs[in]++
		}
	}
	for _, o := range g.Outputs {
		refs[o]++
	}
	values := map[*graph.Node]*tensor.Tensor{}
	for _, n := range g.Nodes {
		switch {
		case n.IsConstant():
			values[n] = n.Value
		case n.IsInput():
			t, ok := feeds[n.Name]
			if !ok {
				return nil, fmt.Errorf("input %q not fed", n.Name)
			}
			values[n] = t
		default:
			ins := make([]*tensor.Tensor, len(n.Inputs))
			for i, in := range n.Inputs {
				ins[i] = values[in]
			}
			values[n] = graph.Eval(n, ins)
			for _, in := range n.Inputs {
				if in.Op == nil {
					continue
				}
				refs[in]--
				if refs[in] == 0 {
					delete(values, in)
				}
			}
		}
	}
	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, o := range g.Outputs {
		outs[i] = values[o]
	}
	return outs, nil
}

func tensorsEqual(t *testing.T, name string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for k := range want {
		if !got[k].Shape().Equal(want[k].Shape()) {
			t.Fatalf("%s output %d: shape %v, want %v", name, k, got[k].Shape(), want[k].Shape())
		}
		gd, wd := got[k].Data(), want[k].Data()
		for i := range wd {
			if gd[i] != wd[i] { // bit-identical, not approximately equal
				t.Fatalf("%s output %d differs at %d: %v != %v", name, k, i, gd[i], wd[i])
			}
		}
	}
}

// goldenModelCases builds the full model zoo at reduced input sizes.
// Under the race detector the two heaviest models are dropped (see
// race_on_test.go); the complete zoo always runs in the race-free suite.
func goldenModelCases() map[string]int {
	sizes := map[string]int{}
	for _, name := range models.Names() {
		switch name {
		case "SSD_MobileNet1.0", "SSD_ResNet50":
			sizes[name] = 128
		case "Yolov3":
			sizes[name] = 96
		default:
			sizes[name] = 64
		}
	}
	if raceEnabled {
		// Keep one branchy classifier, one depthwise classifier and one
		// detection pipeline; shrink the detection input. Full-zoo
		// bit-identity runs in the race-free tier-1 suite.
		delete(sizes, "ResNet50_v1")
		delete(sizes, "SSD_ResNet50")
		delete(sizes, "Yolov3")
		sizes["SSD_MobileNet1.0"] = 96
	}
	return sizes
}

// TestGoldenAllModels runs every model in the zoo through the pooled
// session and requires it to be bit-identical to the frozen reference
// executor — arena reuse must never change a single ULP.
func TestGoldenAllModels(t *testing.T) {
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

			s := plan.NewSession()
			for run := 0; run < 2; run++ { // second run reuses the arena
				got, err := s.Run(feeds)
				if err != nil {
					t.Fatal(err)
				}
				tensorsEqual(t, fmt.Sprintf("run %d", run), got, want)
			}
		})
	}
}

// TestGoldenDetectionWithFallback covers the heterogeneous schedule:
// box_nms/multibox_detection on the CPU with device_copy handoffs between
// the GPU-placed and CPU-placed nodes.
func TestGoldenDetectionWithFallback(t *testing.T) {
	size := 128
	if raceEnabled {
		size = 96
	}
	m := models.Build("SSD_MobileNet1.0", size, false)
	graph.Optimize(m.Graph)
	copies := graph.PlaceDevices(m.Graph, graph.PlacementOptions{
		FallbackKinds: map[string]bool{"box_nms": true, "multibox_detection": true},
	})
	if copies == 0 {
		t.Fatal("expected device_copy nodes from the fallback placement")
	}
	feed := tensor.New(1, 3, size, size)
	feed.FillRandom(3)
	feeds := map[string]*tensor.Tensor{"data": feed}

	want, err := executeReference(m.Graph, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.NewSession().Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	tensorsEqual(t, "fallback", got, want)
}

// TestSharedPlanConcurrentSessions exercises many goroutines running
// private sessions off one shared Plan simultaneously (run with -race).
// A cheap branchy graph keeps every iteration in the run loop, not the
// conv kernels, so the race detector sees many full Run interleavings.
func TestSharedPlanConcurrentSessions(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			s := plan.NewSession()
			for run := 0; run < 50; run++ {
				got, err := s.Run(feeds)
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
}

// buildSerialOpsGraph is a branchy all-Into graph (conv-free so each Run is
// cheap): every operator on the path implements ExecuteInto, making the
// whole Run allocation-free.
func buildSerialOpsGraph() (*graph.Graph, map[string]*tensor.Tensor) {
	g := graph.New()
	in := g.Input("data", 1, 8, 8, 8)
	a := g.Apply("a", &graph.ActivationOp{Act: ops.ActReLU}, in)
	l := g.Apply("l", &graph.SigmoidOp{}, a)
	r := g.Apply("r", &graph.ActivationOp{Act: ops.ActLeakyReLU}, a)
	j := g.Apply("j", &graph.AddOp{}, l, r)
	cat := g.Apply("cat", &graph.ConcatOp{}, j, a)
	p := g.Apply("p", &graph.PoolOp{PoolKind: ops.MaxPool, Kernel: 2, Stride: 2}, cat)
	gp := g.Apply("gp", &graph.GlobalPoolOp{}, p)
	f := g.Apply("f", &graph.FlattenOp{}, gp)
	sm := g.Apply("sm", &graph.SoftmaxOp{}, f)
	g.SetOutputs(sm)
	feed := tensor.New(1, 8, 8, 8)
	feed.FillRandom(21)
	return g, map[string]*tensor.Tensor{"data": feed}
}

// buildDepthwiseGraph is a serial graph around one depthwise conv: relu ->
// depthwise conv -> pool -> softmax, at fp32 or lowered by mode (int8: cast
// -> int8 depthwise conv, int32 accumulate, fp16 carrier out).
func buildDepthwiseGraph(tb testing.TB, mode graph.QuantMode) (*graph.Graph, map[string]*tensor.Tensor) {
	g := graph.New()
	in := g.Input("data", 1, 8, 8, 8)
	a := g.Apply("a", &graph.ActivationOp{Act: ops.ActReLU}, in)
	wt, bias := tensor.New(8, 1, 3, 3), tensor.New(8)
	wt.FillRandom(31)
	bias.FillRandom(32)
	dw := g.Apply("dw", &graph.ConvOp{W: ops.ConvWorkload{N: 1, CIn: 8, COut: 8, H: 8, W: 8, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 8, HasBias: true, FusedActivation: ops.ActReLU}},
		a, g.Constant("w", wt), g.Constant("b", bias))
	gp := g.Apply("gp", &graph.GlobalPoolOp{}, dw)
	f := g.Apply("f", &graph.FlattenOp{}, gp)
	g.SetOutputs(g.Apply("sm", &graph.SoftmaxOp{}, f))
	if _, err := graph.QuantizeGraph(g, graph.QuantizeOptions{Mode: mode, Device: sim.IntelHD505}); err != nil {
		tb.Fatal(err)
	}
	feed := tensor.New(1, 8, 8, 8)
	feed.FillRandom(21)
	return g, map[string]*tensor.Tensor{"data": feed}
}

// sessionAllocs plans g and returns the heap allocations of one
// steady-state serial Session.Run at the GOMAXPROCS in force:
// testing.AllocsPerRun would lower it to 1, where no fan-out has a helper.
// Rounded down like AllocsPerRun, so that what the runtime itself allocates
// now and then (a parking worker's sudog) does not count.
func sessionAllocs(t *testing.T, g *graph.Graph, feeds map[string]*tensor.Tensor) (uint64, *runtime.Plan) {
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	const runs = 100
	var before, after goruntime.MemStats
	for i := -1; i < runs; i++ { // run -1 is the warm-up
		if i == 0 {
			goruntime.ReadMemStats(&before)
		}
		if _, err := s.Run(feeds); err != nil {
			t.Fatal(err)
		}
	}
	goruntime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, plan
}

// TestSessionZeroAllocs is the tentpole acceptance criterion: a serial
// session's steady-state Run performs ZERO heap allocations, convolutions
// included, on however many cores the host has: every intermediate lives in
// the preallocated arena, and a kernel's fan-out hands internal/par a job
// value that the pool's workers read from a recycled box (no goroutine, no
// WaitGroup, no closure).
func TestSessionZeroAllocs(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	if allocs, _ := sessionAllocs(t, g, feeds); allocs != 0 {
		t.Fatalf("Session.Run allocated %v times per run, want 0", allocs)
	}
	g, feeds = buildConvGraph(ops.KernelGEMM)
	if allocs, plan := sessionAllocs(t, g, feeds); allocs != 0 || plan.Info().Kernels["gemm"] != 2 {
		t.Fatalf("fp32 GEMM-conv graph (%v) allocated %v times per run, want 0", plan.Info().Kernels, allocs)
	}
	for _, mode := range []graph.QuantMode{graph.QuantOff, graph.QuantINT8} {
		g, feeds = buildDepthwiseGraph(t, mode)
		if allocs, plan := sessionAllocs(t, g, feeds); allocs != 0 || plan.Info().Kernels["depthwise"] != 1 {
			t.Fatalf("%s depthwise graph (%v) allocated %v times per run, want 0", mode, plan.Info().Kernels, allocs)
		}
	}
}

// TestPlanRejectsInt8ConvCarriers: the conv epilogue stores and reads its
// fused residual as fp32 or fp16 only (the quantize pass dequantizes int8
// convs into such a carrier), so a graph that tags a conv's output or
// residual int8 fails at NewPlan rather than panicking in a serving lane.
func TestPlanRejectsInt8ConvCarriers(t *testing.T) {
	build := func(tag func(conv, res *graph.Node)) error {
		g := graph.New()
		in := g.Input("data", 1, 4, 6, 6)
		res := g.Apply("res", &graph.ActivationOp{Act: ops.ActReLU}, in)
		wt := tensor.New(4, 4, 1, 1)
		wt.FillRandom(3)
		conv := g.Apply("conv", &graph.ConvOp{Residual: true, W: ops.ConvWorkload{N: 1, CIn: 4, COut: 4, H: 6, W: 6,
			KH: 1, KW: 1, StrideH: 1, StrideW: 1}}, in, g.Constant("w", wt), res)
		g.SetOutputs(conv)
		tag(conv, res)
		_, err := runtime.NewPlan(g)
		return err
	}
	if err := build(func(_, _ *graph.Node) {}); err != nil {
		t.Fatalf("untagged graph: %v", err)
	}
	if err := build(func(conv, _ *graph.Node) { conv.DType, conv.QScale = tensor.Int8, 1 }); err == nil {
		t.Fatal("NewPlan accepted a conv with an int8 output")
	}
	if err := build(func(_, res *graph.Node) { res.DType, res.QScale = tensor.Int8, 1 }); err == nil {
		t.Fatal("NewPlan accepted a conv with an int8 fused residual")
	}
}

// TestArenaReuseAcrossRuns: intermediates occupy the same arena storage on
// every Run (no per-run allocation), and slot reuse makes the arena
// strictly smaller than the sum of all intermediates.
func TestArenaReuseAcrossRuns(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaBytes() >= plan.IntermediateBytes() {
		t.Fatalf("arena %d B should be smaller than total intermediates %d B",
			plan.ArenaBytes(), plan.IntermediateBytes())
	}
	if plan.ArenaBytes() < plan.PeakLiveBytes() {
		t.Fatalf("arena %d B cannot be below the liveness peak %d B",
			plan.ArenaBytes(), plan.PeakLiveBytes())
	}
	s := plan.NewSession()
	out1, err := s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	d1 := &out1[0].Data()[0]
	out2, err := s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	if &out2[0].Data()[0] != d1 {
		t.Fatal("output must reuse the same arena storage across Runs")
	}
}

// TestPlanMatchesExecuteSemantics: the wrapper keeps the legacy error
// contract (all inputs must be fed, shapes checked).
func TestPlanMatchesExecuteSemantics(t *testing.T) {
	g, _ := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	if _, err := s.Run(map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("missing feed must error")
	}
	if _, err := s.Run(map[string]*tensor.Tensor{"data": tensor.New(1, 2)}); err == nil {
		t.Fatal("wrong feed shape must error")
	}
	// A failed Run leaves the session reusable.
	_, feeds := buildSerialOpsGraph()
	if _, err := s.Run(feeds); err != nil {
		t.Fatalf("session must recover after a failed Run: %v", err)
	}
}

// BenchmarkSessionRun measures the pooled serial hot path at every
// storage dtype on the serial-ops graph; the benchmem acceptance
// criterion is 0 allocs/op for each dtype path — fp16 carriers, cast
// nodes and mixed-width arena slots must stay as allocation-free as the
// fp32 path. (Convolutions are kept out of this benchmark so that each Run
// stays cheap: the depthwise graph has BenchmarkSessionRunDepthwise, held to
// 0 allocs/op as well, and wall clock per kernel and dtype is tracked in
// BenchmarkConvKernels.)
func BenchmarkSessionRun(b *testing.B) {
	for _, mode := range []graph.QuantMode{
		graph.QuantOff, graph.QuantFP16, graph.QuantINT8, graph.QuantAuto,
	} {
		b.Run("dtype="+mode.String(), func(b *testing.B) {
			g, feeds := buildSerialOpsGraph()
			if _, err := graph.QuantizeGraph(g,
				graph.QuantizeOptions{Mode: mode, Device: sim.IntelHD505}); err != nil {
				b.Fatal(err)
			}
			benchSessionRun(b, g, feeds)
		})
	}
}

// BenchmarkSessionRunDepthwise is the serial hot path through one small
// depthwise conv at fp32 and int8: both rows are gated at 0 allocs/op (make
// bench), fan-out included.
func BenchmarkSessionRunDepthwise(b *testing.B) {
	for _, mode := range []graph.QuantMode{graph.QuantOff, graph.QuantINT8} {
		b.Run("dtype="+mode.String(), func(b *testing.B) {
			g, feeds := buildDepthwiseGraph(b, mode)
			benchSessionRun(b, g, feeds)
		})
	}
}

func benchSessionRun(b *testing.B, g *graph.Graph, feeds map[string]*tensor.Tensor) {
	plan, err := runtime.NewPlan(g)
	if err != nil {
		b.Fatal(err)
	}
	s := plan.NewSession()
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

// BenchmarkExecuteLegacy is the same graph through the one-shot Execute
// wrapper (plan + session per call), bounding the compile-once win.
func BenchmarkExecuteLegacy(b *testing.B) {
	g, feeds := buildSerialOpsGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Execute(g, feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSqueezeNetSerial: one session over SqueezeNet's branchy
// Fire modules; the name is kept so earlier records stay comparable.
func BenchmarkSessionSqueezeNetSerial(b *testing.B) {
	m := models.Build("SqueezeNet1.0", 64, false)
	graph.Optimize(m.Graph)
	graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		b.Fatal(err)
	}
	s := plan.NewSession()
	feed := tensor.New(1, 3, 64, 64)
	feed.FillRandom(2)
	feeds := map[string]*tensor.Tensor{"data": feed}
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
