package graph_test

import (
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
	"unigpu/internal/vision"
)

// buildConvBNReLU builds data -> conv -> bn -> relu -> softmax-ish chain.
func buildConvBNReLU() (*graph.Graph, *tensor.Tensor) {
	g := graph.New()
	in := g.Input("data", 1, 3, 8, 8)
	wl := ops.ConvWorkload{N: 1, CIn: 3, H: 8, W: 8, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(4, 3, 3, 3)
	w.FillRandom(1)
	conv := g.Apply("conv0", &graph.ConvOp{W: wl}, in, g.Constant("w0", w))

	c := 4
	gamma, beta, mean, variance := tensor.New(c), tensor.New(c), tensor.New(c), tensor.New(c)
	gamma.FillFunc(func(i int) float32 { return 1 + float32(i)*0.1 })
	beta.FillRandom(2)
	mean.FillRandom(3)
	variance.FillFunc(func(i int) float32 { return 0.7 + float32(i)*0.05 })
	bn := g.Apply("bn0", &graph.BatchNormOp{Eps: 1e-5},
		conv, g.Constant("gamma", gamma), g.Constant("beta", beta),
		g.Constant("mean", mean), g.Constant("var", variance))
	relu := g.Apply("relu0", &graph.ActivationOp{Act: ops.ActReLU}, bn)
	g.SetOutputs(relu)

	feed := tensor.New(1, 3, 8, 8)
	feed.FillRandom(7)
	return g, feed
}

func runGraph(t *testing.T, g *graph.Graph, feed *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	res, err := runtime.Execute(g, map[string]*tensor.Tensor{"data": feed})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res.Outputs[0]
}

func TestGraphValidate(t *testing.T) {
	g, _ := buildConvBNReLU()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFoldBatchNormPreservesSemantics(t *testing.T) {
	g, feed := buildConvBNReLU()
	want := runGraph(t, g, feed)

	folded := graph.FoldBatchNorm(g)
	if folded != 1 {
		t.Fatalf("folded %d batch norms, want 1", folded)
	}
	for _, n := range g.OpNodes() {
		if n.Op.Kind() == "batch_norm" {
			t.Fatal("batch_norm still present after folding")
		}
	}
	got := runGraph(t, g, feed)
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("folding changed results: max diff %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestFuseActivationsPreservesSemantics(t *testing.T) {
	g, feed := buildConvBNReLU()
	want := runGraph(t, g, feed)

	graph.FoldBatchNorm(g)
	fused := graph.FuseActivations(g)
	if fused != 1 {
		t.Fatalf("fused %d activations, want 1", fused)
	}
	stats := g.Summary()
	if stats.Convs != 1 {
		t.Fatalf("conv count = %d", stats.Convs)
	}
	for _, n := range g.OpNodes() {
		if n.Op.Kind() == "relu" {
			t.Fatal("relu still present after fusion")
		}
	}
	got := runGraph(t, g, feed)
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("fusion changed results: max diff %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestFuseSkipsMultiConsumerConv(t *testing.T) {
	g := graph.New()
	in := g.Input("data", 1, 2, 4, 4)
	wl := ops.ConvWorkload{N: 1, CIn: 2, H: 4, W: 4, COut: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	w := tensor.New(2, 2, 1, 1)
	w.FillRandom(5)
	conv := g.Apply("conv", &graph.ConvOp{W: wl}, in, g.Constant("w", w))
	relu := g.Apply("relu", &graph.ActivationOp{Act: ops.ActReLU}, conv)
	// conv also feeds a residual add, so fusing relu into it would be wrong.
	add := g.Apply("add", &graph.AddOp{}, relu, conv)
	g.SetOutputs(add)
	if fused := graph.FuseActivations(g); fused != 0 {
		t.Fatalf("must not fuse into a multi-consumer conv, fused %d", fused)
	}
}

func TestPrecomputeConstants(t *testing.T) {
	g := graph.New()
	a := tensor.New(1, 2, 2, 2)
	a.Fill(1)
	b := tensor.New(1, 2, 2, 2)
	b.Fill(2)
	sum := g.Apply("constsum", &graph.AddOp{}, g.Constant("a", a), g.Constant("b", b))
	in := g.Input("data", 1, 2, 2, 2)
	out := g.Apply("live", &graph.AddOp{}, in, sum)
	g.SetOutputs(out)

	if n := graph.PrecomputeConstants(g); n != 1 {
		t.Fatalf("precomputed %d, want 1", n)
	}
	for _, n := range g.OpNodes() {
		if n.Name == "constsum" {
			t.Fatal("constant subgraph should have been replaced")
		}
	}
	feed := tensor.New(1, 2, 2, 2)
	feed.Fill(10)
	got := runGraph(t, g, feed)
	if got.At(0, 0, 0, 0) != 13 {
		t.Fatalf("result = %v, want 13", got.At(0, 0, 0, 0))
	}
}

func TestEliminateDead(t *testing.T) {
	g, _ := buildConvBNReLU()
	// Add an unused branch.
	in := g.Nodes[0]
	g.Apply("deadrelu", &graph.ActivationOp{Act: ops.ActReLU}, in)
	if removed := g.EliminateDead(); removed != 1 {
		t.Fatalf("removed %d dead nodes, want 1", removed)
	}
}

func TestPlaceDevicesFallback(t *testing.T) {
	g := graph.New()
	in := g.Input("dets", 1, 16, 6)
	nms := g.Apply("nms", &graph.BoxNMSOp{Cfg: vision.NMSConfig{IoUThreshold: 0.5}}, in)
	// A GPU-friendly op after the fallback op forces a copy back.
	post := g.Apply("post", &graph.ConcatOp{}, nms)
	g.SetOutputs(post)

	copies := graph.PlaceDevices(g, graph.PlacementOptions{
		FallbackKinds: map[string]bool{"box_nms": true},
	})
	if copies != 1 {
		t.Fatalf("copies inserted = %d, want 1 (nms->post)", copies)
	}
	stats := g.Summary()
	if stats.OnCPU != 1 {
		t.Fatalf("nodes on CPU = %d, want 1", stats.OnCPU)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid after placement: %v", err)
	}
	if graph.CopyBytes(g) != float64(4*16*6) {
		t.Fatalf("copy bytes = %v", graph.CopyBytes(g))
	}
	// Execution still works and device_copy is the identity.
	feed := tensor.New(1, 16, 6)
	for i := 0; i < 16; i++ {
		feed.Set(-1, 0, i, 0)
	}
	res, err := runtime.Execute(g, map[string]*tensor.Tensor{"dets": feed})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatal("missing output")
	}
}

func TestPlaceAllGPUWhenOptimized(t *testing.T) {
	g := graph.New()
	in := g.Input("dets", 1, 8, 6)
	nms := g.Apply("nms", &graph.BoxNMSOp{Cfg: vision.NMSConfig{IoUThreshold: 0.5}}, in)
	g.SetOutputs(nms)
	copies := graph.PlaceDevices(g, graph.PlacementOptions{})
	if copies != 0 {
		t.Fatalf("optimized stack runs NMS on GPU; copies = %d", copies)
	}
	if g.Summary().OnCPU != 0 {
		t.Fatal("nothing should fall back by default")
	}
}

func TestRuntimeMemoryPlanning(t *testing.T) {
	// A linear chain frees intermediates; peak live should be ~2 tensors,
	// not the whole chain.
	g := graph.New()
	in := g.Input("data", 1, 8, 16, 16)
	cur := in
	for i := 0; i < 10; i++ {
		cur = g.Apply("relu"+string(rune('0'+i)), &graph.ActivationOp{Act: ops.ActReLU}, cur)
	}
	g.SetOutputs(cur)
	feed := tensor.New(1, 8, 16, 16)
	res, err := runtime.Execute(g, map[string]*tensor.Tensor{"data": feed})
	if err != nil {
		t.Fatal(err)
	}
	one := 4 * feed.Size() // bytes of one fp32 tensor
	if res.PeakLive > 3*one {
		t.Fatalf("peak live %d bytes; memory planner should free intermediates (one tensor = %d)", res.PeakLive, one)
	}
	if len(res.Profile) != 10 {
		t.Fatalf("profile entries = %d", len(res.Profile))
	}
}

func TestRuntimeErrors(t *testing.T) {
	g := graph.New()
	in := g.Input("data", 1, 2)
	g.SetOutputs(in)
	if _, err := runtime.Execute(g, nil); err == nil {
		t.Fatal("missing feed must error")
	}
	bad := tensor.New(2, 2)
	if _, err := runtime.Execute(g, map[string]*tensor.Tensor{"data": bad}); err == nil {
		t.Fatal("shape mismatch must error")
	}
}
