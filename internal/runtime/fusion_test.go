package runtime_test

import (
	"fmt"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// buildZooGraph builds one zoo model and runs the requested slice of the
// pass pipeline. "unfused" applies only the numerics-changing passes
// (batch-norm folding, constant pre-computation) so it computes the exact
// same floats as the fused graph, node by node; "prefusion" additionally
// runs the original single-activation fusion — the pipeline as it stood
// before the generalized fusion passes; "fused" is the full Optimize.
func buildZooGraph(name string, size int, variant string) *graph.Graph {
	m := models.Build(name, size, false)
	switch variant {
	case "unfused":
		graph.FoldBatchNorm(m.Graph)
		graph.PrecomputeConstants(m.Graph)
		m.Graph.EliminateDead()
	case "prefusion":
		graph.FoldBatchNorm(m.Graph)
		graph.FuseActivations(m.Graph)
		graph.PrecomputeConstants(m.Graph)
		m.Graph.EliminateDead()
	default:
		graph.Optimize(m.Graph)
	}
	graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
	return m.Graph
}

// TestFusedVsUnfusedAllModels cross-checks the fusion passes end to end:
// for every zoo model the fully fused graph — run through the pooled
// session — must be bit-identical to the frozen reference executor running
// the UNFUSED graph, across multiple random inputs. Unlike
// TestGoldenAllModels (which runs the same optimized graph on both sides),
// this proves the fusion rewrites themselves never change a single ULP.
func TestFusedVsUnfusedAllModels(t *testing.T) {
	for name, size := range goldenModelCases() {
		t.Run(name, func(t *testing.T) {
			unfused := buildZooGraph(name, size, "unfused")
			fused := buildZooGraph(name, size, "fused")
			plan, err := runtime.NewPlan(fused)
			if err != nil {
				t.Fatal(err)
			}
			s := plan.NewSession()
			for _, seed := range []int64{7, 23} {
				feed := tensor.New(1, 3, size, size)
				feed.FillRandom(seed)
				feeds := map[string]*tensor.Tensor{"data": feed}

				want, err := executeReference(unfused, feeds)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Run(feeds)
				if err != nil {
					t.Fatal(err)
				}
				tensorsEqual(t, fmt.Sprintf("seed %d", seed), got, want)
			}
		})
	}
}

// TestFusionReducesScheduleAndTraffic quantifies the fusion win against
// the pre-fusion pipeline: the residual-style models (ResNet, SSD-ResNet,
// YOLOv3) must lose at least 20% of their schedule nodes and strictly
// shrink per-run intermediate traffic; no model may regress on either
// metric, nor grow its arena.
func TestFusionReducesScheduleAndTraffic(t *testing.T) {
	residualStyle := map[string]bool{"ResNet50_v1": true, "SSD_ResNet50": true, "Yolov3": true}
	for name, size := range goldenModelCases() {
		t.Run(name, func(t *testing.T) {
			before, err := runtime.NewPlan(buildZooGraph(name, size, "prefusion"))
			if err != nil {
				t.Fatal(err)
			}
			after, err := runtime.NewPlan(buildZooGraph(name, size, "fused"))
			if err != nil {
				t.Fatal(err)
			}
			if after.NumNodes() > before.NumNodes() {
				t.Fatalf("fusion grew the schedule: %d -> %d nodes", before.NumNodes(), after.NumNodes())
			}
			if after.ArenaBytes() > before.ArenaBytes() {
				t.Fatalf("fusion grew the arena: %d -> %d bytes", before.ArenaBytes(), after.ArenaBytes())
			}
			if after.IntermediateBytes() > before.IntermediateBytes() {
				t.Fatalf("fusion grew intermediate traffic: %d -> %d bytes",
					before.IntermediateBytes(), after.IntermediateBytes())
			}
			if residualStyle[name] {
				drop := float64(before.NumNodes()-after.NumNodes()) / float64(before.NumNodes())
				if drop < 0.20 {
					t.Fatalf("node count dropped %.1f%% (%d -> %d), want >= 20%%",
						100*drop, before.NumNodes(), after.NumNodes())
				}
				if after.IntermediateBytes() >= before.IntermediateBytes() {
					t.Fatalf("intermediate traffic did not shrink: %d -> %d bytes",
						before.IntermediateBytes(), after.IntermediateBytes())
				}
			}
		})
	}
}

// TestFusionNodeCountGoldens pins the exact optimized schedule size of
// every zoo model. A failure means a pass started fusing more, less, or
// differently — update the goldens only after confirming the change is
// intended and the fused-vs-unfused cross-checks still pass.
func TestFusionNodeCountGoldens(t *testing.T) {
	golden := map[string]int{
		"ResNet50_v1":      58,
		"MobileNet1.0":     31,
		"SqueezeNet1.0":    40,
		"SSD_MobileNet1.0": 66,
		"SSD_ResNet50":     93,
		"Yolov3":           84,
	}
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no node-count golden for zoo model %q; add one", name)
			}
			size := 64
			switch name {
			case "SSD_MobileNet1.0", "SSD_ResNet50":
				size = 128
			case "Yolov3":
				size = 96
			}
			m := models.Build(name, size, false)
			graph.Optimize(m.Graph)
			if got := len(m.Graph.OpNodes()); got != want {
				t.Fatalf("optimized %s has %d op nodes, golden %d", name, got, want)
			}
		})
	}
}

// TestFusedElementwiseZeroAllocs: collapsing an elementwise chain must
// preserve the serial session's zero-allocation guarantee — the fused
// kernel resolves its add operands into fixed-size stack state. (Conv
// nodes are excluded, as in TestSessionZeroAllocs: their worker-pool
// dispatch predates this pass and allocates goroutine state.)
func TestFusedElementwiseZeroAllocs(t *testing.T) {
	g := graph.New()
	in := g.Input("data", 1, 8, 8, 8)
	relu := g.Apply("relu", &graph.ActivationOp{Act: ops.ActReLU}, in)
	sig := g.Apply("sig", &graph.SigmoidOp{}, relu)
	leaky := g.Apply("leaky", &graph.ActivationOp{Act: ops.ActLeakyReLU, Alpha: 0.3}, sig)
	tail := g.Apply("tail", &graph.AddOp{}, leaky, in)
	g.SetOutputs(tail)
	graph.Optimize(g)
	if n := len(g.OpNodes()); n != 1 {
		t.Fatalf("optimize left %d op nodes, want a lone fused_elementwise", n)
	}
	if kind := g.OpNodes()[0].Op.Kind(); kind != "fused_elementwise" {
		t.Fatalf("optimize left a %q node, want fused_elementwise", kind)
	}

	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	feed := tensor.New(1, 8, 8, 8)
	feed.FillRandom(9)
	feeds := map[string]*tensor.Tensor{"data": feed}
	if _, err := s.Run(feeds); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Run(feeds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused Session.Run allocated %v times per run, want 0", allocs)
	}
}
