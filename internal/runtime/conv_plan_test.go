package runtime_test

import (
	"fmt"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// buildConvGraph is a diamond of convolutions with constant weights: two
// GEMM-eligible branches (two prepacked convs, each with an arena scratch
// slot), a depthwise stage, and a join.
func buildConvGraph(kernel ops.ConvKernel) (*graph.Graph, map[string]*tensor.Tensor) {
	g := graph.New()
	mk := func(seed int64, shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		t.FillRandom(seed)
		return t
	}
	in := g.Input("data", 1, 8, 12, 12)
	w3 := ops.ConvWorkload{N: 1, CIn: 8, COut: 8, H: 12, W: 12, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true, FusedActivation: ops.ActReLU}
	left := g.Apply("left", &graph.ConvOp{W: w3, Kernel: kernel}, in,
		g.Constant("wl", mk(1, 8, 8, 3, 3)), g.Constant("bl", mk(2, 8)))
	right := g.Apply("right", &graph.ConvOp{W: w3, Kernel: kernel}, in,
		g.Constant("wr", mk(3, 8, 8, 3, 3)), g.Constant("br", mk(4, 8)))
	wdw := ops.ConvWorkload{N: 1, CIn: 8, COut: 8, H: 12, W: 12, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 8, HasBias: true}
	dw := g.Apply("dw", &graph.ConvOp{W: wdw}, left,
		g.Constant("wdw", mk(5, 8, 1, 3, 3)), g.Constant("bdw", mk(6, 8)))
	join := g.Apply("join", &graph.AddOp{}, dw, right)
	g.SetOutputs(join)
	feed := tensor.New(1, 8, 12, 12)
	feed.FillRandom(7)
	return g, map[string]*tensor.Tensor{"data": feed}
}

// TestConvPlanScratchSlots: GEMM-selected convs get plan-time prepack plus
// an arena scratch slot — the arena grows beyond the intermediate-tensor
// slots — and sessions stay bit-identical to the reference executor.
func TestConvPlanScratchSlots(t *testing.T) {
	for _, kernel := range []ops.ConvKernel{ops.KernelAuto, ops.KernelGEMM, ops.KernelDirect} {
		t.Run(kernel.String(), func(t *testing.T) {
			g, feeds := buildConvGraph(kernel)
			want, err := executeReference(g, feeds)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := runtime.NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			if kernel != ops.KernelDirect && plan.ArenaBytes() < plan.PeakLiveBytes() {
				t.Fatalf("arena %d B below liveness peak %d B", plan.ArenaBytes(), plan.PeakLiveBytes())
			}

			got, err := plan.NewSession().Run(feeds)
			if err != nil {
				t.Fatal(err)
			}
			tensorsEqual(t, kernel.String(), got, want)
		})
	}
}

// TestConvPlanScratchArenaGrowth: forcing GEMM must reserve scratch in the
// arena (bigger than the direct-kernel plan of the same graph), while
// IntermediateBytes/PeakLiveBytes keep the seed executor's semantics and
// stay kernel-independent.
func TestConvPlanScratchArenaGrowth(t *testing.T) {
	gDirect, _ := buildConvGraph(ops.KernelDirect)
	gGemm, _ := buildConvGraph(ops.KernelGEMM)
	pd, err := runtime.NewPlan(gDirect)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := runtime.NewPlan(gGemm)
	if err != nil {
		t.Fatal(err)
	}
	if pg.ArenaBytes() <= pd.ArenaBytes() {
		t.Fatalf("GEMM plan arena %d B should exceed direct plan arena %d B (im2col scratch)",
			pg.ArenaBytes(), pd.ArenaBytes())
	}
	if pg.IntermediateBytes() != pd.IntermediateBytes() || pg.PeakLiveBytes() != pd.PeakLiveBytes() {
		t.Fatalf("liveness accounting must not include scratch: inter %d vs %d, peak %d vs %d",
			pg.IntermediateBytes(), pd.IntermediateBytes(), pg.PeakLiveBytes(), pd.PeakLiveBytes())
	}
}

// TestConvPlanSharedAcrossSessions: the prepacked weights live on the plan;
// many sessions (run concurrently) share them read-only.
func TestConvPlanSharedAcrossSessions(t *testing.T) {
	g, feeds := buildConvGraph(ops.KernelGEMM)
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			s := plan.NewSession()
			for rep := 0; rep < 3; rep++ {
				got, err := s.Run(feeds)
				if err != nil {
					errs <- err
					return
				}
				for k := range want {
					gd, wd := got[k].Data(), want[k].Data()
					for j := range wd {
						if gd[j] != wd[j] {
							errs <- fmt.Errorf("output %d differs at %d", k, j)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
