package graphtuner

import (
	"math"
	"reflect"
	"testing"

	"unigpu/internal/autotvm"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
)

func conv(cin, hw, cout, k, stride, pad int) ops.ConvWorkload {
	return ops.ConvWorkload{N: 1, CIn: cin, H: hw, W: hw, COut: cout, KH: k, KW: k,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
}

func TestCandidatesCoverLayouts(t *testing.T) {
	w := conv(32, 28, 64, 3, 1, 1)
	cands := CandidatesFor(w, sim.MaxwellNano, 16, 1)
	if len(cands) < 4 {
		t.Fatalf("expected several layout candidates, got %d", len(cands))
	}
	seen := map[int]bool{}
	for _, c := range cands {
		if c.Config.TileCo%c.Block != 0 {
			t.Fatalf("candidate config blocking %d incompatible with layout block %d", c.Config.TileCo, c.Block)
		}
		if !(c.KernelMs > 0) || math.IsInf(c.KernelMs, 0) {
			t.Fatalf("bad kernel cost %v", c.KernelMs)
		}
		if seen[c.Block] {
			t.Fatalf("duplicate block %d", c.Block)
		}
		seen[c.Block] = true
	}
}

func TestTransformMs(t *testing.T) {
	w := conv(64, 56, 64, 3, 1, 1)
	if TransformMs(w, 8, 8, sim.MaliT860) != 0 {
		t.Fatal("same layout must be free")
	}
	tm := TransformMs(w, 1, 8, sim.MaliT860)
	if !(tm > 0) {
		t.Fatal("layout change must cost time")
	}
	// Bigger tensors cost more to transform.
	big := conv(64, 112, 64, 3, 1, 1)
	if TransformMs(big, 1, 8, sim.MaliT860) <= tm {
		t.Fatal("transform cost should scale with tensor size")
	}
}

func TestDPNeverWorseThanGreedy(t *testing.T) {
	chain := []ops.ConvWorkload{
		conv(3, 56, 32, 3, 1, 1),
		conv(32, 56, 32, 3, 1, 1),
		conv(32, 56, 64, 1, 1, 0),
		conv(64, 56, 64, 3, 1, 1),
		conv(64, 56, 16, 1, 1, 0),
	}
	for _, d := range []*sim.Device{sim.IntelHD505, sim.MaliT860, sim.MaxwellNano} {
		cands := make([][]autotvm.Candidate, len(chain))
		for i, w := range chain {
			cands[i] = CandidatesFor(w, d, 12, 7)
		}
		dp := Optimize(chain, cands, d)
		greedy := Greedy(chain, cands, d)
		if dp.TotalMs > greedy.TotalMs+1e-9 {
			t.Errorf("%s: DP %.4f ms worse than greedy %.4f ms", d.Name, dp.TotalMs, greedy.TotalMs)
		}
		if len(dp.Choices) != len(chain) {
			t.Fatal("plan must choose a layout per node")
		}
	}
}

func TestDPAvoidsTransformsWhenKernelsTie(t *testing.T) {
	// Two identical nodes with two layouts of equal kernel cost: the DP
	// must pick matching layouts (zero transforms); a transform-oblivious
	// choice could alternate.
	w := conv(16, 28, 16, 3, 1, 1)
	cands := [][]autotvm.Candidate{
		{{Block: 4, KernelMs: 1.0}, {Block: 8, KernelMs: 1.0}},
		{{Block: 4, KernelMs: 1.0}, {Block: 8, KernelMs: 1.0}},
	}
	plan := Optimize([]ops.ConvWorkload{w, w}, cands, sim.MaxwellNano)
	if plan.Choices[0].Block != plan.Choices[1].Block {
		t.Fatalf("DP should align layouts: %d vs %d", plan.Choices[0].Block, plan.Choices[1].Block)
	}
}

func TestDPAcceptsTransformWhenKernelGainDominates(t *testing.T) {
	w := conv(16, 28, 16, 3, 1, 1)
	// Node 2's block-8 kernel is massively faster: worth a transform.
	cands := [][]autotvm.Candidate{
		{{Block: 4, KernelMs: 1.0}, {Block: 8, KernelMs: 5.0}},
		{{Block: 4, KernelMs: 50.0}, {Block: 8, KernelMs: 1.0}},
	}
	plan := Optimize([]ops.ConvWorkload{w, w}, cands, sim.MaxwellNano)
	if plan.Choices[0].Block != 4 || plan.Choices[1].Block != 8 {
		t.Fatalf("DP should switch layouts for a large kernel gain, got %d,%d",
			plan.Choices[0].Block, plan.Choices[1].Block)
	}
	if plan.TransformCnt == 0 {
		t.Fatal("plan should record the transform")
	}
}

func TestPlanAccounting(t *testing.T) {
	chain := []ops.ConvWorkload{conv(8, 14, 16, 3, 1, 1), conv(16, 14, 16, 3, 1, 1)}
	cands := make([][]autotvm.Candidate, len(chain))
	for i, w := range chain {
		cands[i] = CandidatesFor(w, sim.IntelHD505, 10, 3)
	}
	plan := Optimize(chain, cands, sim.IntelHD505)
	if math.Abs(plan.TotalMs-(plan.KernelMs+plan.TransformMs)) > 1e-6 {
		t.Fatalf("total %.6f != kernel %.6f + transform %.6f", plan.TotalMs, plan.KernelMs, plan.TransformMs)
	}
}

func TestEmptySequence(t *testing.T) {
	plan := Optimize(nil, nil, sim.MaxwellNano)
	if plan.TotalMs != 0 || len(plan.Choices) != 0 {
		t.Fatal("empty sequence should yield an empty plan")
	}
}

func TestCandidatesForConcurrentlyDeterministic(t *testing.T) {
	// The per-layout searches run concurrently but each has its own
	// deterministic RNG, so repeated runs must agree exactly, in order.
	w := conv(32, 28, 64, 3, 1, 1)
	want := CandidatesFor(w, sim.MaxwellNano, 16, 1)
	for i := 0; i < 5; i++ {
		got := CandidatesFor(w, sim.MaxwellNano, 16, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
