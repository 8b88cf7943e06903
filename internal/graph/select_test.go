package graph

import (
	"testing"

	"unigpu/internal/autotvm"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

func buildSelectGraph() (*Graph, *Node, *Node, *Node) {
	g := New()
	in := g.Input("data", 1, 64, 56, 56)
	w3 := ops.ConvWorkload{N: 1, CIn: 64, COut: 64, H: 56, W: 56, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	c3 := g.Apply("c3", &ConvOp{W: w3}, in, g.Constant("w3", tensor.New(64, 64, 3, 3)))
	wdw := ops.ConvWorkload{N: 1, CIn: 64, COut: 64, H: 56, W: 56, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 64}
	cdw := g.Apply("cdw", &ConvOp{W: wdw}, c3, g.Constant("wdw", tensor.New(64, 1, 3, 3)))
	w1 := ops.ConvWorkload{N: 1, CIn: 64, COut: 128, H: 56, W: 56, KH: 1, KW: 1,
		StrideH: 2, StrideW: 2}
	c1 := g.Apply("c1", &ConvOp{W: w1}, cdw, g.Constant("w1", tensor.New(128, 64, 1, 1)))
	g.SetOutputs(c1)
	return g, c3, cdw, c1
}

// TestSelectConvKernels: the roofline cost model sends large 3x3 stride-1
// convs to GEMM and depthwise convs to the depthwise kernel.
func TestSelectConvKernels(t *testing.T) {
	g, c3, cdw, c1 := buildSelectGraph()
	counts := SelectConvKernels(g, KernelSelection{Device: sim.IntelHD505})
	if got := opMust[*ConvOp](t, c3).Kernel; got != ops.KernelGEMM {
		t.Fatalf("3x3 s1 conv got %v, want gemm", got)
	}
	if got := opMust[*ConvOp](t, cdw).Kernel; got != ops.KernelDepthwise {
		t.Fatalf("depthwise conv got %v, want depthwise", got)
	}
	if got := opMust[*ConvOp](t, c1).Kernel; got != ops.KernelGEMM {
		t.Fatalf("1x1 s2 conv got %v, want gemm", got)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("selected %d convs, want 3", total)
	}
}

// TestSelectConvKernelsDBOverride: a KindKernel tuning record pins the
// choice regardless of what the cost model prefers, and model-made choices
// are written back to the database.
func TestSelectConvKernelsDBOverride(t *testing.T) {
	g, c3, _, _ := buildSelectGraph()
	dev := sim.IntelHD505
	db := autotvm.NewDB("")
	w := opMust[*ConvOp](t, c3).W
	db.StoreKernelChoiceDType(dev.Name, w.Key(), "", "direct", 1.0)

	SelectConvKernels(g, KernelSelection{Device: dev, DB: db})
	if got := opMust[*ConvOp](t, c3).Kernel; got != ops.KernelDirect {
		t.Fatalf("DB override ignored: got %v, want direct", got)
	}
	// The other convs' model decisions were recorded.
	wdw := ops.ConvWorkload{N: 1, CIn: 64, COut: 64, H: 56, W: 56, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 64}
	if name, ok := db.LookupKernelChoiceDType(dev.Name, wdw.Key(), ""); !ok || name != "depthwise" {
		t.Fatalf("depthwise decision not recorded: %q, %v", name, ok)
	}
}

// TestSelectConvKernelsDBWinogradGate: a stored record naming the retired
// winograd kernel must not leak through — selection falls back to the cost
// model — and the record stays in the database untouched.
func TestSelectConvKernelsDBWinogradGate(t *testing.T) {
	g, c3, _, _ := buildSelectGraph()
	dev := sim.IntelHD505
	db := autotvm.NewDB("")
	key := opMust[*ConvOp](t, c3).W.Key()
	db.StoreKernelChoiceDType(dev.Name, key, "", "winograd", 1.0)

	SelectConvKernels(g, KernelSelection{Device: dev, DB: db})
	if got := opMust[*ConvOp](t, c3).Kernel; got != ops.KernelGEMM {
		t.Fatalf("3x3 s1 conv got %v with a winograd record, want the model's gemm", got)
	}
	if name, ok := db.LookupKernelChoiceDType(dev.Name, key, ""); !ok || name != "winograd" {
		t.Fatalf("winograd record replaced: %q, %v", name, ok)
	}
}

// TestForceConvKernel: the ablation helper sets every conv, falling back
// to direct where the kernel does not apply.
func TestForceConvKernel(t *testing.T) {
	g, c3, cdw, c1 := buildSelectGraph()
	if n := ForceConvKernel(g, ops.KernelDepthwise); n != 3 {
		t.Fatalf("touched %d convs, want 3", n)
	}
	if got := opMust[*ConvOp](t, c3).Kernel; got != ops.KernelDirect {
		t.Fatalf("3x3 s1 conv got %v, want direct fallback", got)
	}
	if got := opMust[*ConvOp](t, cdw).Kernel; got != ops.KernelDepthwise {
		t.Fatalf("depthwise conv got %v, want depthwise", got)
	}
	if got := opMust[*ConvOp](t, c1).Kernel; got != ops.KernelDirect {
		t.Fatalf("1x1 s2 conv got %v, want direct fallback", got)
	}
}

// TestSelectWithoutDevice: with no cost model the shape heuristic applies.
func TestSelectWithoutDevice(t *testing.T) {
	g, c3, cdw, _ := buildSelectGraph()
	SelectConvKernels(g, KernelSelection{})
	if got := opMust[*ConvOp](t, c3).Kernel; got != ops.KernelGEMM {
		t.Fatalf("heuristic gave %v for 3x3 s1, want gemm", got)
	}
	if got := opMust[*ConvOp](t, cdw).Kernel; got != ops.KernelDepthwise {
		t.Fatalf("heuristic gave %v for depthwise, want depthwise", got)
	}
}

func opMust[T Operator](t *testing.T, n *Node) T {
	t.Helper()
	op, ok := opAs[T](n)
	if !ok {
		t.Fatalf("node %q is not a %T", n.Name, op)
	}
	return op
}

// TestSelectConvKernelsInt8: an int8 conv runs the quantized GEMM or, on a
// depthwise workload, the depthwise loop — with a cost model, without one,
// and under DB records (a record for a kernel int8 has no form of falls
// back to the cost model). The host's choice must not move the simulated
// clock: DTypeConvScale prices int8 as the GEMM either way.
func TestSelectConvKernelsInt8(t *testing.T) {
	dev := sim.IntelHD505
	for _, sel := range []KernelSelection{{Device: dev}, {}} {
		g, c3, cdw, c1 := buildSelectGraph()
		for _, n := range []*Node{c3, cdw, c1} {
			opMust[*ConvOp](t, n).DType = tensor.Int8
		}
		SelectConvKernels(g, sel)
		if got := opMust[*ConvOp](t, cdw).Kernel; got != ops.KernelDepthwise {
			t.Errorf("device=%v: int8 depthwise conv got %v, want depthwise", sel.Device != nil, got)
		}
		for _, n := range []*Node{c3, c1} {
			if got := opMust[*ConvOp](t, n).Kernel; got != ops.KernelGEMM {
				t.Errorf("device=%v: int8 dense conv %s got %v, want gemm", sel.Device != nil, n.Name, got)
			}
		}
		if sel.Device != nil {
			selected := DTypeConvScale(g, dev)
			opMust[*ConvOp](t, cdw).Kernel = ops.KernelGEMM
			if all := DTypeConvScale(g, dev); all != selected {
				t.Errorf("DTypeConvScale %v with the int8 depthwise loop selected, %v with the GEMM: host choice moved the simulated clock", selected, all)
			}
		}
	}

	g, c3, cdw, _ := buildSelectGraph()
	db := autotvm.NewDB("")
	for _, n := range []*Node{c3, cdw} {
		op := opMust[*ConvOp](t, n)
		op.DType = tensor.Int8
		db.StoreKernelChoiceDType(dev.Name, op.W.Key(), "int8", "direct", 1.0)
	}
	SelectConvKernels(g, KernelSelection{Device: dev, DB: db})
	if got := opMust[*ConvOp](t, c3).Kernel; got != ops.KernelGEMM {
		t.Errorf("int8 conv honoured a direct DB record: got %v, want gemm", got)
	}
	if got := opMust[*ConvOp](t, cdw).Kernel; got != ops.KernelDepthwise {
		t.Errorf("int8 depthwise conv with a direct DB record got %v, want the cost model's depthwise", got)
	}
	db.StoreKernelChoiceDType(dev.Name, opMust[*ConvOp](t, cdw).W.Key(), "int8", "gemm", 1.0)
	SelectConvKernels(g, KernelSelection{Device: dev, DB: db})
	if got := opMust[*ConvOp](t, cdw).Kernel; got != ops.KernelGEMM {
		t.Errorf("int8 depthwise conv ignored a gemm DB record: got %v", got)
	}
}
