package graph

import (
	"unigpu/internal/autotvm"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// KernelSelection configures the conv algorithm-selection pass.
type KernelSelection struct {
	// Device drives the roofline cost model (sim.Device.AlgoSeconds); nil
	// falls back to the shape heuristic ops.DefaultKernel.
	Device *sim.Device
	// DB, when non-nil, is consulted first: a KindKernel record for the
	// (device, workload) pair overrides the cost model, and cost-model
	// decisions are written back so later compiles replay them.
	DB *autotvm.DB
}

// kernelAllowed reports whether the selector may run w at storage dtype dt
// with kernel k: every selectable kernel is bit-identical to direct, so
// whole-model golden outputs are unchanged by selection. Int8 computes
// through the quantized GEMM or, for depthwise workloads, the
// int32-accumulating depthwise loop.
func kernelAllowed(k ops.ConvKernel, w ops.ConvWorkload, dt tensor.DType) bool {
	switch {
	case !ops.KernelSupported(k, w):
		return false
	case dt == tensor.Int8:
		return k == ops.KernelGEMM || k == ops.KernelDepthwise
	}
	return true
}

// dbDType maps a storage dtype to its tuning-record key segment ("" for
// fp32, keeping pre-mixed-precision databases resolvable).
func dbDType(dt tensor.DType) string {
	if dt == tensor.Float32 {
		return ""
	}
	return dt.String()
}

// pick returns the chosen kernel for w at storage dtype dt plus its
// estimated milliseconds (NaN-free; 0 when no cost model is configured).
func (sel KernelSelection) pick(w ops.ConvWorkload, dt tensor.DType) (ops.ConvKernel, float64) {
	if sel.DB != nil && sel.Device != nil {
		if name, ok := sel.DB.LookupKernelChoiceDType(sel.Device.Name, w.Key(), dbDType(dt)); ok {
			if k, ok := ops.ParseConvKernel(name); ok && k != ops.KernelAuto && kernelAllowed(k, w, dt) {
				return k, 0
			}
		}
	}
	if sel.Device == nil {
		return ops.DefaultKernel(w), 0 // depthwise or GEMM: both run at every dtype
	}
	best, bestSec := ops.KernelAuto, 0.0
	for _, k := range ops.ConvKernels {
		if !kernelAllowed(k, w, dt) {
			continue
		}
		sec := sel.Device.AlgoSeconds(kernelCost(w, k, dt))
		if best == ops.KernelAuto || sec < bestSec {
			best, bestSec = k, sec
		}
	}
	return best, bestSec * 1e3
}

// kernelCost adapts ops.KernelProfile to AlgoSeconds' argument list for a
// given storage dtype.
func kernelCost(w ops.ConvWorkload, k ops.ConvKernel, dt tensor.DType) (flops, elems, elemBytes, eff float64) {
	flops, elems, eff = ops.KernelProfile(w, k)
	return flops, elems, float64(dt.Size()), eff
}

// SelectConvKernels assigns a concrete algorithm to every convolution in
// the graph — the per-workload analogue of the paper's per-workload
// schedule selection — and returns how many convs each kernel got. Choices
// made by the cost model are recorded in sel.DB (KindKernel records) so
// subsequent compiles, and external tools editing the database, can pin
// them.
func SelectConvKernels(g *Graph, sel KernelSelection) map[ops.ConvKernel]int {
	counts := map[ops.ConvKernel]int{}
	for _, n := range g.Nodes {
		convOp, ok := opAs[*ConvOp](n)
		if !ok {
			continue
		}
		k, ms := sel.pick(convOp.W, convOp.DType)
		convOp.Kernel = k
		counts[k]++
		if sel.DB != nil && sel.Device != nil {
			// Record cost-model decisions, but never clobber an existing
			// kernel record — it may be a pinned choice this pass merely
			// gated out (e.g. a name this build does not parse).
			dtype := dbDType(convOp.DType)
			if _, exists := sel.DB.LookupKernelChoiceDType(sel.Device.Name, convOp.W.Key(), dtype); !exists {
				sel.DB.StoreKernelChoiceDType(sel.Device.Name, convOp.W.Key(), dtype, k.String(), ms)
			}
		}
	}
	return counts
}

// ForceConvKernel sets every conv in the graph to kernel k (falling back
// to direct where k is unsupported) and returns the number of convs
// touched. Benchmarks and ablations use it to compare algorithms on the
// same model.
func ForceConvKernel(g *Graph, k ops.ConvKernel) int {
	n := 0
	for _, node := range g.Nodes {
		convOp, ok := opAs[*ConvOp](node)
		if !ok {
			continue
		}
		if ops.KernelSupported(k, convOp.W) {
			convOp.Kernel = k
		} else {
			convOp.Kernel = ops.KernelDirect
		}
		n++
	}
	return n
}
