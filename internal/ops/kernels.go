package ops

import (
	"fmt"

	"unigpu/internal/tensor"
)

// ConvKernel identifies one of the convolution algorithm implementations
// the selector can choose between per workload.
type ConvKernel int

const (
	// KernelAuto defers the choice to DefaultKernel (or to the graph-level
	// selection pass, which writes a concrete kernel onto the operator).
	KernelAuto ConvKernel = iota
	// KernelDirect is the row-accumulate loop (convRows, Conv2DInto): no
	// packed weights, no scratch slot. It handles every workload shape and
	// is the bit-exactness reference.
	KernelDirect
	// KernelDepthwise labels the same loop on a Groups==CIn==COut workload
	// (one input channel per output plane); the selector and the simulated
	// clock price it apart from direct, and it is the one label an int8
	// conv may carry besides the GEMM.
	KernelDepthwise
	// KernelGEMM is the im2col + packed cache-blocked GEMM path;
	// bit-identical to direct (single ascending-k accumulator per output).
	KernelGEMM
)

// ConvKernels lists the concrete (non-Auto) kernels in a stable order.
var ConvKernels = []ConvKernel{KernelDirect, KernelDepthwise, KernelGEMM}

func (k ConvKernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelDirect:
		return "direct"
	case KernelDepthwise:
		return "depthwise"
	case KernelGEMM:
		return "gemm"
	}
	return fmt.Sprintf("ConvKernel(%d)", int(k))
}

// ParseConvKernel is the inverse of String; it recognizes the names stored
// in tuning-DB kernel records.
func ParseConvKernel(s string) (ConvKernel, bool) {
	for _, k := range append([]ConvKernel{KernelAuto}, ConvKernels...) {
		if k.String() == s {
			return k, true
		}
	}
	return KernelAuto, false
}

// KernelSupported reports whether kernel k can execute workload w.
func KernelSupported(k ConvKernel, w ConvWorkload) bool {
	switch k {
	case KernelAuto, KernelDirect, KernelGEMM:
		return true
	case KernelDepthwise:
		return w.IsDepthwise()
	}
	return false
}

// DefaultKernel picks a kernel for w without a cost model: depthwise gets
// the specialized kernel, everything else the GEMM path.
func DefaultKernel(w ConvWorkload) ConvKernel {
	if w.IsDepthwise() {
		return KernelDepthwise
	}
	return KernelGEMM
}

// KernelProfile estimates the work kernel k does on workload w: flops and
// elements moved (for a roofline model such as sim.Device.AlgoSeconds,
// which multiplies by the element width of the conv's storage dtype) plus
// a relative arithmetic efficiency in (0,1] capturing how well the
// implementation converts peak flops into useful work. The absolute values
// matter less than the ordering they induce per workload.
func KernelProfile(w ConvWorkload, k ConvKernel) (flops, elems, eff float64) {
	flops = w.FLOPs()
	elems = w.Elems()
	switch k {
	case KernelDirect:
		// One pass over the output plane per tap, little register reuse,
		// and the input band is widened again for every output channel.
		eff = 0.35
	case KernelDepthwise:
		// Same loop but one input plane per output plane: tiny working
		// set, no channel reduction, much friendlier to cache.
		eff = 0.55
	case KernelGEMM:
		// Packed panels give the microkernel dense register reuse, but
		// the im2col scratch is written then re-read once per (n,group).
		g := max(1, w.Groups)
		kdim := (w.CIn / g) * w.KH * w.KW
		nCols := w.OutH() * w.OutW()
		elems += 2 * float64(w.N*g) * float64(kdim) * float64(nCols)
		eff = 0.80
		// Tiny reductions or few output pixels leave panels underfilled.
		if kdim < 32 {
			eff *= 0.6
		}
		if nCols < 64 {
			eff *= 0.6
		}
	default:
		eff = 0.35
	}
	return flops, elems, eff
}

// PreparedConv is a convolution bound to a concrete kernel with its weights
// repacked into that kernel's layout (and storage dtype). Prepared at plan
// time, it is read-only and safe to share across concurrently running
// sessions.
type PreparedConv struct {
	w      ConvWorkload
	kernel ConvKernel
	dtype  tensor.DType // storage dtype the kernel computes over

	// wd is what the fp32 and fp16 kernels multiply by: OIHW weights for
	// direct/depthwise (or packChannels' blocks), or GEMM row panels. Under
	// fp16 the values are rounded to binary16 here, once, and stay
	// float32-wide (so they cost fp32 bytes per plan, and no kernel decodes
	// a weight).
	wd []float32
	// wq and wscale are the int8 kernels' weight codes (GEMM row panels, or
	// OIHW for depthwise) and per-output-channel scales.
	wq     []int8
	wscale []float32
	chans  *chanGeom // set when wd holds packChannels' blocks for convChannels
}

// PrepareConvDType resolves kernel k for workload w (KernelAuto picks
// DefaultKernel; unsupported choices fall back to KernelDirect) and packs
// weight into the kernel's layout at storage dtype dt. Under fp16 the weights
// are rounded to binary16 at pack time. Int8 quantizes the weights
// with symmetric per-output-channel scales and runs the depthwise loop
// when asked for it and the quantized GEMM otherwise; the input's
// per-tensor scale is read off the tensor at run time. A float direct conv
// over too short a plane runs convChannels (newChanGeom), still direct.
func PrepareConvDType(w ConvWorkload, k ConvKernel, weight *tensor.Tensor, dt tensor.DType) *PreparedConv {
	if k == KernelAuto {
		k = DefaultKernel(w)
	}
	if !KernelSupported(k, w) {
		k = KernelDirect
	}
	if dt == tensor.Int8 && k != KernelDepthwise {
		k = KernelGEMM
	}
	p := &PreparedConv{w: w, kernel: k, dtype: dt}
	switch {
	case dt == tensor.Int8:
		if p.wq, p.wscale = quantizeConvWeights(weight, w); k == KernelGEMM {
			p.wq = packRowPanels(p.wq, w)
		}
	default:
		p.wd = weight.Data()
		if dt == tensor.Float16 {
			p.wd = f16Rounded(p.wd)
		}
		if k == KernelGEMM {
			p.wd = packRowPanels(p.wd, w)
		} else if p.chans = newChanGeom(w, k); p.chans != nil {
			p.wd = packChannels(p.wd, p.chans)
		}
	}
	return p
}

// ChannelRoutine reports whether the conv runs over output channels
// (convChannels) rather than over the pixels of its planes.
func (p *PreparedConv) ChannelRoutine() bool { return p.chans != nil }

// Kernel returns the concrete kernel this conv was prepared for.
func (p *PreparedConv) Kernel() ConvKernel { return p.kernel }

// DType returns the storage dtype this conv was prepared for.
func (p *PreparedConv) DType() tensor.DType { return p.dtype }

// ScratchElems returns the per-run scratch requirement in elements of
// ScratchDType. The runtime reserves this as an arena slot so Session.Run
// allocates nothing; RunIntoEpilogue also accepts nil scratch and
// allocates locally.
func (p *PreparedConv) ScratchElems() int {
	if p.kernel == KernelGEMM {
		return GEMMScratchElems(p.w)
	}
	return 0
}

// ScratchDType returns the element type of the scratch buffer: int8 for
// the quantized GEMM path (im2col panels hold codes), float32 otherwise
// (the fp16 GEMM decodes into fp32 panels at pack time).
func (p *PreparedConv) ScratchDType() tensor.DType {
	if p.dtype == tensor.Int8 && p.kernel == KernelGEMM {
		return tensor.Int8
	}
	return tensor.Float32
}

// RunIntoEpilogue is RunInto with the fused residual epilogue: residual
// (same shape as out, nil for none) is added into every output element
// before the fused activation, or after it when postAct is set — the
// ResNet conv→add→relu and Darknet conv(+act)→add patterns respectively.
// Every kernel applies the identical per-element epilogue order, so the
// result is bit-identical to running the add (and activation) as separate
// kernels. residual must not alias out. scratch8 is only read by the int8
// GEMM path (see ScratchDType); either scratch may be nil. out and
// residual are fp32 or fp16 storage (an int8 conv dequantizes into one of
// them; int8 is never a conv's output carrier, and runtime.NewPlan rejects
// a graph that says otherwise).
func (p *PreparedConv) RunIntoEpilogue(out, in, bias, residual *tensor.Tensor, scratch []float32, scratch8 []int8, postAct bool) {
	r := convRun{p: p, in: in, bias: biasData(bias), residual: residual, scratch: scratch, scratch8: scratch8, postAct: postAct}
	switch out.DType() {
	case tensor.Float32:
		runConvTo(r, out.Data())
	case tensor.Float16:
		runConvTo(r, out.Half())
	default:
		panic("ops: conv output must be fp32 or fp16 storage, got " + out.DType().String())
	}
}

// convRun carries one RunIntoEpilogue call's operands through the
// output/residual element-type dispatch.
type convRun struct {
	p        *PreparedConv
	in       *tensor.Tensor
	bias     []float32
	residual *tensor.Tensor
	scratch  []float32
	scratch8 []int8
	postAct  bool
}

// runConvTo fixes the residual's element type, the output's being O.
func runConvTo[O convOut](r convRun, od []O) {
	switch {
	case r.residual == nil:
		runConv(r, od, []float32(nil))
	case r.residual.DType() == tensor.Float32:
		runConv(r, od, r.residual.Data())
	case r.residual.DType() == tensor.Float16:
		runConv(r, od, r.residual.Half())
	default:
		panic("ops: conv residual must be fp32 or fp16 storage, got " + r.residual.DType().String())
	}
}

// runConv dispatches on the conv's storage dtype and kernel, with the
// output and residual element types fixed.
func runConv[O convOut, R convElem](r convRun, od []O, rd []R) {
	p := r.p
	s := convSink[O, R]{out: od, res: rd, bias: r.bias, act: p.w.FusedActivation, postAct: r.postAct}
	switch {
	case p.dtype == tensor.Int8:
		s.wscale, s.inScale = p.wscale, r.in.Scale()
		if p.kernel == KernelDepthwise {
			convRows[int32](&s, r.in.Int8Data(), p.wq, p.w)
		} else {
			convGEMM[int32](&s, r.in.Int8Data(), p.wq, r.scratch8, p.w)
		}
	case p.dtype == tensor.Float16:
		runFloatConv(p, &s, r.in.Half(), r.scratch)
	default:
		runFloatConv(p, &s, r.in.Data(), r.scratch)
	}
}

// runFloatConv runs the fp32/fp16 kernels, which differ only in the input
// element type.
func runFloatConv[S convElem, O convOut, R convElem](p *PreparedConv, s *convSink[O, R], ind []S, scratch []float32) {
	if p.kernel == KernelGEMM {
		convGEMM[float32](s, ind, p.wd, scratch, p.w)
	} else if p.chans != nil {
		convChannels(s, ind, p.wd, p.chans)
	} else { // direct and depthwise are one loop
		convRows[float32](s, ind, p.wd, p.w)
	}
}
