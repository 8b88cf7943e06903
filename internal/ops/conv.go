package ops

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"unigpu/internal/tensor"
)

// Conv2D computes a (possibly grouped/depthwise) 2-D convolution in NCHW
// with OIHW weights, optional bias, and an optional fused activation. The
// spatial-output loop is parallelized across host cores.
func Conv2D(in, weight, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	Conv2DInto(out, in, weight, bias, w)
	return out
}

// Conv2DInto is Conv2D computing into a caller-provided output tensor of
// shape (N, COut, OutH, OutW); it allocates no intermediate storage.
//
// Boundary checks are hoisted out of the tap loop: for each output row the
// in-bounds ky range is computed once, and for each output pixel the
// in-bounds kx range is computed once, so the inner loop runs branch-free.
// Taps still accumulate in ascending (ci, ky, kx) order, which keeps the
// result bit-identical to the naive per-tap-branching loop.
func Conv2DInto(out, in, weight, bias *tensor.Tensor, w ConvWorkload) {
	convDirect(&convSink[float32, float32]{out: out.Data(), bias: biasData(bias), act: w.FusedActivation},
		in.Data(), weight.Data(), w)
}

func biasData(bias *tensor.Tensor) []float32 {
	if bias == nil {
		return nil
	}
	return bias.Data()
}

type (
	// convElem is a storage element a conv kernel reads: float32 values,
	// binary16 bit patterns (uint16 is never anything else in this
	// package) or int8 codes. Kernels written once over all three tell
	// binary16 apart by unsafe.Sizeof(x) == 2 where an element x is widened
	// or narrowed: a constant in each instantiation, so the untaken side
	// compiles away. The test is spelled out at each site rather than
	// wrapped in a generic helper because a generic callee, even inlined,
	// costs its caller a dictionary nil check per call, which a
	// three-instruction tap loop notices.
	convElem interface{ float32 | uint16 | int8 }
	// convOut is a conv output element: float32, or binary16 bits narrowed
	// once at the store.
	convOut interface{ float32 | uint16 }
)

// narrow is the one store-side conversion: round-to-nearest-even to
// binary16 bits, or the value unchanged.
func narrow[O convOut](v float32) O {
	var o O
	if unsafe.Sizeof(o) == 2 {
		return O(tensor.F16Encode(v))
	}
	return O(v)
}

// convSink is where every conv kernel's finished accumulators go: the
// output and fused-residual storage, whose element types are the kernels'
// only view of their dtypes, and what the epilogue needs. Keep it within
// 128 bytes: the kernels' parallelFor closures capture it by value, which
// is what keeps a conv call from costing one more heap object.
type convSink[O convOut, R convElem] struct {
	out     []O
	res     []R       // fused residual, indexed like out; nil for none
	bias    []float32 // per output channel; nil for none
	wscale  []float32 // int8 kernels only: per-output-channel weight scales
	inScale float32   // int8 kernels only: the input tensor's scale
	act     Activation
	postAct bool // residual is added after the activation, not before
}

// convEpilogue finishes one conv output element: the optional fused
// residual row rd (indexed like the output) is added before the activation
// for the ResNet conv→add→relu pattern, or after it (postAct) for the
// Darknet conv(+act)→add pattern. The per-element operation order matches
// the unfused AddInto/activation kernels exactly, so fusing is
// bit-preserving. It is a free function over the sink's fields, with the
// narrowing store written out at each call site, because that is the shape
// the inliner accepts (it sits just under the budget: check -gcflags=-m
// after touching it), so neither half costs fp32 a call.
func convEpilogue[R convElem](v float32, rd []R, oi int, a Activation, postAct bool) float32 {
	var r float32
	if rd != nil {
		x := rd[oi]
		if r = float32(x); unsafe.Sizeof(x) == 2 {
			r = tensor.F16Decode(uint16(x))
		}
		if !postAct {
			v += r
		}
	}
	v = applyActivation(v, a)
	if rd != nil && postAct {
		v += r
	}
	return v
}

// dequant returns what turns channel co's int32 accumulator into a real
// value: v*scale + bias.
func (s *convSink[O, R]) dequant(co int) (scale, bias float32) {
	if s.bias != nil {
		bias = s.bias[co]
	}
	return s.inScale * s.wscale[co], bias
}

// convDirect is the boundary-hoisted direct loop for fp32 and fp16
// storage. wd holds OIHW float32 weights (rounded through binary16 at plan
// time for fp16, so only the input taps decode here).
func convDirect[S convElem, O convOut, R convElem](sink *convSink[O, R], ind []S, wd []float32, w ConvWorkload) {
	oh, ow := w.OutH(), w.OutW()
	_, cinPerG, coutPerG, _ := w.gemmDims()
	held := *sink // closures take the sink by value: the caller's stays on its stack

	parallelFor(w.N*w.COut, func(job int) {
		s := held
		n := job / w.COut
		co := job % w.COut
		ciBase := co / coutPerG * cinPerG
		var b float32
		if s.bias != nil {
			b = s.bias[co]
		}
		for y := 0; y < oh; y++ {
			iy0 := y*w.StrideH - w.PadH
			ky0, ky1 := clampKernelRange(iy0, w.H, w.KH)
			for x := 0; x < ow; x++ {
				ix0 := x*w.StrideW - w.PadW
				kx0, kx1 := clampKernelRange(ix0, w.W, w.KW)
				sum := b
				for ci := 0; ci < cinPerG; ci++ {
					wBase := ((co * cinPerG) + ci) * w.KH * w.KW
					iBase := (n*w.CIn+ciBase+ci)*w.H*w.W + ix0
					for ky := ky0; ky < ky1; ky++ {
						iRow := iBase + (iy0+ky)*w.W
						wRow := wBase + ky*w.KW
						for kx := kx0; kx < kx1; kx++ {
							e := ind[iRow+kx]
							f := float32(e)
							if unsafe.Sizeof(e) == 2 {
								f = tensor.F16Decode(uint16(e))
							}
							sum += f * wd[wRow+kx]
						}
					}
				}
				oi := ((n*w.COut+co)*oh+y)*ow + x
				s.out[oi] = narrow[O](convEpilogue(sum, s.res, oi, s.act, s.postAct))
			}
		}
	})
}

// clampKernelRange returns the half-open range [k0,k1) of kernel taps k, 0 <=
// k0 <= k1 <= kext, for which base+k lands inside [0,size).
func clampKernelRange(base, size, kext int) (int, int) {
	k0 := min(max(0, -base), kext)
	return k0, max(k0, min(kext, size-base))
}

func applyActivation(v float32, a Activation) float32 {
	switch a {
	case ActReLU:
		if v < 0 {
			return 0
		}
	case ActLeakyReLU:
		if v < 0 {
			return LeakyAlpha * v
		}
	}
	return v
}

// parallelFor runs jobs [0,n) across the cores this process may use:
// GOMAXPROCS, which a CPU quota lowers, not the node's core count. Workers
// claim jobs off an atomic counter: O(workers) setup, no O(n) channel sends.
func parallelFor(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var q struct { // one heap object for all that the workers share
		next atomic.Int64
		wg   sync.WaitGroup
	}
	worker := func() {
		defer q.wg.Done()
		for i := int(q.next.Add(1)) - 1; i < n; i = int(q.next.Add(1)) - 1 {
			f(i)
		}
	}
	q.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	q.wg.Wait()
}

// Dense computes out[n,o] = sum_i in[n,i]*W[o,i] + bias[o].
func Dense(in, weight, bias *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape()[0], weight.Shape()[0])
	DenseInto(out, in, weight, bias)
	return out
}

// DenseInto is Dense computing into a caller-provided (N, O) tensor.
func DenseInto(out, in, weight, bias *tensor.Tensor) {
	DenseActInto(out, in, weight, bias, ActNone)
}

// DenseActInto is DenseInto with a fused activation epilogue: the
// activation is applied to each finished accumulator exactly as a separate
// elementwise pass would, so fusing it is bit-preserving.
func DenseActInto(out, in, weight, bias *tensor.Tensor, act Activation) {
	n := in.Shape()[0]
	k := in.Shape()[1]
	o := weight.Shape()[0]
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}
	if !allFloat32(out, in, weight) {
		// Reduced-precision operands (in practice the fp16 weight matrix a
		// quantized graph carries) are widened a run at a time; the products
		// still accumulate in ascending i from the bias.
		parallelFor(n*o, func(job int) {
			ni, oi := job/o, job%o
			var sum float32
			if bd != nil {
				sum = bd[oi]
			}
			var xs, ws [typedRun]float32
			for i := 0; i < k; i += typedRun {
				c := min(typedRun, k-i)
				in.LoadF(xs[:c], ni*k+i)
				weight.LoadF(ws[:c], oi*k+i)
				for j, x := range xs[:c] {
					sum += x * ws[j]
				}
			}
			out.SetF(ni*o+oi, applyActivation(sum, act))
		})
		return
	}
	// Four output neurons per job, so four independent chains, each still its
	// bias plus its products in ascending i; a row's last block repeats o-1.
	ind, wd, od := in.Data(), weight.Data(), out.Data()
	blocks := (o + 3) / 4
	parallelFor(n*blocks, func(job int) {
		ni, o0 := job/blocks, job%blocks*4
		o1, o2, o3 := min(o0+1, o-1), min(o0+2, o-1), min(o0+3, o-1)
		var s0, s1, s2, s3 float32
		if bd != nil {
			s0, s1, s2, s3 = bd[o0], bd[o1], bd[o2], bd[o3]
		}
		w0, w1, w2, w3 := wd[o0*k:][:k], wd[o1*k:][:k], wd[o2*k:][:k], wd[o3*k:][:k]
		for i, x := range ind[ni*k:][:k] {
			s0 += x * w0[i]
			s1 += x * w1[i]
			s2 += x * w2[i]
			s3 += x * w3[i]
		}
		od[ni*o+o0], od[ni*o+o1] = applyActivation(s0, act), applyActivation(s1, act)
		od[ni*o+o2], od[ni*o+o3] = applyActivation(s2, act), applyActivation(s3, act)
	})
}
