package ops

import (
	"unsafe"

	"unigpu/internal/tensor"
)

// Conv2DDepthwise computes a depthwise convolution (Groups == CIn == COut),
// one filter per channel. It avoids the grouped general path's per-group
// channel arithmetic entirely: each (n, c) job reads one input plane and one
// KHxKW filter.
func Conv2DDepthwise(in, weight, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	Conv2DDepthwiseInto(out, in, weight, bias, w)
	return out
}

// Conv2DDepthwiseInto is Conv2DDepthwise computing into a caller-provided
// (N, COut, OutH, OutW) tensor. Taps accumulate in ascending (ky, kx) order
// with the bias as the initial value, so results are bit-identical to the
// direct kernel.
func Conv2DDepthwiseInto(out, in, weight, bias *tensor.Tensor, w ConvWorkload) {
	convDepthwise[float32](&convSink[float32, float32]{out: out.Data(), bias: biasData(bias), act: w.FusedActivation},
		in.Data(), weight.Data(), w)
}

// convDepthwise is the depthwise kernel for every storage dtype: wd holds
// one k-contiguous KHxKW filter per channel, float32 (rounded through
// binary16 at plan time for fp16) or int8 codes. Float accumulators start
// from the bias; int32 accumulators start from zero and take the same
// dequantize epilogue as the int8 GEMM, so the int8 result is the grouped
// GEMM's integer sum bit for bit.
func convDepthwise[A gemmAcc, S convElem, W gemmElem, O convOut, R convElem](sink *convSink[O, R], ind []S, wd []W, w ConvWorkload) {
	held := *sink
	parallelFor(w.N*w.COut, func(job int) {
		s := held
		depthwisePlane[A](&s, ind, wd, w, job)
	})
}

// depthwisePlane computes output plane job = n*COut + c.
func depthwisePlane[A gemmAcc, S convElem, W gemmElem, O convOut, R convElem](s *convSink[O, R], ind []S, wd []W, w ConvWorkload, job int) {
	oh, ow := w.OutH(), w.OutW()
	c := job % w.COut
	var start A
	var scale, b float32
	if s.wscale != nil {
		scale, b = s.dequant(c)
	} else if s.bias != nil {
		start = A(s.bias[c])
	}
	wBase := c * w.KH * w.KW
	iPlane := (job/w.COut*w.CIn + c) * w.H * w.W
	for y := 0; y < oh; y++ {
		iy0 := y*w.StrideH - w.PadH
		ky0, ky1 := clampKernelRange(iy0, w.H, w.KH)
		for x := 0; x < ow; x++ {
			ix0 := x*w.StrideW - w.PadW
			kx0, kx1 := clampKernelRange(ix0, w.W, w.KW)
			sum := start
			iBase := iPlane + ix0
			for ky := ky0; ky < ky1; ky++ {
				iRow := iBase + (iy0+ky)*w.W
				wRow := wBase + ky*w.KW
				for kx := kx0; kx < kx1; kx++ {
					e := ind[iRow+kx]
					f := A(e)
					if unsafe.Sizeof(e) == 2 {
						f = A(tensor.F16Decode(uint16(e)))
					}
					sum += f * A(wd[wRow+kx])
				}
			}
			v := float32(sum)
			if s.wscale != nil {
				v = v*scale + b
			}
			oi := (job*oh+y)*ow + x
			s.out[oi] = narrow[O](convEpilogue(v, s.res, oi, s.act, s.postAct))
		}
	}
}
