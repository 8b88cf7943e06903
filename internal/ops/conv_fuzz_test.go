package ops

import (
	"testing"

	"unigpu/internal/tensor"
)

// convFuzzCase is the bytes FuzzConvGEMMvsDirect draws, which pick a legal
// workload: channels per group (output channels cross the 16-row panel),
// groups, kernel, stride, padding (beyond the kernel too) and a plane down
// to 1x1. The top bit of groups makes the workload depthwise instead
// (Groups == CIn == COut, 2..7 channels, strides 1..3).
type convFuzzCase struct {
	cin, cout, groups, kh, kw, sh, sw, ph, pw, h, wd, mode uint8
	seed                                                   int64
}

// convFuzzSeeds are the in-code seeds: a grouped and a plain workload, and
// depthwise ones at stride 1 and 2 (padded, biased, activated, residual).
var convFuzzSeeds = []convFuzzCase{
	{2, 16, 0, 2, 2, 0, 0, 1, 1, 7, 7, 0, 1},
	{4, 32, 0, 0, 0, 1, 1, 0, 0, 0, 0, 7, 2},
	{5, 0, 128, 2, 2, 0, 0, 1, 1, 8, 8, 11, 3},
	{3, 0, 130, 2, 2, 1, 1, 1, 1, 9, 6, 21, 4},
}

// check holds the case's workload to the fuzz target's contract.
func (c convFuzzCase) check(t *testing.T) {
	g := 1 + int(c.groups)%3
	w := ConvWorkload{N: 1 + int(c.mode>>6)%2, CIn: g * (1 + int(c.cin)%6), COut: g * (1 + int(c.cout)%37), Groups: g,
		H: 1 + int(c.h)%12, W: 1 + int(c.wd)%12, KH: 1 + int(c.kh)%5, KW: 1 + int(c.kw)%5,
		StrideH: 1 + int(c.sh)%3, StrideW: 1 + int(c.sw)%3, PadH: int(c.ph) % 7, PadW: int(c.pw) % 7,
		HasBias: c.mode&1 != 0, FusedActivation: Activation(int(c.mode>>1) % 3)}
	if c.groups >= 128 {
		w.Groups = 2 + int(c.cin)%6
		w.CIn, w.COut = w.Groups, w.Groups
	}
	if w.OutH() < 1 || w.OutW() < 1 {
		t.Skip("kernel larger than the padded plane")
	}
	in, weight, bias := convInputs(w, c.seed)
	var res *tensor.Tensor
	postAct := c.mode>>3&3 == 2
	if c.mode>>3&3 != 0 {
		res = randT(c.seed+3, w.N, w.COut, w.OutH(), w.OutW())
	}
	run := func(p *PreparedConv, in *tensor.Tensor) *tensor.Tensor {
		out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
		s32, s8 := poisoned(p)
		p.RunIntoEpilogue(out, in, bias, res, s32, s8, postAct)
		return out
	}
	sameBits(t, "fp32 gemm vs direct "+w.Key(),
		run(PrepareConv(w, KernelGEMM, weight), in), run(PrepareConv(w, KernelDirect, weight), in))

	in8 := tensor.Convert(in, tensor.Int8, 0)
	q, wscale := quantizeConvWeights(weight, w)
	want := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	epilogueRef(want, naiveConvInt8(in8, q, wscale, bias, w), res, w.FusedActivation, postAct)
	sameBits(t, "int8 gemm vs integer reference "+w.Key(),
		run(PrepareConvDType(w, KernelGEMM, weight, tensor.Int8), in8), want)
	if w.IsDepthwise() {
		sameBits(t, "int8 depthwise vs integer reference "+w.Key(),
			run(PrepareConvDType(w, KernelDepthwise, weight, tensor.Int8), in8), want)
	}
}

// FuzzConvGEMMvsDirect: on any legal workload, depthwise ones included, the
// im2col-GEMM must equal the row loop behind the direct kernel bit for bit
// at fp32, and both int8 kernels (the GEMM, and on a depthwise workload the
// row loop on int32 accumulators) the integer reference, through the fused
// residual epilogue in either order.
func FuzzConvGEMMvsDirect(f *testing.F) {
	for _, c := range convFuzzSeeds {
		f.Add(c.cin, c.cout, c.groups, c.kh, c.kw, c.sh, c.sw, c.ph, c.pw, c.h, c.wd, c.mode, c.seed)
	}
	f.Fuzz(func(t *testing.T, cin, cout, groups, kh, kw, sh, sw, ph, pw, h, wd, mode uint8, seed int64) {
		convFuzzCase{cin, cout, groups, kh, kw, sh, sw, ph, pw, h, wd, mode, seed}.check(t)
	})
}
