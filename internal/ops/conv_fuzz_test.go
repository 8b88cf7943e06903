package ops

import (
	"testing"

	"unigpu/internal/tensor"
)

// convFuzzCase is the bytes FuzzConvGEMMvsDirect draws, which pick a legal
// workload: channels per group (output channels cross the 16-row panel and
// the channel routine's 64-channel block),
// groups, kernel, stride, padding (beyond the kernel too) and a plane down
// to 1x1. The top bit of groups makes the workload depthwise instead
// (Groups == CIn == COut, 2..7 channels, strides 1..3).
type convFuzzCase struct {
	cin, cout, groups, kh, kw, sh, sw, ph, pw, h, wd, mode uint8
	seed                                                   int64
}

// convFuzzSeeds are the in-code seeds: a grouped and a plain workload, and
// depthwise ones at stride 1 and 2 (padded, biased, activated, residual);
// then the ones that land on the channel routine (chanFuzzSeeds).
var convFuzzSeeds = []convFuzzCase{
	{2, 16, 0, 2, 2, 0, 0, 1, 1, 7, 7, 0, 1},
	{4, 32, 0, 0, 0, 1, 1, 0, 0, 0, 0, 7, 2},
	{5, 0, 128, 2, 2, 0, 0, 1, 1, 8, 8, 11, 3},
	{3, 0, 130, 2, 2, 1, 1, 1, 1, 9, 6, 21, 4},
	// 3x3 pad 1 over a 1x1 input, 8 channels per group, biased
	{3, 7, 0, 2, 2, 0, 0, 1, 1, 0, 0, 1, 5},
	// 3x3 stride 2 over a 2x2 input, 16 channels, ReLU
	{5, 15, 0, 2, 2, 1, 1, 1, 1, 1, 1, 3, 6},
	// 2x2 outputs of 20 channels, residual before the activation
	{2, 19, 0, 2, 2, 0, 0, 1, 1, 1, 1, 9, 7},
	// 84 channels (a 64-channel block and a 20-channel tail), leaky, residual after it
	{4, 83, 0, 2, 2, 0, 0, 1, 1, 0, 0, 21, 8},
	// two groups over a 1x2 input
	{1, 7, 1, 2, 2, 0, 0, 1, 1, 0, 1, 1, 9},
	// N = 2, three groups, 2x2 outputs at stride 2
	{3, 15, 2, 2, 2, 1, 1, 1, 1, 2, 2, 65, 10},
}

// chanFuzzSeeds is where in convFuzzSeeds the channel routine's seeds start.
const chanFuzzSeeds = 4

// workload is the legal workload the case's bytes pick.
func (c convFuzzCase) workload() ConvWorkload {
	g := 1 + int(c.groups)%3
	w := ConvWorkload{N: 1 + int(c.mode>>6)%2, CIn: g * (1 + int(c.cin)%6), COut: g * (1 + int(c.cout)%97), Groups: g,
		H: 1 + int(c.h)%12, W: 1 + int(c.wd)%12, KH: 1 + int(c.kh)%5, KW: 1 + int(c.kw)%5,
		StrideH: 1 + int(c.sh)%3, StrideW: 1 + int(c.sw)%3, PadH: int(c.ph) % 7, PadW: int(c.pw) % 7,
		HasBias: c.mode&1 != 0, FusedActivation: Activation(int(c.mode>>1) % 3)}
	if c.groups >= 128 {
		w.Groups = 2 + int(c.cin)%6
		w.CIn, w.COut = w.Groups, w.Groups
	}
	return w
}

// check holds the case's workload to the fuzz target's contract.
func (c convFuzzCase) check(t *testing.T) {
	w := c.workload()
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
	gemm := run(PrepareConv(w, KernelGEMM, weight), in)
	sameBits(t, "fp32 gemm vs direct "+w.Key(), gemm, run(PrepareConv(w, KernelDirect, weight), in))
	raw := w
	raw.FusedActivation = ActNone
	sums, unpacked := tensor.New(w.N, w.COut, w.OutH(), w.OutW()), tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	Conv2DInto(sums, in, weight, bias, raw)
	epilogueRef(unpacked, sums, res, w.FusedActivation, postAct)
	sameBits(t, "fp32 gemm vs unpacked Conv2DInto "+w.Key(), gemm, unpacked)

	in16 := tensor.Convert(in, tensor.Float16, 0)
	sameBits(t, "fp16 gemm vs direct "+w.Key(),
		run(PrepareConvDType(w, KernelGEMM, weight, tensor.Float16), in16), run(PrepareConvDType(w, KernelDirect, weight, tensor.Float16), in16))

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
// im2col-GEMM must equal the prepared direct kernel (the row loop, or on a
// short plane the channel routine) bit for bit at fp32 and fp16, and the
// unpacked Conv2DInto (whose short planes take convPixels) at fp32; both
// int8 kernels (the GEMM, and on a depthwise workload the
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

// TestChannelFuzzSeeds: the seeds meant for the channel routine reach it.
func TestChannelFuzzSeeds(t *testing.T) {
	for _, c := range convFuzzSeeds[chanFuzzSeeds:] {
		w := c.workload()
		if _, weight, _ := convInputs(w, c.seed); !PrepareConv(w, KernelDirect, weight).ChannelRoutine() {
			t.Errorf("seed %v (%s) does not take the channel routine", c, w.Key())
		}
	}
}
