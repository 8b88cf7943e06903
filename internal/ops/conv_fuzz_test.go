package ops

import (
	"testing"

	"unigpu/internal/tensor"
)

// FuzzConvGEMMvsDirect: on any legal workload the im2col-GEMM must equal
// the direct kernel bit for bit at fp32 and the integer reference at int8,
// through the fused residual epilogue in either order. The bytes pick the
// shape: channels per group (output channels cross the 16-row panel),
// groups, kernel, stride, padding (beyond the kernel too) and a plane down
// to 1x1.
func FuzzConvGEMMvsDirect(f *testing.F) {
	f.Add(uint8(2), uint8(16), uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(1), uint8(1), uint8(7), uint8(7), uint8(0), int64(1))
	f.Add(uint8(4), uint8(32), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(7), int64(2))
	f.Fuzz(func(t *testing.T, cin, cout, groups, kh, kw, sh, sw, ph, pw, h, wd, mode uint8, seed int64) {
		g := 1 + int(groups)%3
		w := ConvWorkload{N: 1 + int(mode>>6)%2, CIn: g * (1 + int(cin)%6), COut: g * (1 + int(cout)%37), Groups: g,
			H: 1 + int(h)%12, W: 1 + int(wd)%12, KH: 1 + int(kh)%5, KW: 1 + int(kw)%5,
			StrideH: 1 + int(sh)%3, StrideW: 1 + int(sw)%3, PadH: int(ph) % 7, PadW: int(pw) % 7,
			HasBias: mode&1 != 0, FusedActivation: Activation(int(mode>>1) % 3)}
		if w.OutH() < 1 || w.OutW() < 1 {
			t.Skip("kernel larger than the padded plane")
		}
		in, weight, bias := convInputs(w, seed)
		var res *tensor.Tensor
		postAct := mode>>3&3 == 2
		if mode>>3&3 != 0 {
			res = randT(seed+3, w.N, w.COut, w.OutH(), w.OutW())
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
	})
}
