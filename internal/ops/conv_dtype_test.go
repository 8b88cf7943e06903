package ops

import (
	"fmt"
	"math"
	"testing"

	"unigpu/internal/tensor"
)

// dtypeConvCases are the workload shapes the fp16/int8 kernels are
// cross-checked on: pointwise, padded 3x3, strided, depthwise, grouped,
// and the fused residual epilogue.
func dtypeConvCases() []ConvWorkload {
	return []ConvWorkload{
		{N: 1, CIn: 8, COut: 12, H: 9, W: 9, KH: 1, KW: 1, StrideH: 1, StrideW: 1, HasBias: true},
		{N: 2, CIn: 6, COut: 10, H: 8, W: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			HasBias: true, FusedActivation: ActReLU},
		{N: 1, CIn: 5, COut: 7, H: 11, W: 7, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1,
			HasBias: true, FusedActivation: ActLeakyReLU},
		{N: 1, CIn: 8, COut: 8, H: 7, W: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Groups: 8, HasBias: true, FusedActivation: ActReLU},
		{N: 1, CIn: 8, COut: 12, H: 6, W: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Groups: 2, HasBias: true},
		{N: 1, CIn: 4, COut: 6, H: 10, W: 10, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2,
			HasBias: true},
	}
}

// refMaxAbs is the normalization scale for relative-error checks.
func refMaxAbs(t *tensor.Tensor) float64 {
	m := 0.0
	for i := 0; i < t.Size(); i++ {
		if v := math.Abs(float64(t.GetF(i))); v > m {
			m = v
		}
	}
	if m == 0 {
		return 1
	}
	return m
}

// crossCheck runs the dtype kernel against the frozen fp32 reference and
// fails when the normalized error exceeds tol.
func crossCheck(t *testing.T, w ConvWorkload, dt tensor.DType, residual bool, tol float64) {
	t.Helper()
	in, weight, bias := convInputs(w, 31)
	var res *tensor.Tensor
	if residual {
		res = randT(37, w.N, w.COut, w.OutH(), w.OutW())
	}

	// fp32 reference through the same prepared-kernel entry point.
	ref := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	pref := PrepareConvDType(w, KernelAuto, weight, tensor.Float32)
	pref.RunIntoEpilogue(ref, in, bias, res, make([]float32, pref.ScratchElems()), nil, false)

	p := PrepareConvDType(w, KernelAuto, weight, dt)
	if p.DType() != dt {
		t.Fatalf("prepared dtype %v, want %v", p.DType(), dt)
	}
	tin := tensor.Convert(in, dt, 0)
	out := tensor.NewTyped(tensor.Float16, w.N, w.COut, w.OutH(), w.OutW())
	var scratch8 []int8
	if p.ScratchDType() == tensor.Int8 {
		scratch8 = make([]int8, p.ScratchElems())
	}
	p.RunIntoEpilogue(out, tin, bias, res, make([]float32, p.ScratchElems()), scratch8, false)

	scale := refMaxAbs(ref)
	worst := 0.0
	for i := 0; i < ref.Size(); i++ {
		if d := math.Abs(float64(out.GetF(i)-ref.GetF(i))) / scale; d > worst {
			worst = d
		}
	}
	if worst > tol {
		t.Errorf("%v %s residual=%v: max normalized error %.3e exceeds %.1e (kernel %s)",
			w, dt, residual, worst, tol, p.Kernel())
	}
}

// TestConvFP16CrossCheck: fp16-storage convolutions (fp32 accumulate)
// must stay within half-precision rounding of the fp32 reference.
func TestConvFP16CrossCheck(t *testing.T) {
	for _, w := range dtypeConvCases() {
		crossCheck(t, w, tensor.Float16, false, 1e-2)
		crossCheck(t, w, tensor.Float16, true, 1e-2)
	}
}

// TestConvInt8CrossCheck: symmetric int8 with per-channel weight scales
// must stay within the coarser quantization budget.
func TestConvInt8CrossCheck(t *testing.T) {
	for _, w := range dtypeConvCases() {
		crossCheck(t, w, tensor.Int8, false, 0.08)
		crossCheck(t, w, tensor.Int8, true, 0.08)
	}
}

// TestPackConvWeightsInt8Scales: every output channel's scale covers its
// own max |w|, so no weight saturates when quantized with it, and the int8
// row panels are those codes, 16 channels to a panel, zero in padded rows.
func TestPackConvWeightsInt8Scales(t *testing.T) {
	w := ConvWorkload{N: 1, CIn: 6, COut: 9, H: 5, W: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	_, weight, _ := convInputs(w, 53)
	q, scales := quantizeConvWeights(weight, w)
	if len(scales) != w.COut {
		t.Fatalf("got %d scales, want %d", len(scales), w.COut)
	}
	wd := weight.Data()
	k := w.CIn * w.KH * w.KW
	for co := 0; co < w.COut; co++ {
		m := 0.0
		for i := 0; i < k; i++ {
			if v := math.Abs(float64(wd[co*k+i])); v > m {
				m = v
			}
		}
		if got, want := scales[co], tensor.Int8Scale(m); got != want {
			t.Errorf("channel %d scale %g, want %g", co, got, want)
		}
	}
	packed := PrepareConvDType(w, KernelGEMM, weight, tensor.Int8).wq
	if len(packed) != roundUp(w.COut, gemmMR)*k {
		t.Fatalf("packed %d codes, want %d", len(packed), roundUp(w.COut, gemmMR)*k)
	}
	for i, got := range packed {
		co, kk := i/(k*gemmMR)*gemmMR+i%gemmMR, i/gemmMR%k
		var want int8 // padded rows
		if co < w.COut {
			want = q[co*k+kk]
		}
		if got != want {
			t.Fatalf("packed[%d] (channel %d, k %d) = %d, want %d", i, co, kk, got, want)
		}
	}
}

// TestElementwiseTypedPaths: the generic guard paths of the elementwise
// kernels must agree with the fp32 fast paths within half rounding when
// tensors ride fp16 carriers.
func TestElementwiseTypedPaths(t *testing.T) {
	a := randT(61, 2, 4, 5, 5)
	b := randT(62, 2, 4, 5, 5)
	ah := tensor.Convert(a, tensor.Float16, 0)
	bh := tensor.Convert(b, tensor.Float16, 0)

	want := tensor.New(2, 4, 5, 5)
	AddInto(want, a, b)
	got := tensor.NewTyped(tensor.Float16, 2, 4, 5, 5)
	AddInto(got, ah, bh)
	for i := 0; i < want.Size(); i++ {
		if d := math.Abs(float64(got.GetF(i) - want.GetF(i))); d > 1e-2 {
			t.Fatalf("AddInto fp16 elem %d: %g vs %g", i, got.GetF(i), want.GetF(i))
		}
	}

	wantR := tensor.New(2, 4, 5, 5)
	ReLUInto(wantR, a)
	gotR := tensor.NewTyped(tensor.Float16, 2, 4, 5, 5)
	ReLUInto(gotR, ah)
	for i := 0; i < wantR.Size(); i++ {
		if d := math.Abs(float64(gotR.GetF(i) - wantR.GetF(i))); d > 1e-2 {
			t.Fatalf("ReLUInto fp16 elem %d: %g vs %g", i, gotR.GetF(i), wantR.GetF(i))
		}
	}
}

// sameBits fails unless got and want agree bit for bit in every element
// (both widened through GetF, which is exact for fp16).
func sameBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i := 0; i < want.Size(); i++ {
		if g, w := math.Float32bits(got.GetF(i)), math.Float32bits(want.GetF(i)); g != w {
			t.Fatalf("%s: elem %d is %#08x (%g), want %#08x (%g)", name, i, g, got.GetF(i), w, want.GetF(i))
		}
	}
}

// epilogueRef applies the fused epilogue to raw (bias-included, not yet
// activated) conv sums one element at a time through GetF/SetF, in the
// documented order: residual before the activation, or after it.
func epilogueRef(out, sums, res *tensor.Tensor, act Activation, postAct bool) {
	for i := 0; i < sums.Size(); i++ {
		v := sums.GetF(i)
		if res != nil && !postAct {
			v += res.GetF(i)
		}
		v = applyActivation(v, act)
		if res != nil && postAct {
			v += res.GetF(i)
		}
		out.SetF(i, v)
	}
}

// poisoned returns scratch buffers filled with values a kernel must never
// read back: every panel element is to be written before use.
func poisoned(p *PreparedConv) ([]float32, []int8) {
	s32 := make([]float32, p.ScratchElems())
	s8 := make([]int8, p.ScratchElems())
	for i := range s32 {
		s32[i], s8[i] = -1e30, -77
	}
	return s32, s8
}

// epilogueVariants enumerates output storage x residual storage x
// residual order, the axes the one row writer is generic over.
func epilogueVariants(t *testing.T, w ConvWorkload, run func(name string, out, res *tensor.Tensor, postAct bool)) {
	shape := []int{w.N, w.COut, w.OutH(), w.OutW()}
	for _, odt := range []tensor.DType{tensor.Float16, tensor.Float32} {
		for _, rdt := range []tensor.DType{tensor.Float32, tensor.Float16} {
			for _, mode := range []string{"none", "pre-act", "post-act"} {
				if mode == "none" && rdt == tensor.Float16 {
					continue
				}
				var res *tensor.Tensor
				if mode != "none" {
					res = tensor.Convert(randT(37, shape...), rdt, 0)
				}
				out := tensor.NewTyped(odt, shape...)
				out.Fill(-123)
				run(fmt.Sprintf("out=%s res=%s/%s", odt, rdt, mode), out, res, mode == "post-act")
			}
		}
	}
}

// TestFP16KernelsAreFP32OnRoundedOperands pins what "widen once, narrow
// once" means: over fp16 storage every kernel (direct, depthwise, the
// unified im2col packer + GEMM) must produce exactly the naive fp32 loop's
// sums over operands rounded through binary16, finished by the epilogue
// and narrowed once to the output's storage type. Edge shapes cover odd
// channels per group, pad > kernel, stride 2, and tail rows/cols of the
// 4x4 microtile.
func TestFP16KernelsAreFP32OnRoundedOperands(t *testing.T) {
	for i, w := range append(kernelEdgeCases(), dtypeConvCases()...) {
		in, weight, bias := convInputs(w, int64(700+i))
		in16 := tensor.Convert(in, tensor.Float16, 0)
		rin, rweight := tensor.Convert(in16, tensor.Float32, 0), tensor.FromData(f16Rounded(weight.Data()), weight.Shape()...)
		raw := w
		raw.FusedActivation = ActNone
		sums := naiveConv2D(rin, rweight, bias, raw)
		for _, k := range []ConvKernel{KernelDirect, KernelDepthwise, KernelGEMM} {
			if !KernelSupported(k, w) {
				continue
			}
			p := PrepareConvDType(w, k, weight, tensor.Float16)
			if p.Kernel() != k {
				t.Fatalf("%s: prepared %v, want %v", w.Key(), p.Kernel(), k)
			}
			epilogueVariants(t, w, func(name string, out, res *tensor.Tensor, postAct bool) {
				want := tensor.NewTyped(out.DType(), out.Shape()...)
				epilogueRef(want, sums, res, w.FusedActivation, postAct)
				s32, s8 := poisoned(p)
				p.RunIntoEpilogue(out, in16, bias, res, s32, s8, postAct)
				sameBits(t, fmt.Sprintf("%s %s %s", w.Key(), k, name), out, want)
			})
		}
	}
}

// naiveConvInt8 is the integer reference of the quantized kernels: int32
// sums of input codes times weight codes in any order (integer addition is
// exact), dequantized as float32(sum)*(inScale*wscale[co]) + bias.
func naiveConvInt8(in *tensor.Tensor, q []int8, wscale []float32, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	_, cinPerG, coutPerG, k := w.gemmDims()
	ind := in.Int8Data()
	for n := 0; n < w.N; n++ {
		for co := 0; co < w.COut; co++ {
			ciBase := co / coutPerG * cinPerG
			for y := 0; y < w.OutH(); y++ {
				for x := 0; x < w.OutW(); x++ {
					var sum int32
					for ci := 0; ci < cinPerG; ci++ {
						for ky := 0; ky < w.KH; ky++ {
							for kx := 0; kx < w.KW; kx++ {
								iy, ix := y*w.StrideH-w.PadH+ky, x*w.StrideW-w.PadW+kx
								if iy < 0 || iy >= w.H || ix < 0 || ix >= w.W {
									continue
								}
								sum += int32(ind[((n*w.CIn+ciBase+ci)*w.H+iy)*w.W+ix]) *
									int32(q[co*k+(ci*w.KH+ky)*w.KW+kx])
							}
						}
					}
					var b float32
					if bias != nil {
						b = bias.Data()[co]
					}
					out.Data()[((n*w.COut+co)*w.OutH()+y)*w.OutW()+x] = float32(sum)*(in.Scale()*wscale[co]) + b
				}
			}
		}
	}
	return out
}

// TestInt8KernelsMatchIntegerReference: the int8 GEMM (unified packer,
// int32 tile) and the int8 depthwise loop must both equal the integer
// reference bit for bit, hence each other: on a depthwise workload the
// direct loop is the grouped GEMM's integer sum.
func TestInt8KernelsMatchIntegerReference(t *testing.T) {
	for i, w := range append(kernelEdgeCases(), dtypeConvCases()...) {
		in, weight, bias := convInputs(w, int64(900+i))
		in8 := tensor.Convert(in, tensor.Int8, 0)
		q, wscale := quantizeConvWeights(weight, w)
		sums := naiveConvInt8(in8, q, wscale, bias, w)
		for _, k := range []ConvKernel{KernelGEMM, KernelDepthwise} {
			if !KernelSupported(k, w) {
				continue
			}
			p := PrepareConvDType(w, k, weight, tensor.Int8)
			if p.Kernel() != k {
				t.Fatalf("%s: prepared %v, want %v", w.Key(), p.Kernel(), k)
			}
			epilogueVariants(t, w, func(name string, out, res *tensor.Tensor, postAct bool) {
				want := tensor.NewTyped(out.DType(), out.Shape()...)
				epilogueRef(want, sums, res, w.FusedActivation, postAct)
				s32, s8 := poisoned(p)
				p.RunIntoEpilogue(out, in8, bias, res, s32, s8, postAct)
				sameBits(t, fmt.Sprintf("%s %s %s", w.Key(), k, name), out, want)
			})
		}
	}
	// Direct has no int8 form: it resolves to the GEMM.
	w := dtypeConvCases()[1]
	_, weight, _ := convInputs(w, 1)
	for _, k := range []ConvKernel{KernelDirect, KernelGEMM} {
		if got := PrepareConvDType(w, k, weight, tensor.Int8).Kernel(); got != KernelGEMM {
			t.Errorf("int8 %v resolved to %v, want gemm", k, got)
		}
	}
}

// TestFP32EpilogueVariants: fp32 kernels writing through the same generic
// row writer (fp16 output carriers, fp16 residuals) still finish the naive
// loop's sums in the documented order.
func TestFP32EpilogueVariants(t *testing.T) {
	for i, w := range kernelEdgeCases() {
		in, weight, bias := convInputs(w, int64(1100+i))
		raw := w
		raw.FusedActivation = ActNone
		sums := naiveConv2D(in, weight, bias, raw)
		for _, k := range ConvKernels {
			if !KernelSupported(k, w) {
				continue
			}
			p := PrepareConv(w, k, weight)
			epilogueVariants(t, w, func(name string, out, res *tensor.Tensor, postAct bool) {
				want := tensor.NewTyped(out.DType(), out.Shape()...)
				epilogueRef(want, sums, res, w.FusedActivation, postAct)
				s32, _ := poisoned(p)
				p.RunIntoEpilogue(out, in, bias, res, s32, nil, postAct)
				sameBits(t, fmt.Sprintf("%s %s %s", w.Key(), k, name), out, want)
			})
		}
	}
}

// TestTypedFallbacksMatchElementAccess: the reduced-precision paths of the
// elementwise, fused, concat, upsample, pooling and dense kernels work on
// widened runs; each must equal the GetF/SetF loop it replaced bit for
// bit, with sizes that straddle the run length.
func TestTypedFallbacksMatchElementAccess(t *testing.T) {
	half := func(seed int64, shape ...int) *tensor.Tensor {
		return tensor.Convert(randT(seed, shape...), tensor.Float16, 0)
	}
	elementwise := func(name string, into func(out, in *tensor.Tensor), f func(v float32) float32) {
		for _, odt := range []tensor.DType{tensor.Float16, tensor.Float32, tensor.Int8} {
			in := half(71, 2, 3, 11, 13)
			out, want := tensor.NewTyped(odt, 2, 3, 11, 13), tensor.NewTyped(odt, 2, 3, 11, 13)
			out.SetScale(1.0 / 64)
			want.SetScale(1.0 / 64)
			into(out, in)
			for i := 0; i < in.Size(); i++ {
				want.SetF(i, f(in.GetF(i)))
			}
			sameBits(t, name+" -> "+odt.String(), out, want)
		}
	}
	elementwise("relu", ReLUInto, func(v float32) float32 { return applyActivation(v, ActReLU) })
	elementwise("leaky", func(out, in *tensor.Tensor) { LeakyReLUInto(out, in, 0.3) },
		func(v float32) float32 {
			if v < 0 {
				return 0.3 * v
			}
			return v
		})
	elementwise("sigmoid", SigmoidInto, func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) })

	a, b := half(72, 1, 5, 9, 17), randT(73, 1, 5, 9, 17) // mixed fp16 + fp32 operands
	sum, wantSum := tensor.NewTyped(tensor.Float16, 1, 5, 9, 17), tensor.NewTyped(tensor.Float16, 1, 5, 9, 17)
	AddInto(sum, a, b)
	for i := 0; i < a.Size(); i++ {
		wantSum.SetF(i, a.GetF(i)+b.GetF(i))
	}
	sameBits(t, "add", sum, wantSum)

	stages := []ElementwiseStage{{Kind: EwAdd}, {Kind: EwLeakyReLU, Alpha: 0.2}, {Kind: EwAdd}, {Kind: EwSigmoid}, {Kind: EwReLU}}
	fused, wantFused := tensor.NewTyped(tensor.Float16, 1, 5, 9, 17), tensor.NewTyped(tensor.Float16, 1, 5, 9, 17)
	FusedElementwiseInto(fused, a, []*tensor.Tensor{b, a}, stages)
	for i := 0; i < a.Size(); i++ {
		v := a.GetF(i) + b.GetF(i)
		if v < 0 {
			v = 0.2 * v
		}
		v = float32(1 / (1 + math.Exp(-float64(v+a.GetF(i)))))
		wantFused.SetF(i, applyActivation(v, ActReLU))
	}
	sameBits(t, "fused elementwise", fused, wantFused)

	c1, c2 := half(74, 2, 3, 10, 29), randT(75, 2, 4, 10, 29)
	cat, wantCat := tensor.NewTyped(tensor.Float16, 2, 7, 10, 29), tensor.NewTyped(tensor.Float16, 2, 7, 10, 29)
	ConcatInto(cat, c1, c2)
	for n := 0; n < 2; n++ {
		for c := 0; c < 7; c++ {
			for i := 0; i < 290; i++ {
				src, sc := c1, c
				if c >= 3 {
					src, sc = c2, c-3
				}
				wantCat.SetF((n*7+c)*290+i, src.GetF((n*src.Shape()[1]+sc)*290+i))
			}
		}
	}
	sameBits(t, "concat", cat, wantCat)

	wide := half(76, 1, 2, 3, 150) // rows wider than one run
	up, wantUp := tensor.NewTyped(tensor.Float16, 1, 2, 6, 300), tensor.NewTyped(tensor.Float16, 1, 2, 6, 300)
	UpsampleNearest2xInto(up, wide)
	for c := 0; c < 2; c++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 300; x++ {
				wantUp.Set(wide.At(0, c, y/2, x/2), 0, c, y, x)
			}
		}
	}
	sameBits(t, "upsample", up, wantUp)

	gp, wantGP := tensor.NewTyped(tensor.Float16, 1, 2, 1, 1), tensor.NewTyped(tensor.Float16, 1, 2, 1, 1)
	GlobalAvgPoolInto(gp, wide)
	for c := 0; c < 2; c++ {
		var s float64
		for i := 0; i < 450; i++ {
			s += float64(wide.GetF(c*450 + i))
		}
		wantGP.SetF(c, float32(s/450))
	}
	sameBits(t, "global avg pool", gp, wantGP)

	x, wt, bias := randT(77, 2, 600), half(78, 5, 600), randT(79, 5)
	for _, xin := range []*tensor.Tensor{x, tensor.Convert(x, tensor.Float16, 0)} {
		dense, wantDense := tensor.New(2, 5), tensor.New(2, 5)
		DenseActInto(dense, xin, wt, bias, ActReLU)
		for n := 0; n < 2; n++ {
			for o := 0; o < 5; o++ {
				s := bias.Data()[o]
				for i := 0; i < 600; i++ {
					s += xin.GetF(n*600+i) * wt.GetF(o*600+i)
				}
				wantDense.SetF(n*5+o, applyActivation(s, ActReLU))
			}
		}
		sameBits(t, "dense "+xin.DType().String(), dense, wantDense)
	}
}
