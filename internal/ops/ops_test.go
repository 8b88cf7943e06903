package ops

import (
	"math"
	"testing"
	"testing/quick"

	"unigpu/internal/tensor"
)

// naiveConv is an intentionally dumb reference for cross-checking.
func naiveConv(in, weight, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	oh, ow := w.OutH(), w.OutW()
	out := tensor.New(w.N, w.COut, oh, ow)
	g := max(1, w.Groups)
	cinPerG, coutPerG := w.CIn/g, w.COut/g
	for n := 0; n < w.N; n++ {
		for co := 0; co < w.COut; co++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var sum float32
					if bias != nil {
						sum = bias.At(co)
					}
					grp := co / coutPerG
					for ci := 0; ci < cinPerG; ci++ {
						for ky := 0; ky < w.KH; ky++ {
							for kx := 0; kx < w.KW; kx++ {
								iy := y*w.StrideH - w.PadH + ky
								ix := x*w.StrideW - w.PadW + kx
								if iy < 0 || iy >= w.H || ix < 0 || ix >= w.W {
									continue
								}
								sum += in.At(n, grp*cinPerG+ci, iy, ix) * weight.At(co, ci, ky, kx)
							}
						}
					}
					out.Set(applyActivation(sum, w.FusedActivation), n, co, y, x)
				}
			}
		}
	}
	return out
}

func randomConvInputs(w ConvWorkload, seed int64) (in, weight, bias *tensor.Tensor) {
	g := max(1, w.Groups)
	in = tensor.New(w.N, w.CIn, w.H, w.W)
	in.FillRandom(seed)
	weight = tensor.New(w.COut, w.CIn/g, w.KH, w.KW)
	weight.FillRandom(seed + 1)
	if w.HasBias {
		bias = tensor.New(w.COut)
		bias.FillRandom(seed + 2)
	}
	return
}

// into runs kernel f into a fresh fp32 tensor of the given shape.
func into(f func(out *tensor.Tensor), shape ...int) *tensor.Tensor {
	out := tensor.New(shape...)
	f(out)
	return out
}

// conv2D runs Conv2DInto into a fresh output of w's shape.
func conv2D(in, weight, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	return into(func(o *tensor.Tensor) { Conv2DInto(o, in, weight, bias, w) }, w.N, w.COut, w.OutH(), w.OutW())
}

func TestConv2DMatchesNaive(t *testing.T) {
	cases := []ConvWorkload{
		{N: 1, CIn: 3, H: 8, W: 8, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true},
		{N: 2, CIn: 4, H: 7, W: 9, COut: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{N: 1, CIn: 8, H: 6, W: 6, COut: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1},                                // pointwise
		{N: 1, CIn: 8, H: 10, W: 10, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 8}, // depthwise
		{N: 1, CIn: 8, H: 6, W: 6, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2},   // grouped
		{N: 1, CIn: 3, H: 9, W: 9, COut: 2, KH: 5, KW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2, FusedActivation: ActReLU},
	}
	for _, w := range cases {
		in, weight, bias := randomConvInputs(w, 7)
		got := conv2D(in, weight, bias, w)
		want := naiveConv(in, weight, bias, w)
		if !tensor.AllClose(got, want, 1e-5) {
			t.Errorf("%s: max diff %g", w, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestConvOutputShape(t *testing.T) {
	w := ConvWorkload{N: 1, CIn: 3, H: 224, W: 224, COut: 64, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	if w.OutH() != 112 || w.OutW() != 112 {
		t.Fatalf("resnet stem output = %dx%d, want 112x112", w.OutH(), w.OutW())
	}
}

func TestConvWorkloadFLOPs(t *testing.T) {
	w := ConvWorkload{N: 1, CIn: 2, H: 4, W: 4, COut: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	// 3 out channels * 16 pixels * 2 in channels * 9 taps * 2.
	if got := w.FLOPs(); got != float64(3*16*2*9*2) {
		t.Fatalf("FLOPs = %v", got)
	}
	dw := ConvWorkload{N: 1, CIn: 4, H: 4, W: 4, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 4}
	if !dw.IsDepthwise() {
		t.Fatal("should be depthwise")
	}
	if got := dw.FLOPs(); got != float64(4*16*1*9*2) {
		t.Fatalf("depthwise FLOPs = %v", got)
	}
}

func TestWorkloadKeyDistinguishes(t *testing.T) {
	a := ConvWorkload{N: 1, CIn: 64, H: 56, W: 56, COut: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b := a
	b.StrideH = 2
	if a.Key() == b.Key() {
		t.Fatal("different strides must produce different keys")
	}
	if a.Key() != a.Key() {
		t.Fatal("keys must be stable")
	}
}

func TestDense(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3}, 1, 3)
	w := tensor.FromData([]float32{1, 0, 0, 0, 1, 1}, 2, 3)
	b := tensor.FromData([]float32{10, 20}, 2)
	out := into(func(o *tensor.Tensor) { DenseActInto(o, in, w, b, ActNone) }, 1, 2)
	if out.At(0, 0) != 11 || out.At(0, 1) != 25 {
		t.Fatalf("dense = %v", out.Data())
	}
}

func TestReLUFamily(t *testing.T) {
	in := tensor.FromData([]float32{-2, 0, 3}, 3)
	r := into(func(o *tensor.Tensor) { ReLUInto(o, in) }, 3)
	if r.At(0) != 0 || r.At(2) != 3 {
		t.Fatalf("relu = %v", r.Data())
	}
	l := into(func(o *tensor.Tensor) { LeakyReLUInto(o, in, 0.1) }, 3)
	if math.Abs(float64(l.At(0)+0.2)) > 1e-6 || l.At(2) != 3 {
		t.Fatalf("leaky = %v", l.Data())
	}
	s := into(func(o *tensor.Tensor) { SigmoidInto(o, tensor.FromData([]float32{0}, 1)) }, 1)
	if math.Abs(float64(s.At(0))-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", s.At(0))
	}
	// Input must be untouched.
	if in.At(0) != -2 {
		t.Fatal("activations must not mutate their input")
	}
}

func TestAddAndShapeMismatch(t *testing.T) {
	a := tensor.FromData([]float32{1, 2}, 2)
	b := tensor.FromData([]float32{3, 4}, 2)
	if got := into(func(o *tensor.Tensor) { AddInto(o, a, b) }, 2); got.At(1) != 6 {
		t.Fatalf("add = %v", got.Data())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	AddInto(tensor.New(2), a, tensor.New(3))
}

func TestBatchNormFoldEquivalence(t *testing.T) {
	c := 5
	in := tensor.New(2, c, 3, 3)
	in.FillRandom(11)
	gamma, beta, mean, variance := tensor.New(c), tensor.New(c), tensor.New(c), tensor.New(c)
	gamma.FillRandom(1)
	beta.FillRandom(2)
	mean.FillRandom(3)
	variance.FillFunc(func(i int) float32 { return 0.5 + float32(i)*0.1 })
	const eps = 1e-5

	want := into(func(o *tensor.Tensor) { BatchNormInferenceInto(o, in, gamma, beta, mean, variance, eps) }, 2, c, 3, 3)

	// Folded form: y = x*scale + shift must agree exactly.
	scale, shift := FoldBatchNorm(gamma, beta, mean, variance, eps)
	got := in.Clone()
	d := got.Data()
	hw := 9
	for n := 0; n < 2; n++ {
		for ci := 0; ci < c; ci++ {
			base := (n*c + ci) * hw
			for i := 0; i < hw; i++ {
				d[base+i] = d[base+i]*scale.At(ci) + shift.At(ci)
			}
		}
	}
	if !tensor.AllClose(got, want, 1e-6) {
		t.Fatalf("folded BN diverges: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestSoftmax(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	out := into(func(o *tensor.Tensor) { SoftmaxInto(o, in) }, 2, 3)
	for r := 0; r < 2; r++ {
		var sum float64
		for i := 0; i < 3; i++ {
			sum += float64(out.At(r, i))
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	if out.At(0, 2) <= out.At(0, 0) {
		t.Fatal("softmax must be monotone")
	}
	// Large inputs must not overflow (max subtraction).
	if math.Abs(float64(out.At(1, 0))-1.0/3) > 1e-5 {
		t.Fatalf("uniform large row should be 1/3, got %v", out.At(1, 0))
	}
}

func TestMaxAndAvgPool(t *testing.T) {
	in := tensor.FromData([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	mp := into(func(o *tensor.Tensor) { Pool2DInto(o, in, MaxPool, 2, 2, 0) }, 1, 1, 2, 2)
	if mp.At(0, 0, 0, 0) != 6 || mp.At(0, 0, 1, 1) != 16 {
		t.Fatalf("maxpool = %v", mp.Data())
	}
	ap := into(func(o *tensor.Tensor) { Pool2DInto(o, in, AvgPool, 2, 2, 0) }, 1, 1, 2, 2)
	if ap.At(0, 0, 0, 0) != 3.5 {
		t.Fatalf("avgpool = %v", ap.Data())
	}
	// Padding excluded from divisor.
	ap2 := into(func(o *tensor.Tensor) { Pool2DInto(o, in, AvgPool, 3, 2, 1) }, 1, 1, 2, 2)
	if ap2.At(0, 0, 0, 0) != (1+2+5+6)/4.0 {
		t.Fatalf("padded avgpool corner = %v, want 3.5", ap2.At(0, 0, 0, 0))
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := tensor.New(1, 2, 2, 2)
	in.FillFunc(func(i int) float32 { return float32(i) })
	g := into(func(o *tensor.Tensor) { GlobalAvgPoolInto(o, in) }, 1, 2, 1, 1)
	if g.At(0, 0, 0, 0) != 1.5 || g.At(0, 1, 0, 0) != 5.5 {
		t.Fatalf("gap = %v", g.Data())
	}
}

func TestConcat(t *testing.T) {
	a := tensor.New(1, 2, 2, 2)
	a.Fill(1)
	b := tensor.New(1, 3, 2, 2)
	b.Fill(2)
	c := into(func(o *tensor.Tensor) { ConcatInto(o, a, b) }, 1, 5, 2, 2)
	if c.At(0, 1, 1, 1) != 1 || c.At(0, 2, 0, 0) != 2 {
		t.Fatal("concat channel placement wrong")
	}
}

func TestUpsampleNearest(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	up := into(func(o *tensor.Tensor) { UpsampleNearest2xInto(o, in) }, 1, 1, 4, 4)
	if up.At(0, 0, 0, 1) != 1 || up.At(0, 0, 3, 3) != 4 || up.At(0, 0, 2, 1) != 3 {
		t.Fatalf("upsample = %v", up.Data())
	}
}

func TestPropertyConvLinearity(t *testing.T) {
	// conv(a*x) == a*conv(x) when bias is nil: catches indexing bugs
	// independent of a reference implementation.
	w := ConvWorkload{N: 1, CIn: 3, H: 6, W: 6, COut: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	f := func(seed int64, scaleRaw uint8) bool {
		scale := float32(scaleRaw%7) + 1
		in, weight, _ := randomConvInputs(w, seed)
		base := conv2D(in, weight, nil, w)
		scaled := in.Clone()
		for i, v := range scaled.Data() {
			scaled.Data()[i] = v * scale
		}
		got := conv2D(scaled, weight, nil, w)
		want := base.Clone()
		for i := range want.Data() {
			want.Data()[i] *= scale
		}
		return tensor.AllClose(got, want, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
