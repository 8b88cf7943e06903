package ops

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"unigpu/internal/tensor"
)

// randT makes a deterministic pseudo-random tensor.
func randT(seed int64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillRandom(seed)
	return t
}

func assertSame(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: differs at %d: %v != %v", name, i, gd[i], wd[i])
		}
	}
}

// TestIntoOverwritesAndAliases: every *Into kernel must overwrite all of
// its output, so a run into a buffer poisoned with -123 equals a run into a
// zeroed one (the pooled runtime hands kernels reused arena buffers), and
// the elementwise kernels must give the same bits when out aliases their
// first input. The graph-level overwrite test holds the operators (and the
// vision pipelines) to the same contract.
func TestIntoOverwritesAndAliases(t *testing.T) {
	in := randT(1, 1, 6, 9, 9)
	w := ConvWorkload{N: 1, CIn: 6, COut: 4, H: 9, W: 9, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	weight := randT(2, 4, 6, 3, 3)
	bias := randT(3, 4)
	x, y := randT(4, 1, 4, 8, 8), randT(5, 1, 4, 8, 8)
	gamma, beta, mean, vr := randT(6, 4), randT(7, 4), randT(8, 4), randT(9, 4)
	vd := vr.Data()
	for i := range vd {
		if vd[i] < 0 {
			vd[i] = -vd[i]
		}
		vd[i] += 0.5
	}
	logits := randT(10, 2, 10)
	flat := x.Reshape(1, 4*8*8)
	dw, db := randT(11, 5, 4*8*8), randT(12, 5)
	checks := []struct {
		name  string
		shape []int
		into  func(out *tensor.Tensor)
	}{
		{"conv2d", []int{1, 4, 9, 9}, func(o *tensor.Tensor) { Conv2DInto(o, in, weight, bias, w) }},
		{"relu", []int{1, 4, 8, 8}, func(o *tensor.Tensor) { ReLUInto(o, x) }},
		{"leaky_relu", []int{1, 4, 8, 8}, func(o *tensor.Tensor) { LeakyReLUInto(o, x, 0.1) }},
		{"sigmoid", []int{1, 4, 8, 8}, func(o *tensor.Tensor) { SigmoidInto(o, x) }},
		{"pool_max", []int{1, 4, 4, 4}, func(o *tensor.Tensor) { Pool2DInto(o, x, MaxPool, 2, 2, 0) }},
		{"pool_avg", []int{1, 4, 4, 4}, func(o *tensor.Tensor) { Pool2DInto(o, x, AvgPool, 3, 2, 1) }},
		{"global_avg", []int{1, 4, 1, 1}, func(o *tensor.Tensor) { GlobalAvgPoolInto(o, x) }},
		{"upsample", []int{1, 4, 16, 16}, func(o *tensor.Tensor) { UpsampleNearest2xInto(o, x) }},
		{"add", []int{1, 4, 8, 8}, func(o *tensor.Tensor) { AddInto(o, x, y) }},
		{"concat", []int{1, 8, 8, 8}, func(o *tensor.Tensor) { ConcatInto(o, x, y) }},
		{"batchnorm", []int{1, 4, 8, 8}, func(o *tensor.Tensor) { BatchNormInferenceInto(o, x, gamma, beta, mean, vr, 1e-5) }},
		{"softmax", []int{2, 10}, func(o *tensor.Tensor) { SoftmaxInto(o, logits) }},
		{"dense", []int{1, 5}, func(o *tensor.Tensor) { DenseActInto(o, flat, dw, db, ActNone) }},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			want := tensor.New(c.shape...)
			c.into(want)
			out := tensor.New(c.shape...)
			out.Fill(-123) // poison: Into must overwrite every element
			c.into(out)
			assertSame(t, c.name, out, want)
		})
	}

	aliases := []struct {
		name string
		src  *tensor.Tensor
		into func(out, in *tensor.Tensor)
	}{
		{"relu", x, ReLUInto},
		{"leaky_relu", x, func(o, in *tensor.Tensor) { LeakyReLUInto(o, in, 0.1) }},
		{"sigmoid", x, SigmoidInto},
		{"add", x, func(o, in *tensor.Tensor) { AddInto(o, in, y) }},
		{"softmax", logits, SoftmaxInto},
	}
	for _, c := range aliases {
		t.Run(c.name+"/in_place", func(t *testing.T) {
			want := tensor.New(c.src.Shape()...)
			c.into(want, c.src)
			inPlace := c.src.Clone()
			c.into(inPlace, inPlace)
			assertSame(t, c.name+" in place", inPlace, want)
		})
	}
}

// refPool2D is a frozen copy of the At/Set pooling loop Pool2DInto was
// before it worked on rows: every tap bounds-tested, folded into a float64
// in (ky, kx) order with math.Max or +, the divisor counting in-bounds taps.
func refPool2D(out, in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) {
	s := in.Shape()
	n, c, h, w := s[0], s[1], s[2], s[3]
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var acc float64
					count := 0
					if kind == MaxPool {
						acc = math.Inf(-1)
					}
					for ky := 0; ky < kernel; ky++ {
						iy := y*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kernel; kx++ {
							ix := x*stride - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := float64(in.At(ni, ci, iy, ix))
							if kind == MaxPool {
								acc = math.Max(acc, v)
							} else {
								acc += v
							}
							count++
						}
					}
					if kind == AvgPool && count > 0 {
						acc /= float64(count)
					}
					out.Set(float32(acc), ni, ci, y, x)
				}
			}
		}
	}
}

// TestPool2DMatchesReference holds the row kernel to refPool2D bit for bit
// over both reductions, kernels, strides, paddings and fp32/fp16 carriers
// on either side, on planes that hold -0 next to +0, NaNs of both signs
// (one beside +Inf, which math.Max lets win), infinities, and, under
// padding as wide as the kernel, outputs whose window is all padding (max
// -Inf, avg 0). The 400-wide plane crosses the row kernel's run length and,
// under kernel 3, its stack window.
func TestPool2DMatchesReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	special := []float32{negZero, 0, 0, negZero, float32(math.NaN()), float32(math.Inf(1)), -float32(math.NaN()), float32(math.Inf(-1)), 65504, -3}
	for _, shape := range [][]int{{2, 3, 9, 11}, {1, 2, 1, 1}, {1, 1, 4, 400}} {
		src := randT(21, shape...)
		for i, v := range special {
			src.Data()[(i*7+3)%src.Size()] = v
		}
		for _, idt := range []tensor.DType{tensor.Float32, tensor.Float16} {
			in := tensor.Convert(src, idt, 0)
			for _, odt := range []tensor.DType{tensor.Float32, tensor.Float16} {
				for _, kind := range []PoolKind{MaxPool, AvgPool} {
					for _, kernel := range []int{2, 3} {
						for _, stride := range []int{1, 2} {
							for _, pad := range []int{0, 1, kernel} {
								oh, ow := (shape[2]+2*pad-kernel)/stride+1, (shape[3]+2*pad-kernel)/stride+1
								if shape[2]+2*pad < kernel || shape[3]+2*pad < kernel {
									continue
								}
								got := tensor.NewTyped(odt, shape[0], shape[1], oh, ow)
								want := tensor.NewTyped(odt, shape[0], shape[1], oh, ow)
								got.Fill(-123)
								Pool2DInto(got, in, kind, kernel, stride, pad)
								refPool2D(want, in, kind, kernel, stride, pad)
								sameBits(t, fmt.Sprintf("%v %s->%s kind=%d k%d s%d p%d", shape, idt, odt, kind, kernel, stride, pad), got, want)
							}
						}
					}
				}
			}
		}
	}
}

// mallocs is testing.AllocsPerRun at the GOMAXPROCS in force (AllocsPerRun
// lowers it to 1, where no fan-out has a helper): heap objects allocated per
// call of f after one warm-up call, rounded down like it.
func mallocs(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestConvAllocatesNothing: a prepared conv with its scratch allocates
// nothing per run, whichever kernel and storage dtype: its fan-outs hand
// par.For a job value, not a closure, and par recycles the box the helpers
// read it from. Held at the GOMAXPROCS in force and at GOMAXPROCS(1), a CPU
// quota of one on a machine of any size, where every job runs on the
// caller's goroutine.
func TestConvAllocatesNothing(t *testing.T) {
	w := ConvWorkload{N: 1, CIn: 8, COut: 24, H: 10, W: 10, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true}
	dw := w
	dw.COut, dw.Groups = 8, 8
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			w  ConvWorkload
			k  ConvKernel
			dt tensor.DType
		}{{w, KernelGEMM, tensor.Float32}, {w, KernelGEMM, tensor.Float16}, {w, KernelGEMM, tensor.Int8},
			{w, KernelDirect, tensor.Float32},
			{dw, KernelDepthwise, tensor.Float32}, {dw, KernelDepthwise, tensor.Int8}} {
			in, weight, bias := convInputs(tc.w, 9)
			p := PrepareConvDType(tc.w, tc.k, weight, tc.dt)
			odt := tc.dt
			if odt == tensor.Int8 {
				odt = tensor.Float16 // an int8 conv's carrier
			}
			in, out := tensor.Convert(in, tc.dt, 0), tensor.NewTyped(odt, 1, tc.w.COut, 10, 10)
			scratch, scratch8 := make([]float32, p.ScratchElems()), make([]int8, p.ScratchElems())
			if allocs := mallocs(50, func() { p.RunIntoEpilogue(out, in, bias, nil, scratch, scratch8, false) }); allocs != 0 {
				t.Errorf("%v %s conv at GOMAXPROCS(%d): %d allocs per run, want 0", tc.k, tc.dt, procs, allocs)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func BenchmarkConv2DInto(b *testing.B) {
	w := ConvWorkload{N: 1, CIn: 32, COut: 32, H: 28, W: 28, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := randT(1, 1, 32, 28, 28)
	weight := randT(2, 32, 32, 3, 3)
	bias := randT(3, 32)
	out := tensor.New(1, 32, w.OutH(), w.OutW())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DInto(out, in, weight, bias, w)
	}
}

// BenchmarkPool2DInto is SqueezeNet's first pool at the benchmark's 64x64
// input: 96 planes of 32x32, kernel 3, stride 2.
func BenchmarkPool2DInto(b *testing.B) {
	in := randT(1, 1, 96, 32, 32)
	out := tensor.New(1, 96, 15, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pool2DInto(out, in, MaxPool, 3, 2, 0)
	}
}

func BenchmarkDenseInto(b *testing.B) {
	in := randT(1, 4, 1024)
	weight := randT(2, 1000, 1024)
	bias := randT(3, 1000)
	out := tensor.New(4, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseActInto(out, in, weight, bias, ActNone)
	}
}
