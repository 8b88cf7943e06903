package ops

import (
	"fmt"
	"math/rand"
	"testing"

	"unigpu/internal/tensor"
)

// naiveConv2D is a frozen copy of the original per-tap-bounds-checked
// direct loop (the seed implementation). Every production kernel must
// reproduce it bit-for-bit: same bias-initialized
// accumulator, same ascending (ci, ky, kx) tap order.
func naiveConv2D(in, weight, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	oh, ow := w.OutH(), w.OutW()
	g := max(1, w.Groups)
	cinPerG := w.CIn / g
	coutPerG := w.COut / g
	ind, wd, od := in.Data(), weight.Data(), out.Data()
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}
	for n := 0; n < w.N; n++ {
		for co := 0; co < w.COut; co++ {
			grp := co / coutPerG
			ciBase := grp * cinPerG
			var b float32
			if bd != nil {
				b = bd[co]
			}
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					sum := b
					for ci := 0; ci < cinPerG; ci++ {
						wBase := ((co * cinPerG) + ci) * w.KH * w.KW
						iBase := (n*w.CIn + ciBase + ci) * w.H * w.W
						for ky := 0; ky < w.KH; ky++ {
							iy := y*w.StrideH - w.PadH + ky
							if iy < 0 || iy >= w.H {
								continue
							}
							for kx := 0; kx < w.KW; kx++ {
								ix := x*w.StrideW - w.PadW + kx
								if ix < 0 || ix >= w.W {
									continue
								}
								sum += ind[iBase+iy*w.W+ix] * wd[wBase+ky*w.KW+kx]
							}
						}
					}
					od[((n*w.COut+co)*oh+y)*ow+x] = applyActivation(sum, w.FusedActivation)
				}
			}
		}
	}
	return out
}

// kernelEdgeCases covers the shapes that break naive index math: odd
// channels per group, padding wider than the kernel, pointwise stride-2,
// rectangular kernels/inputs, depthwise with and without stride, planes of
// four outputs and of one, planes done in bands and one too wide for that.
func kernelEdgeCases() []ConvWorkload {
	return []ConvWorkload{
		{N: 1, CIn: 6, COut: 8, H: 9, W: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true, FusedActivation: ActReLU},
		// odd channels per group: 9/3 = 3 in, 6/3 = 2 out per group
		{N: 2, CIn: 9, COut: 6, H: 7, W: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 3, HasBias: true},
		// pad > kernel
		{N: 1, CIn: 3, COut: 4, H: 6, W: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 4, PadW: 4, HasBias: true},
		// 1x1 stride-2 (projection shortcut)
		{N: 1, CIn: 8, COut: 16, H: 8, W: 8, KH: 1, KW: 1, StrideH: 2, StrideW: 2, HasBias: true, FusedActivation: ActLeakyReLU},
		// depthwise, stride 1 and 2
		{N: 1, CIn: 8, COut: 8, H: 9, W: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 8, HasBias: true, FusedActivation: ActReLU},
		{N: 2, CIn: 5, COut: 5, H: 8, W: 10, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 5},
		// rectangular kernel, no bias, no padding
		{N: 1, CIn: 4, COut: 3, H: 6, W: 11, KH: 1, KW: 3, StrideH: 1, StrideW: 1},
		// 5x5 stride-2 (squeezenet-style stem)
		{N: 1, CIn: 3, COut: 10, H: 13, W: 13, KH: 5, KW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2, HasBias: true},
		// outputs shorter than a vector, which the row kernel does one at a
		// time: a 2x2 depthwise plane and a detection head over a 1x1 map
		{N: 1, CIn: 6, COut: 6, H: 4, W: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 6, HasBias: true, FusedActivation: ActReLU},
		{N: 2, CIn: 5, COut: 3, H: 1, W: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true},
		// the same short planes with a vector of output channels per group,
		// which a prepared direct conv runs over its channels: a head over a
		// 1x1 map (a 64-channel block and a tail), and 2x2 outputs of a
		// grouped stride-2 conv
		{N: 2, CIn: 5, COut: 84, H: 1, W: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true},
		{N: 1, CIn: 6, COut: 40, H: 3, W: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 2, HasBias: true, FusedActivation: ActReLU},
		// planes larger than the row kernel's scratch: three bands of output
		// rows over stride-2 phase planes, and a plane wider than the scratch
		{N: 1, CIn: 2, COut: 3, H: 40, W: 100, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, HasBias: true, FusedActivation: ActLeakyReLU},
		{N: 1, CIn: 2, COut: 2, H: 3, W: 2500, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true},
	}
}

func convInputs(w ConvWorkload, seed int64) (in, weight, bias *tensor.Tensor) {
	g := max(1, w.Groups)
	in = randT(seed, w.N, w.CIn, w.H, w.W)
	weight = randT(seed+1, w.COut, w.CIn/g, w.KH, w.KW)
	if w.HasBias {
		bias = randT(seed+2, w.COut)
	}
	return in, weight, bias
}

// TestKernelsBitIdenticalToNaive: direct (hoisted bounds), depthwise, and
// im2col-GEMM must all be bit-identical to the frozen naive reference on
// every edge case — this is what keeps whole-zoo golden outputs stable
// whichever kernel the selector picks.
func TestKernelsBitIdenticalToNaive(t *testing.T) {
	for i, w := range kernelEdgeCases() {
		in, weight, bias := convInputs(w, int64(100+i))
		want := naiveConv2D(in, weight, bias, w)
		for _, k := range []ConvKernel{KernelDirect, KernelDepthwise, KernelGEMM} {
			if !KernelSupported(k, w) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", w.Key(), k), func(t *testing.T) {
				p := PrepareConv(w, k, weight)
				if p.Kernel() != k {
					t.Fatalf("PrepareConv resolved %v, want %v", p.Kernel(), k)
				}
				out := tensor.New(want.Shape()...)
				out.Fill(-123)
				// Poisoned scratch: the kernel must not read stale values.
				scratch := make([]float32, p.ScratchElems())
				for j := range scratch {
					scratch[j] = float32(-1e30)
				}
				p.RunInto(out, in, bias, scratch)
				assertSame(t, k.String(), out, want)

				// nil scratch must also work (allocating fallback).
				out2 := tensor.New(want.Shape()...)
				p.RunInto(out2, in, bias, nil)
				assertSame(t, k.String()+"/nil-scratch", out2, want)
			})
		}
	}
}

// TestConvAutoMatchesNaive: the public Conv2DInto entry point must stay
// bit-identical to the seed's naive loop, into a poisoned output.
func TestConvAutoMatchesNaive(t *testing.T) {
	for i, w := range kernelEdgeCases() {
		in, weight, bias := convInputs(w, int64(500+i))
		want := naiveConv2D(in, weight, bias, w)
		got := tensor.New(want.Shape()...)
		got.Fill(-123)
		Conv2DInto(got, in, weight, bias, w)
		assertSame(t, w.Key(), got, want)
	}
}

// TestKernelsRandomizedCrossCheck draws random workload shapes and verifies
// every supported kernel against the naive reference, bit for bit.
func TestKernelsRandomizedCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := 1
		if rng.Intn(3) == 0 {
			g = 1 + rng.Intn(3)
		}
		w := ConvWorkload{
			N:       1 + rng.Intn(2),
			CIn:     g * (1 + rng.Intn(4)),
			H:       3 + rng.Intn(10),
			W:       3 + rng.Intn(10),
			COut:    g * (1 + rng.Intn(4)),
			KH:      1 + rng.Intn(3),
			KW:      1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2),
			StrideW: 1 + rng.Intn(2),
			PadH:    rng.Intn(3),
			PadW:    rng.Intn(3),
			Groups:  g,
			HasBias: rng.Intn(2) == 0,
		}
		if w.OutH() < 1 || w.OutW() < 1 {
			continue
		}
		w.FusedActivation = Activation(rng.Intn(3))
		in, weight, bias := convInputs(w, int64(trial))
		want := naiveConv2D(in, weight, bias, w)
		for _, k := range ConvKernels {
			if !KernelSupported(k, w) {
				continue
			}
			p := PrepareConv(w, k, weight)
			out := tensor.New(want.Shape()...)
			p.RunInto(out, in, bias, nil)
			assertSame(t, fmt.Sprintf("trial %d %s %s", trial, w.Key(), k), out, want)
		}
	}
}

// TestPreparedConvSharedAcrossGoroutines: a PreparedConv is read-only after
// PrepareConv; concurrent RunInto calls with distinct scratch must agree.
func TestPreparedConvSharedAcrossGoroutines(t *testing.T) {
	w := ConvWorkload{N: 1, CIn: 8, COut: 8, H: 10, W: 10, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true}
	in, weight, bias := convInputs(w, 9)
	p := PrepareConv(w, KernelGEMM, weight)
	want := naiveConv2D(in, weight, bias, w)

	const workers = 4
	outs := make([]*tensor.Tensor, workers)
	done := make(chan int, workers)
	for i := 0; i < workers; i++ {
		i := i
		go func() {
			out := tensor.New(want.Shape()...)
			p.RunInto(out, in, bias, make([]float32, p.ScratchElems()))
			outs[i] = out
			done <- i
		}()
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for i, out := range outs {
		assertSame(t, fmt.Sprintf("worker %d", i), out, want)
	}
}

func TestParseConvKernel(t *testing.T) {
	for _, k := range append([]ConvKernel{KernelAuto}, ConvKernels...) {
		got, ok := ParseConvKernel(k.String())
		if !ok || got != k {
			t.Fatalf("ParseConvKernel(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseConvKernel("nope"); ok {
		t.Fatal("ParseConvKernel accepted junk")
	}
}
