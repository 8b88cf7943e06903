package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"unigpu/internal/cpu"
)

// onPortableTile runs f with every assembly routine off, the GEMM tile, the
// axpy and the tensor package's conversions: on the portable loops, whatever
// this host would pick.
func onPortableTile(f func()) {
	defer func(was bool) { cpu.Vector = was }(cpu.Vector)
	cpu.Vector = false
	f()
}

// tileFloat draws a panel value that exercises float32 rounding: mixed
// sign, magnitudes from denormal to 1e10, and exact zeros (the padding
// taps of a real panel).
func tileFloat(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Float32frombits(rng.Uint32() & 0x807fffff) // denormal, either sign
	case 2:
		return float32(rng.NormFloat64() * 1e10)
	case 3:
		return float32(rng.NormFloat64() * 1e-30)
	}
	return float32(rng.NormFloat64())
}

// TestRowPrimitivesEqualPortable is the contract of the row kernels'
// assembly (axpy, rectifier, int32 dequantize, int8 code widening): the bits
// of the portable loop. The rectifier sees NaNs of both signs, both zeros,
// infinities and denormals; dequantizing sees sums over the whole int32
// range under scales and biases that round at both steps; the axpy float32
// lanes (values from denormal to 1e10,
// exact zeros, so that products and sums round at every step) and for int32
// lanes (codes and sums as large as a conv makes them, and wrapping ones),
// at every length 0..33 and a few hundred, from odd offsets, so that every
// tail and alignment runs. The tensor package holds its conversions to the
// same contract under the same name.
func TestRowPrimitivesEqualPortable(t *testing.T) {
	if !cpu.Vector {
		t.Skip("this host runs the portable loops only")
	}
	rng := rand.New(rand.NewSource(24))
	lengths := []int{64, 257, 1088}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 3} {
			xf, af := make([]float32, off+n), make([]float32, off+n)
			xi, ai := make([]int32, off+n), make([]int32, off+n)
			for i := range xf {
				xf[i], af[i] = tileFloat(rng), tileFloat(rng)
				xi[i], ai[i] = int32(rng.Intn(255)-127), int32(rng.Uint32())
			}
			for _, w := range []float32{0, 1, -0.37, 1e10, math.SmallestNonzeroFloat32, tileFloat(rng)} {
				got, want := append([]float32(nil), af...), append([]float32(nil), af...)
				axpy(got[off:], xf[off:], w)
				axpyGo(want[off:], xf[off:], w)
				for i := range want {
					if g, p := math.Float32bits(got[i]), math.Float32bits(want[i]); g != p {
						t.Fatalf("float axpy n=%d off=%d w=%g: element %d is %#08x, the portable loop gives %#08x", n, off, w, i, g, p)
					}
				}
			}
			relu, want := append([]float32(nil), af...), append([]float32(nil), af...)
			for i, v := range []float32{float32(math.NaN()), -float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
				float32(math.Inf(1)), float32(math.Inf(-1)), -math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32} {
				if off+i < len(relu) {
					relu[off+i], want[off+i] = v, v
				}
			}
			reluRow(relu[off:])
			reluGo(want[off:])
			for i := range want {
				if g, p := math.Float32bits(relu[i]), math.Float32bits(want[i]); g != p {
					t.Fatalf("relu n=%d off=%d: element %d is %#08x, the portable loop gives %#08x", n, off, i, g, p)
				}
			}
			codes, wide, wantWide := make([]int8, off+n), make([]int32, off+n), make([]int32, off+n)
			for i := range codes {
				codes[i] = int8(rng.Intn(256) - 128)
			}
			widenCodes(wide[off:], codes[off:])
			widenCodesGo(wantWide[off:], codes[off:])
			for _, sb := range [][2]float32{{1, 0}, {0.0123, -3.7}, {1e-9, 1e10}, {tileFloat(rng), tileFloat(rng)}} {
				deq, wantDeq := make([]float32, off+n), make([]float32, off+n)
				dequantRow(deq[off:], ai[off:], sb[0], sb[1])
				dequantGo(wantDeq[off:], ai[off:], sb[0], sb[1])
				for i := range wantDeq {
					if g, p := math.Float32bits(deq[i]), math.Float32bits(wantDeq[i]); g != p || wide[i] != wantWide[i] {
						t.Fatalf("n=%d off=%d element %d: dequantize(%d, %g, %g) is %#08x, the portable loop gives %#08x; code %d widens to %d",
							n, off, i, ai[i], sb[0], sb[1], g, p, codes[i], wide[i])
					}
				}
			}
			for _, w := range []int32{0, 1, -127, 127, math.MinInt32} {
				got, want := append([]int32(nil), ai...), append([]int32(nil), ai...)
				axpy(got[off:], xi[off:], w)
				axpyGo(want[off:], xi[off:], w)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("int32 axpy n=%d off=%d w=%d: element %d is %d, the portable loop gives %d", n, off, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRowKernelsOnPortablePrimitives runs the row kernels' cross-checks a
// second time with every assembly routine off (the axpy here, the
// conversions in the tensor package), so the loops an AVX2 machine never
// takes by default are still held to the references: pooling, the typed
// fallbacks (dense, casts, elementwise, concat, global pooling), the Into
// forms, and the conv fuzz seeds, which cross the depthwise and int8 cases.
// The direct and depthwise cross-checks proper run under
// TestGEMMCasesOnPortableTile, which clears the same switch.
func TestRowKernelsOnPortablePrimitives(t *testing.T) {
	if !cpu.Vector {
		t.Skip("the portable loops are already what every test ran on")
	}
	onPortableTile(func() {
		t.Run("Pool2DMatchesReference", TestPool2DMatchesReference)
		t.Run("TypedFallbacks", TestTypedFallbacksMatchElementAccess)
		t.Run("IntoVariants", TestIntoOverwritesAndAliases)
		t.Run("FP16CrossCheck", TestConvFP16CrossCheck)
		t.Run("Int8CrossCheck", TestConvInt8CrossCheck)
		for i, c := range convFuzzSeeds {
			t.Run(fmt.Sprintf("FuzzSeed%d", i), func(t *testing.T) { c.check(t) })
		}
	})
}
