package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"unigpu/internal/cpu"
)

// microBoth runs gemmMicro over the same panels with the SIMD tile and with
// the portable one and fails unless every stored value agrees bit for bit.
func microBoth[A gemmAcc, E gemmElem](t *testing.T, name string, s convSink[float32, float32], ap, bp []E, k, rows, nv int) {
	t.Helper()
	simd, portable := make([]float32, gemmMR*gemmNR), make([]float32, gemmMR*gemmNR)
	s.out = simd
	gemmMicro[A](&s, ap, bp, k, 0, rows, 0, gemmNR, nv)
	s.out = portable
	onPortableTile(func() { gemmMicro[A](&s, ap, bp, k, 0, rows, 0, gemmNR, nv) })
	for i := range simd {
		if g, w := math.Float32bits(simd[i]), math.Float32bits(portable[i]); g != w {
			t.Fatalf("%s: row %d col %d: SIMD tile %#08x (%g), portable tile %#08x (%g)",
				name, i/gemmNR, i%gemmNR, g, simd[i], w, portable[i])
		}
	}
}

// TestSIMDTileEqualsPortableTile is the assembly's contract: over the same
// panels both tiles produce the same bits, for every reduction length
// (none, odd, the zoo's longest), every count of valid rows and columns,
// with and without a bias, on float values whose sums round at every step
// and on int8 codes saturated so that the int32 sums are as large as any
// conv can make them.
func TestSIMDTileEqualsPortableTile(t *testing.T) {
	if !cpu.Vector {
		t.Skip("this host runs the portable tile only")
	}
	rng := rand.New(rand.NewSource(16))
	bias := make([]float32, gemmMR)
	for _, k := range []int{0, 1, 2, 7, 27, 576, 4608} {
		for trial := 0; trial < 12; trial++ {
			rows, nv := 1+rng.Intn(gemmMR), 1+rng.Intn(gemmNR)
			for i := range bias {
				bias[i] = tileFloat(rng)
			}
			var s convSink[float32, float32]
			if trial%3 != 0 {
				s.bias = bias
			}
			name := fmt.Sprintf("k=%d rows=%d nv=%d bias=%v", k, rows, nv, s.bias != nil)

			af, bf := make([]float32, k*gemmMR), make([]float32, k*gemmNR)
			for i := range af {
				af[i] = tileFloat(rng)
			}
			for i := range bf {
				bf[i] = tileFloat(rng)
			}
			microBoth[float32](t, "float "+name, s, af, bf, k, rows, nv)

			// Codes: random over the whole int8 range, or (every other trial)
			// saturated at +-127 with the signs aligned per row so nothing
			// cancels.
			a8, b8 := make([]int8, k*gemmMR), make([]int8, k*gemmNR)
			for i := range a8 {
				if a8[i] = int8(rng.Intn(256) - 128); trial%2 == 0 {
					a8[i] = int8(127 - 254*(i%gemmMR%2))
				}
			}
			for i := range b8 {
				if b8[i] = int8(rng.Intn(256) - 128); trial%2 == 0 {
					b8[i] = int8(127 - 254*(i%gemmNR%2))
				}
			}
			s.wscale, s.inScale = []float32{1, .5, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, .25}, 1
			microBoth[int32](t, "int8 "+name, s, a8, b8, k, rows, nv)
		}
	}
}

// TestGEMMCasesOnPortableTile runs the GEMM cross-checks a second time with
// the portable tile selected, so the path an AVX2 machine never takes by
// default is still held to the naive, rounded-operand and integer
// references.
func TestGEMMCasesOnPortableTile(t *testing.T) {
	if !cpu.Vector {
		t.Skip("the portable tile is already the one every test ran on")
	}
	onPortableTile(func() {
		t.Run("BitIdenticalToNaive", TestKernelsBitIdenticalToNaive)
		t.Run("RandomizedCrossCheck", TestKernelsRandomizedCrossCheck)
		t.Run("FP32EpilogueVariants", TestFP32EpilogueVariants)
		t.Run("FP16OnRoundedOperands", TestFP16KernelsAreFP32OnRoundedOperands)
		t.Run("Int8IntegerReference", TestInt8KernelsMatchIntegerReference)
	})
}
