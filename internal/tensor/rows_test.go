package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"unigpu/internal/cpu"
	"unigpu/internal/tensor"
)

// onPortableRows runs f with the assembly row conversions switched off.
func onPortableRows(f func()) {
	defer func(was bool) { cpu.Vector = was }(cpu.Vector)
	cpu.Vector = false
	f()
}

// rowScales are int8 scales from the smallest denormal to 1e30, the scales
// calibration produces for the zoo's activations (max |x| of a few units to
// a few hundred, over 127) and a hundred random ones around those.
func rowScales() []float32 {
	scales := []float32{math.SmallestNonzeroFloat32, 1e-38, 1e-30, 1e-10, 1e10, 1e30, math.MaxFloat32, 1, 0.5, 1.0 / 64, 1.0 / 90}
	for _, maxAbs := range []float64{0.37, 1, 2.5, 6, 11.3, 47, 250, 65504} {
		scales = append(scales, tensor.Int8Scale(maxAbs))
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100; i++ {
		scales = append(scales, float32(math.Exp(rng.NormFloat64()*3)/127))
	}
	return scales
}

// sameRow fails unless the vector run and the portable run of one
// conversion agree in every element; show names element i's input.
func sameRow[T comparable](t *testing.T, name string, vector, portable []T, show func(i int) string) {
	t.Helper()
	for i := range portable {
		if vector[i] != portable[i] {
			t.Fatalf("%s: element %d (%s): assembly gives %v, the portable loop %v", name, i, show(i), vector[i], portable[i])
		}
	}
}

// TestRowPrimitivesEqualPortable is the assembly's contract: each row
// conversion produces the bits of its portable loop. Widening and the
// fp16-to-int8 cast see every binary16 pattern (the cast at every scale of
// rowScales), narrowing and the fp32-to-int8 store see forEachEncodeProbe's
// values, dequantizing sees every code; then every primitive runs at
// lengths 0..33 from odd offsets, so each tail and alignment is taken.
func TestRowPrimitivesEqualPortable(t *testing.T) {
	if !cpu.Vector {
		t.Skip("this host runs the portable loops only")
	}
	halves := make([]uint16, 1<<16)
	for h := range halves {
		halves[h] = uint16(h)
	}
	var probes []float32
	forEachEncodeProbe(func(b uint32) { probes = append(probes, math.Float32frombits(b)) })
	codes := make([]int8, 256)
	for i := range codes {
		codes[i] = int8(i - 128)
	}

	bits := func(v []float32) []uint32 {
		b := make([]uint32, len(v))
		for i, f := range v {
			b[i] = math.Float32bits(f)
		}
		return b
	}
	widen := func(src []uint16) []uint32 {
		dst := make([]float32, len(src))
		tensor.WidenHalf(dst, src)
		return bits(dst)
	}
	narrow := func(src []float32) []uint16 {
		dst := make([]uint16, len(src))
		tensor.NarrowHalf(dst, src)
		return dst
	}
	// The int8 conversions are reached as a cast reaches them: CopyRange
	// between tensors (fp16 or fp32 to int8, int8 to fp32).
	cast := func(src *tensor.Tensor, dt tensor.DType, scale float32) *tensor.Tensor {
		dst := tensor.NewTyped(dt, src.Size())
		dst.SetScale(scale)
		tensor.CopyRange(dst, 0, src, 0, src.Size())
		return dst
	}
	var portable struct {
		widen  []uint32
		narrow []uint16
	}
	onPortableRows(func() { portable.widen, portable.narrow = widen(halves), narrow(probes) })
	sameRow(t, "widen", widen(halves), portable.widen, func(i int) string { return fmt.Sprintf("half %#04x", i) })
	sameRow(t, "narrow", narrow(probes), portable.narrow, func(i int) string { return fmt.Sprintf("%#08x", math.Float32bits(probes[i])) })

	hsrc, fsrc := tensor.FromHalf(halves, len(halves)), tensor.FromData(probes[:1<<19], 1<<19)
	for _, scale := range rowScales() {
		var wantH, wantF []int8
		var wantD []uint32
		qsrc := tensor.FromInt8(codes, scale, len(codes))
		onPortableRows(func() {
			wantH, wantF = cast(hsrc, tensor.Int8, scale).Int8Data(), cast(fsrc, tensor.Int8, scale).Int8Data()
			wantD = bits(cast(qsrc, tensor.Float32, 0).Data())
		})
		sameRow(t, fmt.Sprintf("fp16 to int8, scale %g", scale), cast(hsrc, tensor.Int8, scale).Int8Data(), wantH,
			func(i int) string { return fmt.Sprintf("half %#04x = %g", i, tensor.F16Decode(uint16(i))) })
		sameRow(t, fmt.Sprintf("fp32 to int8, scale %g", scale), cast(fsrc, tensor.Int8, scale).Int8Data(), wantF,
			func(i int) string { return fmt.Sprintf("%#08x = %g", math.Float32bits(probes[i]), probes[i]) })
		sameRow(t, fmt.Sprintf("int8 to fp32, scale %g", scale), bits(cast(qsrc, tensor.Float32, 0).Data()), wantD,
			func(i int) string { return fmt.Sprintf("code %d", codes[i]) })
	}

	// Tails and alignments: every length 0..33 from offsets 0, 1 and 3 into
	// larger tensors, whose other elements must stay as they were.
	rng := rand.New(rand.NewSource(33))
	fill := func(dt tensor.DType, scale float32) *tensor.Tensor {
		x := tensor.NewTyped(dt, 48)
		x.SetScale(scale)
		x.FillFunc(func(int) float32 { return float32(rng.NormFloat64() * 3) })
		return x
	}
	dtypes := []tensor.DType{tensor.Float32, tensor.Float16, tensor.Int8}
	for _, sdt := range dtypes {
		for _, ddt := range dtypes {
			src := fill(sdt, 1.0/20)
			for n := 0; n <= 33; n++ {
				for _, off := range []int{0, 1, 3} {
					got := fill(ddt, 1.0/30)
					want := got.Clone()
					tensor.CopyRange(got, off+2, src, off, n)
					onPortableRows(func() { tensor.CopyRange(want, off+2, src, off, n) })
					for i := 0; i < got.Size(); i++ {
						if g, w := math.Float32bits(got.GetF(i)), math.Float32bits(want.GetF(i)); g != w {
							t.Fatalf("CopyRange %s to %s, %d elements from offset %d: element %d is %#08x, the portable loops give %#08x", sdt, ddt, n, off, i, g, w)
						}
					}
				}
			}
		}
	}
}

// TestQuantizeRowIsQuantizeInt8 ties the portable cast loops themselves to
// the scalar definition, NaN and the infinities included, so that
// "equal to the portable loop" above means "equal to QuantizeInt8".
func TestQuantizeRowIsQuantizeInt8(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 0.5, 1.5, 2.5, -0.5, -1.5, 126.5, 127.5, -127.5, 1e30, -1e30,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 3, -77.2, 1e-40, 12, 13, 14, 15, 16}
	src := tensor.FromData(vals, len(vals))
	for _, scale := range []float32{1, 0.25, 3, 1e-30, 1e30} {
		for _, portable := range []bool{false, true} {
			dst := tensor.NewTyped(tensor.Int8, len(vals))
			dst.SetScale(scale)
			run := func() { tensor.CopyRange(dst, 0, src, 0, len(vals)) }
			if portable {
				onPortableRows(run)
			} else {
				run()
			}
			for i, v := range vals {
				if got, want := dst.Int8Data()[i], tensor.QuantizeInt8(v, scale); got != want {
					t.Errorf("portable=%v scale %g: %g quantizes to %d, QuantizeInt8 gives %d", portable, scale, v, got, want)
				}
			}
		}
	}
}

func BenchmarkRowPrimitives(b *testing.B) {
	const n = 16384
	f := tensor.New(n)
	f.FillRandom(1)
	h := tensor.Convert(f, tensor.Float16, 0)
	q := tensor.NewTyped(tensor.Int8, n)
	q.SetScale(1.0 / 127)
	for _, bc := range []struct {
		name     string
		dst, src *tensor.Tensor
	}{
		{"widen", f, h}, {"narrow", h, f}, {"fp16_to_int8", q, h}, {"fp32_to_int8", q, f}, {"int8_to_fp32", f, q},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.CopyRange(bc.dst, 0, bc.src, 0, n)
			}
		})
	}
}
