package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"unigpu/internal/tensor"
)

// TestF16RoundTripEdgeCases pins the binary16 conversion on the IEEE 754
// edge cases: signed zero, subnormal boundaries, the largest finite
// half, overflow to infinity, and round-to-nearest-even ties.
func TestF16RoundTripEdgeCases(t *testing.T) {
	cases := []struct {
		in   float32
		bits uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-2, 0xC000},
		{65504, 0x7BFF},                             // largest finite half
		{65536, 0x7C00},                             // overflow -> +inf
		{-1e9, 0xFC00},                              // overflow -> -inf
		{5.9604645e-8, 0x0001},                      // smallest subnormal
		{6.097555e-5, 0x03FF},                       // largest subnormal
		{6.1035156e-5, 0x0400},                      // smallest normal
		{2.9802322e-8, 0x0000},                      // half of smallest subnormal: RNE ties to even (zero)
		{math.Float32frombits(0x33000001), 0x0001},  // just above that tie: up to the smallest subnormal
		{-math.Float32frombits(0x337fffff), 0x8001}, // just below the smallest subnormal, negative
		{8.940697e-8, 0x0002},                       // 1.5x smallest subnormal: ties to even (2)
		{1.00048828125, 0x3C00},                     // 1 + half-ulp: RNE tie to even
		{1.0004884, 0x3C01},                         // just above the tie: rounds up
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, tc := range cases {
		if got := tensor.F16Encode(tc.in); got != tc.bits {
			t.Errorf("F16Encode(%g) = %#04x, want %#04x", tc.in, got, tc.bits)
		}
	}
	// NaN must stay NaN.
	if v := tensor.F16Decode(tensor.F16Encode(float32(math.NaN()))); !math.IsNaN(float64(v)) {
		t.Errorf("NaN round-trip produced %g", v)
	}
	// Every representable half value must round-trip exactly through fp32.
	for bits := 0; bits < 1<<16; bits++ {
		v := tensor.F16Decode(uint16(bits))
		if math.IsNaN(float64(v)) {
			continue
		}
		if back := tensor.F16Encode(v); back != uint16(bits) {
			t.Fatalf("half %#04x decodes to %g which re-encodes to %#04x", bits, v, back)
		}
	}
}

// refF16Decode is a frozen copy of the branchy bit-level binary16 decode
// (the only decode before F16Decode became a table load). The table must
// reproduce it on every one of the 65536 bit patterns, NaN payloads and
// subnormals included.
func refF16Decode(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f:
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(113)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

func TestF16DecodeExhaustive(t *testing.T) {
	for bits := 0; bits < 1<<16; bits++ {
		got := math.Float32bits(tensor.F16Decode(uint16(bits)))
		if want := math.Float32bits(refF16Decode(uint16(bits))); got != want {
			t.Fatalf("F16Decode(%#04x) = %#08x, reference decode gives %#08x", bits, got, want)
		}
	}
}

// refF16Encode is a frozen copy of the case-by-case round-to-nearest-even
// encode (the whole of F16Encode before it grew a branch-free fast path
// for the normal range and zero).
func refF16Encode(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127
	man := b & 0x7fffff
	switch {
	case exp == 128:
		if man != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp > 15:
		return sign | 0x7c00
	case exp >= -14:
		m := man >> 13
		rem := man & 0x1fff
		h := sign | uint16(exp+15)<<10 | uint16(m)
		if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
			h++
		}
		return h
	case exp >= -25: // down to half the smallest subnormal, 2^-25 itself being the tie that goes to zero
		sig := man | 0x800000
		shift := uint32(-exp - 1)
		m := sig >> shift
		rem := sig & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		h := sign | uint16(m)
		if rem > half || (rem == half && m&1 == 1) {
			h++
		}
		return h
	default:
		return sign
	}
}

// forEachEncodeProbe calls f on the float32 bit patterns where binary16
// rounding decisions live: every half value, the midpoint to its successor
// (the tie) and the float32 neighbours of both; every exponent (subnormal
// halves shift by 14..24 bits, so their ties sit at every bit position;
// overflow; inf/NaN) with the mantissas around each single bit and each
// adjacent bit pair, a tie below an even and below an odd kept bit and one
// float32 ulp either side; the three patterns that bound the values rounding
// up to the smallest subnormal, (2^-25, 2^-24), with 2^-25 itself, the tie
// that goes to zero; and a few million random patterns.
func forEachEncodeProbe(f func(b uint32)) {
	for h := 0; h < 1<<16; h++ {
		lo := math.Float32bits(refF16Decode(uint16(h)))
		mid := lo + 0x1000 // half of a normal half's ulp; harmless elsewhere
		for _, b := range []uint32{lo - 1, lo, lo + 1, mid - 1, mid, mid + 1} {
			f(b)
		}
	}
	for e := uint32(0); e < 256; e++ {
		for p := uint(0); p < 23; p++ {
			for _, m := range []uint32{1 << p, 3 << p} {
				for _, man := range []uint32{m - 1, m, m + 1} {
					f(e<<23 | man&0x7fffff)
					f(1<<31 | e<<23 | man&0x7fffff)
				}
			}
		}
	}
	for _, b := range []uint32{0x33000000, 0x33000001, 0x337fffff} {
		f(b)
		f(1<<31 | b)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4_000_000; i++ {
		f(rng.Uint32())
	}
}

// TestF16EncodeMatchesReference holds F16Encode to the reference on
// forEachEncodeProbe's inputs. (All 2^32 patterns were compared once,
// offline, when the fast path was written; that takes ~20 s.)
func TestF16EncodeMatchesReference(t *testing.T) {
	forEachEncodeProbe(func(b uint32) {
		f := math.Float32frombits(b)
		if got, want := tensor.F16Encode(f), refF16Encode(f); got != want {
			t.Fatalf("F16Encode(%#08x = %g) = %#04x, reference gives %#04x", b, f, got, want)
		}
	})
}

// TestRunAccessMatchesElementAccess: LoadF, StoreF and CopyRange must
// produce exactly what GetF/SetF produce one element at a time, for every
// pair of storage types, unaligned offsets and lengths around the
// internal run size.
func TestRunAccessMatchesElementAccess(t *testing.T) {
	const n = 700
	dtypes := []tensor.DType{tensor.Float32, tensor.Float16, tensor.Int8}
	mk := func(dt tensor.DType, scale float32, seed int64) *tensor.Tensor {
		t := tensor.NewTyped(dt, n)
		t.SetScale(scale)
		t.FillRandom(seed)
		return t
	}
	for _, sdt := range dtypes {
		src := mk(sdt, 1.0/90, 3)
		for _, off := range []int{0, 5} {
			for _, cnt := range []int{1, 255, 256, 257, 600} {
				got := make([]float32, cnt)
				src.LoadF(got, off)
				for i, v := range got {
					if math.Float32bits(v) != math.Float32bits(src.GetF(off+i)) {
						t.Fatalf("LoadF %s off %d len %d elem %d: %g, GetF gives %g", sdt, off, cnt, i, v, src.GetF(off+i))
					}
				}
				for _, ddt := range dtypes {
					for _, dscale := range []float32{1.0 / 90, 1.0 / 50} {
						want, viaStore, viaCopy := mk(ddt, dscale, 4), mk(ddt, dscale, 4), mk(ddt, dscale, 4)
						for i := 0; i < cnt; i++ {
							want.SetF(7+i, src.GetF(off+i))
						}
						viaStore.StoreF(7, got)
						tensor.CopyRange(viaCopy, 7, src, off, cnt)
						for i := 0; i < n; i++ {
							w := math.Float32bits(want.GetF(i))
							if g := math.Float32bits(viaStore.GetF(i)); g != w {
								t.Fatalf("StoreF %s->%s elem %d: %#08x, SetF gives %#08x", sdt, ddt, i, g, w)
							}
							if g := math.Float32bits(viaCopy.GetF(i)); g != w {
								t.Fatalf("CopyRange %s->%s (scale %g) elem %d: %#08x, SetF(GetF) gives %#08x", sdt, ddt, dscale, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestQuantizeInt8 pins the symmetric quantizer: saturation at +-127,
// round-to-nearest-even, zero preserved exactly, degenerate scales safe.
func TestQuantizeInt8(t *testing.T) {
	s := tensor.Int8Scale(127) // scale 1
	if s != 1 {
		t.Fatalf("Int8Scale(127) = %g, want 1", s)
	}
	cases := []struct {
		v    float32
		want int8
	}{
		{0, 0}, {1, 1}, {-1, -1}, {126.6, 127}, {1000, 127}, {-1000, -127},
		{0.5, 0}, {1.5, 2}, {2.5, 2}, // ties to even
	}
	for _, tc := range cases {
		if got := tensor.QuantizeInt8(tc.v, s); got != tc.want {
			t.Errorf("QuantizeInt8(%g, 1) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := tensor.QuantizeInt8(5, 0); got != 0 {
		t.Errorf("zero scale must quantize to code 0, got %d", got)
	}
	if s := tensor.Int8Scale(0); s != 1 {
		t.Errorf("degenerate Int8Scale(0) = %g, want 1", s)
	}
}

// TestConvertAndCopy: fp32 -> fp16 -> fp32 stays within half precision;
// fp32 -> int8 -> fp32 within the quantization step; Copy moves values
// across dtypes without allocating new storage semantics surprises.
func TestConvertAndCopy(t *testing.T) {
	src := tensor.New(2, 3, 4, 4)
	src.FillRandom(11)

	h := tensor.Convert(src, tensor.Float16, 0)
	if h.DType() != tensor.Float16 {
		t.Fatalf("Convert dtype = %v", h.DType())
	}
	for i := 0; i < src.Size(); i++ {
		want := tensor.F16Round(src.GetF(i))
		if got := h.GetF(i); got != want {
			t.Fatalf("elem %d: fp16 %g, want %g", i, got, want)
		}
	}

	q := tensor.Convert(src, tensor.Int8, 0)
	if q.Scale() <= 0 {
		t.Fatalf("int8 convert must derive a positive scale, got %g", q.Scale())
	}
	for i := 0; i < src.Size(); i++ {
		if d := math.Abs(float64(q.GetF(i) - src.GetF(i))); d > float64(q.Scale())/2+1e-7 {
			t.Fatalf("elem %d: int8 error %g exceeds half step %g", i, d, q.Scale()/2)
		}
	}

	// Cross-dtype Copy widens back to fp32.
	back := tensor.New(2, 3, 4, 4)
	tensor.Copy(back, h)
	for i := 0; i < src.Size(); i++ {
		if back.GetF(i) != h.GetF(i) {
			t.Fatalf("Copy fp16->fp32 elem %d: %g vs %g", i, back.GetF(i), h.GetF(i))
		}
	}

	// Same-dtype int8 Copy must carry the scale.
	q2 := tensor.NewTyped(tensor.Int8, 2, 3, 4, 4)
	tensor.Copy(q2, q)
	if q2.Scale() != q.Scale() {
		t.Fatalf("int8 Copy dropped scale: %g vs %g", q2.Scale(), q.Scale())
	}
}

// TestArenaMixed: the mixed arena hands out dtype-segregated slices, and
// each pool is exhausted at its own capacity.
func TestArenaMixed(t *testing.T) {
	a := tensor.NewArenaMixed(100, 60, 40)
	f := a.Alloc(100)
	h := a.Alloc16(60)
	q := a.Alloc8(40)
	if len(f) != 100 || len(h) != 60 || len(q) != 40 {
		t.Fatalf("alloc lengths %d/%d/%d", len(f), len(h), len(q))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted pool must panic")
		}
	}()
	a.Alloc16(1)
}
