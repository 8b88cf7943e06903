package tensor

import "math"

// DType identifies the element storage type of a tensor. The zero value is
// Float32, so every pre-existing construction path keeps full-precision
// semantics without change.
//
// Reduced-precision tensors follow the accumulate-in-fp32 discipline: fp16
// and int8 are *storage* formats (what lives in the arena and moves over
// the simulated memory bus); kernels widen on load, accumulate in float32,
// and narrow once on store.
type DType uint8

const (
	// Float32 is the full-precision reference format.
	Float32 DType = iota
	// Float16 is IEEE 754 binary16 storage (fp32 accumulate).
	Float16
	// Int8 is symmetric signed-8-bit quantized storage: value = scale * q,
	// q in [-127, 127]. The scale rides on the tensor (per-tensor) or, for
	// prepacked conv weights, per output channel.
	Int8
)

// Size returns the element width in bytes.
func (d DType) Size() int {
	switch d {
	case Float16:
		return 2
	case Int8:
		return 1
	}
	return 4
}

func (d DType) String() string {
	switch d {
	case Float16:
		return "fp16"
	case Int8:
		return "int8"
	}
	return "fp32"
}

// F16Encode converts a float32 to IEEE 754 binary16 with round-to-nearest-
// even, the hardware rounding mode. Overflow saturates to infinity;
// subnormal halves are produced exactly; NaN stays NaN.
func F16Encode(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	abs := b & 0x7fffffff
	switch {
	case abs-0x38800000 < 0x47800000-0x38800000:
		// Normal half range [2^-14, 2^16), where nearly every stored
		// activation lands: round the 13 dropped mantissa bits to nearest
		// even by adding 0xfff plus the kept lsb (a carry ripples into the
		// exponent, which is exact, up to infinity), then rebias the
		// exponent from 127 to 15. No data-dependent branch.
		abs += 0xfff + abs>>13&1
		return sign | uint16((abs-0x38000000)>>13)
	case abs <= 0x33000000: // at most 2^-25, half the smallest subnormal: signed zero (the tie goes to even; ReLU's output)
		return sign
	case abs > 0x7f800000: // NaN -> quiet NaN
		return sign | 0x7e00
	case abs >= 0x47800000: // overflow, or infinity itself
		return sign | 0x7c00
	default: // subnormal half, or in (2^-25, 2^-24) and rounding up to the smallest one: exponent in [-25, -15]
		sig := abs&0x7fffff | 0x800000
		shift := 126 - abs>>23 // in [14, 24]
		m := sig >> shift
		rem := sig & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		h := sign | uint16(m)
		if rem > half || (rem == half && m&1 == 1) {
			h++
		}
		return h
	}
}

// f16Table holds the float32 value of every binary16 bit pattern (256 KiB,
// filled once at start-up). A table load beat both a fast-path-plus-call
// decode (not inlinable, and zeros miss the fast path) and the
// multiply-by-2^112 trick (stalls on every subnormal) when measured, cold
// cache included, so it is the only decode.
var f16Table [1 << 16]float32

func init() {
	for h := range f16Table {
		f16Table[h] = f16DecodeBits(uint16(h))
	}
}

// F16Decode converts an IEEE 754 binary16 to float32 exactly (every half
// value is representable in single precision). It inlines to one load.
func F16Decode(h uint16) float32 { return f16Table[h] }

// f16DecodeBits is the bit-level decode the table is built from.
func f16DecodeBits(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // inf or NaN
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal half: normalize into the float32 format.
		e := uint32(113) // 127 - 15 + 1
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// F16Round is the value a float32 takes after a round trip through fp16
// storage — what a kernel reading an fp16 tensor actually sees.
func F16Round(f float32) float32 { return F16Decode(F16Encode(f)) }

// Int8Scale returns the symmetric per-tensor quantization scale mapping
// [-maxAbs, maxAbs] onto [-127, 127]. A degenerate (zero or non-finite)
// range yields scale 1 so quantizing a constant-zero tensor stays exact.
func Int8Scale(maxAbs float64) float32 {
	if !(maxAbs > 0) || math.IsInf(maxAbs, 0) {
		return 1
	}
	return float32(maxAbs / 127)
}

// QuantizeInt8 maps v to its quantized code under scale: round-to-nearest,
// saturating at ±127.
func QuantizeInt8(v, scale float32) int8 {
	if scale == 0 {
		return 0
	}
	q := math.RoundToEven(float64(v) / float64(scale))
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}
