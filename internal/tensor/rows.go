package tensor

// Row primitives: the conversions between storage formats, a run of
// elements at a time. LoadF, StoreF and CopyRange are built on them, so
// every dtype-generic operator and every cast gets them with no change at
// its call site. Each is one portable loop over the scalar conversion
// (f16Table, F16Encode, QuantizeInt8), which is also the reference; on a
// host with vector units (internal/cpu) an assembly routine converts the
// leading multiple of eight elements to the same bits first and the loop
// finishes the tail.

// WidenHalf decodes the binary16 values src[:len(dst)] into dst.
func WidenHalf(dst []float32, src []uint16) {
	src = src[:len(dst)]
	for i := widenHalfVec(dst, src); i < len(dst); i++ {
		dst[i] = f16Table[src[i]]
	}
}

// NarrowHalf rounds src[:len(dst)] to binary16, to nearest even, into dst.
func NarrowHalf(dst []uint16, src []float32) {
	src = src[:len(dst)]
	for i := narrowHalfVec(dst, src); i < len(dst); i++ {
		dst[i] = F16Encode(src[i])
	}
}

// quantizeRow stores QuantizeInt8(src[i], scale) for every i < len(dst).
func quantizeRow(dst []int8, src []float32, scale float32) {
	src = src[:len(dst)]
	for i := quantizeVec(dst, src, scale); i < len(dst); i++ {
		dst[i] = QuantizeInt8(src[i], scale)
	}
}

// quantizeHalfRow is quantizeRow over binary16 values: the cast in front of
// an int8 conv, with no float32 copy of the tensor in between.
func quantizeHalfRow(dst []int8, src []uint16, scale float32) {
	src = src[:len(dst)]
	for i := quantizeHalfVec(dst, src, scale); i < len(dst); i++ {
		dst[i] = QuantizeInt8(f16Table[src[i]], scale)
	}
}

// dequantizeRow stores scale*float32(src[i]) for every i < len(dst).
func dequantizeRow(dst []float32, src []int8, scale float32) {
	src = src[:len(dst)]
	for i := dequantizeVec(dst, src, scale); i < len(dst); i++ {
		dst[i] = scale * float32(src[i])
	}
}
