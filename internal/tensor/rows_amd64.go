package tensor

import (
	"unsafe"

	"unigpu/internal/cpu"
)

// The AVX2/F16C row conversions (rows_amd64.s). Each converts n elements, n
// a positive multiple of 8, and checks no bounds.
//
//go:noescape
func widenHalfAVX2(dst *float32, src *uint16, n int)

//go:noescape
func narrowHalfAVX2(dst *uint16, src *float32, n int)

// quantizeAVX2 reads float32 values, or binary16 ones when half is set.
//
//go:noescape
func quantizeAVX2(dst *int8, src unsafe.Pointer, n int, scale float32, half bool)

//go:noescape
func dequantizeAVX2(dst *float32, src *int8, n int, scale float32)

// vecLen is how many of n elements the assembly converts: the leading
// multiple of eight on a host that has the instructions.
func vecLen(n int) int {
	if !cpu.Vector {
		return 0
	}
	return n &^ 7
}

func widenHalfVec(dst []float32, src []uint16) int {
	n := vecLen(len(dst))
	if n > 0 {
		widenHalfAVX2(&dst[0], &src[0], n)
	}
	return n
}

func narrowHalfVec(dst []uint16, src []float32) int {
	n := vecLen(len(dst))
	if n > 0 {
		narrowHalfAVX2(&dst[0], &src[0], n)
	}
	return n
}

// A zero scale quantizes everything to code 0 without dividing; that stays
// with the portable loop.
func quantizeVec(dst []int8, src []float32, scale float32) int {
	n := vecLen(len(dst))
	if n == 0 || scale == 0 {
		return 0
	}
	quantizeAVX2(&dst[0], unsafe.Pointer(&src[0]), n, scale, false)
	return n
}

func quantizeHalfVec(dst []int8, src []uint16, scale float32) int {
	n := vecLen(len(dst))
	if n == 0 || scale == 0 {
		return 0
	}
	quantizeAVX2(&dst[0], unsafe.Pointer(&src[0]), n, scale, true)
	return n
}

func dequantizeVec(dst []float32, src []int8, scale float32) int {
	n := vecLen(len(dst))
	if n > 0 {
		dequantizeAVX2(&dst[0], &src[0], n, scale)
	}
	return n
}
