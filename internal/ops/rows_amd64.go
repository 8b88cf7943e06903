package ops

import (
	"unsafe"

	"unigpu/internal/cpu"
)

// axpyAVX2 (rows_amd64.s) checks no bounds; noescape keeps the row kernels'
// scratch on their stacks.
//
//go:noescape
func axpyAVX2(acc, x unsafe.Pointer, n int, w uint32, ints bool)

//go:noescape
func reluAVX2(run unsafe.Pointer, n int)

//go:noescape
func dequantAVX2(dst, src unsafe.Pointer, n int, scale, bias float32)

//go:noescape
func widenCodesAVX2(dst, src unsafe.Pointer, n int)

// vecLen is how many of n elements the assembly takes: the leading whole
// vectors on a host that has the instructions.
func vecLen(n int) int {
	if !cpu.Vector {
		return 0
	}
	return n &^ (axpyLanes - 1)
}

// The row kernels' inner loops: whole vectors in assembly where cpu.Vector
// says it runs, the rest (nothing, for the row kernels' rounded rows of
// accumulators) in the portable loop, which is the assembly's reference.

// reluRow rectifies a run in place.
func reluRow(run []float32) {
	n := vecLen(len(run))
	if n > 0 {
		reluAVX2(unsafe.Pointer(unsafe.SliceData(run)), n)
	}
	reluGo(run[n:])
}

// dequantRow is dst[i] = float32(src[i])*scale + bias.
func dequantRow(dst []float32, src []int32, scale, bias float32) {
	n := vecLen(len(src))
	if n > 0 {
		dequantAVX2(unsafe.Pointer(unsafe.SliceData(dst[:n])), unsafe.Pointer(unsafe.SliceData(src)), n, scale, bias)
	}
	dequantGo(dst[n:], src[n:], scale, bias)
}

// widenCodes is dst[i] = int32(src[i]) over len(dst) codes.
func widenCodes(dst []int32, src []int8) {
	n := vecLen(len(dst))
	if n > 0 {
		widenCodesAVX2(unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src[:n])), n)
	}
	widenCodesGo(dst[n:], src[n:])
}

// axpy is acc[i] += x[i]*w over len(acc) elements of x. A(1)/2 is zero
// exactly when the lanes are int32.
func axpy[A gemmAcc](acc, x []A, w A) {
	x = x[:len(acc)]
	n := vecLen(len(acc))
	if n > 0 {
		axpyAVX2(unsafe.Pointer(unsafe.SliceData(acc)), unsafe.Pointer(unsafe.SliceData(x)), n, *(*uint32)(unsafe.Pointer(&w)), A(1)/2 == 0)
		if n == len(acc) {
			return
		}
	}
	axpyGo(acc[n:], x[n:], w)
}
