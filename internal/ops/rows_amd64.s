#include "textflag.h"

// func axpyAVX2(acc, x unsafe.Pointer, n int, w uint32, ints bool)
//
// acc[i] += x[i]*w over n elements, n a positive multiple of 8: float32
// lanes, or int32 lanes when ints is set, w holding the bits of either. The
// float product is rounded by VMULPS before VADDPS adds it, the two
// roundings of Go's scalar `acc[i] += x[i]*w` on amd64; as in the GEMM tile
// (gemm_amd64.s) a fused multiply-add would break bit-identity with the
// portable loop and every golden, so this loop must never use one.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-29
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	CMPB ints+28(FP), $0
	JNE  i32
	VBROADCASTSS w+24(FP), Y15
	TESTQ $8, CX
	JEQ  f32x16
	VMULPS (SI), Y15, Y0
	VADDPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JEQ  done
f32x16:
	VMULPS 0(SI), Y15, Y0
	VMULPS 32(SI), Y15, Y1
	VADDPS 0(DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, CX
	JNE  f32x16
	JMP  done
i32:
	MOVL w+24(FP), AX
	VMOVD AX, X15
	VPBROADCASTD X15, Y15
i32x8:
	VPMULLD (SI), Y15, Y0
	VPADDD (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  i32x8
done:
	VZEROUPPER
	RET

// func reluAVX2(run unsafe.Pointer, n int)
//
// run[i] = 0 where run[i] < 0, over n float32 values, n a positive multiple
// of 8. The value is VMAXPS's second source and +0 its first, so a NaN and
// a -0 (equal to +0: the second source is returned) come back as they are:
// exactly `if v < 0 { v = 0 }`.
TEXT ·reluAVX2(SB), NOSPLIT, $0-16
	MOVQ run+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y15, Y15, Y15
relu:
	VMAXPS (DI), Y15, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  relu
	VZEROUPPER
	RET

// func dequantAVX2(dst, src unsafe.Pointer, n int, scale, bias float32)
//
// dst[i] = float32(src[i])*scale + bias over n int32 sums, n a positive
// multiple of 8: the int8 kernels' dequantize step, the product rounded
// before the bias is added as in the Go expression (no fused multiply-add).
TEXT ·dequantAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y14
	VBROADCASTSS bias+28(FP), Y15
dequant:
	VCVTDQ2PS (SI), Y0
	VMULPS Y14, Y0, Y0
	VADDPS Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  dequant
	VZEROUPPER
	RET

// func widenCodesAVX2(dst, src unsafe.Pointer, n int)
//
// dst[i] = int32(src[i]) over n int8 codes, n a positive multiple of 8.
TEXT ·widenCodesAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
codes:
	VPMOVSXBD (SI), Y0
	VMOVDQU Y0, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  codes
	VZEROUPPER
	RET
