#include "textflag.h"

// func gemmTileAVX2(c, a, b unsafe.Pointer, k int, codes bool)
//
// The AVX2 register tiles of the im2col-GEMM (see gemm.go):
//
//	c[j*16+i] += sum over kk < k of a[kk*16+i] * b[kk*4+j]    i < 16, j < 4
//
// over one A row panel and one B column panel, of float32 (c float32) or,
// when codes is set, of int8 codes (c int32). The sixteen rows of a c
// column are the lanes of two 8-lane registers: Y(2j) holds rows 0-7 of
// column j, Y(2j+1) rows 8-15, so the 64 accumulators are Y0-Y7 from the
// first k step to the last and no step touches memory but the panels.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $16-33
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7
	CMPB codes+32(FP), $0
	JNE  i8next
	TESTQ CX, CX
	JEQ  done

	// The float32 tile. Each lane is one accumulator taking its products in
	// ascending k, and a product is rounded by VMULPS before VADDPS adds it:
	// the two roundings of Go's scalar `c += a*b` on amd64. A fused
	// multiply-add would round once and break bit-identity with gemmTileGo,
	// the direct kernel and every golden, so this loop must never use one.
f32step:
	VMOVUPS 0(SI), Y8   // a[kk] rows 0-7
	VMOVUPS 32(SI), Y9  // a[kk] rows 8-15
	VBROADCASTSS 0(DX), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y1, Y1
	VBROADCASTSS 4(DX), Y13
	VMULPS Y8, Y13, Y14
	VADDPS Y14, Y2, Y2
	VMULPS Y9, Y13, Y15
	VADDPS Y15, Y3, Y3
	VBROADCASTSS 8(DX), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y4, Y4
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y5, Y5
	VBROADCASTSS 12(DX), Y13
	VMULPS Y8, Y13, Y14
	VADDPS Y14, Y6, Y6
	VMULPS Y9, Y13, Y15
	VADDPS Y15, Y7, Y7
	ADDQ $64, SI
	ADDQ $16, DX
	DECQ CX
	JNE  f32step
	JMP  done

	// The int8 tile, two k steps at a time: the codes of steps kk and kk+1
	// are interleaved and sign-extended to int16 pairs in registers (the
	// panels stay one code per byte), and VPMADDWD forms a[kk]*b[kk] +
	// a[kk+1]*b[kk+1] exactly in int32 (|codes| <= 128). An odd last step
	// pairs with zeros. Integer addition is exact, so the order is free. The
	// four b pairs pass through the frame so that each broadcast is a load.
i8next:
	CMPQ CX, $2
	JLT  i8last
	VMOVDQU 0(SI), X8  // a[kk]
	VMOVDQU 16(SI), X9 // a[kk+1]
	VMOVD 0(DX), X12   // b[kk]
	VMOVD 4(DX), X13   // b[kk+1]
	ADDQ $32, SI
	ADDQ $8, DX
	SUBQ $2, CX

i8pair:
	VPUNPCKLBW X9, X8, X10 // rows 0-7 as (a[kk], a[kk+1]) byte pairs
	VPUNPCKHBW X9, X8, X11 // rows 8-15
	VPMOVSXBW X10, Y10
	VPMOVSXBW X11, Y11
	VPUNPCKLBW X13, X12, X12 // columns 0-3 as (b[kk], b[kk+1]) byte pairs
	VPMOVSXBW X12, X12
	VMOVDQU X12, 0(SP)
	VPBROADCASTD 0(SP), Y12
	VPMADDWD Y10, Y12, Y13
	VPADDD Y13, Y0, Y0
	VPMADDWD Y11, Y12, Y14
	VPADDD Y14, Y1, Y1
	VPBROADCASTD 4(SP), Y15
	VPMADDWD Y10, Y15, Y13
	VPADDD Y13, Y2, Y2
	VPMADDWD Y11, Y15, Y14
	VPADDD Y14, Y3, Y3
	VPBROADCASTD 8(SP), Y12
	VPMADDWD Y10, Y12, Y13
	VPADDD Y13, Y4, Y4
	VPMADDWD Y11, Y12, Y14
	VPADDD Y14, Y5, Y5
	VPBROADCASTD 12(SP), Y15
	VPMADDWD Y10, Y15, Y13
	VPADDD Y13, Y6, Y6
	VPMADDWD Y11, Y15, Y14
	VPADDD Y14, Y7, Y7
	JMP  i8next

i8last:
	TESTQ CX, CX
	JEQ  done
	VMOVDQU 0(SI), X8
	VPXOR X9, X9, X9
	VMOVD 0(DX), X12
	VPXOR X13, X13, X13
	XORQ CX, CX
	JMP  i8pair

done:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET
