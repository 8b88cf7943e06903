#include "textflag.h"

// The row conversions of rows.go, eight elements a step. Each routine's
// contract is its portable loop's: the same bits for every input, NaNs and
// out-of-range values included (rows_test.go holds them to it).

DATA rowSignMask<>+0(SB)/4, $0x80000000
GLOBL rowSignMask<>(SB), RODATA|NOPTR, $4
DATA rowQuietNaN<>+0(SB)/4, $0x7fc00000
GLOBL rowQuietNaN<>(SB), RODATA|NOPTR, $4
DATA rowCodeMax<>+0(SB)/8, $127.0
GLOBL rowCodeMax<>(SB), RODATA|NOPTR, $8
DATA rowCodeMin<>+0(SB)/8, $-127.0
GLOBL rowCodeMin<>(SB), RODATA|NOPTR, $8
// VPSHUFB masks gathering the low byte of each dword into bytes 0-3, or
// into bytes 4-7; every other byte becomes zero.
DATA rowLowBytes<>+0(SB)/8, $0xffffffff0c080400
DATA rowLowBytes<>+8(SB)/8, $0xffffffffffffffff
DATA rowLowBytes<>+16(SB)/8, $0x0c080400ffffffff
DATA rowLowBytes<>+24(SB)/8, $0xffffffffffffffff
GLOBL rowLowBytes<>(SB), RODATA|NOPTR, $32

// func widenHalfAVX2(dst *float32, src *uint16, n int)
//
// VCVTPH2PS is exact, keeps subnormals and quiets a signalling NaN, as
// f16Table does.
TEXT ·widenHalfAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
widen:
	VCVTPH2PS (SI), Y0
	VMOVUPS Y0, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  widen
	VZEROUPPER
	RET

// func narrowHalfAVX2(dst *uint16, src *float32, n int)
//
// VCVTPS2PH with immediate 0 rounds to nearest even whatever MXCSR says,
// overflows to infinity and produces subnormal halves, as F16Encode does.
// It would keep a NaN's payload where F16Encode returns the one quiet NaN,
// so NaN lanes are replaced by that NaN (their sign kept) before it runs.
TEXT ·narrowHalfAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS rowSignMask<>(SB), Y14
	VBROADCASTSS rowQuietNaN<>(SB), Y15
narrow:
	VMOVUPS (SI), Y0
	VCMPPS $3, Y0, Y0, Y1 // unordered with itself: the NaN lanes
	VANDPS Y14, Y0, Y2
	VORPS  Y15, Y2, Y2
	VBLENDVPS Y1, Y2, Y0, Y0
	VCVTPS2PH $0, Y0, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	SUBQ $8, CX
	JNE  narrow
	VZEROUPPER
	RET

// func quantizeAVX2(dst *int8, src unsafe.Pointer, n int, scale float32, half bool)
//
// QuantizeInt8 four lanes at a time: the value and the scale widened to
// float64, one float64 divide, clamped to [-127, 127], rounded to nearest
// even (VROUNDPD immediate 0, whatever MXCSR says) and converted. Clamping
// first is the same as QuantizeInt8's clamping last because the bounds are
// integers and rounding is monotonic. The value is the second source of
// VMINPD/VMAXPD, so a NaN passes through both, converts to the integer
// indefinite 0x80000000 and stores its low byte, 0: what int8(NaN) gives in
// the portable loop on this architecture.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-29
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVSS scale+24(FP), X15
	VCVTSS2SD X15, X15, X15
	VBROADCASTSD X15, Y15
	VBROADCASTSD rowCodeMax<>(SB), Y14
	VBROADCASTSD rowCodeMin<>(SB), Y13
	VMOVDQU rowLowBytes<>+0(SB), X12
	VMOVDQU rowLowBytes<>+16(SB), X11
	MOVBLZX half+28(FP), BX
	TESTL BX, BX
	JNE  quanthalf
quant:
	VCVTPS2PD 0(SI), Y0
	VCVTPS2PD 16(SI), Y1
	ADDQ $32, SI
	JMP  quantcodes
quanthalf:
	VCVTPH2PS (SI), Y2
	VEXTRACTF128 $1, Y2, X3
	VCVTPS2PD X2, Y0
	VCVTPS2PD X3, Y1
	ADDQ $16, SI
quantcodes:
	VDIVPD Y15, Y0, Y0
	VDIVPD Y15, Y1, Y1
	VMINPD Y0, Y14, Y0
	VMINPD Y1, Y14, Y1
	VMAXPD Y0, Y13, Y0
	VMAXPD Y1, Y13, Y1
	VROUNDPD $0, Y0, Y0
	VROUNDPD $0, Y1, Y1
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VPSHUFB X12, X0, X0
	VPSHUFB X11, X1, X1
	VPOR X1, X0, X0
	VMOVQ X0, (DI)
	ADDQ $8, DI
	SUBQ $8, CX
	JEQ  quantdone
	TESTL BX, BX
	JNE  quanthalf
	JMP  quant
quantdone:
	VZEROUPPER
	RET

// func dequantizeAVX2(dst *float32, src *int8, n int, scale float32)
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y15
dequant:
	VPMOVSXBD (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  dequant
	VZEROUPPER
	RET
