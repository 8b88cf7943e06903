#include "textflag.h"

// func hasVector() bool
//
// CPUID.1:ECX must show OSXSAVE (bit 27), AVX (28) and F16C (29), XCR0 must
// show the OS saving XMM and YMM state (bits 1 and 2), and CPUID.7.0:EBX
// bit 5 is AVX2 itself.
TEXT ·hasVector(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  novector
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x38000000, CX
	CMPL CX, $0x38000000
	JNE  novector
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  novector
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
novector:
	RET
