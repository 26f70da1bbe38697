#include "textflag.h"

// probeAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (CPUID leaves 1 and 7, XGETBV).
//
// func probeAVX2() bool
TEXT ·probeAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $(3<<27), CX // OSXSAVE and AVX
	CMPL CX, $(3<<27)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET
