#include "textflag.h"

// The histogram's two passes (kernels_amd64.go says what each must
// match). Go's operand order is Intel's reversed: VMINPD Y0, Y4, Y0 is
// Y0 = Y4 < Y0 ? Y4 : Y0.

// func rangeAVX2(x *float64, n int) (lo, hi float64)
TEXT ·rangeAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ $0x7ff0000000000000, AX // +Inf
	VMOVQ AX, X0
	VBROADCASTSD X0, Y0
	VMOVAPD Y0, Y1
	MOVQ $0xfff0000000000000, AX // -Inf
	VMOVQ AX, X2
	VBROADCASTSD X2, Y2
	VMOVAPD Y2, Y3
	XORQ AX, AX

loop:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMINPD Y0, Y4, Y0
	VMINPD Y1, Y5, Y1
	VMAXPD Y2, Y4, Y2
	VMAXPD Y3, Y5, Y3
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop

	VMINPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMINPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VMINPD X1, X0, X0
	VMOVSD X0, lo+16(FP)
	VMAXPD Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X3
	VMAXPD X3, X2, X2
	VPERMILPD $1, X2, X3
	VMAXPD X3, X2, X2
	VMOVSD X2, hi+24(FP)
	VZEROUPPER
	RET

// func binAVX2(sub *int64, x *float64, n, bins int, lo, scale float64)
TEXT ·binAVX2(SB), NOSPLIT, $0-48
	MOVQ sub+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ bins+24(FP), DX
	VBROADCASTSD lo+32(FP), Y0
	VBROADCASTSD scale+40(FP), Y1
	LEAQ -1(DX), AX
	VCVTSI2SDQ AX, X2, X2
	VBROADCASTSD X2, Y2 // bins-1
	MOVQ $0x43e0000000000000, AX // 2^63
	VMOVQ AX, X3
	VBROADCASTSD X3, Y3
	VXORPD Y4, Y4, Y4

	// Lane j counts into sub[j*bins:].
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	XORQ AX, AX

loop:
	VMOVUPD (SI)(AX*8), Y5
	VSUBPD Y0, Y5, Y5      // v - lo
	VMULPD Y1, Y5, Y5      // * scale
	VCMPPD $0x11, Y3, Y5, Y6 // t < 2^63, false for NaN
	VMAXPD Y4, Y5, Y5      // t > 0 ? t : 0
	VMINPD Y2, Y5, Y5      // t < bins-1 ? t : bins-1
	VANDPD Y6, Y5, Y5
	VCVTTPD2DQY Y5, X5
	VMOVQ X5, R12
	VPEXTRQ $1, X5, R13
	MOVL R12, BX
	SHRQ $32, R12
	INCQ (R8)(BX*8)
	INCQ (R9)(R12*8)
	MOVL R13, BX
	SHRQ $32, R13
	INCQ (R10)(BX*8)
	INCQ (R11)(R13*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop

	VZEROUPPER
	RET
