#include "textflag.h"

// The codec's AVX2 kernels (kernels_amd64.go says what each must
// match). Go's operand order is Intel's reversed: VPSUBQ Y5, Y2, Y5 is
// Y5 = Y2 - Y5.

// Byte shuffles within each 128-bit half: pairBytes interleaves the
// bytes of two lanes, plane by plane (byte 2p+h = byte p of lane h);
// unpairBytes undoes it.
DATA pairBytes<>+0(SB)/8, $0x0b030a0209010800
DATA pairBytes<>+8(SB)/8, $0x0f070e060d050c04
DATA pairBytes<>+16(SB)/8, $0x0b030a0209010800
DATA pairBytes<>+24(SB)/8, $0x0f070e060d050c04
GLOBL pairBytes<>(SB), RODATA|NOPTR, $32

DATA unpairBytes<>+0(SB)/8, $0x0e0c0a0806040200
DATA unpairBytes<>+8(SB)/8, $0x0f0d0b0907050301
DATA unpairBytes<>+16(SB)/8, $0x0e0c0a0806040200
DATA unpairBytes<>+24(SB)/8, $0x0f0d0b0907050301
GLOBL unpairBytes<>(SB), RODATA|NOPTR, $32

// TRANSPOSE8 transposes, in each 128-bit half, the 8×8 matrix of
// 16-bit units whose row j is Yj (Y0..Y7), leaving column c in
// Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y3 (c = 0..7). It is its own
// inverse.
#define TRANSPOSE8 \
	VPUNPCKLWD  Y1, Y0, Y8   \
	VPUNPCKHWD  Y1, Y0, Y9   \
	VPUNPCKLWD  Y3, Y2, Y10  \
	VPUNPCKHWD  Y3, Y2, Y11  \
	VPUNPCKLWD  Y5, Y4, Y12  \
	VPUNPCKHWD  Y5, Y4, Y13  \
	VPUNPCKLWD  Y7, Y6, Y14  \
	VPUNPCKHWD  Y7, Y6, Y6   \
	VPUNPCKLDQ  Y10, Y8, Y0  \
	VPUNPCKHDQ  Y10, Y8, Y1  \
	VPUNPCKLDQ  Y11, Y9, Y2  \
	VPUNPCKHDQ  Y11, Y9, Y3  \
	VPUNPCKLDQ  Y14, Y12, Y4 \
	VPUNPCKHDQ  Y14, Y12, Y5 \
	VPUNPCKLDQ  Y6, Y13, Y7  \
	VPUNPCKHDQ  Y6, Y13, Y6  \
	VPUNPCKLQDQ Y4, Y0, Y8   \
	VPUNPCKHQDQ Y4, Y0, Y9   \
	VPUNPCKLQDQ Y5, Y1, Y10  \
	VPUNPCKHQDQ Y5, Y1, Y11  \
	VPUNPCKLQDQ Y7, Y2, Y12  \
	VPUNPCKHQDQ Y7, Y2, Y13  \
	VPUNPCKLQDQ Y6, Y3, Y14  \
	VPUNPCKHQDQ Y6, Y3, Y3

// func transposeAVX2(dst *byte, src *uint64, n, m int)
TEXT ·transposeAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ m+24(FP), CX
	VMOVDQU pairBytes<>(SB), Y15
	LEAQ (DX)(DX*2), R8 // 3n
	LEAQ (DI)(DX*4), R9 // plane 4
	SHRQ $5, CX

tloop:
	// Row j: lanes 2j, 2j+1 in the low half, lanes 2j+16, 2j+17 in the high.
	VMOVDQU     0(SI), X0
	VINSERTI128 $1, 128(SI), Y0, Y0
	VMOVDQU     16(SI), X1
	VINSERTI128 $1, 144(SI), Y1, Y1
	VMOVDQU     32(SI), X2
	VINSERTI128 $1, 160(SI), Y2, Y2
	VMOVDQU     48(SI), X3
	VINSERTI128 $1, 176(SI), Y3, Y3
	VMOVDQU     64(SI), X4
	VINSERTI128 $1, 192(SI), Y4, Y4
	VMOVDQU     80(SI), X5
	VINSERTI128 $1, 208(SI), Y5, Y5
	VMOVDQU     96(SI), X6
	VINSERTI128 $1, 224(SI), Y6, Y6
	VMOVDQU     112(SI), X7
	VINSERTI128 $1, 240(SI), Y7, Y7
	VPSHUFB     Y15, Y0, Y0
	VPSHUFB     Y15, Y1, Y1
	VPSHUFB     Y15, Y2, Y2
	VPSHUFB     Y15, Y3, Y3
	VPSHUFB     Y15, Y4, Y4
	VPSHUFB     Y15, Y5, Y5
	VPSHUFB     Y15, Y6, Y6
	VPSHUFB     Y15, Y7, Y7
	TRANSPOSE8
	VMOVDQU     Y8, (DI)
	VMOVDQU     Y9, (DI)(DX*1)
	VMOVDQU     Y10, (DI)(DX*2)
	VMOVDQU     Y11, (DI)(R8*1)
	VMOVDQU     Y12, (R9)
	VMOVDQU     Y13, (R9)(DX*1)
	VMOVDQU     Y14, (R9)(DX*2)
	VMOVDQU     Y3, (R9)(R8*1)
	ADDQ        $256, SI
	ADDQ        $32, DI
	ADDQ        $32, R9
	DECQ        CX
	JNZ         tloop
	VZEROUPPER
	RET

// func untransposeAVX2(dst *uint64, src *byte, n, m int)
TEXT ·untransposeAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ m+24(FP), CX
	VMOVDQU unpairBytes<>(SB), Y15
	LEAQ (DX)(DX*2), R8 // 3n
	LEAQ (SI)(DX*4), R9 // plane 4
	SHRQ $5, CX

uloop:
	VMOVDQU      (SI), Y0
	VMOVDQU      (SI)(DX*1), Y1
	VMOVDQU      (SI)(DX*2), Y2
	VMOVDQU      (SI)(R8*1), Y3
	VMOVDQU      (R9), Y4
	VMOVDQU      (R9)(DX*1), Y5
	VMOVDQU      (R9)(DX*2), Y6
	VMOVDQU      (R9)(R8*1), Y7
	TRANSPOSE8
	VPSHUFB      Y15, Y8, Y8
	VPSHUFB      Y15, Y9, Y9
	VPSHUFB      Y15, Y10, Y10
	VPSHUFB      Y15, Y11, Y11
	VPSHUFB      Y15, Y12, Y12
	VPSHUFB      Y15, Y13, Y13
	VPSHUFB      Y15, Y14, Y14
	VPSHUFB      Y15, Y3, Y3
	VMOVDQU      X8, 0(DI)
	VEXTRACTI128 $1, Y8, 128(DI)
	VMOVDQU      X9, 16(DI)
	VEXTRACTI128 $1, Y9, 144(DI)
	VMOVDQU      X10, 32(DI)
	VEXTRACTI128 $1, Y10, 160(DI)
	VMOVDQU      X11, 48(DI)
	VEXTRACTI128 $1, Y11, 176(DI)
	VMOVDQU      X12, 64(DI)
	VEXTRACTI128 $1, Y12, 192(DI)
	VMOVDQU      X13, 80(DI)
	VEXTRACTI128 $1, Y13, 208(DI)
	VMOVDQU      X14, 96(DI)
	VEXTRACTI128 $1, Y14, 224(DI)
	VMOVDQU      X3, 112(DI)
	VEXTRACTI128 $1, Y3, 240(DI)
	ADDQ         $256, DI
	ADDQ         $32, SI
	ADDQ         $32, R9
	DECQ         CX
	JNZ          uloop
	VZEROUPPER
	RET

// BROADCAST64 fills every lane of Y with the 64-bit constant c.
#define BROADCAST64(c, X, Y) \
	MOVQ         c, AX \
	VMOVQ        AX, X \
	VPBROADCASTQ X, Y

// func quantizeAVX2(z *uint64, x *float64, n int, step, bound float64, prev, or uint64) (done int, prevOut, orOut uint64)
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-80
	MOVQ         z+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD step+24(FP), Y15
	VBROADCASTSD bound+32(FP), Y14
	VPBROADCASTQ prev+40(FP), Y8
	VMOVQ        or+48(FP), X7
	BROADCAST64($0x7fffffffffffffff, X13, Y13) // |.| mask
	BROADCAST64($0x3fe0000000000000, X12, Y12) // 0.5
	BROADCAST64($0x3ff0000000000000, X11, Y11) // 1
	BROADCAST64($0x4320000000000000, X10, Y10) // 2^51
	BROADCAST64($0x4338000000000000, X9, Y9)   // 2^52+2^51
	XORQ         AX, AX

qloop:
	CMPQ      AX, CX
	JGE       qdone
	VMOVUPD   (SI)(AX*8), Y0
	VDIVPD    Y15, Y0, Y1       // d = x / step
	VROUNDPD  $3, Y1, Y2        // t = trunc(d)
	VSUBPD    Y2, Y1, Y3        // d - t, exact
	VANDPD    Y13, Y3, Y3
	VCMPPD    $0x1d, Y12, Y3, Y3 // |d - t| >= 0.5
	VANDNPD   Y1, Y13, Y4       // the sign of d
	VORPD     Y11, Y4, Y4
	VANDPD    Y3, Y4, Y4        // ±1 where d rounds away from t, else 0
	VADDPD    Y4, Y2, Y2        // q = math.Round(d)
	VANDPD    Y13, Y2, Y3
	VCMPPD    $0x11, Y10, Y3, Y3 // |q| < 2^51, false for NaN
	VMULPD    Y15, Y2, Y4       // q*step
	VSUBPD    Y4, Y0, Y4        // x - q*step
	VANDPD    Y13, Y4, Y4
	VCMPPD    $0x12, Y14, Y4, Y4 // |x - q*step| <= bound, false for NaN
	VANDPD    Y4, Y3, Y3
	VMOVMSKPD Y3, BX
	CMPL      BX, $15
	JNE       qdone
	VADDPD    Y9, Y2, Y2
	VPSUBQ    Y9, Y2, Y2        // b = int64(q)
	VPERMQ    $0x93, Y2, Y5     // b3 b0 b1 b2
	VPBLENDD  $0x03, Y8, Y5, Y5 // prev b0 b1 b2
	VPERMQ    $0xff, Y2, Y8     // the next block's prev
	VPSUBQ    Y5, Y2, Y5        // d = b - prev
	VPXOR     Y6, Y6, Y6
	VPCMPGTQ  Y5, Y6, Y6        // 0 > d
	VPSLLQ    $1, Y5, Y5
	VPXOR     Y6, Y5, Y5        // fold(d)
	VMOVDQU   Y5, (DI)(AX*8)
	VPOR      Y5, Y7, Y7
	ADDQ      $4, AX
	JMP       qloop

qdone:
	MOVQ         AX, done+56(FP)
	VMOVQ        X8, prevOut+64(FP)
	VEXTRACTI128 $1, Y7, X0
	VPOR         X0, X7, X7
	VPSHUFD      $0x4e, X7, X0
	VPOR         X0, X7, X7
	VMOVQ        X7, orOut+72(FP)
	VZEROUPPER
	RET

// func dequantizeAVX2(dst *float64, z *uint64, n int, step float64, acc uint64) (done int, accOut uint64)
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         z+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD step+24(FP), Y15
	VPBROADCASTQ acc+32(FP), Y14
	BROADCAST64($1, X13, Y13)
	BROADCAST64($0x0008000000000000, X12, Y12) // 2^51
	BROADCAST64($0xfff0000000000000, X11, Y11) // bits 52..63
	BROADCAST64($0x4338000000000000, X10, Y10) // 2^52+2^51
	VPXOR        Y9, Y9, Y9
	XORQ         AX, AX

dloop:
	CMPQ       AX, CX
	JGE        ddone
	VMOVDQU    (SI)(AX*8), Y0
	VPSRLQ     $1, Y0, Y1
	VPAND      Y13, Y0, Y0
	VPSUBQ     Y0, Y9, Y0        // -(z & 1)
	VPXOR      Y1, Y0, Y0        // u = unfold(z)
	VPERMQ     $0x90, Y0, Y1     // u0 u0 u1 u2
	VPBLENDD   $0x03, Y9, Y1, Y1 // 0 u0 u1 u2
	VPADDQ     Y1, Y0, Y0
	VPERM2I128 $0x08, Y0, Y0, Y1 // 0 0 s0 s1
	VPADDQ     Y1, Y0, Y0
	VPADDQ     Y14, Y0, Y0       // acc after each lane
	VPADDQ     Y12, Y0, Y1
	VPTEST     Y11, Y1           // some acc outside [-2^51, 2^51)
	JNE        ddone
	VPERMQ     $0xff, Y0, Y14
	VPADDQ     Y10, Y0, Y0
	VSUBPD     Y10, Y0, Y0       // float64(int64(acc))
	VMULPD     Y15, Y0, Y0
	VMOVUPD    Y0, (DI)(AX*8)
	ADDQ       $4, AX
	JMP        dloop

ddone:
	MOVQ  AX, done+40(FP)
	VMOVQ X14, accOut+48(FP)
	VZEROUPPER
	RET
