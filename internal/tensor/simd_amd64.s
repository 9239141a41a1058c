#include "textflag.h"

// AVX bodies of the MLP kernels. Every YMM lane replays one scalar
// accumulator of the Go loops in matrix.go: it starts at +0 (or at the
// stored value), and each term is a VMULPD followed by a VADDPD in the
// Go loop's order. There is no fused multiply-add, so the rounding is
// the scalar code's, lane by lane.

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV                // XCR0 into DX:AX
	ANDL $6, AX           // XMM (bit 1) and YMM (bit 2) state saved
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func mulVec8AVX(dst, w, x []float64)
//
// Rows 0-3 accumulate in Y12 and rows 4-7 in Y13. Each step loads a 4x4
// block of w per row quad as two-element halves (rows 0|2 and 1|3 of
// columns j..j+3) and transposes it with VUNPCKLPD/VUNPCKHPD into four
// column vectors, which are multiplied by the broadcast x[j] and added in
// ascending j. The cols%4 tail gathers one column at a time.
TEXT ·mulVec8AVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), R8
	MOVQ w_base+24(FP), SI
	MOVQ x_base+48(FP), AX
	MOVQ x_len+56(FP), CX
	MOVQ CX, BX
	SHLQ $3, BX           // BX = row stride in bytes
	LEAQ (BX)(BX*2), DX   // DX = 3 strides
	LEAQ (SI)(BX*4), DI   // DI = row 4
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	MOVQ CX, R9
	SHRQ $2, R9
	JZ   tail

quad:
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11

	VMOVUPD     (SI), X0
	VINSERTF128 $1, (SI)(BX*2), Y0, Y0
	VMOVUPD     (SI)(BX*1), X1
	VINSERTF128 $1, (SI)(DX*1), Y1, Y1
	VMOVUPD     16(SI), X2
	VINSERTF128 $1, 16(SI)(BX*2), Y2, Y2
	VMOVUPD     16(SI)(BX*1), X3
	VINSERTF128 $1, 16(SI)(DX*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4 // column j of rows 0-3
	VUNPCKHPD   Y1, Y0, Y5 // column j+1
	VUNPCKLPD   Y3, Y2, Y6 // column j+2
	VUNPCKHPD   Y3, Y2, Y7 // column j+3
	VMULPD      Y8, Y4, Y4
	VMULPD      Y9, Y5, Y5
	VMULPD      Y10, Y6, Y6
	VMULPD      Y11, Y7, Y7
	VADDPD      Y4, Y12, Y12
	VADDPD      Y5, Y12, Y12
	VADDPD      Y6, Y12, Y12
	VADDPD      Y7, Y12, Y12

	VMOVUPD     (DI), X0
	VINSERTF128 $1, (DI)(BX*2), Y0, Y0
	VMOVUPD     (DI)(BX*1), X1
	VINSERTF128 $1, (DI)(DX*1), Y1, Y1
	VMOVUPD     16(DI), X2
	VINSERTF128 $1, 16(DI)(BX*2), Y2, Y2
	VMOVUPD     16(DI)(BX*1), X3
	VINSERTF128 $1, 16(DI)(DX*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VMULPD      Y8, Y4, Y4
	VMULPD      Y9, Y5, Y5
	VMULPD      Y10, Y6, Y6
	VMULPD      Y11, Y7, Y7
	VADDPD      Y4, Y13, Y13
	VADDPD      Y5, Y13, Y13
	VADDPD      Y6, Y13, Y13
	VADDPD      Y7, Y13, Y13

	ADDQ $32, AX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R9
	JNZ  quad

tail:
	ANDQ $3, CX
	JZ   done

col:
	VBROADCASTSD (AX), Y8

	VMOVSD      (SI), X0
	VMOVHPD     (SI)(BX*1), X0, X0
	VMOVSD      (SI)(BX*2), X1
	VMOVHPD     (SI)(DX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMULPD      Y8, Y0, Y0
	VADDPD      Y0, Y12, Y12

	VMOVSD      (DI), X2
	VMOVHPD     (DI)(BX*1), X2, X2
	VMOVSD      (DI)(BX*2), X3
	VMOVHPD     (DI)(DX*1), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMULPD      Y8, Y2, Y2
	VADDPD      Y2, Y13, Y13

	ADDQ $8, AX
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  col

done:
	VMOVUPD Y12, (R8)
	VMOVUPD Y13, 32(R8)
	VZEROUPPER
	RET

// func accum4AVX(dst, y0, y1, y2, y3 []float64, c0, c1, c2, c3, scale float64, fresh bool)
//
// Lanes are four consecutive elements of dst. A fresh call masks the loaded
// value to +0 (an AND with all-zero bits) instead of branching; the len%4
// tail runs the same sequence on scalars.
TEXT ·accum4AVX(SB), NOSPLIT, $0-161
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         y0_base+24(FP), R8
	MOVQ         y1_base+48(FP), R9
	MOVQ         y2_base+72(FP), R10
	MOVQ         y3_base+96(FP), R11
	VBROADCASTSD c0+120(FP), Y8
	VBROADCASTSD c1+128(FP), Y9
	VBROADCASTSD c2+136(FP), Y10
	VBROADCASTSD c3+144(FP), Y11
	VBROADCASTSD scale+152(FP), Y12
	MOVBQZX      fresh+160(FP), DX
	DECQ         DX                  // fresh: 0, else all ones
	VMOVQ        DX, X13
	VMOVDDUP     X13, X13
	VINSERTF128  $1, X13, Y13, Y13   // Y13 = keep-mask for the loaded dst
	MOVQ         CX, BX
	ANDQ         $-4, BX
	XORQ         AX, AX
	CMPQ         AX, BX
	JAE          tail

quad:
	VMOVUPD (DI)(AX*8), Y0
	VANDPD  Y13, Y0, Y0
	VMULPD  (R8)(AX*8), Y8, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(AX*8), Y9, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10)(AX*8), Y10, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R11)(AX*8), Y11, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  Y12, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JB      quad

tail:
	CMPQ AX, CX
	JAE  done
	VMOVSD (DI)(AX*8), X0
	VANDPD X13, X0, X0
	VMULSD (R8)(AX*8), X8, X1
	VADDSD X1, X0, X0
	VMULSD (R9)(AX*8), X9, X1
	VADDSD X1, X0, X0
	VMULSD (R10)(AX*8), X10, X1
	VADDSD X1, X0, X0
	VMULSD (R11)(AX*8), X11, X1
	VADDSD X1, X0, X0
	VMULSD X12, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET
