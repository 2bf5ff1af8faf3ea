#include "textflag.h"

// AVX2 versions of the three inner loops of Dense (kernels_amd64.go has
// the contracts, DESIGN.md §7 the bit-identity argument). A lane is one
// output element and receives the terms the Go loop gives that element,
// in the same order, each as a multiply rounded to float32 and then an
// add: never a fused multiply-add, which rounds once where the compiled
// Go kernels round twice. Loads and stores are unaligned. Every kernel
// ends in VZEROUPPER, because the Go code around it is SSE-encoded.

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU has it (leaf 7 EBX bit 5) and the OS
// saves the YMM state across context switches: OSXSAVE and AVX in leaf
// 1 ECX (bits 27, 28), SSE and AVX state enabled in XCR0 (bits 1, 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// AXPY adds c·r[off:off+8] to the accumulator s: s + (c * r), the
// operand order of the Go source.
#define AXPY(c, r, off, s, t) \
	VMULPS off(r)(AX*1), c, t; \
	VADDPS t, s, s

// func axpy4AVX2(dst, r0, r1, r2, r3 *float32, n int, c0, c1, c2, c3 float32)
//
// AX is the byte offset of the block in flight, R9 the byte length of
// the whole vectors, R10 that of the 32-float blocks.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         r0+8(FP), SI
	MOVQ         r1+16(FP), DX
	MOVQ         r2+24(FP), CX
	MOVQ         r3+32(FP), R8
	MOVQ         n+40(FP), R9
	VBROADCASTSS c0+48(FP), Y8
	VBROADCASTSS c1+52(FP), Y9
	VBROADCASTSS c2+56(FP), Y10
	VBROADCASTSS c3+60(FP), Y11
	SHLQ         $2, R9
	MOVQ         R9, R10
	ANDQ         $~127, R10
	XORQ         AX, AX

axpy4x32:
	CMPQ    AX, R10
	JGE     axpy4x8
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	AXPY(Y8, SI, 0, Y0, Y4)
	AXPY(Y8, SI, 32, Y1, Y5)
	AXPY(Y8, SI, 64, Y2, Y6)
	AXPY(Y8, SI, 96, Y3, Y7)
	AXPY(Y9, DX, 0, Y0, Y4)
	AXPY(Y9, DX, 32, Y1, Y5)
	AXPY(Y9, DX, 64, Y2, Y6)
	AXPY(Y9, DX, 96, Y3, Y7)
	AXPY(Y10, CX, 0, Y0, Y4)
	AXPY(Y10, CX, 32, Y1, Y5)
	AXPY(Y10, CX, 64, Y2, Y6)
	AXPY(Y10, CX, 96, Y3, Y7)
	AXPY(Y11, R8, 0, Y0, Y4)
	AXPY(Y11, R8, 32, Y1, Y5)
	AXPY(Y11, R8, 64, Y2, Y6)
	AXPY(Y11, R8, 96, Y3, Y7)
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     axpy4x32

axpy4x8:
	CMPQ    AX, R9
	JGE     axpy4done
	VMOVUPS (DI)(AX*1), Y0
	AXPY(Y8, SI, 0, Y0, Y4)
	AXPY(Y9, DX, 0, Y0, Y4)
	AXPY(Y10, CX, 0, Y0, Y4)
	AXPY(Y11, R8, 0, Y0, Y4)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     axpy4x8

axpy4done:
	VZEROUPPER
	RET

// func axpyAVX2(dst, r *float32, n int, c float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         r+8(FP), SI
	MOVQ         n+16(FP), R9
	VBROADCASTSS c+24(FP), Y8
	SHLQ         $2, R9
	MOVQ         R9, R10
	ANDQ         $~127, R10
	XORQ         AX, AX

axpyx32:
	CMPQ    AX, R10
	JGE     axpyx8
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	AXPY(Y8, SI, 0, Y0, Y4)
	AXPY(Y8, SI, 32, Y1, Y5)
	AXPY(Y8, SI, 64, Y2, Y6)
	AXPY(Y8, SI, 96, Y3, Y7)
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     axpyx32

axpyx8:
	CMPQ    AX, R9
	JGE     axpydone
	VMOVUPS (DI)(AX*1), Y0
	AXPY(Y8, SI, 0, Y0, Y4)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     axpyx8

axpydone:
	VZEROUPPER
	RET

// The input gradient dx[i,k] = Σ_j W[k,j]·d[i,j] keeps one accumulator
// per (i,k), so a register's lanes are eight k and W, which is
// contiguous in j, has to be turned: W8X4 loads the 8k × 4j block whose
// rows 0-3 start at lo and rows 4-7 at hi (row stride R8 bytes, R9 =
// 3·R8), rows m and m+4 as the two 128-bit halves of one register, and
// transposes the 4×4 in each half, leaving W[k..k+7, j+jj] in a, b, c, d
// for jj = 0, 1, 2, 3.
#define W8X4(lo, hi, a, b, c, d, t0, t1, t2, t3) \
	VBROADCASTF128 (lo), a; \
	VBROADCASTF128 (lo)(R8*1), b; \
	VBROADCASTF128 (lo)(R8*2), c; \
	VBROADCASTF128 (lo)(R9*1), d; \
	VINSERTF128    $1, (hi), a, a; \
	VINSERTF128    $1, (hi)(R8*1), b, b; \
	VINSERTF128    $1, (hi)(R8*2), c, c; \
	VINSERTF128    $1, (hi)(R9*1), d, d; \
	VUNPCKLPS      b, a, t0; \
	VUNPCKHPS      b, a, t1; \
	VUNPCKLPS      d, c, t2; \
	VUNPCKHPS      d, c, t3; \
	VSHUFPS        $0x44, t2, t0, a; \
	VSHUFPS        $0xEE, t2, t0, b; \
	VSHUFPS        $0x44, t3, t1, c; \
	VSHUFPS        $0xEE, t3, t1, d

// ROWS4 adds column j+off/4 of the block, w, times d[i,j+off/4] to the
// accumulators Y0-Y3 of the four batch rows i (R12 is &d[0,j], the row
// stride is R8 again): s + (w * d), as in the Go source.
#define ROWS4(w, off) \
	VBROADCASTSS off(R12), Y8; \
	VBROADCASTSS off(R12)(R8*1), Y9; \
	VBROADCASTSS off(R12)(R8*2), Y10; \
	VBROADCASTSS off(R12)(R9*1), Y11; \
	VMULPS       Y8, w, Y8; \
	VMULPS       Y9, w, Y9; \
	VMULPS       Y10, w, Y10; \
	VMULPS       Y11, w, Y11; \
	VADDPS       Y8, Y0, Y0; \
	VADDPS       Y9, Y1, Y1; \
	VADDPS       Y10, Y2, Y2; \
	VADDPS       Y11, Y3, Y3

// func dx4AVX2(dx, w, d *float32, nk, nj, in, out int)
//
// Four batch rows share each transposed block. SI is the first W row of
// the k block, R10/R11 walk its rows 0-3/4-7 along j, R12 walks d, AX
// counts j down.
TEXT ·dx4AVX2(SB), NOSPLIT, $0-56
	MOVQ dx+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ nk+24(FP), CX
	MOVQ nj+32(FP), BX
	MOVQ in+40(FP), R13
	MOVQ out+48(FP), R8
	SHLQ $2, R13
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9

dx4k:
	CMPQ   CX, $8
	JLT    dx4done
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10
	LEAQ   (SI)(R8*4), R11
	MOVQ   DX, R12
	MOVQ   BX, AX

dx4j:
	CMPQ AX, $4
	JLT  dx4store
	W8X4(R10, R11, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ROWS4(Y4, 0)
	ROWS4(Y5, 4)
	ROWS4(Y6, 8)
	ROWS4(Y7, 12)
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	SUBQ $4, AX
	JMP  dx4j

dx4store:
	LEAQ    (DI)(R13*2), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R13*1)
	VMOVUPS Y2, (AX)
	VMOVUPS Y3, (AX)(R13*1)
	ADDQ    $32, DI
	LEAQ    (SI)(R8*8), SI
	SUBQ    $8, CX
	JMP     dx4k

dx4done:
	VZEROUPPER
	RET

// ROW1X16 is ROWS4 for one batch row and two blocks: column j+off/4 of
// k..k+7 (wa, accumulator Y0) and of k+8..k+15 (wb, accumulator Y1).
// ROW1X8 is the first half of it.
#define ROW1X16(wa, wb, off) \
	VBROADCASTSS off(R12), Y2; \
	VMULPS       Y2, wa, Y3; \
	VMULPS       Y2, wb, Y2; \
	VADDPS       Y3, Y0, Y0; \
	VADDPS       Y2, Y1, Y1

#define ROW1X8(w, off) \
	VBROADCASTSS off(R12), Y2; \
	VMULPS       Y2, w, Y2; \
	VADDPS       Y2, Y0, Y0

// func dx1AVX2(dx, w, d *float32, nk, nj, out int)
//
// One batch row has no second row to share a block with, so it takes
// sixteen k at a time, two blocks and two chains of adds, and a last
// eight alone when nk is not a multiple of sixteen. R10/R11 and R13/R14
// walk the two blocks.
TEXT ·dx1AVX2(SB), NOSPLIT, $0-48
	MOVQ dx+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ nk+24(FP), CX
	MOVQ nj+32(FP), BX
	MOVQ out+40(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9

dx1k16:
	CMPQ   CX, $16
	JLT    dx1k8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R10
	LEAQ   (SI)(R8*4), R11
	LEAQ   (SI)(R8*8), R13
	LEAQ   (R13)(R8*4), R14
	MOVQ   DX, R12
	MOVQ   BX, AX

dx1j16:
	CMPQ AX, $4
	JLT  dx1store16
	W8X4(R10, R11, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	W8X4(R13, R14, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y2)
	ROW1X16(Y4, Y8, 0)
	ROW1X16(Y5, Y9, 4)
	ROW1X16(Y6, Y10, 8)
	ROW1X16(Y7, Y11, 12)
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R13
	ADDQ $16, R14
	ADDQ $16, R12
	SUBQ $4, AX
	JMP  dx1j16

dx1store16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (SI)(R8*8), SI
	LEAQ    (SI)(R8*8), SI
	SUBQ    $16, CX
	JMP     dx1k16

dx1k8:
	CMPQ   CX, $8
	JLT    dx1done
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R10
	LEAQ   (SI)(R8*4), R11
	MOVQ   DX, R12
	MOVQ   BX, AX

dx1j8:
	CMPQ AX, $4
	JLT  dx1store8
	W8X4(R10, R11, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ROW1X8(Y4, 0)
	ROW1X8(Y5, 4)
	ROW1X8(Y6, 8)
	ROW1X8(Y7, 12)
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	SUBQ $4, AX
	JMP  dx1j8

dx1store8:
	VMOVUPS Y0, (DI)

dx1done:
	VZEROUPPER
	RET
