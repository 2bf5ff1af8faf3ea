#include "textflag.h"

// AVX2 versions of the three inner loops of Dense, of SGD, of Average
// and of AverageSGD (kernels_amd64.go has the contracts, DESIGN.md §7
// the bit-identity argument). The pre-activation and the weight
// gradient share one: a list of terms the Go side compacted, applied to
// a segment of the destination held in registers. The input gradient
// has two: four batch rows over a dense block of W, and one row over the
// rows of W its ReLU mask keeps, gathered. A lane is one output element
// and receives the terms the Go loop gives that element, in the same
// order, each as a multiply rounded to float32 and then an add or
// subtract: never a fused multiply-add, which rounds once where the
// compiled Go kernels round twice. Loads and stores are unaligned. Every
// kernel ends in VZEROUPPER, because the Go code around it is
// SSE-encoded.

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

// TERM adds c·r[off:off+8] to the accumulator s: s + (c * r), the
// operand order of the Go source, with t a temporary.
#define TERM(c, r, off, s, t) \
	VMULPS off(r), c, t; \
	VADDPS t, s, s

// SGDSEG stores w - (lr * s) over the eight weights at off(R14)(AX*1),
// SGD1's operations and operand order on the sum s, with lr in Y15.
#define SGDSEG(s, off) \
	VMULPS  s, Y15, Y8; \
	VMOVUPS off(R14)(AX*1), Y9; \
	VSUBPS  Y8, Y9, Y9; \
	VMOVUPS Y9, off(R14)(AX*1)

// func axpyTermsAVX2(dst, rows *float32, off *int, c *float32, m, n int, fresh bool, w *float32, lr float32)
//
// A segment of dst is loaded into registers — or, when fresh is set
// (R8), the registers are cleared to +0 and dst is not read — receives
// the m terms in order and is stored once: 64 floats in Y0-Y7 while they
// last, then 8 in Y0. With w set (R14) the segment is not stored to dst:
// SGDSEG updates w's segment with it, lr broadcast into Y15 once the
// terms are done with it. AX is the byte offset of the segment, R9 the
// byte length of the whole vectors and R10 that of the 64-float
// segments; R11 is the segment's column in rows, R12 counts the terms,
// R13 is the term's row and Y15 its coefficient.
TEXT ·axpyTermsAVX2(SB), NOSPLIT, $0-68
	MOVQ    dst+0(FP), DI
	MOVQ    rows+8(FP), SI
	MOVQ    off+16(FP), BX
	MOVQ    c+24(FP), DX
	MOVQ    m+32(FP), CX
	MOVQ    n+40(FP), R9
	MOVBQZX fresh+48(FP), R8
	MOVQ    w+56(FP), R14
	TESTQ   CX, CX
	JLE     termsdone
	SHLQ    $2, R9
	MOVQ    R9, R10
	ANDQ    $~255, R10
	XORQ    AX, AX

terms64:
	CMPQ    AX, R10
	JGE     terms8
	TESTQ   R8, R8
	JNZ     terms64fresh
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	VMOVUPS 128(DI)(AX*1), Y4
	VMOVUPS 160(DI)(AX*1), Y5
	VMOVUPS 192(DI)(AX*1), Y6
	VMOVUPS 224(DI)(AX*1), Y7
	JMP     terms64go

terms64fresh:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

terms64go:
	LEAQ (SI)(AX*1), R11
	XORQ R12, R12

terms64t:
	MOVQ         (BX)(R12*8), R13
	VBROADCASTSS (DX)(R12*4), Y15
	LEAQ         (R11)(R13*4), R13
	TERM(Y15, R13, 0, Y0, Y8)
	TERM(Y15, R13, 32, Y1, Y9)
	TERM(Y15, R13, 64, Y2, Y10)
	TERM(Y15, R13, 96, Y3, Y11)
	TERM(Y15, R13, 128, Y4, Y12)
	TERM(Y15, R13, 160, Y5, Y13)
	TERM(Y15, R13, 192, Y6, Y14)
	TERM(Y15, R13, 224, Y7, Y8)
	INCQ         R12
	CMPQ         R12, CX
	JLT          terms64t
	TESTQ        R14, R14
	JNZ          terms64sgd
	VMOVUPS      Y0, (DI)(AX*1)
	VMOVUPS      Y1, 32(DI)(AX*1)
	VMOVUPS      Y2, 64(DI)(AX*1)
	VMOVUPS      Y3, 96(DI)(AX*1)
	VMOVUPS      Y4, 128(DI)(AX*1)
	VMOVUPS      Y5, 160(DI)(AX*1)
	VMOVUPS      Y6, 192(DI)(AX*1)
	VMOVUPS      Y7, 224(DI)(AX*1)
	ADDQ         $256, AX
	JMP          terms64

terms64sgd:
	VBROADCASTSS lr+64(FP), Y15
	SGDSEG(Y0, 0)
	SGDSEG(Y1, 32)
	SGDSEG(Y2, 64)
	SGDSEG(Y3, 96)
	SGDSEG(Y4, 128)
	SGDSEG(Y5, 160)
	SGDSEG(Y6, 192)
	SGDSEG(Y7, 224)
	ADDQ         $256, AX
	JMP          terms64

terms8:
	CMPQ    AX, R9
	JGE     termsdone
	VXORPS  Y0, Y0, Y0
	TESTQ   R8, R8
	JNZ     terms8go
	VMOVUPS (DI)(AX*1), Y0

terms8go:
	LEAQ (SI)(AX*1), R11
	XORQ R12, R12

terms8t:
	MOVQ         (BX)(R12*8), R13
	VBROADCASTSS (DX)(R12*4), Y15
	LEAQ         (R11)(R13*4), R13
	TERM(Y15, R13, 0, Y0, Y8)
	INCQ         R12
	CMPQ         R12, CX
	JLT          terms8t
	TESTQ        R14, R14
	JNZ          terms8sgd
	VMOVUPS      Y0, (DI)(AX*1)
	ADDQ         $32, AX
	JMP          terms8

terms8sgd:
	VBROADCASTSS lr+64(FP), Y15
	SGDSEG(Y0, 0)
	ADDQ         $32, AX
	JMP          terms8

termsdone:
	VZEROUPPER
	RET

// The input gradient dx[i,k] = Σ_j W[k,j]·d[i,j] keeps one accumulator
// per (i,k), so a register's lanes are eight k and W, which is
// contiguous in j, has to be turned: a block of eight rows of W by four
// j is loaded with rows m and m+4 as the two 128-bit halves of one
// register, and T4X4 transposes the 4×4 in each half, leaving row m's
// W[k, j+jj] in lane m of a, b, c, d for jj = 0, 1, 2, 3.
#define T4X4(a, b, c, d, t0, t1, t2, t3) \
	VUNPCKLPS b, a, t0; \
	VUNPCKHPS b, a, t1; \
	VUNPCKLPS d, c, t2; \
	VUNPCKHPS d, c, t3; \
	VSHUFPS   $0x44, t2, t0, a; \
	VSHUFPS   $0xEE, t2, t0, b; \
	VSHUFPS   $0x44, t3, t1, c; \
	VSHUFPS   $0xEE, t3, t1, d

// W8X4 turns the block of eight consecutive rows k..k+7 whose rows 0-3
// start at lo and rows 4-7 at hi (row stride R8 bytes, R9 = 3·R8).
#define W8X4(lo, hi, a, b, c, d, t0, t1, t2, t3) \
	VBROADCASTF128 (lo), a; \
	VBROADCASTF128 (lo)(R8*1), b; \
	VBROADCASTF128 (lo)(R8*2), c; \
	VBROADCASTF128 (lo)(R9*1), d; \
	VINSERTF128    $1, (hi), a, a; \
	VINSERTF128    $1, (hi)(R8*1), b, b; \
	VINSERTF128    $1, (hi)(R8*2), c, c; \
	VINSERTF128    $1, (hi)(R9*1), d, d; \
	T4X4(a, b, c, d, t0, t1, t2, t3)

// G8X4 turns a block of eight rows anywhere in W: row m starts the m-th
// of the eight words at r floats past SI (R8-R11 are scratch).
#define G8X4(r, a, b, c, d, t0, t1, t2, t3) \
	MOVQ           (r), R8; \
	MOVQ           8(r), R9; \
	MOVQ           16(r), R10; \
	MOVQ           24(r), R11; \
	VBROADCASTF128 (SI)(R8*4), a; \
	VBROADCASTF128 (SI)(R9*4), b; \
	VBROADCASTF128 (SI)(R10*4), c; \
	VBROADCASTF128 (SI)(R11*4), d; \
	MOVQ           32(r), R8; \
	MOVQ           40(r), R9; \
	MOVQ           48(r), R10; \
	MOVQ           56(r), R11; \
	VINSERTF128    $1, (SI)(R8*4), a, a; \
	VINSERTF128    $1, (SI)(R9*4), b, b; \
	VINSERTF128    $1, (SI)(R10*4), c, c; \
	VINSERTF128    $1, (SI)(R11*4), d, d; \
	T4X4(a, b, c, d, t0, t1, t2, t3)

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

// ROW16 adds column j+off/4 of two gathered blocks, wa (rows 0-7,
// accumulator Y0) and wb (rows 8-15, accumulator Y1), times d[j+off/4]
// (DX is &d[j]): s + (w * d), as in the Go source.
#define ROW16(wa, wb, off) \
	VBROADCASTSS off(DX), Y2; \
	VMULPS       Y2, wa, Y3; \
	VMULPS       Y2, wb, Y2; \
	VADDPS       Y3, Y0, Y0; \
	VADDPS       Y2, Y1, Y1

// func dxGatherAVX2(sums *[16]float32, w *float32, rows *[16]int, d *float32, nj int)
//
// One batch row has no second row to share a block with, and its mask
// drops about half of W's rows, so it takes sixteen of the rows it keeps
// at a time, wherever they lie: two gathered blocks and two chains of
// adds. BX and R12 point at the offsets of rows 0-7 and 8-15, SI walks
// w along j, DX walks d, CX counts j down.
TEXT ·dxGatherAVX2(SB), NOSPLIT, $0-40
	MOVQ   sums+0(FP), DI
	MOVQ   w+8(FP), SI
	MOVQ   rows+16(FP), BX
	MOVQ   d+24(FP), DX
	MOVQ   nj+32(FP), CX
	LEAQ   64(BX), R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

gatherj:
	CMPQ CX, $4
	JLT  gatherdone
	G8X4(BX, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	G8X4(R12, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ROW16(Y4, Y8, 0)
	ROW16(Y5, Y9, 4)
	ROW16(Y6, Y10, 8)
	ROW16(Y7, Y11, 12)
	ADDQ $16, SI
	ADDQ $16, DX
	SUBQ $4, CX
	JMP  gatherj

gatherdone:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// SGD1 updates the eight weights at off: w - (lr * g), the operand order
// of the Go source, with lr in Y8 and t a temporary.
#define SGD1(off, w, t) \
	VMULPS  off(SI)(AX*1), Y8, t; \
	VMOVUPS off(DI)(AX*1), w; \
	VSUBPS  t, w, w; \
	VMOVUPS w, off(DI)(AX*1)

// func sgdAVX2(w, dw *float32, n int, lr float32, reset bool)
//
// With reset (R10) set, each block of the gradient is stored as +0 from
// Y9 once its weights are updated.
TEXT ·sgdAVX2(SB), NOSPLIT, $0-29
	MOVQ         w+0(FP), DI
	MOVQ         dw+8(FP), SI
	MOVQ         n+16(FP), R9
	VBROADCASTSS lr+24(FP), Y8
	MOVBQZX      reset+28(FP), R10
	VXORPS       Y9, Y9, Y9
	SHLQ         $2, R9
	XORQ         AX, AX

sgdx32:
	CMPQ    AX, R9
	JGE     sgddone
	SGD1(0, Y0, Y4)
	SGD1(32, Y1, Y5)
	SGD1(64, Y2, Y6)
	SGD1(96, Y3, Y7)
	TESTQ   R10, R10
	JZ      sgdnext
	VMOVUPS Y9, (SI)(AX*1)
	VMOVUPS Y9, 32(SI)(AX*1)
	VMOVUPS Y9, 64(SI)(AX*1)
	VMOVUPS Y9, 96(SI)(AX*1)

sgdnext:
	ADDQ $128, AX
	JMP  sgdx32

sgddone:
	VZEROUPPER
	RET

// func averageAVX2(views *[]float32, nviews, lo, n int, inv float32)
//
// One pass over the range in 32-float blocks: a block's four
// accumulators start at +0, add the block of every view in index order,
// are scaled by inv and stored back to every view. A view is a 24-byte
// slice header whose first word is the data pointer: CX walks the
// headers from SI to R10, DI is the view's data, DX the byte offset of
// the block and R9 the end of the range.
TEXT ·averageAVX2(SB), NOSPLIT, $0-36
	MOVQ         views+0(FP), SI
	MOVQ         nviews+8(FP), R10
	MOVQ         lo+16(FP), DX
	MOVQ         n+24(FP), R9
	VBROADCASTSS inv+32(FP), Y8
	LEAQ         (R10)(R10*2), R10
	LEAQ         (SI)(R10*8), R10
	SHLQ         $2, DX
	LEAQ         (DX)(R9*4), R9

avgx32:
	CMPQ   DX, R9
	JGE    avgdone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, CX

avgsum:
	MOVQ   (CX), DI
	VADDPS (DI)(DX*1), Y0, Y0
	VADDPS 32(DI)(DX*1), Y1, Y1
	VADDPS 64(DI)(DX*1), Y2, Y2
	VADDPS 96(DI)(DX*1), Y3, Y3
	ADDQ   $24, CX
	CMPQ   CX, R10
	JLT    avgsum
	VMULPS Y8, Y0, Y0
	VMULPS Y8, Y1, Y1
	VMULPS Y8, Y2, Y2
	VMULPS Y8, Y3, Y3
	MOVQ   SI, CX

avgstore:
	MOVQ    (CX), DI
	VMOVUPS Y0, (DI)(DX*1)
	VMOVUPS Y1, 32(DI)(DX*1)
	VMOVUPS Y2, 64(DI)(DX*1)
	VMOVUPS Y3, 96(DI)(DX*1)
	ADDQ    $24, CX
	CMPQ    CX, R10
	JLT     avgstore
	ADDQ    $128, DX
	JMP     avgx32

avgdone:
	VZEROUPPER
	RET

// func averageSGDAVX2(gs, ws *[]float32, nviews, lo, n int, inv, lr float32)
//
// averageAVX2's pass with SGD at the end of each block: the four
// accumulators start at +0, add the block of every gradient view in
// index order and are scaled by inv; that mean times lr (Y9) is
// subtracted from the first weight view's block, w - (lr * g) as in SGD1,
// and the four results are stored to every weight view. No gradient
// view is written. SI and R11 are the first gradient and weight
// headers, R10 the byte length of a header array and R13 and AX the
// ends of the two arrays; CX walks the gradient headers and BX the
// weight headers, R12 is the first weight view's data, DX the byte
// offset of the block and R9 the end of the range.
TEXT ·averageSGDAVX2(SB), NOSPLIT, $0-48
	MOVQ         gs+0(FP), SI
	MOVQ         ws+8(FP), R11
	MOVQ         nviews+16(FP), R10
	MOVQ         lo+24(FP), DX
	MOVQ         n+32(FP), R9
	VBROADCASTSS inv+40(FP), Y8
	VBROADCASTSS lr+44(FP), Y9
	LEAQ         (R10)(R10*2), R10
	SHLQ         $3, R10
	LEAQ         (SI)(R10*1), R13
	LEAQ         (R11)(R10*1), AX
	MOVQ         (R11), R12
	SHLQ         $2, DX
	LEAQ         (DX)(R9*4), R9

asgdx32:
	CMPQ   DX, R9
	JGE    asgddone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, CX

asgdsum:
	MOVQ   (CX), DI
	VADDPS (DI)(DX*1), Y0, Y0
	VADDPS 32(DI)(DX*1), Y1, Y1
	VADDPS 64(DI)(DX*1), Y2, Y2
	VADDPS 96(DI)(DX*1), Y3, Y3
	ADDQ   $24, CX
	CMPQ   CX, R13
	JLT    asgdsum
	VMULPS Y8, Y0, Y0
	VMULPS Y8, Y1, Y1
	VMULPS Y8, Y2, Y2
	VMULPS Y8, Y3, Y3
	VMULPS Y0, Y9, Y0
	VMULPS Y1, Y9, Y1
	VMULPS Y2, Y9, Y2
	VMULPS Y3, Y9, Y3
	VMOVUPS (R12)(DX*1), Y4
	VMOVUPS 32(R12)(DX*1), Y5
	VMOVUPS 64(R12)(DX*1), Y6
	VMOVUPS 96(R12)(DX*1), Y7
	VSUBPS Y0, Y4, Y4
	VSUBPS Y1, Y5, Y5
	VSUBPS Y2, Y6, Y6
	VSUBPS Y3, Y7, Y7
	MOVQ   R11, BX

asgdstore:
	MOVQ    (BX), DI
	VMOVUPS Y4, (DI)(DX*1)
	VMOVUPS Y5, 32(DI)(DX*1)
	VMOVUPS Y6, 64(DI)(DX*1)
	VMOVUPS Y7, 96(DI)(DX*1)
	ADDQ    $24, BX
	CMPQ    BX, AX
	JLT     asgdstore
	ADDQ    $128, DX
	JMP     asgdx32

asgddone:
	VZEROUPPER
	RET
