//go:build !purego

#include "textflag.h"

// AVX2 kernels that reproduce the scalar Go kernels bit for bit. Every lane
// holds one output element and performs that element's scalar operation
// sequence: the same operands, in the same ascending order, as a separate
// multiply and add (never FMA), with each column skipped exactly when its
// scale compares equal to zero. A NaN result stays NaN; its payload is
// outside the contract, as the scalar code's operand order is the
// compiler's choice.
// Only VEX encodings are used (legacy SSE would stall on the dirty upper
// halves), and every routine ends with VZEROUPPER.

DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8

// lanemask<>: 16 all-ones quadwords then 16 zero quadwords. The masks
// enabling the first r lanes start at byte 128 - 8*r.
DATA lanemask<>+0x00(SB)/8, $-1
DATA lanemask<>+0x08(SB)/8, $-1
DATA lanemask<>+0x10(SB)/8, $-1
DATA lanemask<>+0x18(SB)/8, $-1
DATA lanemask<>+0x20(SB)/8, $-1
DATA lanemask<>+0x28(SB)/8, $-1
DATA lanemask<>+0x30(SB)/8, $-1
DATA lanemask<>+0x38(SB)/8, $-1
DATA lanemask<>+0x40(SB)/8, $-1
DATA lanemask<>+0x48(SB)/8, $-1
DATA lanemask<>+0x50(SB)/8, $-1
DATA lanemask<>+0x58(SB)/8, $-1
DATA lanemask<>+0x60(SB)/8, $-1
DATA lanemask<>+0x68(SB)/8, $-1
DATA lanemask<>+0x70(SB)/8, $-1
DATA lanemask<>+0x78(SB)/8, $-1
DATA lanemask<>+0x80(SB)/8, $0
DATA lanemask<>+0x88(SB)/8, $0
DATA lanemask<>+0x90(SB)/8, $0
DATA lanemask<>+0x98(SB)/8, $0
DATA lanemask<>+0xa0(SB)/8, $0
DATA lanemask<>+0xa8(SB)/8, $0
DATA lanemask<>+0xb0(SB)/8, $0
DATA lanemask<>+0xb8(SB)/8, $0
DATA lanemask<>+0xc0(SB)/8, $0
DATA lanemask<>+0xc8(SB)/8, $0
DATA lanemask<>+0xd0(SB)/8, $0
DATA lanemask<>+0xd8(SB)/8, $0
DATA lanemask<>+0xe0(SB)/8, $0
DATA lanemask<>+0xe8(SB)/8, $0
DATA lanemask<>+0xf0(SB)/8, $0
DATA lanemask<>+0xf8(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $256

// ---------------------------------------------------------------------------
// Column-sweep y update: y[i] op= a[i+j*lda]·x[j*incx] for j ascending,
// skipping every column whose x value == 0. A 16-row tile of y stays in
// Y0..Y3 across all n columns; the last 1..15 rows run as one masked tile
// of 1, 2 or 4 registers. NEGATE and UPD (defined per routine) give the
// scalar form.
//
// Registers: SI m in bytes, DX n, R8 a, R9 lda in bytes, R10 x, DI incx in
// bytes, R11 y, CX row offset in bytes, AX bytes of rows left and then the
// y tile, R12 a column in the tile, R13 x cursor, BX columns left. Y4
// product, Y5 scale, Y6..Y9 tail masks, Y14 sign bit, Y15 zero.

// COLTEST loads x[j], leaves it in X5 and jumps to skip when it is zero.
// An unordered compare (NaN) is not a zero: the parity flag sends it on to
// the update.
#define COLTEST(do, skip) \
	VMOVSD   (R13), X5; \
	VUCOMISD X15, X5; \
	JNE      do; \
	JPS      do; \
	JMP      skip

#define GEMVN_BODY \
	MOVQ  m+0(FP), SI; \
	SHLQ  $3, SI; \
	MOVQ  n+8(FP), DX; \
	MOVQ  a+16(FP), R8; \
	MOVQ  lda+24(FP), R9; \
	SHLQ  $3, R9; \
	MOVQ  x+32(FP), R10; \
	MOVQ  incx+40(FP), DI; \
	SHLQ  $3, DI; \
	MOVQ  y+48(FP), R11; \
	VXORPD Y15, Y15, Y15; \
	VBROADCASTSD signbit<>(SB), Y14; \
	XORQ  CX, CX; \
tile16: \
	MOVQ  SI, AX; \
	SUBQ  CX, AX; \
	CMPQ  AX, $128; \
	JLT   tail; \
	LEAQ  (R11)(CX*1), AX; \
	LOADY(0, Y0); \
	LOADY(32, Y1); \
	LOADY(64, Y2); \
	LOADY(96, Y3); \
	LEAQ  (R8)(CX*1), R12; \
	MOVQ  R10, R13; \
	MOVQ  DX, BX; \
t16col: \
	COLTEST(t16do, t16next); \
t16do: \
	VBROADCASTSD X5, Y5; \
	NEGATE; \
	VMOVUPD (R12), Y4; \
	UPD(Y0); \
	VMOVUPD 32(R12), Y4; \
	UPD(Y1); \
	VMOVUPD 64(R12), Y4; \
	UPD(Y2); \
	VMOVUPD 96(R12), Y4; \
	UPD(Y3); \
t16next: \
	ADDQ  R9, R12; \
	ADDQ  DI, R13; \
	DECQ  BX; \
	JNE   t16col; \
	VMOVUPD Y0, (AX); \
	VMOVUPD Y1, 32(AX); \
	VMOVUPD Y2, 64(AX); \
	VMOVUPD Y3, 96(AX); \
	ADDQ  $128, CX; \
	JMP   tile16; \
tail: \
	TESTQ AX, AX; \
	JEQ   done; \
	LEAQ  lanemask<>+128(SB), R13; \
	SUBQ  AX, R13; \
	VMOVUPD (R13), Y6; \
	VMOVUPD 32(R13), Y7; \
	VMOVUPD 64(R13), Y8; \
	VMOVUPD 96(R13), Y9; \
	LEAQ  (R8)(CX*1), R12; \
	MOVQ  R10, R13; \
	MOVQ  DX, BX; \
	CMPQ  AX, $32; \
	JLE   tail4; \
	CMPQ  AX, $64; \
	JLE   tail8; \
	LEAQ  (R11)(CX*1), AX; \
	LOADYM(0, Y6, Y0); \
	LOADYM(32, Y7, Y1); \
	LOADYM(64, Y8, Y2); \
	LOADYM(96, Y9, Y3); \
t16mcol: \
	COLTEST(t16mdo, t16mnext); \
t16mdo: \
	VBROADCASTSD X5, Y5; \
	NEGATE; \
	VMASKMOVPD (R12), Y6, Y4; \
	UPD(Y0); \
	VMASKMOVPD 32(R12), Y7, Y4; \
	UPD(Y1); \
	VMASKMOVPD 64(R12), Y8, Y4; \
	UPD(Y2); \
	VMASKMOVPD 96(R12), Y9, Y4; \
	UPD(Y3); \
t16mnext: \
	ADDQ  R9, R12; \
	ADDQ  DI, R13; \
	DECQ  BX; \
	JNE   t16mcol; \
	VMASKMOVPD Y0, Y6, (AX); \
	VMASKMOVPD Y1, Y7, 32(AX); \
	VMASKMOVPD Y2, Y8, 64(AX); \
	VMASKMOVPD Y3, Y9, 96(AX); \
	JMP   done; \
tail8: \
	LEAQ  (R11)(CX*1), AX; \
	LOADYM(0, Y6, Y0); \
	LOADYM(32, Y7, Y1); \
t8mcol: \
	COLTEST(t8mdo, t8mnext); \
t8mdo: \
	VBROADCASTSD X5, Y5; \
	NEGATE; \
	VMASKMOVPD (R12), Y6, Y4; \
	UPD(Y0); \
	VMASKMOVPD 32(R12), Y7, Y4; \
	UPD(Y1); \
t8mnext: \
	ADDQ  R9, R12; \
	ADDQ  DI, R13; \
	DECQ  BX; \
	JNE   t8mcol; \
	VMASKMOVPD Y0, Y6, (AX); \
	VMASKMOVPD Y1, Y7, 32(AX); \
	JMP   done; \
tail4: \
	LEAQ  (R11)(CX*1), AX; \
	LOADYM(0, Y6, Y0); \
t4mcol: \
	COLTEST(t4mdo, t4mnext); \
t4mdo: \
	VBROADCASTSD X5, Y5; \
	NEGATE; \
	VMASKMOVPD (R12), Y6, Y4; \
	UPD(Y0); \
t4mnext: \
	ADDQ  R9, R12; \
	ADDQ  DI, R13; \
	DECQ  BX; \
	JNE   t4mcol; \
	VMASKMOVPD Y0, Y6, (AX); \
done: \
	VZEROUPPER; \
	RET

// GemmNDT micro-kernels: C[0:mr, 0:nr] update, C −= A·diag(d)·Bᵀ, one
// 8×4 tile of C held in Y0..Y7 (column j in Y(2j) rows 0-3 and Y(2j+1)
// rows 4-7) across all k steps. At step l the four scales
// s_j = d[l]·b[j+l*ldb] are formed in one vector; when none of the live
// ones is zero, every column gets c = (a·(−s_j)) + c. Otherwise the skip
// path computes the same update and blends the old value back into the
// columns whose scale is zero, as the scalar loop's per-(j, l) skip does.
// −s_j is formed as 0 − s_j, which equals the sign flip for every scale
// that is not skipped.
//
// Registers: AX k left, SI a cursor, R8 lda bytes, DI d cursor, BX b
// cursor, R9 ldb bytes, R10 c, R11 ldc bytes, R13 zero-scale bits /
// temporary. Y8/Y9 a, Y10 scales, Y11 broadcast scale, Y12/Y13 products or
// masks, Y14 zero-scale lanes, Y15 zero.

#define COLUPD(imm, c0, c1) \
	VPERMPD $imm, Y10, Y11; \
	VMULPD  Y11, Y8, Y12; \
	VADDPD  c0, Y12, c0; \
	VMULPD  Y11, Y9, Y13; \
	VADDPD  c1, Y13, c1

#define SKIPUPD(imm, c0, c1) \
	VPERMPD   $imm, Y10, Y11; \
	VPERMPD   $imm, Y14, Y13; \
	VMULPD    Y11, Y8, Y12; \
	VADDPD    c0, Y12, Y12; \
	VBLENDVPD Y13, c0, Y12, c0; \
	VMULPD    Y11, Y9, Y12; \
	VADDPD    c1, Y12, Y12; \
	VBLENDVPD Y13, c1, Y12, c1

#define GEMM_BODY \
	MOVQ  k+16(FP), AX; \
	MOVQ  a+24(FP), SI; \
	MOVQ  lda+32(FP), R8; \
	SHLQ  $3, R8; \
	MOVQ  d+40(FP), DI; \
	MOVQ  b+48(FP), BX; \
	MOVQ  ldb+56(FP), R9; \
	SHLQ  $3, R9; \
	MOVQ  c+64(FP), R10; \
	MOVQ  ldc+72(FP), R11; \
	SHLQ  $3, R11; \
	VXORPD Y15, Y15, Y15; \
	SETUP; \
	LOADC; \
step: \
	VBROADCASTSD (DI), Y10; \
	LOADB; \
	VCMPPD    $0, Y15, Y10, Y14; \
	VMOVMSKPD Y14, R13; \
	LIVE; \
	VSUBPD    Y10, Y15, Y10; \
	LOADA; \
	TESTQ     R13, R13; \
	JNE       skip; \
	COLUPD(0x00, Y0, Y1); \
	COLUPD(0x55, Y2, Y3); \
	COLUPD(0xaa, Y4, Y5); \
	COLUPD(0xff, Y6, Y7); \
next: \
	ADDQ  R8, SI; \
	ADDQ  $8, DI; \
	ADDQ  R9, BX; \
	DECQ  AX; \
	JNE   step; \
	STOREC; \
	VZEROUPPER; \
	RET; \
skip: \
	SKIPUPD(0x00, Y0, Y1); \
	SKIPUPD(0x55, Y2, Y3); \
	SKIPUPD(0xaa, Y4, Y5); \
	SKIPUPD(0xff, Y6, Y7); \
	JMP   next

// ---------------------------------------------------------------------------
// func gemvNegAddKernel(m, n int, a *float64, lda int, x *float64, incx int, y *float64)
//
// y[i] = (a[i+j*lda] · (−x[j*incx])) + y[i]: the axpy form of GemvN and
// TrsmRightLTransUnit. Requires m >= 1 and n >= 1.
#define NEGATE VXORPD Y14, Y5, Y5
#define UPD(acc) VMULPD Y5, Y4, Y4; VADDPD acc, Y4, acc
#define LOADY(off, r) VMOVUPD off(AX), r
#define LOADYM(off, mask, r) VMASKMOVPD off(AX), mask, r
TEXT ·gemvNegAddKernel(SB), NOSPLIT, $0-56
	GEMVN_BODY
#undef LOADY
#undef LOADYM

// func gemvNegSetKernel(m, n int, a *float64, lda int, x *float64, incx int, y *float64)
//
// gemvNegAddKernel on a y that starts at +0, which it never reads: the
// panel product of CellForward, y[i] = (a[i+j*lda] · (−x[j*incx])) + y[i]
// from y[i] = +0. Requires m >= 1 and n >= 1.
#define LOADY(off, r) VXORPD r, r, r
#define LOADYM(off, mask, r) VXORPD r, r, r
TEXT ·gemvNegSetKernel(SB), NOSPLIT, $0-56
	GEMVN_BODY
#undef NEGATE
#undef UPD
#undef LOADY
#undef LOADYM

// func gemvSubKernel(m, n int, a *float64, lda int, x *float64, incx int, y *float64)
//
// y[i] = y[i] − (a[i+j*lda] · x[j*incx]): the form of TrsvLowerUnit.
// Requires m >= 1 and n >= 1.
#define NEGATE
#define UPD(acc) VMULPD Y5, Y4, Y4; VSUBPD Y4, acc, acc
#define LOADY(off, r) VMOVUPD off(AX), r
#define LOADYM(off, mask, r) VMASKMOVPD off(AX), mask, r
TEXT ·gemvSubKernel(SB), NOSPLIT, $0-56
	GEMVN_BODY
#undef NEGATE
#undef UPD
#undef LOADY
#undef LOADYM

// ---------------------------------------------------------------------------
// func gemvTKernel(m, n int, a *float64, lda int, x, y *float64)
//
// y[j] = y[j] − s_j with s_j = ((0 + a[0,j]·x[0]) + a[1,j]·x[1]) + … for
// the n >= 1 columns of a, m >= 1. Lanes are distinct output
// columns: each step loads four rows of four columns, multiplies them by
// x[i..i+3], transposes the products in registers and adds them to the
// column accumulator in row order. Columns run eight at a time with two
// independent accumulators (Y0, Y1), then four at a time, then the last
// one to three.
//
// Registers: SI rows, DX columns left, R8 column block, R9 lda in bytes,
// R12 3·lda bytes, R10 x, R11 y, DI/BX row cursors of the two column
// groups, R13 x cursor, AX rows left. Y12 x, Y13 tail mask.

// PROD4 loads rows [i, i+4) of the four columns at base and multiplies
// each by x[i..i+3] (Y12), column values first; PROD4M reads only the rows
// enabled in the tail mask Y13.
#define PROD4(base, p0, p1, p2, p3) \
	VMOVUPD (base), p0; \
	VMULPD  Y12, p0, p0; \
	VMOVUPD (base)(R9*1), p1; \
	VMULPD  Y12, p1, p1; \
	VMOVUPD (base)(R9*2), p2; \
	VMULPD  Y12, p2, p2; \
	VMOVUPD (base)(R12*1), p3; \
	VMULPD  Y12, p3, p3

#define PROD4M(base, p0, p1, p2, p3) \
	VMASKMOVPD (base), Y13, p0; \
	VMULPD  Y12, p0, p0; \
	VMASKMOVPD (base)(R9*1), Y13, p1; \
	VMULPD  Y12, p1, p1; \
	VMASKMOVPD (base)(R9*2), Y13, p2; \
	VMULPD  Y12, p2, p2; \
	VMASKMOVPD (base)(R12*1), Y13, p3; \
	VMULPD  Y12, p3, p3

// TRANSPOSE4 turns p0..p3 (one column each) into rows: p0 holds row i of
// the four columns, p1 row i+1, and so on.
#define TRANSPOSE4(p0, p1, p2, p3, t0, t1, t2, t3) \
	VUNPCKLPD  p1, p0, t0; \
	VUNPCKHPD  p1, p0, t1; \
	VUNPCKLPD  p3, p2, t2; \
	VUNPCKHPD  p3, p2, t3; \
	VPERM2F128 $0x20, t2, t0, p0; \
	VPERM2F128 $0x20, t3, t1, p1; \
	VPERM2F128 $0x31, t2, t0, p2; \
	VPERM2F128 $0x31, t3, t1, p3

#define ACC4(acc, p0, p1, p2, p3) \
	VADDPD p0, acc, acc; \
	VADDPD p1, acc, acc; \
	VADDPD p2, acc, acc; \
	VADDPD p3, acc, acc

TEXT ·gemvTKernel(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ a+16(FP), R8
	MOVQ lda+24(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R12
	MOVQ x+32(FP), R10
	MOVQ y+40(FP), R11
	MOVQ SI, AX
	ANDQ $3, AX
	SHLQ $3, AX
	LEAQ lanemask<>+128(SB), R13
	SUBQ AX, R13
	VMOVUPD (R13), Y13

cols8:
	CMPQ DX, $8
	JLT  cols4
	MOVQ R8, DI
	LEAQ (R8)(R9*4), BX
	MOVQ R10, R13
	MOVQ SI, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

rows8:
	CMPQ AX, $4
	JLT  tail8
	VMOVUPD (R13), Y12
	PROD4(DI, Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ACC4(Y0, Y4, Y5, Y6, Y7)
	PROD4(BX, Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ACC4(Y1, Y4, Y5, Y6, Y7)
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, R13
	SUBQ $4, AX
	JMP  rows8

tail8:
	TESTQ AX, AX
	JEQ   store8
	VMASKMOVPD (R13), Y13, Y12
	PROD4M(DI, Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	PROD4M(BX, Y2, Y3, Y10, Y11)
	TRANSPOSE4(Y2, Y3, Y10, Y11, Y8, Y9, Y12, Y13)
	VADDPD Y4, Y0, Y0
	VADDPD Y2, Y1, Y1
	CMPQ   AX, $2
	JLT    restore8
	VADDPD Y5, Y0, Y0
	VADDPD Y3, Y1, Y1
	CMPQ   AX, $3
	JLT    restore8
	VADDPD Y6, Y0, Y0
	VADDPD Y10, Y1, Y1

restore8:
	// The second transpose overwrote Y13: reload the tail mask.
	MOVQ SI, AX
	ANDQ $3, AX
	SHLQ $3, AX
	LEAQ lanemask<>+128(SB), R13
	SUBQ AX, R13
	VMOVUPD (R13), Y13

store8:
	VMOVUPD (R11), Y4
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (R11)
	VMOVUPD 32(R11), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, 32(R11)
	LEAQ    (R8)(R9*8), R8
	ADDQ    $64, R11
	SUBQ    $8, DX
	JMP     cols8

cols4:
	CMPQ DX, $4
	JLT  colsTail
	MOVQ R8, DI
	MOVQ R10, R13
	MOVQ SI, AX
	VXORPD Y0, Y0, Y0

rows4:
	CMPQ AX, $4
	JLT  tail4
	VMOVUPD (R13), Y12
	PROD4(DI, Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ACC4(Y0, Y4, Y5, Y6, Y7)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $4, AX
	JMP  rows4

tail4:
	TESTQ AX, AX
	JEQ   store4
	VMASKMOVPD (R13), Y13, Y12
	PROD4M(DI, Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VADDPD Y4, Y0, Y0
	CMPQ   AX, $2
	JLT    store4
	VADDPD Y5, Y0, Y0
	CMPQ   AX, $3
	JLT    store4
	VADDPD Y6, Y0, Y0

store4:
	VMOVUPD (R11), Y4
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (R11)
	LEAQ    (R8)(R9*4), R8
	ADDQ    $32, R11
	SUBQ    $4, DX

	// The last 1..3 columns run as a four-column group whose missing
	// columns are zero products; only the live lanes of y are written.
colsTail:
	TESTQ DX, DX
	JEQ   done
	MOVQ  R8, DI
	MOVQ  R10, R13
	MOVQ  SI, AX
	VXORPD Y0, Y0, Y0

rowsT:
	CMPQ AX, $4
	JLT  tailT
	VMOVUPD (R13), Y12
	VMOVUPD (DI), Y4
	VMULPD  Y12, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	CMPQ    DX, $2
	JLT     accT
	VMOVUPD (DI)(R9*1), Y5
	VMULPD  Y12, Y5, Y5
	CMPQ    DX, $3
	JLT     accT
	VMOVUPD (DI)(R9*2), Y6
	VMULPD  Y12, Y6, Y6

accT:
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ACC4(Y0, Y4, Y5, Y6, Y7)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $4, AX
	JMP  rowsT

tailT:
	TESTQ AX, AX
	JEQ   storeT
	VMASKMOVPD (R13), Y13, Y12
	VMASKMOVPD (DI), Y13, Y4
	VMULPD     Y12, Y4, Y4
	VXORPD     Y5, Y5, Y5
	VXORPD     Y6, Y6, Y6
	VXORPD     Y7, Y7, Y7
	CMPQ       DX, $2
	JLT        transT
	VMASKMOVPD (DI)(R9*1), Y13, Y5
	VMULPD     Y12, Y5, Y5
	CMPQ       DX, $3
	JLT        transT
	VMASKMOVPD (DI)(R9*2), Y13, Y6
	VMULPD     Y12, Y6, Y6

transT:
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VADDPD Y4, Y0, Y0
	CMPQ   AX, $2
	JLT    storeT
	VADDPD Y5, Y0, Y0
	CMPQ   AX, $3
	JLT    storeT
	VADDPD Y6, Y0, Y0

storeT:
	SHLQ $3, DX
	LEAQ lanemask<>+128(SB), BX
	SUBQ DX, BX
	VMOVUPD    (BX), Y13
	VMASKMOVPD (R11), Y13, Y4
	VSUBPD     Y0, Y4, Y4
	VMASKMOVPD Y4, Y13, (R11)

done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// func gemmNDT8x4Kernel(mr, nr, k int, a *float64, lda int, d, b *float64, ldb int, c *float64, ldc int)
//
// A full 8×4 tile; mr and nr must be 8 and 4 (they are not read), k >= 1.
#define SETUP
#define LOADC \
	LEAQ    (R10)(R11*2), R12; \
	VMOVUPD (R10), Y0; \
	VMOVUPD 32(R10), Y1; \
	VMOVUPD (R10)(R11*1), Y2; \
	VMOVUPD 32(R10)(R11*1), Y3; \
	VMOVUPD (R12), Y4; \
	VMOVUPD 32(R12), Y5; \
	VMOVUPD (R12)(R11*1), Y6; \
	VMOVUPD 32(R12)(R11*1), Y7
#define LOADB VMULPD (BX), Y10, Y10
#define LIVE
#define LOADA VMOVUPD (SI), Y8; VMOVUPD 32(SI), Y9
#define STOREC \
	LEAQ    (R10)(R11*2), R12; \
	VMOVUPD Y0, (R10); \
	VMOVUPD Y1, 32(R10); \
	VMOVUPD Y2, (R10)(R11*1); \
	VMOVUPD Y3, 32(R10)(R11*1); \
	VMOVUPD Y4, (R12); \
	VMOVUPD Y5, 32(R12); \
	VMOVUPD Y6, (R12)(R11*1); \
	VMOVUPD Y7, 32(R12)(R11*1)
TEXT ·gemmNDT8x4Kernel(SB), NOSPLIT, $0-80
	GEMM_BODY
#undef SETUP
#undef LOADC
#undef LOADB
#undef LIVE
#undef LOADA
#undef STOREC

// func gemmNDTEdgeKernel(mr, nr, k int, a *float64, lda int, d, b *float64, ldb int, c *float64, ldc int)
//
// A ragged tile: 1 <= mr <= 8 rows and 1 <= nr <= 4 columns, k >= 1. Rows
// of A and C and columns of B outside the tile are masked off, so nothing
// outside it is read or written; the dead columns of the register tile are
// left out of the zero-scale test and never stored. R12 points at the row
// mask, DX at the column mask, and CX holds the live-column bits.
#define SETUP \
	MOVQ  mr+0(FP), R13; \
	SHLQ  $3, R13; \
	LEAQ  lanemask<>+128(SB), R12; \
	SUBQ  R13, R12; \
	MOVQ  nr+8(FP), CX; \
	MOVQ  $1, R13; \
	SHLQ  CX, R13; \
	DECQ  R13; \
	SHLQ  $3, CX; \
	LEAQ  lanemask<>+128(SB), DX; \
	SUBQ  CX, DX; \
	MOVQ  R13, CX
// Column j of C is loaded and stored only when it is live.
#define LOADC \
	VMOVUPD (R12), Y12; \
	VMOVUPD 32(R12), Y13; \
	MOVQ    R10, R13; \
	VMASKMOVPD (R13), Y12, Y0; \
	VMASKMOVPD 32(R13), Y13, Y1; \
	BTQ     $1, CX; \
	JCC     loaded; \
	ADDQ    R11, R13; \
	VMASKMOVPD (R13), Y12, Y2; \
	VMASKMOVPD 32(R13), Y13, Y3; \
	BTQ     $2, CX; \
	JCC     loaded; \
	ADDQ    R11, R13; \
	VMASKMOVPD (R13), Y12, Y4; \
	VMASKMOVPD 32(R13), Y13, Y5; \
	BTQ     $3, CX; \
	JCC     loaded; \
	ADDQ    R11, R13; \
	VMASKMOVPD (R13), Y12, Y6; \
	VMASKMOVPD 32(R13), Y13, Y7; \
loaded:
#define LOADB \
	VMOVUPD (DX), Y12; \
	VMASKMOVPD (BX), Y12, Y11; \
	VMULPD  Y11, Y10, Y10
#define LIVE ANDQ CX, R13
#define LOADA \
	VMOVUPD (R12), Y12; \
	VMASKMOVPD (SI), Y12, Y8; \
	VMOVUPD 32(R12), Y13; \
	VMASKMOVPD 32(SI), Y13, Y9
#define STOREC \
	VMOVUPD (R12), Y12; \
	VMOVUPD 32(R12), Y13; \
	MOVQ    R10, R13; \
	VMASKMOVPD Y0, Y12, (R13); \
	VMASKMOVPD Y1, Y13, 32(R13); \
	BTQ     $1, CX; \
	JCC     stored; \
	ADDQ    R11, R13; \
	VMASKMOVPD Y2, Y12, (R13); \
	VMASKMOVPD Y3, Y13, 32(R13); \
	BTQ     $2, CX; \
	JCC     stored; \
	ADDQ    R11, R13; \
	VMASKMOVPD Y4, Y12, (R13); \
	VMASKMOVPD Y5, Y13, 32(R13); \
	BTQ     $3, CX; \
	JCC     stored; \
	ADDQ    R11, R13; \
	VMASKMOVPD Y6, Y12, (R13); \
	VMASKMOVPD Y7, Y13, 32(R13); \
stored:
TEXT ·gemmNDTEdgeKernel(SB), NOSPLIT, $0-80
	GEMM_BODY
#undef SETUP
#undef LOADC
#undef LOADB
#undef LIVE
#undef LOADA
#undef STOREC

// func gemmNDT4x4Kernel(mr, nr, k int, a *float64, lda int, d, b *float64, ldb int, c *float64, ldc int)
//
// A short ragged tile: 1 <= mr <= 4 rows and 1 <= nr <= 4 columns, k >= 1,
// column j of C in Y(2j) alone. The row mask stays in Y9 and the column
// mask in Y13; Y1 holds a broadcast zero-scale lane.
#define SETUP \
	MOVQ  mr+0(FP), R13; \
	SHLQ  $3, R13; \
	LEAQ  lanemask<>+128(SB), R12; \
	SUBQ  R13, R12; \
	VMOVUPD (R12), Y9; \
	MOVQ  nr+8(FP), CX; \
	MOVQ  $1, R13; \
	SHLQ  CX, R13; \
	DECQ  R13; \
	SHLQ  $3, CX; \
	LEAQ  lanemask<>+128(SB), DX; \
	SUBQ  CX, DX; \
	VMOVUPD (DX), Y13; \
	MOVQ  R13, CX
#define LOADC \
	MOVQ    R10, R13; \
	VMASKMOVPD (R13), Y9, Y0; \
	BTQ     $1, CX; \
	JCC     loaded; \
	ADDQ    R11, R13; \
	VMASKMOVPD (R13), Y9, Y2; \
	BTQ     $2, CX; \
	JCC     loaded; \
	ADDQ    R11, R13; \
	VMASKMOVPD (R13), Y9, Y4; \
	BTQ     $3, CX; \
	JCC     loaded; \
	ADDQ    R11, R13; \
	VMASKMOVPD (R13), Y9, Y6; \
loaded:
#define LOADB \
	VMASKMOVPD (BX), Y13, Y11; \
	VMULPD  Y11, Y10, Y10
#define LIVE ANDQ CX, R13
#define LOADA VMASKMOVPD (SI), Y9, Y8
#undef COLUPD
#undef SKIPUPD
#define COLUPD(imm, c0, c1) \
	VPERMPD $imm, Y10, Y11; \
	VMULPD  Y11, Y8, Y12; \
	VADDPD  c0, Y12, c0
#define SKIPUPD(imm, c0, c1) \
	VPERMPD   $imm, Y10, Y11; \
	VPERMPD   $imm, Y14, Y1; \
	VMULPD    Y11, Y8, Y12; \
	VADDPD    c0, Y12, Y12; \
	VBLENDVPD Y1, c0, Y12, c0
#define STOREC \
	MOVQ    R10, R13; \
	VMASKMOVPD Y0, Y9, (R13); \
	BTQ     $1, CX; \
	JCC     stored; \
	ADDQ    R11, R13; \
	VMASKMOVPD Y2, Y9, (R13); \
	BTQ     $2, CX; \
	JCC     stored; \
	ADDQ    R11, R13; \
	VMASKMOVPD Y4, Y9, (R13); \
	BTQ     $3, CX; \
	JCC     stored; \
	ADDQ    R11, R13; \
	VMASKMOVPD Y6, Y9, (R13); \
stored:
TEXT ·gemmNDT4x4Kernel(SB), NOSPLIT, $0-80
	GEMM_BODY
// ---------------------------------------------------------------------------
// func trsvTileKernel(n int, l *float64, ld int, x *float64)
//
// The unit-lower triangle of one tile of TrsvLowerUnit, 1 <= n <= 16 rows:
// x[i] = x[i] − (l[i+j*ld] · x[j]) for j ascending and i > j, skipping
// every column whose x[j] == 0. The tile stays in Y0..Y3 (rows 0-3, 4-7,
// 8-11, 12-15), each loaded and stored under its row mask (Y6..Y9), and
// column j is unrolled: its x[j] is broadcast from its lane, the rows of
// its own group below it take the update through a blend, the groups
// below take it whole, and groups past the last row are left alone.
//
// Registers: SI n, R9 ld in bytes, R12 column j of l, DI x, R13 mask
// base. Y4 column of l / product, Y5 x[j], Y15 zero.

// TBCAST broadcasts lane imm of group g into Y5 and jumps to skip when it
// is zero; NaN is not a zero.
#define TBCAST(imm, g, do, skip) \
	VPERMPD  $imm, g, Y5; \
	VUCOMISD X15, X5; \
	JNE      do; \
	JPS      do; \
	JMP      skip

// TPART updates the lanes of group g that blend selects (the rows below
// row j in its own group); TFULL updates every lane of group g.
#define TPART(blend, g, mask, off) \
	VMASKMOVPD off(R12), mask, Y4; \
	VMULPD     Y5, Y4, Y4; \
	VSUBPD     Y4, g, Y4; \
	VBLENDPD   $blend, Y4, g, g

#define TFULL(g, mask, off) \
	VMASKMOVPD off(R12), mask, Y4; \
	VMULPD     Y5, Y4, Y4; \
	VSUBPD     Y4, g, g

TEXT ·trsvTileKernel(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), SI
	MOVQ l+8(FP), R12
	MOVQ ld+16(FP), R9
	SHLQ $3, R9
	MOVQ x+24(FP), DI
	VXORPD Y15, Y15, Y15
	MOVQ SI, AX
	SHLQ $3, AX
	LEAQ lanemask<>+128(SB), R13
	SUBQ AX, R13
	VMOVUPD (R13), Y6
	VMOVUPD 32(R13), Y7
	VMOVUPD 64(R13), Y8
	VMOVUPD 96(R13), Y9
	VMASKMOVPD (DI), Y6, Y0
	VMASKMOVPD 32(DI), Y7, Y1
	VMASKMOVPD 64(DI), Y8, Y2
	VMASKMOVPD 96(DI), Y9, Y3
	CMPQ SI, $1
	JLE  tdone

	TBCAST(0x00, Y0, tdo0, tnext0)
tdo0:
	TPART(14, Y0, Y6, 0)
	CMPQ SI, $4
	JLE  tnext0
	TFULL(Y1, Y7, 32)
	CMPQ SI, $8
	JLE  tnext0
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext0
	TFULL(Y3, Y9, 96)
tnext0:
	ADDQ R9, R12
	CMPQ SI, $2
	JLE  tdone
	TBCAST(0x55, Y0, tdo1, tnext1)
tdo1:
	TPART(12, Y0, Y6, 0)
	CMPQ SI, $4
	JLE  tnext1
	TFULL(Y1, Y7, 32)
	CMPQ SI, $8
	JLE  tnext1
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext1
	TFULL(Y3, Y9, 96)
tnext1:
	ADDQ R9, R12
	CMPQ SI, $3
	JLE  tdone
	TBCAST(0xaa, Y0, tdo2, tnext2)
tdo2:
	TPART(8, Y0, Y6, 0)
	CMPQ SI, $4
	JLE  tnext2
	TFULL(Y1, Y7, 32)
	CMPQ SI, $8
	JLE  tnext2
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext2
	TFULL(Y3, Y9, 96)
tnext2:
	ADDQ R9, R12
	CMPQ SI, $4
	JLE  tdone
	TBCAST(0xff, Y0, tdo3, tnext3)
tdo3:
	CMPQ SI, $4
	JLE  tnext3
	TFULL(Y1, Y7, 32)
	CMPQ SI, $8
	JLE  tnext3
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext3
	TFULL(Y3, Y9, 96)
tnext3:
	ADDQ R9, R12
	CMPQ SI, $5
	JLE  tdone
	TBCAST(0x00, Y1, tdo4, tnext4)
tdo4:
	TPART(14, Y1, Y7, 32)
	CMPQ SI, $8
	JLE  tnext4
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext4
	TFULL(Y3, Y9, 96)
tnext4:
	ADDQ R9, R12
	CMPQ SI, $6
	JLE  tdone
	TBCAST(0x55, Y1, tdo5, tnext5)
tdo5:
	TPART(12, Y1, Y7, 32)
	CMPQ SI, $8
	JLE  tnext5
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext5
	TFULL(Y3, Y9, 96)
tnext5:
	ADDQ R9, R12
	CMPQ SI, $7
	JLE  tdone
	TBCAST(0xaa, Y1, tdo6, tnext6)
tdo6:
	TPART(8, Y1, Y7, 32)
	CMPQ SI, $8
	JLE  tnext6
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext6
	TFULL(Y3, Y9, 96)
tnext6:
	ADDQ R9, R12
	CMPQ SI, $8
	JLE  tdone
	TBCAST(0xff, Y1, tdo7, tnext7)
tdo7:
	CMPQ SI, $8
	JLE  tnext7
	TFULL(Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext7
	TFULL(Y3, Y9, 96)
tnext7:
	ADDQ R9, R12
	CMPQ SI, $9
	JLE  tdone
	TBCAST(0x00, Y2, tdo8, tnext8)
tdo8:
	TPART(14, Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext8
	TFULL(Y3, Y9, 96)
tnext8:
	ADDQ R9, R12
	CMPQ SI, $10
	JLE  tdone
	TBCAST(0x55, Y2, tdo9, tnext9)
tdo9:
	TPART(12, Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext9
	TFULL(Y3, Y9, 96)
tnext9:
	ADDQ R9, R12
	CMPQ SI, $11
	JLE  tdone
	TBCAST(0xaa, Y2, tdo10, tnext10)
tdo10:
	TPART(8, Y2, Y8, 64)
	CMPQ SI, $12
	JLE  tnext10
	TFULL(Y3, Y9, 96)
tnext10:
	ADDQ R9, R12
	CMPQ SI, $12
	JLE  tdone
	TBCAST(0xff, Y2, tdo11, tnext11)
tdo11:
	CMPQ SI, $12
	JLE  tnext11
	TFULL(Y3, Y9, 96)
tnext11:
	ADDQ R9, R12
	CMPQ SI, $13
	JLE  tdone
	TBCAST(0x00, Y3, tdo12, tnext12)
tdo12:
	TPART(14, Y3, Y9, 96)
tnext12:
	ADDQ R9, R12
	CMPQ SI, $14
	JLE  tdone
	TBCAST(0x55, Y3, tdo13, tnext13)
tdo13:
	TPART(12, Y3, Y9, 96)
tnext13:
	ADDQ R9, R12
	CMPQ SI, $15
	JLE  tdone
	TBCAST(0xaa, Y3, tdo14, tnext14)
tdo14:
	TPART(8, Y3, Y9, 96)
tnext14:
	ADDQ R9, R12
	CMPQ SI, $16
	JLE  tdone
tdone:
	VMASKMOVPD Y0, Y6, (DI)
	VMASKMOVPD Y1, Y7, 32(DI)
	VMASKMOVPD Y2, Y8, 64(DI)
	VMASKMOVPD Y3, Y9, 96(DI)
	VZEROUPPER
	RET

#undef TBCAST
#undef TPART
#undef TFULL
