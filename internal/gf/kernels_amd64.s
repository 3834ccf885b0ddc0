//go:build amd64 && !purego

#include "textflag.h"

// func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0Asm() (eax, edx uint32)
TEXT ·xgetbv0Asm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func xorSliceAVX2(dst, src *byte, n int)
// n is a positive multiple of 32.
TEXT ·xorSliceAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

xorloop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     xorloop
	VZEROUPPER
	RET

// func mulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)
// dst[i] = tab-lookup product of src[i]; n is a positive multiple of 32.
// tab holds the 16 low-nibble products followed by the 16 high-nibble
// products for the scalar (see nib256).
TEXT ·mulSlice256AVX2(SB), NOSPLIT, $0-32
	MOVQ           dst+0(FP), DI
	MOVQ           src+8(FP), SI
	MOVQ           n+16(FP), CX
	MOVQ           tab+24(FP), DX
	VBROADCASTI128 (DX), Y0           // low-nibble product table
	VBROADCASTI128 16(DX), Y1         // high-nibble product table
	MOVQ           $15, AX
	VMOVQ          AX, X2
	VPBROADCASTB   X2, Y2             // 0x0f byte mask

mulloop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3                // low nibbles
	VPAND   Y2, Y4, Y4                // high nibbles
	VPSHUFB Y3, Y0, Y5                // products of low nibbles
	VPSHUFB Y4, Y1, Y6                // products of high nibbles
	VPXOR   Y5, Y6, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulloop
	VZEROUPPER
	RET

// func addMulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)
// dst[i] ^= product of src[i]; n is a positive multiple of 32.
TEXT ·addMulSlice256AVX2(SB), NOSPLIT, $0-32
	MOVQ           dst+0(FP), DI
	MOVQ           src+8(FP), SI
	MOVQ           n+16(FP), CX
	MOVQ           tab+24(FP), DX
	VBROADCASTI128 (DX), Y0
	VBROADCASTI128 16(DX), Y1
	MOVQ           $15, AX
	VMOVQ          AX, X2
	VPBROADCASTB   X2, Y2

addmulloop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR   Y5, Y6, Y5
	VPXOR   (DI), Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     addmulloop
	VZEROUPPER
	RET

// GF(2^16) vector multiply. Symbols are 16-bit little-endian, so a loaded
// vector interleaves low bytes (even lanes, nibbles n0/n1) and high bytes
// (odd lanes, nibbles n2/n3) of 16 symbols. The product's low byte is
// T0lo[n0]^T1lo[n1]^T2lo[n2]^T3lo[n3] and the high byte the same over the
// *hi tables (see buildNibTab65536), so each nibble contributes via one
// PSHUFB whose control selects the nibble in the target lanes and carries
// 0xff (bit 7 set => PSHUFB emits zero) in the other lanes.
//
// Register plan, shared by both loops below:
//   Y0..Y7  T0lo T0hi T1lo T1hi T2lo T2hi T3lo T3hi (16 bytes each, splat)
//   Y8      0x0f byte mask
//   Y9      0xff in odd lanes  (even-lane controls OR this in)
//   Y10     0xff in even lanes (odd-lane controls OR this in)
//   Y11-Y15 input / low nibbles / high nibbles / control scratch / acc

#define GF65536_PROLOGUE \
	MOVQ           dst+0(FP), DI  \
	MOVQ           src+8(FP), SI  \
	MOVQ           n+16(FP), CX   \
	MOVQ           tab+24(FP), DX \
	VBROADCASTI128 (DX), Y0       \
	VBROADCASTI128 16(DX), Y1     \
	VBROADCASTI128 32(DX), Y2     \
	VBROADCASTI128 48(DX), Y3     \
	VBROADCASTI128 64(DX), Y4     \
	VBROADCASTI128 80(DX), Y5     \
	VBROADCASTI128 96(DX), Y6     \
	VBROADCASTI128 112(DX), Y7    \
	MOVQ           $15, AX        \
	VMOVQ          AX, X8         \
	VPBROADCASTB   X8, Y8         \
	VPCMPEQB       Y9, Y9, Y9     \
	VPSRLW         $8, Y9, Y10    \
	VPSLLW         $8, Y9, Y9

// One 32-byte step: load, split nibbles (low nibbles Y12: n0 in even
// lanes / n2 in odd; high nibbles Y13: n1 even / n3 odd), then accumulate
// the eight table contributions into Y15 in the order
// T0lo[n0] T0hi[n0] T2lo[n2] T2hi[n2] T1lo[n1] T1hi[n1] T3lo[n3] T3hi[n3],
// the *lo shuffles landing in even lanes and the *hi shuffles in odd
// lanes. Word shifts by 8 move a nibble to the opposite lane of its
// symbol; word shifts never leak bits across symbols.
#define GF65536_STEP \
	VMOVDQU (SI), Y11     \
	VPAND   Y8, Y11, Y12  \
	VPSRLW  $4, Y11, Y13  \
	VPAND   Y8, Y13, Y13  \
	VPOR    Y9, Y12, Y14  \
	VPSHUFB Y14, Y0, Y15  \
	VPSLLW  $8, Y12, Y14  \
	VPOR    Y10, Y14, Y14 \
	VPSHUFB Y14, Y1, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPSRLW  $8, Y12, Y14  \
	VPOR    Y9, Y14, Y14  \
	VPSHUFB Y14, Y4, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPOR    Y10, Y12, Y14 \
	VPSHUFB Y14, Y5, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPOR    Y9, Y13, Y14  \
	VPSHUFB Y14, Y2, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPSLLW  $8, Y13, Y14  \
	VPOR    Y10, Y14, Y14 \
	VPSHUFB Y14, Y3, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPSRLW  $8, Y13, Y14  \
	VPOR    Y9, Y14, Y14  \
	VPSHUFB Y14, Y6, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPOR    Y10, Y13, Y14 \
	VPSHUFB Y14, Y7, Y14  \
	VPXOR   Y14, Y15, Y15

// func mulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)
// n is a positive multiple of 32 (and of the 2-byte symbol size).
TEXT ·mulSlice65536AVX2(SB), NOSPLIT, $0-32
	GF65536_PROLOGUE

mul65536loop:
	GF65536_STEP
	VMOVDQU Y15, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mul65536loop
	VZEROUPPER
	RET

// func addMulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)
// dst ^= product; n is a positive multiple of 32.
TEXT ·addMulSlice65536AVX2(SB), NOSPLIT, $0-32
	GF65536_PROLOGUE

addmul65536loop:
	GF65536_STEP
	VPXOR   (DI), Y15, Y15
	VMOVDQU Y15, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     addmul65536loop
	VZEROUPPER
	RET

// GF(2^8) multiplies through GFNI: VGF2P8AFFINEQB multiplies every byte
// of a vector by the 8x8 bit matrix in its qword lane, and aff256[c] is
// the matrix of x -> c*x under 0x11D, so one broadcast matrix multiplies
// 64 bytes at once. Blocks of 256 bytes run unmasked; the final 0-255
// bytes run 64 at a time under a byte mask (K1), whose masked-off lanes
// are neither loaded nor stored.

// GFNI_TAIL_MASK sets K1 to the low min(CX, 64) bits for 0 < CX < 256:
// BZHI keeps all 64 bits when the index is 64 or more.
#define GFNI_TAIL_MASK \
	MOVQ  $-1, DX    \
	BZHIQ CX, DX, DX \
	KMOVQ DX, K1

// func mulSlice256GFNI(dst, src []byte, mat uint64)
// dst[i] = c * src[i] for len(dst) bytes; src is at least that long and
// may equal dst.
TEXT ·mulSlice256GFNI(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VPBROADCASTQ mat+48(FP), Z8

mulgfni256:
	CMPQ           CX, $256
	JB             mulgfnitail
	VMOVDQU64      (SI), Z0
	VMOVDQU64      64(SI), Z1
	VMOVDQU64      128(SI), Z2
	VMOVDQU64      192(SI), Z3
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VGF2P8AFFINEQB $0, Z8, Z1, Z1
	VGF2P8AFFINEQB $0, Z8, Z2, Z2
	VGF2P8AFFINEQB $0, Z8, Z3, Z3
	VMOVDQU64      Z0, (DI)
	VMOVDQU64      Z1, 64(DI)
	VMOVDQU64      Z2, 128(DI)
	VMOVDQU64      Z3, 192(DI)
	ADDQ           $256, SI
	ADDQ           $256, DI
	SUBQ           $256, CX
	JMP            mulgfni256

mulgfnitail:
	TESTQ          CX, CX
	JZ             mulgfnidone
	GFNI_TAIL_MASK
	VMOVDQU8.Z     (SI), K1, Z0
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VMOVDQU8       Z0, K1, (DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	SUBQ           $64, CX
	JA             mulgfnitail

mulgfnidone:
	VZEROUPPER
	RET

// func addMulRows256GFNI(dst []byte, srcs [][]byte, cs []uint16)
// dst ^= cs[j] * srcs[j] over every row j; len(srcs) == len(cs) > 0,
// every row is at least len(dst) long, and no row overlaps dst. For each
// block of dst the accumulators load dst once, take every row's product
// (rows whose coefficient is zero mod 256 are skipped), and store once.
//
// Registers: DI dst block, SI byte offset of the block, CX bytes left,
// R8/R9/R10 the srcs headers, row count and coefficients; R11 &aff256;
// R12/R13/R14 the row cursors; AX coefficient/matrix address, BX row
// pointer. Z0-Z3 accumulate, Z4-Z7 row data, Z8 the row's matrix.
TEXT ·addMulRows256GFNI(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), R8
	MOVQ srcs_len+32(FP), R9
	MOVQ cs_base+48(FP), R10
	LEAQ ·aff256(SB), R11
	XORQ SI, SI

rowsblock:
	CMPQ      CX, $256
	JB        rowstail
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	MOVQ      R8, R12
	MOVQ      R10, R13
	MOVQ      R9, R14

rowsblockrow:
	MOVBQZX        (R13), AX
	TESTQ          AX, AX
	JZ             rowsblocknext
	VPBROADCASTQ   (R11)(AX*8), Z8
	MOVQ           (R12), BX
	VMOVDQU64      (BX)(SI*1), Z4
	VMOVDQU64      64(BX)(SI*1), Z5
	VMOVDQU64      128(BX)(SI*1), Z6
	VMOVDQU64      192(BX)(SI*1), Z7
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VGF2P8AFFINEQB $0, Z8, Z5, Z5
	VGF2P8AFFINEQB $0, Z8, Z6, Z6
	VGF2P8AFFINEQB $0, Z8, Z7, Z7
	VPXORQ         Z4, Z0, Z0
	VPXORQ         Z5, Z1, Z1
	VPXORQ         Z6, Z2, Z2
	VPXORQ         Z7, Z3, Z3

rowsblocknext:
	ADDQ $24, R12
	ADDQ $2, R13
	DECQ R14
	JNZ  rowsblockrow

	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, DI
	ADDQ      $256, SI
	SUBQ      $256, CX
	JMP       rowsblock

rowstail:
	TESTQ          CX, CX
	JZ             rowsdone
	GFNI_TAIL_MASK
	VMOVDQU8.Z     (DI), K1, Z0
	MOVQ           R8, R12
	MOVQ           R10, R13
	MOVQ           R9, R14

rowstailrow:
	MOVBQZX        (R13), AX
	TESTQ          AX, AX
	JZ             rowstailnext
	VPBROADCASTQ   (R11)(AX*8), Z8
	MOVQ           (R12), BX
	ADDQ           SI, BX
	VMOVDQU8.Z     (BX), K1, Z4
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VPXORQ         Z4, Z0, Z0

rowstailnext:
	ADDQ $24, R12
	ADDQ $2, R13
	DECQ R14
	JNZ  rowstailrow

	VMOVDQU8 Z0, K1, (DI)
	ADDQ     $64, DI
	ADDQ     $64, SI
	SUBQ     $64, CX
	JA       rowstail

rowsdone:
	VZEROUPPER
	RET
