//go:build amd64 && !purego

package gf

// amd64 kernel sets, in dispatch order:
//
//   - gfni-avx512: GF(2^8) multiplies through VGF2P8AFFINEQB, one 8x8 bit
//     matrix per coefficient (aff256), 64 bytes per instruction; the
//     fused AddMulRows keeps four 64-byte accumulators of dst in
//     registers while it walks every row, so dst is loaded and stored
//     once per call instead of once per row. Tails run under AVX-512
//     byte masks, with no scalar loop. GF(2^16) and XOR stay on AVX2.
//   - avx2: the classic PSHUFB low/high-nibble split (one 16-byte
//     product table per nibble, looked up 32 lanes at a time), the
//     technique klauspost/reedsolomon and ISA-L use; see nib256 in
//     gf256.go for the table layout. AddMulRows loops over rows.
//
// Each is offered iff the CPU and OS support it; otherwise the generic
// set stands. The assembly uses VEX/EVEX encodings only: a single
// legacy-SSE MOVQ in the AVX2 prologues cost ~200 ns per call in SSE/AVX
// transitions, 1 KiB AddMulSlice(GF256) taking 215-320 ns against 54-62
// ns without it on a 2-core Xeon (TestAsmNoLegacySSE guards this).

//go:noescape
func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0Asm() (eax, edx uint32)

//go:noescape
func xorSliceAVX2(dst, src *byte, n int)

//go:noescape
func mulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func addMulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func mulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)

//go:noescape
func addMulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)

//go:noescape
func mulSlice256GFNI(dst, src []byte, mat uint64)

//go:noescape
func addMulRows256GFNI(dst []byte, srcs [][]byte, cs []uint16)

var (
	avx2Kernels = kernelSet{
		name:          "avx2",
		xor:           xorSliceAsm,
		mul256:        mulSlice256Asm,
		addMul256:     addMulSlice256Asm,
		addMulRows256: addMulRows256Asm,
		mul65536:      mulSlice65536Asm,
		addMul65536:   addMulSlice65536Asm,
	}
	gfniKernels = kernelSet{
		name:          "gfni-avx512",
		xor:           xorSliceAsm,
		mul256:        mulSlice256GFNIWrap,
		addMul256:     addMulSlice256GFNIWrap,
		addMulRows256: addMulRows256GFNIWrap,
		mul65536:      mulSlice65536Asm,
		addMul65536:   addMulSlice65536Asm,
	}
)

func platformSets() []kernelSet {
	var sets []kernelSet
	avx2, gfni := cpuFeatures()
	if gfni {
		sets = append(sets, gfniKernels)
	}
	if avx2 {
		sets = append(sets, avx2Kernels)
	}
	return sets
}

// cpuFeatures reports AVX2 support (leaf 7 EBX bit 5) and GFNI with
// AVX-512F/BW and BMI2 (leaf 7 ECX bit 8, EBX bits 16, 30 and 8; the
// tail masks come from BZHI), each only when the
// OS saves the register state it needs: YMM (OSXSAVE + XCR0 bits 1-2)
// and, for AVX-512, the opmask and ZMM state too (XCR0 bits 5-7).
func cpuFeatures() (avx2, gfniAVX512 bool) {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false, false
	}
	xcr0, _ := xgetbv0Asm()
	if xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, ecx7, _ := cpuidAsm(7, 0)
	avx2 = ebx7&(1<<5) != 0
	const avx512FBWAndBMI2 = 1<<16 | 1<<30 | 1<<8
	gfniAVX512 = avx2 && ebx7&avx512FBWAndBMI2 == avx512FBWAndBMI2 && ecx7&(1<<8) != 0 && xcr0&0xE6 == 0xE6
	return avx2, gfniAVX512
}

// The AVX2 routines process a positive multiple of 32 bytes; the
// wrappers peel the tail onto the scalar reference loops.

func xorSliceAsm(dst, src []byte) {
	n := len(dst) &^ 31
	if n > 0 {
		xorSliceAVX2(&dst[0], &src[0], n)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

func mulSlice256Asm(dst, src []byte, c uint16) {
	n := len(dst) &^ 31
	if n > 0 {
		mulSlice256AVX2(&dst[0], &src[0], n, &nib256[c&0xFF])
	}
	row := &mul256[c&0xFF]
	for i := n; i < len(dst); i++ {
		dst[i] = row[src[i]]
	}
}

func addMulSlice256Asm(dst, src []byte, c uint16) {
	n := len(dst) &^ 31
	if n > 0 {
		addMulSlice256AVX2(&dst[0], &src[0], n, &nib256[c&0xFF])
	}
	row := &mul256[c&0xFF]
	for i := n; i < len(dst); i++ {
		dst[i] ^= row[src[i]]
	}
}

func addMulRows256Asm(dst []byte, srcs [][]byte, cs []uint16) {
	addMulRowsEach(dst, srcs, cs, 0xFF, xorSliceAsm, addMulSlice256Asm)
}

// vecCut65536 is the slice length below which the GF(2^16) vector path
// (an amortized table-cache hit plus the loop prologue) still loses to
// the scalar log/exp loop. With tables cached across calls the first-use
// build cost no longer factors in, so the cutover sits at one vector
// iteration's worth of data.
const vecCut65536 = 64

func mulSlice65536Asm(dst, src []byte, c uint16) {
	if len(dst) < vecCut65536 {
		refMulSlice65536(dst, src, c)
		return
	}
	n := len(dst) &^ 31
	mulSlice65536AVX2(&dst[0], &src[0], n, tab65536For(c))
	if n < len(dst) {
		refMulSlice65536(dst[n:], src[n:], c)
	}
}

func addMulSlice65536Asm(dst, src []byte, c uint16) {
	if len(dst) < vecCut65536 {
		refAddMulSlice65536(dst, src, c)
		return
	}
	n := len(dst) &^ 31
	addMulSlice65536AVX2(&dst[0], &src[0], n, tab65536For(c))
	if n < len(dst) {
		refAddMulSlice65536(dst[n:], src[n:], c)
	}
}

// The GFNI bodies take any length, tails included.

func mulSlice256GFNIWrap(dst, src []byte, c uint16) {
	mulSlice256GFNI(dst, src, aff256[c&0xFF])
}

func addMulSlice256GFNIWrap(dst, src []byte, c uint16) {
	srcs, cs := [1][]byte{src}, [1]uint16{c}
	addMulRows256GFNI(dst, srcs[:], cs[:])
}

// addMulRows256GFNIWrap trims zero coefficients off both ends before the
// fused pass, which walks every block of dst however many rows are
// live: back-substitution over systematic rows passes all-zero runs.
func addMulRows256GFNIWrap(dst []byte, srcs [][]byte, cs []uint16) {
	for len(cs) > 0 && cs[0]&0xFF == 0 {
		srcs, cs = srcs[1:], cs[1:]
	}
	for len(cs) > 0 && cs[len(cs)-1]&0xFF == 0 {
		srcs, cs = srcs[:len(srcs)-1], cs[:len(cs)-1]
	}
	if len(cs) > 0 && len(dst) > 0 {
		addMulRows256GFNI(dst, srcs, cs)
	}
}
