package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The suite below calls every kernel set this binary compiled in and the
// CPU can run (compiledSets: reference, generic, then the platform's),
// not only the one dispatch picked: on a GFNI host dispatch hides the
// AVX2 bodies, and without -tags purego it hides the reference ones.

// rowsBody returns set ks's AddMulRows body for field f, mirroring the
// field methods.
func rowsBody(ks kernelSet, f Field) func(dst []byte, srcs [][]byte, cs []uint16) {
	switch f.Bits() {
	case 1:
		return func(dst []byte, srcs [][]byte, cs []uint16) { addMulRowsEach(dst, srcs, cs, 1, ks.xor, nil) }
	case 8:
		return ks.addMulRows256
	default:
		return func(dst []byte, srcs [][]byte, cs []uint16) {
			addMulRowsEach(dst, srcs, cs, 0xFFFF, ks.xor, ks.addMul65536)
		}
	}
}

// rowsLens are the dst lengths under test: 0-70 byte by byte, then
// tails on both sides of the 32-, 64- and 256-byte strides up to 4 KiB.
func rowsLens() []int {
	lens := make([]int, 0, 100)
	for n := 0; n <= 70; n++ {
		lens = append(lens, n)
	}
	for _, n := range []int{95, 96, 97, 127, 128, 129, 191, 192, 193, 255, 256, 257, 319, 320, 321,
		511, 512, 513, 1023, 1024, 1025, 1186, 2047, 2048, 2049, 4095, 4096} {
		lens = append(lens, n)
	}
	return lens
}

// scalarAddMulRows is the ground truth: base ^ Σ cs[j]·srcs[j][:len(base)]
// from per-symbol Field.Mul.
func scalarAddMulRows(f Field, base []byte, srcs [][]byte, cs []uint16) []byte {
	want := append([]byte(nil), base...)
	for j, src := range srcs {
		prod := scalarMulSym(f, src[:len(base)], cs[j])
		for i := range want {
			want[i] ^= prod[i]
		}
	}
	return want
}

// rowsCase draws rows of n bytes (a symbol multiple) plus up to 70
// extra, so rows run past dst, keeping a copy of each row to detect
// writes.
func rowsCase(f Field, r *rand.Rand, n, rows int) (srcs, orig [][]byte) {
	srcs = make([][]byte, rows)
	orig = make([][]byte, rows)
	for j := range srcs {
		srcs[j] = randBytes(f, evenLen(f, n+r.Intn(71)), r)
		orig[j] = append([]byte(nil), srcs[j]...)
	}
	return srcs, orig
}

// rowsCoeffs draws one coefficient per row: zero and one often, the
// rest uniform, with bits above the field's width set at random (the
// bodies must reduce them).
func rowsCoeffs(f Field, r *rand.Rand, rows int) []uint16 {
	cs := make([]uint16, rows)
	for j := range cs {
		switch r.Intn(4) {
		case 0:
			cs[j] = 0
		case 1:
			cs[j] = 1
		default:
			cs[j] = f.Rand(r)
		}
		if f.Bits() < 16 {
			cs[j] |= uint16(r.Intn(256)) << 8
		}
	}
	return cs
}

func checkRowsBody(t *testing.T, f Field, name string, body func([]byte, [][]byte, []uint16),
	base []byte, srcs, orig [][]byte, cs []uint16) {
	t.Helper()
	want := scalarAddMulRows(f, base, srcs, cs)
	got := append([]byte(nil), base...)
	body(got, srcs, cs)
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("%s %s AddMulRows(n=%d, rows=%d, cs=%v)[%d] = %#x, want %#x",
			name, f.Name(), len(base), len(srcs), cs, i, got[i], want[i])
	}
	for j := range srcs {
		if !bytes.Equal(srcs[j], orig[j]) {
			t.Fatalf("%s %s AddMulRows(n=%d, rows=%d) wrote to row %d", name, f.Name(), len(base), len(srcs), j)
		}
	}
}

func TestAddMulRowsEveryBody(t *testing.T) {
	t.Parallel()
	for _, ks := range compiledSets() {
		for _, f := range fields {
			ks, f := ks, f
			t.Run(ks.name+"/"+f.Name(), func(t *testing.T) {
				t.Parallel()
				body := rowsBody(ks, f)
				r := rand.New(rand.NewSource(int64(len(ks.name)*131 + f.Bits())))
				for _, n := range rowsLens() {
					n = evenLen(f, n)
					for _, rows := range []int{0, 1, 2, 3, 5, 32, 33} {
						srcs, orig := rowsCase(f, r, n, rows)
						base := randBytes(f, n, r)
						checkRowsBody(t, f, ks.name, body, base, srcs, orig, rowsCoeffs(f, r, rows))
					}
				}
				// Every coefficient of the field once (sampled for
				// GF(2^16)), in one call, on lengths around the strides.
				cs := coeffsFor(f, r)
				for _, n := range []int{1, 63, 64, 65, 255, 256, 257, 1186} {
					n = evenLen(f, n)
					srcs, orig := rowsCase(f, r, n, len(cs))
					checkRowsBody(t, f, ks.name, body, randBytes(f, n, r), srcs, orig, cs)
				}
				// All-zero coefficients and a lone nonzero one in the
				// middle: the GFNI wrapper trims zero runs at both ends.
				for _, n := range []int{0, 100, 1024} {
					n = evenLen(f, n)
					srcs, orig := rowsCase(f, r, n, 9)
					cs := make([]uint16, 9)
					checkRowsBody(t, f, ks.name, body, randBytes(f, n, r), srcs, orig, cs)
					cs[4] = 3
					checkRowsBody(t, f, ks.name, body, randBytes(f, n, r), srcs, orig, cs)
				}
			})
		}
	}
}

func TestSliceKernelsEveryBody(t *testing.T) {
	t.Parallel()
	for _, ks := range compiledSets() {
		for _, f := range []Field{F256, F65536} {
			ks, f := ks, f
			t.Run(ks.name+"/"+f.Name(), func(t *testing.T) {
				t.Parallel()
				mul, addMul := ks.mul256, ks.addMul256
				if f.Bits() == 16 {
					mul, addMul = ks.mul65536, ks.addMul65536
				}
				r := rand.New(rand.NewSource(int64(len(ks.name)*7 + f.Bits())))
				coeffs := coeffsFor(f, r)
				for _, n := range rowsLens() {
					n = evenLen(f, n)
					src := randBytes(f, n, r)
					base := randBytes(f, n, r)
					for _, c := range coeffs {
						if c < 2 {
							continue // the field methods peel 0 and 1 off
						}
						prod := scalarMulSym(f, src, c)
						got := append([]byte(nil), base...)
						mul(got, src, c)
						if !bytes.Equal(got, prod) {
							t.Fatalf("%s MulSlice(c=%d, n=%d) diverges from scalar Mul", ks.name, c, n)
						}
						got = append([]byte(nil), src...)
						mul(got, got, c)
						if !bytes.Equal(got, prod) {
							t.Fatalf("%s aliased MulSlice(c=%d, n=%d) diverges", ks.name, c, n)
						}
						got = append([]byte(nil), base...)
						addMul(got, src, c)
						for i := range got {
							if got[i] != base[i]^prod[i] {
								t.Fatalf("%s AddMulSlice(c=%d, n=%d)[%d] = %#x, want %#x",
									ks.name, c, n, i, got[i], base[i]^prod[i])
							}
						}
					}
					got := append([]byte(nil), base...)
					ks.xor(got, src)
					for i := range got {
						if got[i] != base[i]^src[i] {
							t.Fatalf("%s AddSlice(n=%d)[%d] wrong", ks.name, n, i)
						}
					}
				}
			})
		}
	}
}

// TestAddMulRowsMatchesAddMulSlice pins the method-level contract: one
// AddMulRows call equals one AddMulSlice per row, for every field under
// the dispatched set.
func TestAddMulRowsMatchesAddMulSlice(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(9))
	for _, f := range fields {
		for _, n := range []int{0, 2, 64, 1186} {
			srcs, _ := rowsCase(f, r, n, 17)
			cs := rowsCoeffs(f, r, 17)
			base := randBytes(f, n, r)
			want := append([]byte(nil), base...)
			for j, src := range srcs {
				f.AddMulSlice(want, src[:n], cs[j])
			}
			got := append([]byte(nil), base...)
			f.AddMulRows(got, srcs, cs)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s AddMulRows(n=%d) != AddMulSlice per row", f.Name(), n)
			}
		}
	}
}

func TestAddMulRowsArgumentPanics(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		f    Field
		dst  []byte
		srcs [][]byte
		cs   []uint16
	}{
		{"coefficient count", F256, make([]byte, 4), [][]byte{make([]byte, 4)}, []uint16{1, 2}},
		{"short row", F256, make([]byte, 4), [][]byte{make([]byte, 3)}, []uint16{2}},
		{"odd GF(2^16) length", F65536, make([]byte, 3), [][]byte{make([]byte, 4)}, []uint16{2}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddMulRows did not panic", tc.name)
				}
			}()
			tc.f.AddMulRows(tc.dst, tc.srcs, tc.cs)
		}()
	}
}

// TestAffineMatrices256 checks aff256 against the GF2P8AFFINEQB
// definition (result bit i = parity(matrix.byte[7-i] & x)) for every
// coefficient and byte, so the matrices are right on any platform.
func TestAffineMatrices256(t *testing.T) {
	t.Parallel()
	for c := 0; c < 256; c++ {
		m := aff256[c]
		for x := 0; x < 256; x++ {
			var y byte
			for i := 0; i < 8; i++ {
				row := byte(m >> (8 * (7 - i)))
				y |= byte(popcount8(row&byte(x))&1) << i
			}
			if y != mul256[c][x] {
				t.Fatalf("aff256[%d] maps %d to %d, want %d", c, x, y, mul256[c][x])
			}
		}
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// vecReg matches a register operand of the vector register files.
var vecReg = regexp.MustCompile(`\b[XYZ]([0-9]|[12][0-9]|3[01])\b`)

// TestAsmNoLegacySSE scans the amd64 assembly for instructions that name
// an X/Y/Z register without a VEX/EVEX encoding (mnemonic not starting
// with V). Mixing one legacy-SSE instruction into the VEX kernels cost
// ~200 ns of state transition per call, more than a 1 KiB multiply.
func TestAsmNoLegacySSE(t *testing.T) {
	src, err := os.ReadFile("kernels_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for i, line := range strings.Split(string(src), "\n") {
		if k := strings.Index(line, "//"); k >= 0 {
			line = line[:k]
		}
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), `\`))
		if line == "" || strings.HasPrefix(line, "#") || strings.HasSuffix(line, ":") {
			continue
		}
		mnemonic, operands, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(mnemonic, "V") && vecReg.MatchString(operands) {
			bad = append(bad, fmt.Sprintf("kernels_amd64.s:%d: %s", i+1, line))
		}
	}
	if len(bad) > 0 {
		t.Fatalf("%d legacy-SSE instructions in VEX code (use the V-prefixed form):\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
}

func FuzzAddMulRows256(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12}, []byte{0x57, 0, 1, 0x8e}, uint8(3))
	f.Fuzz(func(t *testing.T, dst, data, coeffs []byte, extra uint8) {
		// Row j is data rotated by j, extended to len(dst)+extra%8 bytes.
		rows := len(coeffs)
		if rows > 40 || len(data) == 0 {
			return
		}
		srcs := make([][]byte, rows)
		cs := make([]uint16, rows)
		for j := range srcs {
			srcs[j] = make([]byte, len(dst)+int(extra%8))
			for i := range srcs[j] {
				srcs[j][i] = data[(i+j)%len(data)]
			}
			cs[j] = uint16(coeffs[j]) | uint16(extra)<<8
		}
		want := scalarAddMulRows(F256, dst, srcs, cs)
		for _, ks := range compiledSets() {
			got := append([]byte(nil), dst...)
			ks.addMulRows256(got, srcs, cs)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s AddMulRows(n=%d, rows=%d) != scalar reference", ks.name, len(dst), rows)
			}
		}
	})
}

// BenchmarkAddMulRows256 is the fused kernel at the coded relay's shape:
// 32 rows of 1 KiB into one 1 KiB packet. Throughput counts source bytes.
func BenchmarkAddMulRows256(b *testing.B) {
	const rows, n = 32, 1024
	r := rand.New(rand.NewSource(1))
	srcs := make([][]byte, rows)
	cs := make([]uint16, rows)
	for j := range srcs {
		srcs[j] = make([]byte, n)
		r.Read(srcs[j])
		cs[j] = uint16(2 + r.Intn(254))
	}
	dst := make([]byte, n)
	for _, ks := range compiledSets() {
		b.Run(ks.name, func(b *testing.B) {
			b.SetBytes(rows * n)
			for i := 0; i < b.N; i++ {
				ks.addMulRows256(dst, srcs, cs)
			}
		})
	}
}
