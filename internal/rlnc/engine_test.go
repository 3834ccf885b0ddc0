package rlnc

import (
	"bytes"
	"math/rand"
	"testing"

	"ncast/internal/gf"
)

// checkEchelon asserts the engine's structural invariants: every pivoted
// column names a distinct live slot whose row is zero left of the column
// and 1 at it, and the pivot count equals the rank. At full rank, when
// back-substitution has run, every row must be a unit vector (RREF).
func checkEchelon(t *testing.T, e *genDecoder) {
	t.Helper()
	seen := make(map[int32]bool)
	pivots := 0
	for c, s := range e.pivotOf {
		if s < 0 {
			continue
		}
		pivots++
		if int(s) >= e.rank || seen[s] {
			t.Fatalf("column %d: pivot slot %d invalid at rank %d (seen %v)", c, s, e.rank, seen[s])
		}
		seen[s] = true
		row := e.coeffRow(int(s))
		for j, v := range row {
			want := v
			switch {
			case j < c:
				want = 0
			case j == c:
				want = 1
			case e.complete():
				want = 0 // reduced: zero at every other column
			}
			if v != want {
				t.Fatalf("rank %d: row with pivot %d has %d at column %d, want %d: %v", e.rank, c, v, j, want, row)
			}
		}
	}
	if pivots != e.rank {
		t.Fatalf("%d pivoted columns at rank %d", pivots, e.rank)
	}
}

// TestBasisOutOfOrderPivots is a regression test: when pivots are created
// out of column order (packet for column 3 arrives before any packet
// touching columns 0-2), the engine's basis must stay in echelon form at
// every partial rank and reach reduced form, with unit coefficient
// vectors and the solved payloads, at full rank.
func TestBasisOutOfOrderPivots(t *testing.T) {
	t.Parallel()
	e := newGenDecoder(gf.F256, 4, 4)
	// Rows engineered to create pivots in order 3, 1, 0, 2, with overlaps
	// that force both forward elimination and back-substitution.
	rows := [][]uint16{
		{0, 0, 0, 1},
		{0, 1, 0, 1},
		{1, 1, 0, 1},
		{1, 1, 1, 1},
	}
	payloads := [][]byte{
		{1, 0, 0, 0},
		{0, 2, 0, 0},
		{0, 0, 3, 0},
		{0, 0, 0, 4},
	}
	for i := range rows {
		inn, err := e.add(&Packet{Coeff: rows[i], Payload: payloads[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !inn {
			t.Fatalf("row %d not innovative", i)
		}
		checkEchelon(t, e)
	}
	if !e.complete() {
		t.Fatalf("rank = %d, want 4", e.rank)
	}
	// Over GF(2^8) addition is XOR, so x3 = p0, x1 = p1^p0, x0 = p2^p1,
	// x2 = p3^p2.
	want := [][]byte{{0, 2, 3, 0}, {1, 2, 0, 0}, {0, 0, 3, 4}, {1, 0, 0, 0}}
	got, err := e.source()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("source %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBasisRandomRREFInvariant hammers the engine with random GF(2)
// combinations of a known source (the field most prone to out-of-order
// pivots and redundant packets) and checks after every insertion that
// the basis is in echelon form (reduced once complete) and that each
// stored payload is the source combination its coefficient row names.
func TestBasisRandomRREFInvariant(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(99))
	const h, size = 12, 4
	for trial := 0; trial < 20; trial++ {
		src := randSource(r, h, size)
		e := newGenDecoder(gf.F2, h, size)
		for n := 0; n < 5*h && !e.complete(); n++ {
			p := &Packet{Coeff: make([]uint16, h), Payload: make([]byte, size)}
			for i := range p.Coeff {
				p.Coeff[i] = uint16(r.Intn(2))
				if p.Coeff[i] != 0 {
					gf.F2.AddSlice(p.Payload, src[i])
				}
			}
			if _, err := e.add(p); err != nil {
				t.Fatal(err)
			}
			checkEchelon(t, e)
			for s := 0; s < e.rank; s++ {
				want := make([]byte, size)
				for i, c := range e.coeffRow(s) {
					gf.F2.AddMulSlice(want, src[i], c)
				}
				if !bytes.Equal(e.arenaRow(s), want) {
					t.Fatalf("trial %d: slot %d payload disagrees with its coefficients", trial, s)
				}
			}
		}
	}
}
