package rlnc

import (
	"fmt"

	"ncast/internal/gf"
)

// genDecoder is the package's one elimination engine: one generation's
// linear system with no locks and no per-packet allocation. Decoder and
// Recoder wrap it behind a mutex; FileDecoder drives one per generation
// directly. Three choices set its throughput:
//
//   - Contiguous storage. All h coefficient rows live in one []uint16
//     and all h payload rows in one []byte arena, so elimination walks
//     cache lines instead of chasing per-row allocations.
//   - Coefficient-first elimination. An incoming packet is forward-
//     eliminated on its h-element coefficient vector alone, recording
//     each eliminating row and factor; the payload — three orders of
//     magnitude wider — is touched only if the packet turns out
//     innovative. A redundant packet, the steady state of a flooded
//     overlay, costs zero payload work, and once the generation is
//     complete it costs no field work at all.
//   - Deferred back-substitution. Rows are kept in row-echelon form
//     (not reduced); the upper triangle is cleared once, when the
//     generation closes rank, using fully-reduced source rows so each
//     coefficient update is a single store.
//   - Fused payload updates. Every payload combination — the replayed
//     elimination of an innovative packet, each row's back-substitution
//     — is one gf.Field.AddMulRows call, which for GF(2^8) keeps the
//     destination in registers across all source rows.
//
// Echelon rows span the same subspace as reduced ones, so a recoder can
// mix them directly. Systematic packets (unit coefficient vectors,
// flagged on the wire) install with no field work at all when their
// column is open: the only payload op on the loss-free path is the copy
// into the arena.
type genDecoder struct {
	f    gf.Field
	h    int
	size int
	// coeffs and arena hold the installed rows by slot: row s occupies
	// coeffs[s*h:(s+1)*h] and arena[s*size:(s+1)*size]. Slots fill in
	// arrival order, so rows [0, rank) are the live ones.
	coeffs []uint16
	arena  []byte
	// pivotOf maps column -> slot (-1 when open). Rows are in echelon
	// form: the row in slot pivotOf[c] is zero left of c and 1 at c.
	pivotOf []int32
	rank    int

	sc []uint16 // staging coefficient vector
	// rows and factors are the AddMulRows argument scratch (capacity h):
	// the payload replay log of the current packet in eliminate, the
	// reduced rows right of the pivot in reduce, and the mix in
	// Recoder.Packet. They are per-engine so the hot paths never
	// allocate, and hold views of arena rows, never copies.
	rows    [][]byte
	factors []uint16
}

// newGenDecoder allocates an engine for h packets of size bytes; the
// caller has validated both (Params.Validate).
func newGenDecoder(f gf.Field, h, size int) *genDecoder {
	e := &genDecoder{
		f:       f,
		h:       h,
		size:    size,
		coeffs:  make([]uint16, h*h),
		arena:   make([]byte, h*size),
		pivotOf: make([]int32, h),
		sc:      make([]uint16, h),
		rows:    make([][]byte, h),
		factors: make([]uint16, h),
	}
	for i := range e.pivotOf {
		e.pivotOf[i] = -1
	}
	return e
}

func (e *genDecoder) coeffRow(s int) []uint16 { return e.coeffs[s*e.h : (s+1)*e.h] }
func (e *genDecoder) arenaRow(s int) []byte   { return e.arena[s*e.size : (s+1)*e.size] }

func (e *genDecoder) complete() bool { return e.rank == e.h }

// add absorbs one packet, reporting whether it raised the rank. The
// packet is only read; the caller keeps ownership.
func (e *genDecoder) add(p *Packet) (bool, error) {
	if len(p.Payload) != e.size {
		return false, fmt.Errorf("rlnc: payload length %d, want %d", len(p.Payload), e.size)
	}
	if p.Sys {
		if int(p.SysIdx) >= e.h {
			return false, fmt.Errorf("rlnc: systematic index %d out of range [0,%d)", p.SysIdx, e.h)
		}
	} else if len(p.Coeff) != e.h {
		return false, fmt.Errorf("rlnc: coefficient length %d, want %d", len(p.Coeff), e.h)
	}
	if e.complete() {
		return false, nil // full rank spans everything: redundant by definition
	}
	if p.Sys {
		idx := int(p.SysIdx)
		if e.pivotOf[idx] < 0 {
			// Open column: install the identity row directly. No field
			// ops — the copy below is the entire cost of the loss-free
			// fast path.
			s := e.rank
			e.coeffRow(s)[idx] = 1
			copy(e.arenaRow(s), p.Payload)
			e.install(s, idx)
			return true, nil
		}
		// Column already pivoted (duplicate or arrived after a coded row):
		// run general elimination on the reconstructed unit vector. The
		// index is trusted over p.Coeff, which may be stale on hand-built
		// packets.
		clear(e.sc)
		e.sc[idx] = 1
	} else {
		copy(e.sc, p.Coeff)
	}
	return e.eliminate(p.Payload), nil
}

// eliminate forward-eliminates the staged coefficient vector e.sc against
// the echelon rows, then replays the recorded rows and factors on the
// payload, as one AddMulRows call, only if the packet was innovative.
// Maintaining echelon (not reduced) form lets the scan stop at the
// packet's new leading column.
func (e *genDecoder) eliminate(payload []byte) bool {
	rows, factors := e.rows[:0], e.factors[:0]
	lead := -1
	for c := 0; c < e.h; c++ {
		v := e.sc[c]
		if v == 0 {
			continue
		}
		s := e.pivotOf[c]
		if s < 0 {
			lead = c
			break
		}
		// Row s is zero left of c and 1 at c, so eliminating from offset
		// c touches only the live suffix and zeroes sc[c] exactly.
		e.f.AddMulCoeff(e.sc[c:], e.coeffRow(int(s))[c:], v)
		rows = append(rows, e.arenaRow(int(s)))
		factors = append(factors, v)
	}
	if lead < 0 {
		return false // redundant: not one byte of payload touched
	}
	s := e.rank
	dst := e.arenaRow(s)
	copy(dst, payload)
	e.f.AddMulRows(dst, rows, factors)
	crow := e.coeffRow(s)
	copy(crow, e.sc)
	if v := crow[lead]; v != 1 {
		inv := e.f.Inv(v)
		e.f.MulCoeff(crow, inv)
		e.f.MulSlice(dst, dst, inv)
	}
	e.install(s, lead)
	return true
}

// install records slot s as the pivot row of column col and, when that
// closes rank, runs the one back-substitution pass.
func (e *genDecoder) install(s, col int) {
	e.pivotOf[col] = int32(s)
	e.rank++
	if e.complete() {
		e.reduce()
	}
}

// reduce runs the deferred back-substitution once the generation has
// closed rank, clearing the upper triangle. Pivot rows are processed in
// descending column order, so every row right of the current pivot is
// already reduced to a unit vector: the row's coefficient suffix is
// exactly the combination of those rows to subtract, the payload update
// is one AddMulRows over them, and the coefficient update is a clear.
// rows[k] holds column k's pivot row once that row is reduced.
func (e *genDecoder) reduce() {
	rows := e.rows[:e.h]
	for c := e.h - 1; c >= 0; c-- {
		s := int(e.pivotOf[c])
		dst, right := e.arenaRow(s), e.coeffRow(s)[c+1:]
		e.f.AddMulRows(dst, rows[c+1:], right)
		clear(right)
		rows[c] = dst
	}
}

// source returns the decoded payload rows in source order. Valid only
// at full rank, when reduce has run; rows alias the arena and must not
// be modified.
func (e *genDecoder) source() ([][]byte, error) {
	if !e.complete() {
		return nil, fmt.Errorf("rlnc: generation incomplete: rank %d of %d", e.rank, e.h)
	}
	out := make([][]byte, e.h)
	for c := range out {
		out[c] = e.arenaRow(int(e.pivotOf[c]))
	}
	return out, nil
}
