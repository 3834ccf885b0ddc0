package rlnc

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ncast/internal/gf"
	"ncast/internal/obs"
)

// codec is the state Decoder and Recoder share: one generation's
// elimination engine behind a mutex, with optional instrumentation. Its
// Add, Rank, Complete and Instrument methods are promoted to both.
type codec struct {
	gen  uint32
	role string // "decoder" or "recoder", for error messages
	mu   sync.Mutex
	e    *genDecoder
	obs  *codecObs
}

// codecObs carries optional instrumentation for a codec: Gaussian-
// elimination time per absorbed packet and first-packet-to-full-rank
// latency per generation. A nil *codecObs is a single-branch no-op, so
// uninstrumented codecs never read the clock.
type codecObs struct {
	m       *obs.CodecMetrics
	firstAt time.Time
	done    bool
}

func (c *codec) init(f gf.Field, gen uint32, h, size int, role string) error {
	if err := (Params{Field: f, GenSize: h, PacketSize: size}).Validate(); err != nil {
		return err
	}
	c.gen, c.role, c.e = gen, role, newGenDecoder(f, h, size)
	return nil
}

// Instrument attaches obs metrics; a nil bundle leaves the codec
// uninstrumented. Callers must serialise with Add (the protocol layer
// instruments a recoder at creation, before any packet arrives).
func (c *codec) Instrument(m *obs.CodecMetrics) {
	if m == nil {
		return
	}
	c.mu.Lock()
	c.obs = &codecObs{m: m}
	c.mu.Unlock()
}

// Add absorbs a coded packet, reporting whether it was innovative
// (increased the rank). Packets for other generations are rejected with
// an error. The packet is only read; the caller keeps ownership. Every
// call, including one absorbed by a complete generation, is one
// observation of the elimination-time histogram when instrumented.
func (c *codec) Add(p *Packet) (innovative bool, err error) {
	if p.Gen != c.gen {
		return false, fmt.Errorf("rlnc: packet for generation %d, %s expects %d", p.Gen, c.role, c.gen)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.obs
	if o == nil {
		return c.e.add(p)
	}
	if o.firstAt.IsZero() {
		o.firstAt = time.Now()
	}
	start := time.Now()
	innovative, err = c.e.add(p)
	o.m.GaussNanos.ObserveSince(start)
	if err == nil && !o.done && c.e.complete() {
		o.done = true
		o.m.GenLatency.ObserveSince(o.firstAt)
		o.m.GensComplete.Inc()
	}
	return innovative, err
}

// Rank returns the dimension of the received subspace.
func (c *codec) Rank() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.rank
}

// Complete reports whether the generation can be decoded.
func (c *codec) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.complete()
}

// source returns the decoded source packets; it errors until Complete.
func (c *codec) source() ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.source()
}

// Encoder produces coded packets for one generation of source data. It is
// the role of the broadcast server, which holds the original packets.
type Encoder struct {
	f    gf.Field
	gen  uint32
	src  [][]byte
	size int
}

// NewEncoder wraps h equal-length source packets as generation gen.
// The source slices are retained, not copied; callers must not mutate them
// afterwards.
func NewEncoder(f gf.Field, gen uint32, src [][]byte) (*Encoder, error) {
	if len(src) == 0 || len(src) > 65535 {
		return nil, fmt.Errorf("rlnc: generation size %d out of range [1,65535]", len(src))
	}
	size := len(src[0])
	if size == 0 || size%f.SymbolSize() != 0 {
		return nil, fmt.Errorf("rlnc: source packet size %d invalid for %s", size, f.Name())
	}
	for i, s := range src {
		if len(s) != size {
			return nil, fmt.Errorf("rlnc: source packet %d has size %d, want %d", i, len(s), size)
		}
	}
	return &Encoder{f: f, gen: gen, src: src, size: size}, nil
}

// GenerationSize returns the number of source packets h.
func (e *Encoder) GenerationSize() int { return len(e.src) }

// PayloadSize returns the per-packet payload length in bytes.
func (e *Encoder) PayloadSize() int { return e.size }

// Packet emits a fresh uniformly random linear combination of the
// generation's source packets. The returned packet is pooled; Release it
// when done to keep the emit path allocation-free.
func (e *Encoder) Packet(r *rand.Rand) *Packet {
	p := getPacket(e.gen, len(e.src), e.size)
	for i := range p.Coeff {
		p.Coeff[i] = e.f.Rand(r)
	}
	e.f.AddMulRows(p.Payload, e.src, p.Coeff)
	return p
}

// Systematic emits source packet i uncoded (unit coefficient vector).
// Useful to seed decoders cheaply before switching to random coding.
// The returned packet is pooled; Release it when done.
func (e *Encoder) Systematic(i int) (*Packet, error) {
	if i < 0 || i >= len(e.src) {
		return nil, fmt.Errorf("rlnc: systematic index %d out of range [0,%d)", i, len(e.src))
	}
	p := getPacket(e.gen, len(e.src), e.size)
	p.Coeff[i] = 1
	p.Sys, p.SysIdx = true, uint16(i)
	copy(p.Payload, e.src[i])
	return p, nil
}

// Decoder recovers one generation by progressive Gaussian elimination.
// All methods are safe for concurrent use.
type Decoder struct{ codec }

// NewDecoder creates a decoder for generation gen with h source packets of
// the given payload size.
func NewDecoder(f gf.Field, gen uint32, h, size int) (*Decoder, error) {
	d := new(Decoder)
	if err := d.init(f, gen, h, size, "decoder"); err != nil {
		return nil, err
	}
	return d, nil
}

// Source returns the decoded source packets; it errors until Complete.
// The returned slices alias decoder state; callers must not modify them.
func (d *Decoder) Source() ([][]byte, error) { return d.source() }

// Recoder is the buffer-and-mix element run by every overlay node: it
// stores the innovative packets seen so far (in echelon form) and emits
// fresh random combinations of them. A recoder never needs the source
// data, only coded packets, and its output is statistically equivalent to
// fresh encodings of the subspace it has received — the key property of
// practical network coding.
type Recoder struct{ codec }

// NewRecoder creates a recoder for generation gen.
func NewRecoder(f gf.Field, gen uint32, h, size int) (*Recoder, error) {
	rc := new(Recoder)
	if err := rc.init(f, gen, h, size, "recoder"); err != nil {
		return nil, err
	}
	return rc, nil
}

// Packet emits a random combination of the buffered packets. It returns
// false when the buffer is empty. The returned packet is pooled; Release
// it when done to keep the emit path allocation-free.
func (rc *Recoder) Packet(r *rand.Rand) (*Packet, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e := rc.e
	if e.rank == 0 {
		return nil, false
	}
	p := getPacket(rc.gen, e.h, e.size)
	rows, cs := e.rows[:e.rank], e.factors[:e.rank]
	for s := range rows {
		c := e.f.Rand(r)
		rows[s], cs[s] = e.arenaRow(s), c
		if c != 0 {
			e.f.AddMulCoeff(p.Coeff, e.coeffRow(s), c)
		}
	}
	e.f.AddMulRows(p.Payload, rows, cs)
	return p, true
}

// Decode returns the source packets once the recoder is complete; a node
// that has gathered full rank can play out the content directly.
func (rc *Recoder) Decode() ([][]byte, error) { return rc.source() }
