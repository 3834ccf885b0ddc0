package rlnc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"ncast/internal/gf"
)

// TestEmittedBytesPinned pins the exact bytes the codec emits: the first
// 400 Encoder.Packet and Recoder.Packet outputs (coefficients and
// payload) and the decoded source, at a fixed seed, for every field. The
// 1186-byte payload is not a multiple of any kernel stride, so every
// tail path runs. Kernel or engine rewrites must leave both the RNG
// draws and the arithmetic unchanged; the digests were recorded before
// the fused multi-row kernel landed and hold under every dispatch arm,
// purego included.
func TestEmittedBytesPinned(t *testing.T) {
	want := map[string][3]string{
		"GF(2)":     {"9a012b2f323a2dfb", "a0e3db17b025f446", "7a97f0d44a7e9f6c"},
		"GF(256)":   {"bd33e977f24da88f", "f3d0c0e34140d876", "7a97f0d44a7e9f6c"},
		"GF(65536)": {"78a3236cc84abf8e", "07a085dc03517d8a", "7a97f0d44a7e9f6c"},
	}
	for _, f := range fastpathFields {
		got := emittedDigests(t, f)
		if got != want[f.Name()] {
			t.Errorf("%s: digests (encode, recode, decode) = %q, want %q", f.Name(), got, want[f.Name()])
		}
	}
}

// emittedDigests runs a seeded encoder -> recoder -> decoder chain and
// returns the leading 8 bytes of SHA-256 over the encoder's packets, the
// recoder's packets and the decoded source, in hex.
func emittedDigests(t *testing.T, f gf.Field) [3]string {
	const h, size, packets = 16, 1186, 400
	r := rand.New(rand.NewSource(20050717))
	src := make([][]byte, h)
	for i := range src {
		src[i] = make([]byte, size)
		r.Read(src[i])
	}
	enc, err := NewEncoder(f, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRecoder(f, 5, h, size)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(f, 5, h, size)
	if err != nil {
		t.Fatal(err)
	}
	hashPacket := func(d hash.Hash, p *Packet) {
		for _, c := range p.Coeff {
			d.Write(binary.LittleEndian.AppendUint16(nil, c))
		}
		d.Write(p.Payload)
	}
	encD, recD, decD := sha256.New(), sha256.New(), sha256.New()
	for i := 0; i < packets; i++ {
		p := enc.Packet(r)
		hashPacket(encD, p)
		if _, err := rc.Add(p); err != nil {
			t.Fatal(err)
		}
		p.Release()
		q, ok := rc.Packet(r)
		if !ok {
			recD.Write([]byte{0})
			continue
		}
		hashPacket(recD, q)
		if _, err := dec.Add(q); err != nil {
			t.Fatal(err)
		}
		q.Release()
	}
	out, err := dec.Source()
	if err != nil {
		t.Fatalf("%s: %v", f.Name(), err)
	}
	for i, row := range out {
		if !bytes.Equal(row, src[i]) {
			t.Fatalf("%s: decoded packet %d differs from the source", f.Name(), i)
		}
		decD.Write(row)
	}
	var d [3]string
	for i, s := range []hash.Hash{encD, recD, decD} {
		d[i] = hex.EncodeToString(s.Sum(nil)[:8])
	}
	return d
}
