package rlnc

import (
	"bytes"
	"math/rand"
	"testing"

	"ncast/internal/gf"
	"ncast/internal/matrix"
)

// The differential suite checks every decoder the package offers —
// Decoder, Recoder and FileDecoder — against an oracle that shares none
// of the engine's elimination: a packet must be reported innovative
// exactly when internal/matrix says it raises the rank of the
// coefficient rows received so far, and decoded bytes must equal the
// source content. Schedules are seeded and deterministic, and span loss,
// duplication, stale traffic for completed generations, and systematic
// and coded mixes. The suite also runs under -race via `make race`.

// diffSchedule builds one deterministic packet feed for the scenario.
// Returned packets are owned by the caller.
type diffScenario struct {
	name     string
	field    gf.Field
	genSize  int
	pktSize  int
	schedule func(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet
}

// codedOnly emits random combinations round-robin until every generation
// has a comfortable surplus.
func codedOnly(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	for round := 0; round < params.GenSize+4; round++ {
		for g := 0; g < gens; g++ {
			p, err := fe.Packet(g, r)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// systematicLossFree sends exactly the source packets, flagged, in order
// — the fast-path steady state.
func systematicLossFree(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			p, err := fe.Systematic(g, i)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// systematicWithLoss drops ~30% of the systematic pass and repairs with
// coded packets, mirroring the paper's systematic-plus-repair source.
func systematicWithLoss(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			if r.Intn(10) < 3 {
				continue // lost
			}
			p, err := fe.Systematic(g, i)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	for round := 0; round < params.GenSize/2+4; round++ {
		for g := 0; g < gens; g++ {
			p, err := fe.Packet(g, r)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// duplicatesAndStale interleaves systematic and coded packets, sends
// every third packet twice, and appends a stale tail of traffic for
// generation 0 after it is long complete.
func duplicatesAndStale(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	add := func(p *Packet, err error) {
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
		if len(pkts)%3 == 0 {
			pkts = append(pkts, p.Clone())
		}
	}
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			if i%2 == 0 {
				add(fe.Systematic(g, i))
			} else {
				add(fe.Packet(g, r))
			}
		}
	}
	for round := 0; round < params.GenSize/2+4; round++ {
		for g := 0; g < gens; g++ {
			add(fe.Packet(g, r))
		}
	}
	for i := 0; i < 2*params.GenSize; i++ {
		add(fe.Packet(0, r)) // stale: generation 0 finished long ago
	}
	return pkts
}

// rankOracle tracks one generation's independent received coefficient
// rows; innovation is decided by internal/matrix's rank.
type rankOracle struct {
	f    gf.Field
	rows [][]uint16
}

// raises reports whether coeff would raise the received rank.
func (o *rankOracle) raises(coeff []uint16) bool {
	rows := append(o.rows[:len(o.rows):len(o.rows)], coeff)
	return matrix.FromRows(o.f, rows).Rank() > len(o.rows)
}

// add records coeff and reports whether it raised the rank.
func (o *rankOracle) add(coeff []uint16) bool {
	if !o.raises(coeff) {
		return false
	}
	o.rows = append(o.rows, append([]uint16(nil), coeff...))
	return true
}

// coeffOf returns the coefficient vector a packet stands for.
func coeffOf(p *Packet, h int) []uint16 {
	if !p.Sys {
		return p.Coeff
	}
	unit := make([]uint16, h)
	unit[p.SysIdx] = 1
	return unit
}

func TestDifferentialAgainstOracle(t *testing.T) {
	t.Parallel()
	scenarios := []diffScenario{
		{"coded-only/GF256", gf.F256, 8, 128, codedOnly},
		{"coded-only/GF65536", gf.F65536, 8, 128, codedOnly},
		{"coded-only/GF2", gf.F2, 16, 64, codedOnly},
		{"systematic-loss-free/GF256", gf.F256, 8, 128, systematicLossFree},
		{"systematic-loss/GF256", gf.F256, 8, 128, systematicWithLoss},
		{"systematic-loss/GF65536", gf.F65536, 8, 128, systematicWithLoss},
		{"duplicates-stale/GF256", gf.F256, 8, 128, duplicatesAndStale},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			params := Params{Field: sc.field, GenSize: sc.genSize, PacketSize: sc.pktSize}
			const gens = 5
			// Ragged final generation: content stops mid-packet.
			contentLen := (gens-1)*params.genBytes() + params.genBytes()/2 + 3
			r := rand.New(rand.NewSource(1234))
			content := make([]byte, contentLen)
			r.Read(content)
			fe, err := NewFileEncoder(params, content)
			if err != nil {
				t.Fatal(err)
			}
			pkts := sc.schedule(t, fe, params, gens, r)

			fd, err := NewFileDecoder(params, contentLen)
			if err != nil {
				t.Fatal(err)
			}
			src := make([][][]byte, gens)
			oracles := make([]rankOracle, gens)
			decs := make([]*Decoder, gens)
			recs := make([]*Recoder, gens)
			for g := range decs {
				for i := 0; i < params.GenSize; i++ {
					p, err := fe.Systematic(g, i)
					if err != nil {
						t.Fatal(err)
					}
					src[g] = append(src[g], p.Payload)
				}
				oracles[g].f = sc.field
				if decs[g], err = NewDecoder(sc.field, uint32(g), params.GenSize, params.PacketSize); err != nil {
					t.Fatal(err)
				}
				if recs[g], err = NewRecoder(sc.field, uint32(g), params.GenSize, params.PacketSize); err != nil {
					t.Fatal(err)
				}
			}
			mix := rand.New(rand.NewSource(5678))
			for i, p := range pkts {
				g := p.Gen
				want := oracles[g].add(coeffOf(p, params.GenSize))
				for _, d := range []struct {
					name string
					add  func(*Packet) (bool, error)
				}{{"Decoder", decs[g].Add}, {"Recoder", recs[g].Add}, {"FileDecoder", fd.Add}} {
					got, err := d.add(p)
					if err != nil {
						t.Fatalf("packet %d: %s: %v", i, d.name, err)
					}
					if got != want {
						t.Fatalf("packet %d (gen %d): %s innovative=%v, oracle %v", i, g, d.name, got, want)
					}
				}
				// A recoded packet must lie in the received subspace and
				// carry the source combination its coefficients name.
				out, ok := recs[g].Packet(mix)
				if !ok {
					t.Fatalf("packet %d: recoder empty after an add", i)
				}
				if oracles[g].raises(out.Coeff) {
					t.Fatalf("packet %d: recoded coefficients outside the received subspace", i)
				}
				mixed := make([]byte, params.PacketSize)
				for j, c := range out.Coeff {
					sc.field.AddMulSlice(mixed, src[g][j], c)
				}
				if !bytes.Equal(out.Payload, mixed) {
					t.Fatalf("packet %d: recoded payload disagrees with its coefficients", i)
				}
				out.Release()
			}

			got, err := fd.Bytes()
			if err != nil {
				t.Fatalf("FileDecoder: %v", err)
			}
			if !bytes.Equal(got, content) {
				t.Fatal("FileDecoder output differs from content")
			}
			for g := range decs {
				if len(oracles[g].rows) != params.GenSize {
					t.Fatalf("gen %d: schedule reached rank %d only", g, len(oracles[g].rows))
				}
				dsrc, err := decs[g].Source()
				if err != nil {
					t.Fatalf("gen %d: Decoder: %v", g, err)
				}
				rsrc, err := recs[g].Decode()
				if err != nil {
					t.Fatalf("gen %d: Recoder: %v", g, err)
				}
				for i := range src[g] {
					if !bytes.Equal(dsrc[i], src[g][i]) || !bytes.Equal(rsrc[i], src[g][i]) {
						t.Fatalf("gen %d: source packet %d differs", g, i)
					}
				}
			}
		})
	}
}

// TestDecodeHotPathAllocs pins the decode-side allocation budget: with
// warm pools, redundant packets — the flood steady state, whether they
// arrive at partial or full rank — systematic installs, the re-mix of a
// partial-rank recoder, and the innovative coded packet that closes rank
// (fused payload elimination plus back-substitution) run without
// allocating.
func TestDecodeHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	r := rand.New(rand.NewSource(17))
	params := Params{Field: gf.F256, GenSize: 16, PacketSize: 1024}
	content := make([]byte, 4*params.genBytes())
	r.Read(content)
	fe, err := NewFileEncoder(params, content)
	if err != nil {
		t.Fatal(err)
	}
	pin := func(name string, fn func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	add := func(c interface{ Add(*Packet) (bool, error) }, p *Packet) {
		if _, err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}

	// Decoder at full rank: every further packet takes the complete
	// shortcut.
	dec, err := NewDecoder(params.Field, 0, params.GenSize, params.PacketSize)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Complete() {
		p, _ := fe.Packet(0, r)
		add(dec, p)
		p.Release()
	}
	stale, _ := fe.Packet(0, r)
	defer stale.Release()
	pin("redundant Decoder.Add at full rank", func() { add(dec, stale) })

	// Recoder at partial rank: its own output is redundant to it, so the
	// coefficient-only elimination runs in full and the payload is never
	// touched.
	rc, err := NewRecoder(params.Field, 1, params.GenSize, params.PacketSize)
	if err != nil {
		t.Fatal(err)
	}
	for rc.Rank() < params.GenSize/2 {
		p, _ := fe.Packet(1, r)
		add(rc, p)
		p.Release()
	}
	echo, _ := rc.Packet(r)
	defer echo.Release()
	pin("redundant Recoder.Add at partial rank", func() { add(rc, echo) })
	pin("Recoder.Packet at partial rank", func() {
		p, _ := rc.Packet(r)
		p.Release()
	})
	for !rc.Complete() {
		p, _ := fe.Packet(1, r)
		add(rc, p)
		p.Release()
	}
	pin("redundant Recoder.Add at full rank", func() { add(rc, echo) })

	// Systematic fast path on fresh recoders: installing a whole
	// generation, back-substitution included, costs only the arena
	// copies, never an allocation.
	sysPkts := make([]*Packet, params.GenSize)
	for i := range sysPkts {
		sysPkts[i], _ = fe.Systematic(2, i)
	}
	defer func() {
		for _, p := range sysPkts {
			p.Release()
		}
	}()
	fresh := make([]*Recoder, 101) // AllocsPerRun makes one warm-up call
	for i := range fresh {
		if fresh[i], err = NewRecoder(params.Field, 2, params.GenSize, params.PacketSize); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	pin("systematic generation install", func() {
		for _, p := range sysPkts {
			add(fresh[i], p)
		}
		i++
	})

	// Innovative coded packet closing rank on decoders holding h-1 coded
	// rows: a full-width payload elimination followed by the whole
	// back-substitution, both through AddMulRows. Every decoder gets the
	// same packets, so one probe decides innovation for all.
	coded := make([]*Packet, params.GenSize)
	probe, err := NewDecoder(params.Field, 3, params.GenSize, params.PacketSize)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < params.GenSize; {
		p, _ := fe.Packet(3, r)
		if ok, err := probe.Add(p); err != nil || !ok {
			p.Release()
			continue
		}
		coded[n] = p
		n++
	}
	defer func() {
		for _, p := range coded {
			p.Release()
		}
	}()
	closing := make([]*Decoder, 101)
	for i := range closing {
		if closing[i], err = NewDecoder(params.Field, 3, params.GenSize, params.PacketSize); err != nil {
			t.Fatal(err)
		}
		for _, p := range coded[:params.GenSize-1] {
			add(closing[i], p)
		}
	}
	i = 0
	pin("innovative coded Decoder.Add closing rank", func() {
		add(closing[i], coded[params.GenSize-1])
		i++
	})
	for _, d := range closing {
		if !d.Complete() {
			t.Fatal("closing packet left a decoder short of full rank")
		}
	}
}
