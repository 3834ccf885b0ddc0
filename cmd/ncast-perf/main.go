// Command ncast-perf measures the data-plane fast path and writes the
// results as JSON (default BENCH_rlnc.json) so kernel and pipeline
// regressions show up as a diff. It records the host (CPU model, nproc,
// GOMAXPROCS) and, per field:
//
//   - bulk-kernel throughput (AddSlice / AddMulSlice, and the fused
//     AddMulRows at the coded relay's 32×1 KiB shape) for the dispatched
//     implementation and the scalar reference, with the speedup ratio;
//   - steady-state codec emit cost (Encoder.Packet, Recoder.Packet) in
//     ns/op and allocs/op — the zero-allocation budget of the pipeline;
//   - coded FileDecoder throughput on a feed where six packets in seven
//     are redundant at partial rank, and that throughput divided by the
//     same run's AddMulSlice(GF256) throughput at the decode's packet
//     size — a ratio in which host speed cancels out;
//   - systematic fast-path throughput: decode of a loss-free
//     all-systematic feed, where elimination degenerates to copying.
//
// Usage:
//
//	ncast-perf                 # write BENCH_rlnc.json and print a summary
//	ncast-perf -o results.json # choose the output path
//	ncast-perf -size 8192      # payload bytes for the kernel benchmarks
//	ncast-perf -gate           # regression gate: exit 1 unless emit stays
//	                           # zero-alloc and the decode/kernel ratio
//	                           # holds the floor committed in the -o report
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
)

// report is the schema of BENCH_rlnc.json.
type report struct {
	Host             hostRow       `json:"host"`
	SliceBytes       int           `json:"slice_bytes"`
	Kernels          []kernelRow   `json:"kernels"`
	Codec            []codecRow    `json:"codec"`
	FileDecode       fileDecodeRow `json:"file_decode"`
	SystematicDecode sysDecodeRow  `json:"systematic_decode"`
	Gate             gateRow       `json:"gate"`
}

type hostRow struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Accel      string `json:"accel"`
}

type kernelRow struct {
	Name    string  `json:"name"`
	MBps    float64 `json:"mb_per_s"`
	RefMBps float64 `json:"ref_mb_per_s"`
	Speedup float64 `json:"speedup"`
}

type codecRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// fileDecodeRow is one coded-decode measurement: FileDecoder content
// throughput, the AddMulSlice(GF256) throughput measured beside it at
// the decode's packet size, and their ratio.
type fileDecodeRow struct {
	ContentBytes  int     `json:"content_bytes"`
	Generations   int     `json:"generations"`
	RedundantFrac float64 `json:"redundant_frac"`
	MBps          float64 `json:"mb_per_s"`
	KernelMBps    float64 `json:"kernel_mb_per_s"`
	KernelRatio   float64 `json:"kernel_ratio"`
}

type sysDecodeRow struct {
	ContentBytes int     `json:"content_bytes"`
	Generations  int     `json:"generations"`
	MBps         float64 `json:"mb_per_s"`
}

// gateRow is the committed floor `-gate` checks file_decode.kernel_ratio
// against: floor = baseline × (1 - tolerance). Accel names the kernel
// set the baseline ran on; the ratio is only comparable on the same one.
type gateRow struct {
	Metric    string  `json:"metric"`
	Accel     string  `json:"accel"`
	Baseline  float64 `json:"baseline"`
	Tolerance float64 `json:"tolerance"`
	Floor     float64 `json:"floor"`
}

// gateTolerance is how far below the recorded kernel ratio a run may
// fall before the gate fails. Wider than the ratio's run-to-run spread on
// the reference host, narrower than the drop from making redundant
// packets pay payload elimination again.
const gateTolerance = 0.25

// mbps converts a benchmark over size-byte operations to MB/s. It uses
// the exact mean, not the whole nanoseconds of NsPerOp: a 1 KiB GFNI
// multiply takes ~20 ns, where rounding alone moves the rate 5%.
func mbps(r testing.BenchmarkResult, size int) float64 {
	if r.N <= 0 || r.T <= 0 {
		return 0
	}
	return float64(size) * float64(r.N) / r.T.Seconds() / 1e6
}

// benchKernel measures one dst/src bulk kernel at the given payload size.
func benchKernel(size int, fn func(dst, src []byte)) testing.BenchmarkResult {
	dst, src := make([]byte, size), make([]byte, size)
	rand.New(rand.NewSource(1)).Read(src)
	return testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			fn(dst, src)
		}
	})
}

const c256 = uint16(0x5A)

func kernelRows(size int) []kernelRow {
	const c65536 = uint16(0x1234)
	cases := []struct {
		name string
		opt  func(dst, src []byte)
		ref  func(dst, src []byte)
	}{
		{"AddSlice(GF2)",
			func(d, s []byte) { gf.F2.AddSlice(d, s) },
			func(d, s []byte) { gf.RefAddSlice(gf.F2, d, s) }},
		{"AddMulSlice(GF256)",
			func(d, s []byte) { gf.F256.AddMulSlice(d, s, c256) },
			func(d, s []byte) { gf.RefAddMulSlice(gf.F256, d, s, c256) }},
		{"AddMulSlice(GF65536)",
			func(d, s []byte) { gf.F65536.AddMulSlice(d, s, c65536) },
			func(d, s []byte) { gf.RefAddMulSlice(gf.F65536, d, s, c65536) }},
	}
	rows := make([]kernelRow, 0, len(cases)+1)
	for _, tc := range cases {
		rows = append(rows, newKernelRow(tc.name, size, benchKernel(size, tc.opt), benchKernel(size, tc.ref)))
	}
	return append(rows, addMulRowsRow())
}

func newKernelRow(name string, size int, opt, ref testing.BenchmarkResult) kernelRow {
	row := kernelRow{Name: name, MBps: mbps(opt, size), RefMBps: mbps(ref, size)}
	if row.RefMBps > 0 {
		row.Speedup = row.MBps / row.RefMBps
	}
	return row
}

// addMulRowsRow measures the fused kernel at the shape a relay recodes
// with: 32 buffered 1 KiB rows into one packet. Throughput counts source
// bytes; the reference is one scalar AddMulSlice per row.
func addMulRowsRow() kernelRow {
	const rows, n = 32, 1024
	r := rand.New(rand.NewSource(6))
	srcs := make([][]byte, rows)
	cs := make([]uint16, rows)
	for j := range srcs {
		srcs[j] = make([]byte, n)
		r.Read(srcs[j])
		cs[j] = gf.F256.RandNonZero(r)
	}
	dst := make([]byte, n)
	bench := func(fn func()) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.SetBytes(rows * n)
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	opt := bench(func() { gf.F256.AddMulRows(dst, srcs, cs) })
	ref := bench(func() {
		for j, src := range srcs {
			gf.RefAddMulSlice(gf.F256, dst, src, cs[j])
		}
	})
	return newKernelRow("AddMulRows(GF256,32x1KiB)", rows*n, opt, ref)
}

// codecRows measures the pooled emit paths at h=16, 1 KiB payloads.
func codecRows() []codecRow {
	const h, size = 16, 1024
	r := rand.New(rand.NewSource(2))
	src := make([][]byte, h)
	for i := range src {
		src[i] = make([]byte, size)
		r.Read(src[i])
	}
	enc, err := rlnc.NewEncoder(gf.F256, 0, src)
	check(err)
	rc, err := rlnc.NewRecoder(gf.F256, 0, h, size)
	check(err)
	for rc.Rank() < h {
		p := enc.Packet(r)
		_, err := rc.Add(p)
		check(err)
		p.Release()
	}
	encRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := enc.Packet(r)
			p.Release()
		}
	})
	rcRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, ok := rc.Packet(r)
			if !ok {
				b.Fatal("recoder empty")
			}
			p.Release()
		}
	})
	return []codecRow{
		{"Encoder.Packet(GF256,h=16,1KiB)", float64(encRes.NsPerOp()), encRes.AllocsPerOp()},
		{"Recoder.Packet(GF256,h=16,1KiB)", float64(rcRes.NsPerOp()), rcRes.AllocsPerOp()},
	}
}

// decodeParams is the decode-benchmark coding configuration — the
// library default of h=16 source packets of 1 KiB.
var decodeParams = rlnc.Params{Field: gf.F256, GenSize: 16, PacketSize: 1024}

// codedDecodeBytes is the coded-decode content size: 256 generations,
// enough to leave the caches the way a long broadcast does.
const codedDecodeBytes = 4 << 20

// echoesPerFresh is how many redundant re-mixes follow each fresh packet
// in the coded feed. The gate's sensitivity to redundant packets paying
// payload work rises with it: with the fused GFNI kernel that work is
// cheap next to coefficient elimination, and at two echoes (68%
// redundant) the regression moved the ratio only ~15%, inside the
// tolerance; at six it moves it ~35%.
const echoesPerFresh = 6

// codedFeed builds seeded content plus the packet schedule a node with
// seven parents sees when six of them lag: every fresh coded packet is
// followed by echoesPerFresh re-mixes from a recoder holding only the
// packets sent so far, which are redundant at partial rank. Two more
// fresh packets per generation cover the rare non-innovative draw. About
// 86% of the feed is therefore absorbed by coefficient-only elimination.
func codedFeed(params rlnc.Params, contentBytes int) ([]byte, []*rlnc.Packet) {
	content := make([]byte, contentBytes)
	rand.New(rand.NewSource(3)).Read(content)
	fe, err := rlnc.NewFileEncoder(params, content)
	check(err)
	r := rand.New(rand.NewSource(4))
	gens := fe.NumGenerations()
	pkts := make([]*rlnc.Packet, 0, gens*((1+echoesPerFresh)*params.GenSize+2))
	for g := 0; g < gens; g++ {
		lag, err := rlnc.NewRecoder(params.Field, uint32(g), params.GenSize, params.PacketSize)
		check(err)
		for i := 0; i < params.GenSize+2; i++ {
			p, err := fe.Packet(g, r)
			check(err)
			pkts = append(pkts, p)
			if i < params.GenSize {
				_, err = lag.Add(p)
				check(err)
				for range echoesPerFresh {
					echo, _ := lag.Packet(r)
					pkts = append(pkts, echo)
				}
			}
		}
	}
	return content, pkts
}

// benchFileDecode measures FileDecoder content throughput over the feed.
// The decoder copies packets on Add, so the feed is reused as-is.
func benchFileDecode(params rlnc.Params, content []byte, pkts []*rlnc.Packet) float64 {
	res := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(content)))
		for i := 0; i < b.N; i++ {
			fd, err := rlnc.NewFileDecoder(params, len(content))
			check(err)
			for _, p := range pkts {
				_, err := fd.Add(p)
				check(err)
			}
			if !fd.Complete() {
				panic("file decode incomplete")
			}
		}
	})
	return mbps(res, len(content))
}

// fileDecode measures coded decode throughput and its kernel ratio.
// Kernel and decode are measured alternately, three times each, and the
// best of each is kept: interference from other load only ever slows a
// run, so the maxima are the stable estimate of what the host can do.
func fileDecode(content []byte, pkts []*rlnc.Packet) fileDecodeRow {
	params := decodeParams
	gens := params.Generations(len(content))
	row := fileDecodeRow{
		ContentBytes:  len(content),
		Generations:   gens,
		RedundantFrac: 1 - float64(gens*params.GenSize)/float64(len(pkts)),
	}
	for range 3 {
		runtime.GC() // leave no decode garbage to collect under the kernel run
		kernel := mbps(benchKernel(params.PacketSize, func(d, s []byte) {
			gf.F256.AddMulSlice(d, s, c256)
		}), params.PacketSize)
		row.KernelMBps = max(row.KernelMBps, kernel)
		row.MBps = max(row.MBps, benchFileDecode(params, content, pkts))
	}
	if row.KernelMBps > 0 {
		row.KernelRatio = row.MBps / row.KernelMBps
	}
	return row
}

// systematicDecode measures the decoder on a loss-free all-systematic
// feed: every packet takes the identity fast path, so the decode
// degenerates to copying payloads into place.
func systematicDecode() sysDecodeRow {
	params := decodeParams
	const mib = 1 << 20
	contentBytes := 16 * mib
	content := make([]byte, contentBytes)
	rand.New(rand.NewSource(5)).Read(content)
	fe, err := rlnc.NewFileEncoder(params, content)
	check(err)
	gens := fe.NumGenerations()
	pkts := make([]*rlnc.Packet, 0, gens*params.GenSize)
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			p, err := fe.Systematic(g, i)
			check(err)
			pkts = append(pkts, p)
		}
	}
	defer releaseAll(pkts)
	return sysDecodeRow{
		ContentBytes: contentBytes,
		Generations:  gens,
		MBps:         benchFileDecode(params, content, pkts),
	}
}

func releaseAll(pkts []*rlnc.Packet) {
	for _, p := range pkts {
		p.Release()
	}
}

// cpuModel returns the host CPU model name, or the architecture where
// /proc/cpuinfo does not name one.
func cpuModel() string {
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func host() hostRow {
	return hostRow{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Accel:      gf.Accel(),
	}
}

// runGate is the `-gate` regression check wired into `make check`: the
// emit paths must stay zero-alloc, and coded decode throughput relative
// to the same run's kernel throughput must hold the floor committed in
// baselinePath.
func runGate(baselinePath string) int {
	data, err := os.ReadFile(baselinePath)
	check(err)
	var base report
	check(json.Unmarshal(data, &base))
	if base.Gate.Floor <= 0 {
		check(fmt.Errorf("%s has no gate floor", baselinePath))
	}
	h := host()
	fmt.Printf("gate host %q nproc=%d gomaxprocs=%d accel=%s (baseline %q nproc=%d gomaxprocs=%d accel=%s)\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.Accel, base.Host.CPUModel, base.Host.NProc, base.Host.GOMAXPROCS, base.Gate.Accel)
	failed := false
	for _, c := range codecRows() {
		status := "ok"
		if c.AllocsPerOp != 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("gate %-32s %3d allocs/op (want 0) %s\n", c.Name, c.AllocsPerOp, status)
	}
	content, pkts := codedFeed(decodeParams, codedDecodeBytes)
	defer releaseAll(pkts)
	row := fileDecode(content, pkts)
	status := "ok"
	if row.KernelRatio < base.Gate.Floor {
		status = "FAIL"
		failed = true
	}
	fmt.Printf("gate coded decode %.0f MB/s / kernel %.0f MB/s = %.4f (floor %.4f = %.4f × (1 - %.2f)) %s\n",
		row.MBps, row.KernelMBps, row.KernelRatio, base.Gate.Floor, base.Gate.Baseline, base.Gate.Tolerance, status)
	if failed {
		return 1
	}
	fmt.Println("gate ok")
	return 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncast-perf:", err)
		os.Exit(1)
	}
}

func main() {
	out := flag.String("o", "BENCH_rlnc.json", "path of the JSON report: written by a full run, read for its gate floor by -gate")
	size := flag.Int("size", 4096, "payload bytes for the kernel benchmarks")
	gate := flag.Bool("gate", false, "run the perf regression gate instead of the full report")
	flag.Parse()

	if *gate {
		os.Exit(runGate(*out))
	}

	rep := report{Host: host(), SliceBytes: *size}
	h := rep.Host
	fmt.Printf("cpu=%q nproc=%d gomaxprocs=%d accel=%s %s\n", h.CPUModel, h.NProc, h.GOMAXPROCS, h.Accel, h.GoVersion)
	rep.Kernels = kernelRows(*size)
	for _, k := range rep.Kernels {
		fmt.Printf("%-24s %9.0f MB/s (ref %7.0f MB/s, %5.1fx)\n", k.Name, k.MBps, k.RefMBps, k.Speedup)
	}
	rep.Codec = codecRows()
	for _, c := range rep.Codec {
		fmt.Printf("%-32s %8.0f ns/op %3d allocs/op\n", c.Name, c.NsPerOp, c.AllocsPerOp)
	}
	// The gate baseline is the median of several measurements, so one
	// lucky or unlucky run does not set the committed floor.
	content, pkts := codedFeed(decodeParams, codedDecodeBytes)
	rows := make([]fileDecodeRow, 5)
	for i := range rows {
		rows[i] = fileDecode(content, pkts)
		fmt.Printf("coded decode run %d: ratio %.4f\n", i+1, rows[i].KernelRatio)
	}
	releaseAll(pkts)
	sort.Slice(rows, func(i, j int) bool { return rows[i].KernelRatio < rows[j].KernelRatio })
	rep.FileDecode = rows[len(rows)/2]
	fd := rep.FileDecode
	fmt.Printf("coded decode %d MiB / %d gens (%.0f%% redundant): %.0f MB/s, kernel %.0f MB/s, ratio %.4f\n",
		fd.ContentBytes>>20, fd.Generations, 100*fd.RedundantFrac, fd.MBps, fd.KernelMBps, fd.KernelRatio)
	rep.SystematicDecode = systematicDecode()
	sd := rep.SystematicDecode
	fmt.Printf("systematic decode %d MiB / %d gens: %.0f MB/s\n",
		sd.ContentBytes>>20, sd.Generations, sd.MBps)
	rep.Gate = gateRow{
		Metric:    "file_decode.kernel_ratio",
		Accel:     h.Accel,
		Baseline:  fd.KernelRatio,
		Tolerance: gateTolerance,
		Floor:     fd.KernelRatio * (1 - gateTolerance),
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	data = append(data, '\n')
	check(os.WriteFile(*out, data, 0o644))
	fmt.Println("wrote", *out)
}
