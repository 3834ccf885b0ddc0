//go:build linux

// Command ncbench is ncast's end-to-end benchmark. It runs one named
// workload through the real code paths and prints, as the last line of
// standard output, one JSON result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (what a user of the
// system sees). With -trace 1 the run first repeats the untraced
// measurement, then rebuilds the same stack with every system endpoint
// wrapped in a recording decorator, replays a captured frame sample
// through the public layer functions, and prints the per-layer set plus
// a budget line and the tracing overhead. Layers are timed from outside,
// around calls into their public functions; nothing inside the program
// is instrumented beyond the obs registry it already carries.
//
// Usage (from the module root):
//
//	go build -o .bench_build/ncbench ./ncbench
//	.bench_build/ncbench --workload mem-relay-lossy --seed 1 --seconds 20 --trace 0
//
// Workloads: mem-relay-lossy, udp-loopback, ctrl-churn. See README.md in
// this directory for metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload pass produces: correctness counts, the
// end-to-end metrics, and (traced passes only) per-layer metrics and the
// budget breakdown.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]metric
	layers            map[string]metric
	budget            *budget
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload runs one pass; traced selects the recording stack.
type workload struct {
	name   string
	params func(seconds int) map[string]interface{}
	run    func(seed int64, seconds int, traced bool) (*outcome, error)
}

var workloads = []workload{
	{name: "mem-relay-lossy", params: memSpec.params, run: memSpec.run},
	{name: "udp-loopback", params: udpSpec.params, run: udpSpec.run},
	{name: "ctrl-churn", params: ctrlParams, run: runCtrl},
}

// topologySeed fixes what the workload seed does not vary: the tracker's
// thread assignment, coding and recoding randomness, and the swarm's timer
// jitter. The workload seed derives content bytes, loss coins and the
// churn schedule, so run-to-run spread reflects the system rather than a
// differently shaped overlay.
const topologySeed = 1

// e2eUnits fixes the end-to-end metric set every untraced run prints.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"goodput_mbps":   "MB/s",
	"ttc_p50_s":      "s",
	"cpu_ms_per_mib": "ms/MiB",
	"heap_peak_mib":  "MiB",
}

func main() {
	name := flag.String("workload", "", "workload to run: mem-relay-lossy, udp-loopback, ctrl-churn")
	seed := flag.Int64("seed", 1, "workload seed: content bytes, loss coins and the churn schedule derive from it")
	seconds := flag.Int("seconds", 20, "measurement window per run, seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced pass (after an untraced pass for the overhead)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ncbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	os.Exit(run(w, *seed, *seconds, *trace == 1))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(w *workload, seed int64, seconds int, traced bool) int {
	printJSON("host", hostRecord(seed, w.name, w.params(seconds)))

	plain, err := w.run(seed, seconds, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Metrics: make(map[string]metric)}
	out := plain
	if !traced {
		for k, m := range plain.e2e {
			res.Metrics[k] = m
		}
	} else {
		tr, err := w.run(seed, seconds, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncbench: %s traced: %v\n", w.name, err)
			return 1
		}
		overhead := make(map[string]float64)
		for k, m := range tr.e2e {
			overhead[k] = m.Value - plain.e2e[k].Value
		}
		printJSON("tracing_overhead", map[string]interface{}{
			"workload":         w.name,
			"traced_minus_off": overhead,
			"traced":           tr.e2e,
			"untraced":         plain.e2e,
		})
		if tr.budget != nil {
			printJSON("budget", tr.budget.report(w.name))
		}
		for k, m := range tr.layers {
			res.Metrics[k] = m
		}
		// Correctness covers both passes.
		tr.attempted += plain.attempted
		tr.failed += plain.failed
		tr.problems = append(plain.problems, tr.problems...)
		out = tr
	}
	printJSON("e2e", plain.e2e)
	if traced {
		checkSet(out, layerUnits, res.Metrics)
	} else {
		checkSet(out, e2eUnits, res.Metrics)
	}
	res.Attempted = out.attempted
	res.Failed = out.failed
	res.Correct = out.failed == 0 && len(out.problems) == 0 && out.attempted > 0
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "ncbench: %s: %s\n", w.name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printJSON writes one tagged informational line (never the last line).
func printJSON(tag string, v interface{}) {
	b, err := json.Marshal(map[string]interface{}{tag: v})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncbench: %s: %v\n", tag, err)
		return
	}
	fmt.Println(string(b))
}

// hostRecord describes the machine and the run configuration, so numbers
// from different hosts and commits can be told apart.
func hostRecord(seed int64, name string, params map[string]interface{}) map[string]interface{} {
	return map[string]interface{}{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       seed,
		"workload":   name,
		"params":     params,
		"started_at": time.Now().UTC().Format(time.RFC3339),
	}
}

// checkSet reports metrics missing from got or outside the fixed set.
func checkSet(out *outcome, want map[string]string, got map[string]metric) {
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			out.fail("metric %s missing or not in %s", name, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			out.fail("metric %s is not in the fixed set", name)
		}
	}
}
