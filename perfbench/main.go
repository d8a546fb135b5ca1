// Command perfbench is the repository benchmark: three workloads driven
// through the stardust module's public APIs, each checked for correct
// output, reported end to end (untraced run) or per layer (traced run).
//
//	bash perfbench/run.sh --workload twin_k8 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md in this
// directory for the workloads, the metric map and a measured table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// endToEnd and perLayer fix every reported metric's unit. End-to-end metrics
// are printed by an untraced run, per-layer metrics by a traced one;
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"result_s", "s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"sim.events_per_cell", "count"},
	{"sim.self_cpu_s", "s"},
	{"parsim.windows", "count"},
	{"parsim.shard_imbalance", "x"},
	{"parsim.self_cpu_s", "s"},
	{"fabric.cells_delivered", "count"},
	{"fabric.drops", "count"},
	{"fabric.self_cpu_s", "s"},
	{"reach.unreachable_after_heal", "count"},
	{"reach.self_cpu_s", "s"},
	{"netsim.self_cpu_s", "s"},
	{"tcp.self_cpu_s", "s"},
	{"telemetry.stream_bytes", "B"},
	{"telemetry.bytes_per_window", "B"},
	{"telemetry.analyze_s", "s"},
	{"telemetry.compare_s", "s"},
	{"telemetry.self_cpu_s", "s"},
	{"distsim.wire_bytes_per_window", "B"},
	{"distsim.raw_bytes_per_window", "B"},
	{"distsim.mail_frames_per_window", "count"},
	{"distsim.barrier_p50_us", "us"},
	{"distsim.barrier_p99_us", "us"},
	{"distsim.self_cpu_s", "s"},
	{"mgmt.cache_hits", "count"},
	{"mgmt.submitted", "count"},
	{"mgmt.rejected", "count"},
	{"mgmt.queue_wait_p50_ms", "ms"},
	{"mgmt.run_p50_ms", "ms"},
	{"mgmt.self_cpu_s", "s"},
	{"engine.self_cpu_s", "s"},
	{"cluster.forwards", "count"},
	{"cluster.peer_fetches", "count"},
	{"cluster.owner_share_max", "frac"},
	{"cluster.self_cpu_s", "s"},
	{"http.self_cpu_s", "s"},
	{"go.alloc_bytes_per_cell", "B"},
	{"go.gc_cpu_frac", "frac"},
	{"go.self_cpu_s", "s"},
	{"other.self_cpu_s", "s"},
	{"profile.cpu_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"submit_p50_ms", "ms"},
	{"max_rps", "1/s"},
	{"failed_frac", "frac"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

type metricDef struct{ name, unit string }

// outDir, relative to the repository root the benchmark runs from, holds
// the build, the spans of traced runs and the work ledger.
const outDir = ".bench_build"

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tiny    bool // smoke-test sizes
}

// report is what a workload hands back: attempt and failure counts, the
// end-to-end and per-layer values, and the exact work ledger.
type report struct {
	attempted, failed int
	opFailed          bool // the current operation has already failed
	e2e               map[string]float64
	layer             map[string]float64
	ledger            ledger
	problems          []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, ledger: ledger{}}
}

// op starts one measured operation.
func (r *report) op() {
	r.attempted++
	r.opFailed = false
}

// fail records why the current operation failed; an operation counts as
// failed once however many of its checks fail.
func (r *report) fail(format string, args ...any) {
	if !r.opFailed {
		r.failed++
		r.opFailed = true
	}
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check counts a failed output check as a failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

type workloadFunc func(cfg config, tr *tracer) (*report, error)

var workloads = map[string]workloadFunc{
	"twin_k8":   runTwin,
	"dist2_k8":  runDist,
	"serve_mix": runServe,
}

func main() {
	name := flag.String("workload", "", "workload: twin_k8, dist2_k8 or serve_mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep, err := fn(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	if rep.attempted > 0 {
		rep.layer["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	}
	if err := rep.ledger.verify(outDir, *name, cfg); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	if tr != nil {
		tr.finish(rep)
		if err := tr.write(outDir, *name, cfg.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, p)
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	line, err := resultLine(rep, defs, vals, !cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object. With strict set every
// metric of a run without failures must have been measured; otherwise
// (per-layer metrics, or a failed run) a missing value reads 0.
func resultLine(rep *report, defs []metricDef, vals map[string]float64, strict bool) ([]byte, error) {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && strict && rep.failed == 0 {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
}

// peakRSSMB reads the process's peak resident set from the kernel.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
