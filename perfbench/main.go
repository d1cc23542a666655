// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — closure-d3, calibd-d8 or scale-30k — for a fixed wall-clock
// window, checks the output of every op, prints a table of end-to-end and
// per-layer numbers, and ends with one JSON line holding the metrics
// registered in BENCHMARK.json: the end-to-end metrics in an untraced run
// (--trace 0), the per-layer metrics in a traced run (--trace 1).
//
// It is built and started by run.sh from the repository root; README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mgba/internal/obs"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	maxOps   int    // 0: run ops until the window closes
	root     string // repository root
	workDir  string // this run's private scratch directory
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setupRuns is how often a run sets its workload up; setup_s is the
// median, so that one slow set-up does not decide the figure.
const setupRuns = 9

// workload runs one benchmark workload into t.
type workload func(cfg config, t *tally) error

var workloads = map[string]workload{
	"closure-d3": runClosure,
	"calibd-d8":  runCalibd,
	"scale-30k":  runScale,
}

// metric is one registered metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order. The times are process CPU times, which host steal does not move,
// scaled to a fixed host speed by the reference loop read next to each;
// the raw CPU and wall-clock figures are printed in the table only.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_scaled_ms", "ms"},
	{"op_alloc_mb", "MB"},
	{"setup_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json order.
// Values are per traced op unless the name says ratio or bytes; a layer a
// workload does not exercise reads 0.
var perLayer = []metric{
	{"gen.generate_ms", "ms"},
	{"graph.session_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.runs_per_op", "count"},
	{"engine.update_ms", "ms"},
	{"engine.updates_per_op", "count"},
	{"par.submits_per_op", "count"},
	{"pathsel.enumerate_ms", "ms"},
	{"pathsel.worst_endpoint_ms", "ms"},
	{"pba.retime_ms", "ms"},
	{"pba.paths_per_op", "count"},
	{"pba.endpoints_per_op", "count"},
	{"core.calibrate_ms", "ms"},
	{"core.incremental_ratio", "ratio"},
	{"core.enumerate_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.reenumerated_per_op", "count"},
	{"core.degraded_ratio", "ratio"},
	{"solver.solve_ms", "ms"},
	{"solver.iters_per_op", "count"},
	{"solver.revert_ratio", "ratio"},
	{"closure.trials_per_op", "count"},
	{"closure.accept_ratio", "ratio"},
	{"closure.buffer_trials_per_op", "count"},
	{"closure.calib_share", "ratio"},
	{"serve.recalibrate_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.rejected_ratio", "ratio"},
	{"netio.snapshot_ms", "ms"},
	{"netio.snapshot_bytes", "bytes"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_per_op", "count"},
	{"host.ref_loop_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceN int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "closure-d3, calibd-d8 or scale-30k")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (closure-d3 runs the golden's configuration at every seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceN, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.IntVar(&cfg.maxOps, "ops", 0, "stop after this many timed ops (0: run the whole window)")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.BoolVar(&selftest, "selftest", false, "run every workload briefly and check the harness output")
	flag.Parse()
	cfg.trace = traceN == 1
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if selftest {
		return runSelftest(cfg)
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want closure-d3, calibd-d8 or scale-30k)\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	base := filepath.Join(cfg.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	obs.Enable(false)
	t := newTally(cfg.trace)
	busy0, steal0 := cpuTicks()
	if err := w(cfg, t); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	busy1, steal1 := cpuTicks()
	t.extra = append(t.extra, fmt.Sprintf("host: CPU steal %.1f%% of busy time during the run",
		100*ratio(float64(steal1-steal0), float64(busy1-busy0+steal1-steal0))))
	t.layer["host.ref_loop_ms"] = quantile(t.refs, 0.5)
	t.extra = append(t.extra, fmt.Sprintf("host: reference loop CPU ms: p10 %.3f p50 %.3f p90 %.3f (n=%d, nominal %.0f)",
		quantile(t.refs, 0.1), quantile(t.refs, 0.5), quantile(t.refs, 0.9), len(t.refs), ms(refNominal)))
	if t.spanLog != nil {
		if err := writeSpans(cfg, t.spanLog); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return report(cfg, t)
}

// report prints the run's table and, last, its JSON line.
func report(cfg config, t *tally) int {
	n := t.ops()
	e2e := map[string]float64{
		"setup_s":       quantileF(t.setupScal, 0.5),
		"op_scaled_ms":  quantileF(t.opScal[0], 0.5),
		"op_alloc_mb":   quantileF(t.opAlloc[0], 0.5),
		"setup_heap_mb": t.setupHeap,
	}
	if cfg.trace {
		obsLayers(t)
		untraced := ratio(float64(len(t.lat[0])), t.busy[0].Seconds())
		traced := ratio(float64(len(t.lat[1])), t.busy[1].Seconds())
		t.layer["trace.overhead_ratio"] = 1 - ratio(traced, untraced)
	}

	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: %s %s/%s GOMAXPROCS=%d NumCPU=%d commit=%s\n", runtime.Version(), runtime.GOOS,
		runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	for _, s := range []struct {
		name string
		ds   []time.Duration
	}{{"wall", t.setups}, {"CPU", t.setupCPU}} {
		f := make([]string, len(s.ds))
		for i, d := range s.ds {
			f[i] = fmt.Sprintf("%.3f", d.Seconds())
		}
		fmt.Printf("set-ups, %s s: %s\n", s.name, strings.Join(f, " "))
	}
	fmt.Printf("ops: %d attempted, %d failed (%d untraced, %d traced)\n", t.attempted, t.failed, len(t.lat[0]), len(t.lat[1]))
	for k, name := range []string{"untraced", "traced"} {
		for _, s := range []struct {
			what string
			ds   []time.Duration
		}{{"latency", t.lat[k]}, {"CPU", t.opCPU[k]}} {
			if l := s.ds; len(l) > 0 {
				fmt.Printf("%s op %s ms: p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f max %.1f (n=%d)\n", name, s.what,
					quantile(l, 0.1), quantile(l, 0.25), quantile(l, 0.5), quantile(l, 0.75), quantile(l, 0.9), quantile(l, 1), len(l))
			}
		}
	}
	fmt.Printf("digest: ops=%d seq=%016x first%d=%016x\n", t.digOps, t.digest.Sum64(), prefixOps, t.prefix)
	for _, p := range t.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	for _, x := range t.extra {
		fmt.Println(x)
	}
	fmt.Println("end-to-end:")
	if !cfg.trace {
		for _, m := range endToEnd {
			fmt.Printf("  %-30s %14.4f %s\n", m.name, e2e[m.name], m.unit)
		}
		unscaled := []guard{
			{"setup_cpu_s", "s", quantile(t.setupCPU, 0.5) / 1e3},
			{"op_cpu_ms", "ms", quantile(t.opCPU[0], 0.5)},
			{"setup_wall_s", "s", quantile(t.setups, 0.5) / 1e3},
			{"op_p50_ms", "ms", quantile(t.lat[0], 0.5)},
			{"ops_per_s", "1/s", ratio(float64(len(t.lat[0])), t.busy[0].Seconds())},
		}
		for _, g := range unscaled {
			fmt.Printf("  %-30s %14.4f %s\n", g.name, g.value, g.unit)
		}
		if len(t.lat[0]) >= 100 {
			fmt.Printf("  %-30s %14.4f %s\n", "op_p90_ms", quantile(t.lat[0], 0.9), "ms")
		} else {
			fmt.Printf("  %-30s %14s %s (%d ops < 100)\n", "op_p90_ms", "-", "ms", len(t.lat[0]))
		}
	} else {
		fmt.Println("  (a traced run's end-to-end numbers are not comparable; run with --trace 0)")
	}
	guards := append([]guard{
		{"peak_rss_mb", "MB", t.rssMB},
		{"fail_ratio", "ratio", ratio(float64(t.failed), float64(t.attempted))},
	}, t.guards...)
	for _, g := range guards {
		fmt.Printf("  %-30s %14.4f %s\n", g.name, g.value, g.unit)
	}
	if cfg.trace {
		fmt.Printf("per-layer (per traced op, %d traced ops):\n", len(t.lat[1]))
		for _, m := range perLayer {
			fmt.Printf("  %-30s %14.4f %s\n", m.name, t.layer[m.name], m.unit)
		}
		fmt.Println("program spans per traced op:  path  total_ms  self_ms  count")
		for _, row := range programSpans(t.acc, len(t.lat[1])) {
			fmt.Println(row)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if cfg.trace {
		for _, m := range perLayer {
			metrics[m.name] = value{t.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{e2e[m.name], m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0 && n > 0, t.attempted, t.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// commit names the source tree the binary was built from; run.sh passes
// it in because a benchmark checkout need not be a git repository.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// writeSpans saves the run's spans next to the build, for offline study.
func writeSpans(cfg config, l *spanLog) error {
	path := filepath.Join(cfg.root, ".bench_build", "perfbench",
		fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	blob, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(l.spans), path)
	return nil
}
