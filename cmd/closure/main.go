// Command closure runs the post-route timing-closure optimization flow on
// one synthetic design, with either original GBA or calibrated mGBA as the
// embedded timer:
//
//	closure -design D3 -timer gba
//	closure -design D3 -timer mgba
//	closure -design D8 -timer both   # side-by-side QoR comparison
//
// The "both" mode regenerates the identical design for each flow and prints
// a Table-2-style comparison.
//
// Long runs can be bounded and made restartable:
//
//	closure -design D8 -timer mgba -timeout 2m -checkpoint run.ckpt
//	closure -resume run.ckpt -timer mgba      # continue an interrupted run
//
// A run stopped by -timeout (or Ctrl-C semantics via context) still prints
// its partial QoR; with -checkpoint set it can be resumed to completion.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mgba/internal/closure"
	"mgba/internal/core"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/prof"
	"mgba/internal/report"
)

func main() {
	design := flag.String("design", "D3", "design to optimize: toy, D1..D10, or a fixture (retimetoy, bufcase)")
	timer := flag.String("timer", "both", "embedded timer: gba, mgba, or both")
	transforms := flag.String("transforms", "", "comma-separated repair transforms, e.g. upsize,buffer,retime (empty: default registry)")
	seed := flag.Uint64("seed", 0, "override the design seed (0 keeps the preset)")
	timeout := flag.Duration("timeout", 0, "stop the flow after this long (0: no limit); partial results are reported")
	ckpt := flag.String("checkpoint", "", "write resumable checkpoints to this file (atomic)")
	ckptEvery := flag.Int("checkpoint-every", 50, "accepted transforms between periodic checkpoints")
	resume := flag.String("resume", "", "resume an interrupted run from this checkpoint file (requires -timer gba or mgba)")
	coldcal := flag.Bool("coldcal", false, "mgba: full cold calibration at every recalibration point instead of the incremental calibrator (ablation; bit-identical results, just slower)")
	viewpair := flag.String("viewpair", "", "mgba: view pair to calibrate against: gba-pba (default) or preroute (cross-stage: corrections fitted to a deterministically routed twin)")
	corners := flag.String("corners", "", "mgba: multi-corner set, name[:derate-scale[:uncertainty-ps]],... e.g. typ,slow:1.15:10; repairs are scheduled on the merged worst-corner slack and no accepted move may regress a corner")
	par := flag.Int("par", 0, "worker count for timing propagation, path enumeration and solver kernels (0: GOMAXPROCS, 1: serial; the result is identical at every setting)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof and /debug/summary on this host:port (enables run metrics; :0 picks a free port, printed to stderr)")
	debugHold := flag.Duration("debug-hold", 0, "keep the -debug-addr server up this long after the run finishes, for post-run inspection")
	events := flag.String("events", "", "append structured JSONL run events (spans, checkpoints, ladder transitions) to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "closure:", err)
		}
	}()

	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		obs.Enable(true)
		obs.SetSink(f)
		defer obs.SetSink(nil)
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "closure: debug server listening on %s\n", srv.Addr())
		defer func() {
			if *debugHold > 0 {
				fmt.Fprintf(os.Stderr, "closure: holding debug server for %s\n", *debugHold)
				time.Sleep(*debugHold)
			}
			srv.Close()
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cornerSet, err := core.ParseCorners(*corners)
	if err != nil {
		fail(err)
	}

	options := func(kind closure.TimerKind, ckptPath string) closure.Options {
		opt := closure.DefaultOptions(kind)
		opt.ColdRecalibrate = *coldcal
		opt.CheckpointPath = ckptPath
		opt.CheckpointEvery = *ckptEvery
		opt.STA.Parallelism = *par
		opt.Core.ViewPair = *viewpair
		opt.Core.Corners = cornerSet
		opt.Transforms = parseTransforms(*transforms)
		return opt
	}

	if *resume != "" {
		kind, err := singleTimer(*timer)
		if err != nil {
			fail(fmt.Errorf("-resume needs one timer: %w", err))
		}
		res, err := closure.Resume(ctx, *resume, options(kind, *resume))
		if err != nil {
			fail(err)
		}
		printRows(fmt.Sprintf("timing closure resumed from %s", *resume), []row{{kind, res}})
		return
	}

	build, name, err := findDesign(*design, *seed)
	if err != nil {
		fail(err)
	}

	var kinds []closure.TimerKind
	switch strings.ToLower(*timer) {
	case "gba":
		kinds = []closure.TimerKind{closure.TimerGBA}
	case "mgba":
		kinds = []closure.TimerKind{closure.TimerMGBA}
	case "both":
		kinds = []closure.TimerKind{closure.TimerGBA, closure.TimerMGBA}
	default:
		fail(fmt.Errorf("unknown timer %q", *timer))
	}
	if *ckpt != "" && len(kinds) > 1 {
		fail(fmt.Errorf("-checkpoint needs a single -timer (the file holds one flow)"))
	}

	var rows []row
	for _, kind := range kinds {
		d, err := build()
		if err != nil {
			fail(err)
		}
		res, err := closure.Run(ctx, d, options(kind, *ckpt))
		if err != nil {
			fail(err)
		}
		rows = append(rows, row{kind, res})
	}
	printRows(fmt.Sprintf("timing closure on %s", name), rows)
}

type row struct {
	kind closure.TimerKind
	res  *closure.Result
}

func printRows(title string, rows []row) {
	t := report.New(title,
		"timer", "upsized", "downsized", "buffers+", "retimed", "viol left",
		"signoff WNS", "signoff TNS", "area", "leakage", "runtime", "calib time")
	interrupted := false
	for _, r := range rows {
		res := r.res
		name := r.kind.String()
		if res.Interrupted {
			name += " (partial)"
			interrupted = true
		}
		t.AddRow(name,
			fmt.Sprintf("%d", res.Upsized),
			fmt.Sprintf("%d", res.Downsized),
			fmt.Sprintf("%d", res.BuffersAdded),
			fmt.Sprintf("%d", res.Retimed()),
			fmt.Sprintf("%d", res.ViolatedEndpoints),
			report.F(res.SignoffWNS, 1),
			report.F(res.SignoffTNS, 1),
			report.F(res.Area, 1),
			report.F(res.Leakage, 1),
			res.Elapsed.Round(time.Millisecond).String(),
			res.CalibElapsed.Round(time.Millisecond).String())
	}
	t.AddNote("signoff numbers are PBA-measured; a less pessimistic timer needs fewer fixes")
	for _, r := range rows {
		for _, cq := range r.res.Corners {
			t.AddNote("%s corner %s: WNS %s ps, TNS %s ps",
				r.kind, cq.Name, report.F(cq.WNS, 1), report.F(cq.TNS, 1))
		}
	}
	for _, r := range rows {
		if r.res.DegradedCalibrations > 0 {
			t.AddNote("%s: %d of %d calibrations degraded down the solver ladder",
				r.kind, r.res.DegradedCalibrations, r.res.Calibrations)
		}
		for _, f := range r.res.Faults {
			t.AddNote("%s fault: %s", r.kind, f)
		}
	}
	if interrupted {
		t.AddNote("run interrupted (%s); resume with -resume <checkpoint>", rows[len(rows)-1].res.StopReason)
	}
	fmt.Print(t.String())
}

func singleTimer(name string) (closure.TimerKind, error) {
	switch strings.ToLower(name) {
	case "gba":
		return closure.TimerGBA, nil
	case "mgba":
		return closure.TimerMGBA, nil
	default:
		return 0, fmt.Errorf("got %q, want gba or mgba", name)
	}
}

// findDesign resolves a design name to a builder. Generated designs come
// from the suite presets (with an optional seed override); the hand-built
// closure fixtures are deterministic, so "both" mode gets an identical
// design per timer either way.
func findDesign(name string, seed uint64) (func() (*netlist.Design, error), string, error) {
	switch strings.ToLower(name) {
	case "retimetoy":
		return func() (*netlist.Design, error) { return fixtures.RetimePipeline(4) }, "retimetoy", nil
	case "bufcase":
		return fixtures.BufferCase, "bufcase", nil
	}
	cfg, err := findConfig(name)
	if err != nil {
		return nil, "", err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return func() (*netlist.Design, error) { return gen.Generate(cfg) }, cfg.Name, nil
}

func findConfig(name string) (gen.Config, error) {
	if strings.EqualFold(name, "toy") {
		return gen.Toy(), nil
	}
	for _, cfg := range gen.Suite() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, nil
		}
	}
	return gen.Config{}, fmt.Errorf("unknown design %q (toy, D1..D10, retimetoy, bufcase)", name)
}

// parseTransforms splits the -transforms CSV; empty means the default
// registry (nil).
func parseTransforms(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var names []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			names = append(names, f)
		}
	}
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "closure:", err)
	os.Exit(1)
}
