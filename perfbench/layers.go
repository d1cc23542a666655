package main

import (
	"strings"
	"time"

	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// obsLayers derives the per-layer rows that come from program counters
// and span histograms (source O), per traced op. Rows a workload already
// timed itself (source T) are kept.
func obsLayers(t *tally) {
	n := float64(len(t.lat[1]))
	if n == 0 {
		return
	}
	a := t.acc
	set := func(name string, v float64) {
		if _, ok := t.layer[name]; !ok {
			t.layer[name] = v
		}
	}
	perOp := func(names ...string) float64 { return a.sum(names...) / n }
	msPerOp := func(names ...string) float64 { return a.sum(names...) / 1e6 / n }

	set("engine.run_ms", msPerOp("engine.run_ns"))
	set("engine.runs_per_op", perOp("engine.runs"))
	set("engine.update_ms", msPerOp("engine.update_ns"))
	set("engine.updates_per_op", perOp("engine.updates"))
	set("par.submits_per_op", perOp("par.pool.submits"))
	set("pba.paths_per_op", perOp("pba.paths.enumerated"))
	set("pba.endpoints_per_op", perOp("pba.endpoints.swept"))

	calibs := a.sum("core.calibrations.cold", "core.calibrations.incremental")
	set("core.calibrate_ms", msPerOp("span.calibrate.cold_ns", "span.calibrate.recalibrate_ns"))
	set("core.incremental_ratio", ratio(a["core.calibrations.incremental"], calibs))
	set("core.enumerate_ms", msPerOp("span.calibrate.cold.enumerate_ns",
		"span.calibrate.cold.enumerate.stream_ns", "span.calibrate.recalibrate.enumerate_ns"))
	set("core.assemble_ms", msPerOp("span.calibrate.cold.assemble_ns", "span.calibrate.recalibrate.assemble_ns"))
	set("core.validate_ms", msPerOp("span.calibrate.cold.validate_ns", "span.calibrate.recalibrate.validate_ns"))
	set("core.reenumerated_per_op", perOp("core.endpoints.reenumerated"))
	set("core.degraded_ratio", ratio(a["core.calibrations.degraded"], calibs))
	set("solver.solve_ms", msPerOp("span.calibrate.cold.solve_ns", "span.calibrate.recalibrate.solve_ns"))
	set("solver.iters_per_op", perOp("solver.scg.iters"))
	set("solver.revert_ratio", ratio(a["solver.reverts"], a["solver.scg.iters"]))

	// closure.transforms.<kind> counts accepted moves of a kind and
	// closure.transforms.<kind>.rejected the rejected trials.
	var accepted, rejected, buffer float64
	for name, v := range a {
		if !strings.HasPrefix(name, "closure.transforms.") {
			continue
		}
		if strings.HasSuffix(name, ".rejected") {
			rejected += v
		} else {
			accepted += v
		}
		if strings.HasPrefix(name, "closure.transforms.buffer") {
			buffer += v
		}
	}
	set("closure.trials_per_op", (accepted+rejected)/n)
	set("closure.accept_ratio", ratio(accepted, accepted+rejected))
	set("closure.buffer_trials_per_op", buffer/n)

	set("go.alloc_mb_per_op", float64(t.allocs)/(1<<20)/n)
	set("go.gc_per_op", float64(t.gcs)/n)
}

// probeLayers times the replay rows on a fixed design state, outside op
// timing, each in its own span: graph build plus session bring-up and
// first run, enumeration of the violated paths, the slowest
// single-endpoint search, and golden retiming of every enumerated path.
func probeLayers(t *tally, d *netlist.Design, cfg sta.Config, k int) error {
	sp := t.spanLog
	var r *sta.Result
	var err error
	t.layer["graph.session_ms"] = ms(sp.timed("probe.graph.session", -1, -1, func() {
		var g *graph.Graph
		if g, err = graph.Build(d); err == nil {
			r = engine.NewSession(g).Run(cfg)
		}
	}))
	if err != nil {
		return err
	}
	defer r.Release()
	an := pba.NewAnalyzer(r)
	var pop *pathsel.Population
	t.layer["pathsel.enumerate_ms"] = ms(sp.timed("probe.pathsel.Enumerate", -1, -1, func() {
		pop = pathsel.Enumerate(an, k)
	}))
	var worst time.Duration
	zero := 0.0
	sp.timed("probe.pba.KWorst", -1, -1, func() {
		for _, fi := range an.EndpointIndices() {
			t0 := time.Now()
			an.KWorst(fi, k, &zero)
			if d := time.Since(t0); d > worst {
				worst = d
			}
		}
	})
	t.layer["pathsel.worst_endpoint_ms"] = ms(worst)
	t.layer["pba.retime_ms"] = ms(sp.timed("probe.pba.Retime", -1, -1, func() {
		for _, grp := range pop.Groups() {
			for _, p := range grp {
				an.Retime(p)
			}
		}
	}))
	return nil
}
