package expt

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/num"
	"mgba/internal/sta"
)

// mcmmCornerSets are the benchmark's corner sets: the base corner alone
// (the single-corner pipeline), plus margin-scaled/uncertainty-shifted
// companions at N=2 and N=4.
func mcmmCornerSets() [][]core.CornerSpec {
	typ := core.CornerSpec{Name: "typ"}
	slow := core.CornerSpec{Name: "slow", DerateScale: 1.15, Uncertainty: 10}
	fast := core.CornerSpec{Name: "fast", DerateScale: 0.85, Uncertainty: 5}
	hot := core.CornerSpec{Name: "hot", DerateScale: 1.3, Uncertainty: 20}
	return [][]core.CornerSpec{
		{typ},
		{typ, slow},
		{typ, slow, fast, hot},
	}
}

// coldCalibrator is a persistent calibrator over set whose every
// Calibrate is a genuinely cold pipeline: no warm start on any corner, no
// cache. Strict safety is forced at N >= 2 anyway; pinning it keeps the
// N=1 set and the independent arm fitting the same (never-optimistic)
// way.
func coldCalibrator(sess *engine.Session, set []core.CornerSpec) (func() (*core.Model, error), error) {
	opt := core.DefaultOptions()
	opt.Corners = set
	opt.StrictSafety = true
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), opt)
	if err != nil {
		return nil, err
	}
	noWarm := make([][]float64, len(set))
	return func() (*core.Model, error) {
		cal.SetWarmWeights(noWarm...)
		cal.Invalidate()
		return cal.Calibrate(context.Background())
	}, nil
}

// mcmmPairs is how many interleaved shared/independent operation pairs
// BenchMCMM times per corner set in full mode. The arms alternate op by
// op, adjacent in time, so both see the same host load: on a shared
// 2-vCPU host, one 1-s window per arm let the N = 1 control (the same
// work in both arms) read anywhere from 0.90 to 1.09.
const mcmmPairs = 25

// BenchMCMM times shared-enumeration multi-corner calibration (one path
// enumeration on the selection corner feeding every corner's Eq. (9) fit)
// against N independent single-corner cold calibrations of the same
// corners, each paying its own enumeration and golden retiming, on the D3
// stand-in at N = 1, 2 and 4 (BENCH_mcmm.json). Each arm first runs one
// testing.Benchmark window, which warms it and gives the row its allocs,
// bytes and heap; then the arms alternate over mcmmPairs operations each
// (one in quick mode), which arm goes first alternating too. Each row's
// ns_per_op is its arm's median operation, with the quartiles in values.
// The shared row records the speedup (the ratio of the medians), the
// quartiles of the per-pair ratios, and the worst corner's optimism,
// which must be 0.
func BenchMCMM(e *Env) (*BenchFile, error) {
	name, g, err := benchDesign(e)
	if err != nil {
		return nil, err
	}
	f := newBenchFile(e, "benchmcmm")
	pairs := mcmmPairs
	if e.Quick {
		pairs = 1
	}
	for _, set := range mcmmCornerSets() {
		names := strings.Join(core.CornerNames(set), "+")
		shared, err := coldCalibrator(engine.NewSession(g), set)
		if err != nil {
			return nil, err
		}
		indep := make([]func() (*core.Model, error), len(set))
		for i, spec := range set {
			if indep[i], err = coldCalibrator(engine.NewSession(g), []core.CornerSpec{spec}); err != nil {
				return nil, err
			}
		}
		// Each arm keeps its latest models live until its next op has
		// replaced them, as a caller holding the current calibration
		// would, so at N = 1 the two arms do the same work and hold the
		// same heap.
		var last *core.Model
		lastIndep := make([]*core.Model, len(set))
		sharedOp := func() error {
			m, err := shared()
			if err == nil {
				release(last)
				last = m
			}
			return err
		}
		indepOp := func() error {
			for i, cal := range indep {
				m, err := cal()
				if err != nil {
					return err
				}
				release(lastIndep[i])
				lastIndep[i] = m
			}
			return nil
		}
		sharedRow, err := measure(name+" "+names+" shared", "core.calibrate", sharedOp)
		if err != nil {
			return nil, err
		}
		indepRow, err := measure(name+" "+names+" independent", "core.calibrate", indepOp)
		if err != nil {
			return nil, err
		}
		e.logf("benchmcmm: %s on %s: %d interleaved pairs...\n", names, name, pairs)
		var sharedNs, indepNs, ratios []float64
		for p := 0; p < pairs; p++ {
			ops := []func() error{sharedOp, indepOp}
			if p%2 == 1 {
				ops[0], ops[1] = ops[1], ops[0]
			}
			var ns [2]float64
			for i, op := range ops {
				t0 := time.Now()
				if err := op(); err != nil {
					return nil, fmt.Errorf("expt: benchmcmm %s: %w", names, err)
				}
				ns[i] = float64(time.Since(t0).Nanoseconds())
			}
			if p%2 == 1 {
				ns[0], ns[1] = ns[1], ns[0]
			}
			sharedNs = append(sharedNs, ns[0])
			indepNs = append(indepNs, ns[1])
			ratios = append(ratios, ns[1]/ns[0])
		}
		arm := func(row *BenchRow, ns []float64) {
			row.NsPerOp = int64(num.Quantile(ns, 0.5))
			row.Values = map[string]float64{
				"pairs":  float64(len(ns)),
				"ns_p25": num.Quantile(ns, 0.25),
				"ns_p50": num.Quantile(ns, 0.5),
				"ns_p75": num.Quantile(ns, 0.75),
			}
		}
		arm(&sharedRow, sharedNs)
		arm(&indepRow, indepNs)

		// A one-corner model carries no per-corner fits: its own mGBA view
		// is the corner's.
		mm, err := last.Evaluate("mgba")
		if err != nil {
			return nil, err
		}
		maxOpt, worst := mm.Optimism, last.MGBA.WNS
		if last.WorstSlack != nil {
			worst = last.WorstWNS
		}
		for _, cf := range last.Corners {
			cm, err := cf.Evaluate("mgba", last.Opt.Epsilon)
			if err != nil {
				return nil, err
			}
			maxOpt = max(maxOpt, cm.Optimism)
		}
		if maxOpt > 0 {
			return nil, fmt.Errorf("expt: benchmcmm %s: a corner's fit is optimistic on %d paths", names, maxOpt)
		}
		for k, v := range map[string]float64{
			"corners":             float64(len(set)),
			"paths":               float64(len(last.Selection.Paths)),
			"worst_wns_ps":        worst,
			"max_corner_optimism": float64(maxOpt),
			"speedup":             num.Quantile(indepNs, 0.5) / num.Quantile(sharedNs, 0.5),
			"speedup_pair_p25":    num.Quantile(ratios, 0.25),
			"speedup_pair_p75":    num.Quantile(ratios, 0.75),
		} {
			sharedRow.Values[k] = v
		}
		release(last)
		for _, m := range lastIndep {
			release(m)
		}
		f.Rows = append(f.Rows, sharedRow, indepRow)
	}
	return f, nil
}
