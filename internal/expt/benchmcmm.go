package expt

import (
	"context"
	"fmt"
	"strings"

	"mgba/internal/core"
	"mgba/internal/engine"
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

// BenchMCMM times shared-enumeration multi-corner calibration (one path
// enumeration on the selection corner feeding every corner's Eq. (9) fit)
// against N independent single-corner cold calibrations of the same
// corners, each paying its own enumeration and golden retiming, on the D3
// stand-in at N = 1, 2 and 4 (BENCH_mcmm.json). The shared row records
// the speedup and the worst corner's optimism, which must be 0.
func BenchMCMM(e *Env) (*BenchFile, error) {
	name, g, err := benchDesign(e)
	if err != nil {
		return nil, err
	}
	f := newBenchFile(e, "benchmcmm")
	for _, set := range mcmmCornerSets() {
		names := strings.Join(core.CornerNames(set), "+")
		e.logf("benchmcmm: %s on %s: shared enumeration...\n", names, name)
		shared, err := coldCalibrator(engine.NewSession(g), set)
		if err != nil {
			return nil, err
		}
		var last *core.Model
		sharedRow, err := measure(name+" "+names+" shared", "core.calibrate", func() error {
			m, err := shared()
			if err == nil {
				release(last)
				last = m
			}
			return err
		})
		if err != nil {
			return nil, err
		}

		e.logf("benchmcmm: %s: independent calibrations...\n", names)
		indep := make([]func() (*core.Model, error), len(set))
		for i, spec := range set {
			if indep[i], err = coldCalibrator(engine.NewSession(g), []core.CornerSpec{spec}); err != nil {
				return nil, err
			}
		}
		indepRow, err := measure(name+" "+names+" independent", "core.calibrate", func() error {
			for _, cal := range indep {
				m, err := cal()
				if err != nil {
					return err
				}
				release(m)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

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
		sharedRow.Values = map[string]float64{
			"corners":             float64(len(set)),
			"paths":               float64(len(last.Selection.Paths)),
			"worst_wns_ps":        worst,
			"max_corner_optimism": float64(maxOpt),
			"speedup":             float64(indepRow.NsPerOp) / float64(sharedRow.NsPerOp),
		}
		release(last)
		f.Rows = append(f.Rows, sharedRow, indepRow)
	}
	return f, nil
}
