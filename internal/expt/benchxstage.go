package expt

import (
	"context"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/sta"
)

// benchDesign generates and builds the D3 stand-in the calibration
// benches run on (a quarter of it in Quick mode).
func benchDesign(e *Env) (string, *graph.Graph, error) {
	cfg := gen.Suite()[2] // D3
	if e.Quick {
		cfg.Gates, cfg.FFs = cfg.Gates/4, cfg.FFs/4
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		return "", nil, err
	}
	g, err := graph.Build(d)
	return cfg.Name, g, err
}

// release returns a model's caller-owned analyses to the session pool:
// every extra corner's view and the mGBA view (Corners[0] mirrors it).
// The baseline GBA stays with the calibrator that produced it.
func release(m *core.Model) {
	if m == nil {
		return
	}
	for _, cf := range m.Corners {
		if cf != nil && cf.MGBA != nil && cf.MGBA != m.MGBA && cf.MGBA != m.GBA {
			cf.MGBA.Release()
		}
	}
	if m.MGBA != nil && m.MGBA != m.GBA {
		m.MGBA.Release()
	}
}

// BenchXStage times a cold calibration of the D3 stand-in under each
// registered view pair and records the pass ratio, MSE and residual
// optimism of the cheap and fitted views against that pair's golden
// slacks (BENCH_xstage.json). The preroute pair forces the strict Eq. (5)
// enforcement, so its mgba_optimism reads 0.
func BenchXStage(e *Env) (*BenchFile, error) {
	name, g, err := benchDesign(e)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	// A one-shot calibration's caller owns its baseline GBA too.
	drop := func(m *core.Model) {
		if m != nil {
			release(m)
			m.GBA.Release()
		}
	}
	f := newBenchFile(e, "benchxstage")
	for _, pair := range core.ViewPairNames() {
		e.logf("benchxstage: timing %s calibration on %s...\n", pair, name)
		opt := core.DefaultOptions()
		opt.ViewPair = pair
		sess := engine.NewSession(g)
		var last *core.Model
		row, err := measure(name+" "+pair, "core.calibrate", func() error {
			m, err := core.CalibrateWithSession(ctx, sess, sta.DefaultConfig(), opt)
			if err == nil {
				drop(last)
				last = m
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		cheap, err := last.Evaluate("cheap")
		if err != nil {
			return nil, err
		}
		mgba, err := last.Evaluate("mgba")
		if err != nil {
			return nil, err
		}
		row.Values = map[string]float64{
			"paths":            float64(cheap.Paths),
			"columns":          float64(len(last.Columns)),
			"cheap_pass_ratio": cheap.PassRatio,
			"mgba_pass_ratio":  mgba.PassRatio,
			"cheap_mse":        cheap.MSE,
			"mgba_mse":         mgba.MSE,
			"cheap_optimism":   float64(cheap.Optimism),
			"mgba_optimism":    float64(mgba.Optimism),
		}
		drop(last)
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}
