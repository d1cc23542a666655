package expt

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/report"
	"mgba/internal/rng"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// CalibBench is the machine-readable outcome of the calibration benchmark:
// the cost of a cold calibration versus an incremental recalibration of the
// same design state after a batch of sizing transforms. It backs the
// BENCH_calibration.json artifact.
type CalibBench struct {
	Design     string `json:"design"`
	Gates      int    `json:"gates"`
	Endpoints  int    `json:"endpoints"`
	Transforms int    `json:"transforms"` // accepted upsizes between calibrations

	ColdNsOp     int64 `json:"cold_ns_per_op"`
	ColdAllocsOp int64 `json:"cold_allocs_per_op"`
	WarmNsOp     int64 `json:"cold_warm_ns_per_op"`
	WarmAllocsOp int64 `json:"cold_warm_allocs_per_op"`
	IncrNsOp     int64 `json:"incremental_ns_per_op"`
	IncrAllocsOp int64 `json:"incremental_allocs_per_op"`
	Reenumerated int   `json:"endpoints_reenumerated"`

	Speedup     float64 `json:"speedup"`      // cold / incremental
	SpeedupWarm float64 `json:"speedup_warm"` // warm-started cold / incremental

	Mem MemStats `json:"mem"`
}

// benchScenario builds the benchmark fixture: the D3 stand-in design,
// cold-calibrated once, then aged by n accepted upsizes along its selected
// paths (the same move the closure flow's repair phase applies), returning
// everything needed to time cold and incremental recalibration of the
// resulting state.
type benchScenario struct {
	d     *netlist.Design
	g     *graph.Graph
	cfg   sta.Config
	opt   core.Options
	warm  []float64 // weights of the pre-transform calibration
	dirty []int
	eps   int
}

func newBenchScenario(e *Env, transforms int) (*benchScenario, error) {
	cfg := gen.Suite()[2] // D3
	if e.Quick {
		cfg.Gates, cfg.FFs = cfg.Gates/4, cfg.FFs/4
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(d)
	if err != nil {
		return nil, err
	}
	sc := &benchScenario{d: d, g: g, cfg: sta.DefaultConfig(), opt: core.DefaultOptions()}
	m0, err := core.CalibrateWithSession(context.Background(), engine.NewSession(g), sc.cfg, sc.opt)
	if err != nil {
		return nil, err
	}
	if len(m0.Selection.Paths) == 0 {
		return nil, fmt.Errorf("expt: bench design has no violated paths")
	}
	sc.warm = m0.Weights
	m0.MGBA.Release()
	if m0.GBA != m0.MGBA {
		m0.GBA.Release()
	}

	// Age the design: upsize distinct gates along the selected paths, worst
	// first, recording the dirty set the closure flow would hand to
	// Recalibrate (gate + its input-net drivers).
	seen := make(map[int]bool)
	note := func(id int) {
		if !seen[id] {
			seen[id] = true
			sc.dirty = append(sc.dirty, id)
		}
	}
	resized := 0
	for _, p := range m0.Selection.Paths {
		if resized == transforms {
			break
		}
		for _, id := range p.Cells {
			if resized == transforms {
				break
			}
			inst := d.Instances[id]
			if seen[id] || inst.IsFF() {
				continue
			}
			to := d.Lib.Upsize(inst.Cell)
			if to == nil {
				continue
			}
			if err := d.Resize(inst, to); err != nil {
				continue
			}
			resized++
			note(id)
			for _, nid := range inst.Inputs {
				if drv := d.Nets[nid].Driver; drv >= 0 && !g.IsClock(drv) {
					note(drv)
				}
			}
		}
	}
	if resized == 0 {
		return nil, fmt.Errorf("expt: no gate on the bench selection could be upsized")
	}
	for _, ffID := range g.D.FFs {
		if len(g.Fanin(ffID)) > 0 {
			sc.eps++
		}
	}
	return sc, nil
}

// BenchCalibration measures cold versus incremental recalibration after a
// batch of sizing transforms on the D3 stand-in (the tentpole claim of the
// incremental calibrator: same bits, a fraction of the work).
func BenchCalibration(e *Env) (*report.Table, *CalibBench, error) {
	transforms := 150
	if e.Quick {
		transforms = 40
	}
	e.logf("bench: building scenario (D3, %d transforms)...\n", transforms)
	sc, err := newBenchScenario(e, transforms)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()

	// Cold: a calibration carrying no prior information — full serial
	// enumeration, full CSR assembly, solve from dx0 = 0 — which is what
	// every recalibration costs without the persistent calibrator.
	coldSess := engine.NewSession(sc.g)
	e.logf("bench: timing cold calibration...\n")
	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := core.CalibrateWithSession(ctx, coldSess, sc.cfg, sc.opt)
			if err != nil {
				b.Fatal(err)
			}
			m.MGBA.Release()
			if m.GBA != m.MGBA {
				m.GBA.Release()
			}
		}
	})

	// Warm-started cold: the same full pipeline seeded with the previous
	// calibration's weights, the closure flow's pre-tentpole behavior at a
	// recalibration event. Reported alongside so the warm start's share of
	// the win is visible.
	warmOpt := sc.opt
	warmOpt.WarmWeights = sc.warm
	e.logf("bench: timing warm-started cold calibration...\n")
	warm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := core.CalibrateWithSession(ctx, coldSess, sc.cfg, warmOpt)
			if err != nil {
				b.Fatal(err)
			}
			m.MGBA.Release()
			if m.GBA != m.MGBA {
				m.GBA.Release()
			}
		}
	})

	// Incremental: a persistent calibrator over the same design state,
	// recalibrating from its cache and the dirty set, driven exactly as the
	// closure flow drives it — seeded once with the pre-transform weights,
	// then each re-solve warm-starts from the previous fit (the
	// calibrator's native chaining, which the flow reproduces by feeding
	// model.Weights back in).
	cal, err := core.NewCalibrator(engine.NewSession(sc.g), sc.cfg, sc.opt)
	if err != nil {
		return nil, nil, err
	}
	cal.SetWarmWeights(sc.warm)
	if _, err := cal.Calibrate(ctx); err != nil {
		return nil, nil, err
	}
	e.logf("bench: timing incremental recalibration...\n")
	incr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := cal.Recalibrate(ctx, sc.dirty)
			if err != nil {
				b.Fatal(err)
			}
			if m.GBA != m.MGBA {
				m.MGBA.Release()
			}
		}
	})
	st := cal.Stats()
	if st.Incremental == 0 {
		return nil, nil, fmt.Errorf("expt: benchmark never took the incremental path (stats %+v)", st)
	}

	res := &CalibBench{
		Design:       "D3",
		Gates:        len(sc.d.Instances),
		Endpoints:    sc.eps,
		Transforms:   transforms,
		ColdNsOp:     cold.NsPerOp(),
		ColdAllocsOp: cold.AllocsPerOp(),
		WarmNsOp:     warm.NsPerOp(),
		WarmAllocsOp: warm.AllocsPerOp(),
		IncrNsOp:     incr.NsPerOp(),
		IncrAllocsOp: incr.AllocsPerOp(),
		Reenumerated: st.EndpointsReenumerated / st.Incremental,
	}
	if res.IncrNsOp > 0 {
		res.Speedup = float64(res.ColdNsOp) / float64(res.IncrNsOp)
		res.SpeedupWarm = float64(res.WarmNsOp) / float64(res.IncrNsOp)
	}

	t := report.New(fmt.Sprintf("Calibration cost after %d sizing transforms (%s: %d gates, %d endpoints)",
		transforms, res.Design, res.Gates, res.Endpoints),
		"path", "ns/op", "allocs/op", "endpoints enumerated")
	t.AddRow("cold", fmt.Sprintf("%d", res.ColdNsOp), fmt.Sprintf("%d", res.ColdAllocsOp),
		fmt.Sprintf("%d", res.Endpoints))
	t.AddRow("cold, warm-started", fmt.Sprintf("%d", res.WarmNsOp), fmt.Sprintf("%d", res.WarmAllocsOp),
		fmt.Sprintf("%d", res.Endpoints))
	t.AddRow("incremental", fmt.Sprintf("%d", res.IncrNsOp), fmt.Sprintf("%d", res.IncrAllocsOp),
		fmt.Sprintf("%d", res.Reenumerated))
	t.AddNote("speedup vs cold: %.2fx (acceptance floor: 3x); vs warm-started cold: %.2fx",
		res.Speedup, res.SpeedupWarm)
	res.Mem = CaptureMem()
	return t, res, nil
}

// SolverBench is the machine-readable outcome of the solver-kernel
// benchmark: the cost of an SCGRS solve and of one fused
// Objective+Gradient evaluation at serial versus 8-worker parallelism on
// a calibration-scale system. It backs the BENCH_solver.json artifact.
type SolverBench struct {
	Design   string `json:"design"`
	BaseRows int    `json:"base_rows"` // rows of the real D3 system
	Tile     int    `json:"tile"`      // row-tiling factor of the benched system
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	NNZ      int    `json:"nnz"`

	// The parallel legs can only show wall-clock speedup when the host
	// actually has spare cores; results are bit-identical regardless.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`

	SCGRSSerialNsOp   int64   `json:"scgrs_serial_ns_per_op"`
	SCGRSSerialAllocs int64   `json:"scgrs_serial_allocs_per_op"`
	SCGRSPar8NsOp     int64   `json:"scgrs_par8_ns_per_op"`
	SCGRSPar8Allocs   int64   `json:"scgrs_par8_allocs_per_op"`
	SCGRSSpeedup      float64 `json:"scgrs_speedup_par8_vs_serial"`

	EvalSerialNsOp   int64   `json:"objgrad_serial_ns_per_op"`
	EvalSerialAllocs int64   `json:"objgrad_serial_allocs_per_op"`
	EvalPar8NsOp     int64   `json:"objgrad_par8_ns_per_op"`
	EvalPar8Allocs   int64   `json:"objgrad_par8_allocs_per_op"`
	EvalSpeedup      float64 `json:"objgrad_speedup_par8_vs_serial"`

	Note string `json:"note,omitempty"`

	Mem MemStats `json:"mem"`
}

// BenchSolver measures the Eq. (6) solver kernels on the D3 stand-in's
// calibration system, row-tiled up to the scale where the blocked
// parallel kernels engage (the real D3 system is below the nnz cutoff,
// where the kernels deliberately stay serial). Two claims are measured:
// the SCGRS solve cost at 1 versus 8 workers, and the allocation-free
// fused Objective+Gradient evaluation.
func BenchSolver(e *Env) (*report.Table, *SolverBench, error) {
	e.logf("benchsolver: building scenario (D3 calibration system)...\n")
	sc, err := newBenchScenario(e, 1)
	if err != nil {
		return nil, nil, err
	}
	m0, err := core.CalibrateWithSession(context.Background(), engine.NewSession(sc.g), sc.cfg, sc.opt)
	if err != nil {
		return nil, nil, err
	}
	m0.MGBA.Release()
	if m0.GBA != m0.MGBA {
		m0.GBA.Release()
	}
	base := m0.Problem
	if base == nil {
		return nil, nil, fmt.Errorf("expt: bench design produced no calibration system")
	}

	// Row-tile the real system until it crosses the parallel cutoff: the
	// tiled system keeps D3's exact per-row structure (path lengths, delay
	// magnitudes, guard bands) at the scale of a large design.
	tile := 1
	for base.A.NNZ()*tile < 4*(1<<15) {
		tile *= 2
	}
	sel := make([]int, 0, base.A.Rows()*tile)
	for t := 0; t < tile; t++ {
		for i := 0; i < base.A.Rows(); i++ {
			sel = append(sel, i)
		}
	}
	p := base.SubProblem(sel)

	res := &SolverBench{
		Design:     "D3",
		BaseRows:   base.A.Rows(),
		Tile:       tile,
		Rows:       p.A.Rows(),
		Cols:       p.A.Cols(),
		NNZ:        p.A.NNZ(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if res.NumCPU < 8 {
		res.Note = fmt.Sprintf("host exposes only %d CPU(s): the 8-worker legs cannot show their "+
			"wall-clock speedup here, only that parallelism costs nothing and stays bit-identical", res.NumCPU)
	}

	opt := solver.DefaultOptions()
	bench := func(workers int) testing.BenchmarkResult {
		p.A.SetParallelism(workers)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.SCGRS(context.Background(), p, opt, rng.New(42)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	e.logf("benchsolver: timing SCGRS serial...\n")
	serial := bench(1)
	e.logf("benchsolver: timing SCGRS at 8 workers...\n")
	par8 := bench(8)

	x := make([]float64, p.A.Cols())
	g := make([]float64, p.A.Cols())
	evalBench := func(workers int) testing.BenchmarkResult {
		p.A.SetParallelism(workers)
		p.ObjectiveGradient(g, x) // warm the scratch outside the timed region
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ObjectiveGradient(g, x)
			}
		})
	}
	e.logf("benchsolver: timing fused Objective+Gradient...\n")
	evalSerial := evalBench(1)
	evalPar8 := evalBench(8)

	res.SCGRSSerialNsOp = serial.NsPerOp()
	res.SCGRSSerialAllocs = serial.AllocsPerOp()
	res.SCGRSPar8NsOp = par8.NsPerOp()
	res.SCGRSPar8Allocs = par8.AllocsPerOp()
	res.EvalSerialNsOp = evalSerial.NsPerOp()
	res.EvalSerialAllocs = evalSerial.AllocsPerOp()
	res.EvalPar8NsOp = evalPar8.NsPerOp()
	res.EvalPar8Allocs = evalPar8.AllocsPerOp()
	if res.SCGRSPar8NsOp > 0 {
		res.SCGRSSpeedup = float64(res.SCGRSSerialNsOp) / float64(res.SCGRSPar8NsOp)
	}
	if res.EvalPar8NsOp > 0 {
		res.EvalSpeedup = float64(res.EvalSerialNsOp) / float64(res.EvalPar8NsOp)
	}

	t := report.New(fmt.Sprintf("Eq. (6) solver kernels on the D3 system row-tiled x%d (%d x %d, %d nnz; GOMAXPROCS=%d)",
		res.Tile, res.Rows, res.Cols, res.NNZ, res.GOMAXPROCS),
		"kernel", "workers", "ns/op", "allocs/op")
	t.AddRow("SCGRS solve", "1", fmt.Sprintf("%d", res.SCGRSSerialNsOp), fmt.Sprintf("%d", res.SCGRSSerialAllocs))
	t.AddRow("SCGRS solve", "8", fmt.Sprintf("%d", res.SCGRSPar8NsOp), fmt.Sprintf("%d", res.SCGRSPar8Allocs))
	t.AddRow("Objective+Gradient (fused)", "1", fmt.Sprintf("%d", res.EvalSerialNsOp), fmt.Sprintf("%d", res.EvalSerialAllocs))
	t.AddRow("Objective+Gradient (fused)", "8", fmt.Sprintf("%d", res.EvalPar8NsOp), fmt.Sprintf("%d", res.EvalPar8Allocs))
	t.AddNote("SCGRS speedup 8w vs serial: %.2fx; fused eval: %.2fx (bit-identical results at every worker count)",
		res.SCGRSSpeedup, res.EvalSpeedup)
	if res.Note != "" {
		t.AddNote("%s", res.Note)
	}
	res.Mem = CaptureMem()
	return t, res, nil
}
