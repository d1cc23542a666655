// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (run the full regeneration via cmd/experiments;
// these measure the cost of each experiment's computational core), plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
package mgba_test

import (
	"context"
	"fmt"
	"testing"

	"mgba/internal/aocv"
	"mgba/internal/closure"
	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/rng"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// benchDesign generates a mid-sized cone design once per benchmark binary.
func benchDesign(b *testing.B) *graph.Graph {
	b.Helper()
	cfg := gen.Suite()[2] // D3
	cfg.Gates, cfg.FFs = cfg.Gates/2, cfg.FFs/2
	d, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchProblem assembles the calibration problem of the bench design.
func benchProblem(b *testing.B) *solver.Problem {
	b.Helper()
	g := benchDesign(b)
	opt := core.DefaultOptions()
	opt.Method = core.MethodSCGRS
	m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), opt)
	if err != nil {
		b.Fatal(err)
	}
	if m.Problem == nil {
		b.Fatal("no violated paths in bench design")
	}
	return m.Problem
}

// E-T1: the AOCV derating lookup behind Table 1.
func BenchmarkTable1Lookup(b *testing.B) {
	set := aocv.Default(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = set.Late.Lookup(float64(i%48)+1, float64(i%700))
	}
}

// E-F2: the Fig. 2 worked example — build, analyze, enumerate and retime.
func BenchmarkFig2DepthGap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, info, cfg, err := fixtures.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		g, err := graph.Build(d)
		if err != nil {
			b.Fatal(err)
		}
		r := sta.Analyze(g, cfg)
		an := pba.NewAnalyzer(r)
		p := an.WorstPath(g.FFIndex(info.FF4))
		if tm := an.Retime(p); tm.Arrival < 689.99 || tm.Arrival > 690.01 {
			b.Fatalf("worked example drifted: %v", tm.Arrival)
		}
	}
}

// E-S32: the two path-selection schemes of §3.2 under the same budget.
func BenchmarkPathSelectionPerEndpoint(b *testing.B) {
	g := benchDesign(b)
	an := pba.NewAnalyzer(sta.Analyze(g, sta.DefaultConfig()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pathsel.PerEndpointTopK(an, 20, 0)
	}
}

func BenchmarkPathSelectionGlobal(b *testing.B) {
	g := benchDesign(b)
	an := pba.NewAnalyzer(sta.Analyze(g, sta.DefaultConfig()))
	budget := len(pathsel.PerEndpointTopK(an, 20, 0).Paths)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pathsel.GlobalTopM(an, budget, 500)
	}
}

// E-F3: the exact solve that produces the Fig. 3 sparsity histogram.
func BenchmarkFig3FullSolve(b *testing.B) {
	p := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.FullSolve(context.Background(), p, 8, 300, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F4: one point of the Fig. 4 sweep — solve a uniformly sampled subset.
func BenchmarkFig4RowSweep(b *testing.B) {
	p := benchProblem(b)
	r := rng.New(7)
	rows := p.A.Rows() / 4
	if rows < 64 {
		rows = 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := r.SampleWithoutReplacement(p.A.Rows(), rows)
		sub := p.SubProblem(sel)
		if _, _, err := solver.SCG(context.Background(), sub, solver.DefaultOptions(), rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// E-T4: the three solvers of Table 4 on the same calibration problem.
func BenchmarkTable4GD(b *testing.B) {
	p := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.GD(context.Background(), p, solver.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4SCG(b *testing.B) {
	p := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.SCG(context.Background(), p, solver.DefaultOptions(), rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4SCGRS(b *testing.B) {
	p := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.SCGRS(context.Background(), p, solver.DefaultOptions(), rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// E-T3: the full calibration + pass-ratio evaluation behind Table 3.
func BenchmarkTable3PassRatio(b *testing.B) {
	g := benchDesign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Evaluate("mgba"); err != nil {
			b.Fatal(err)
		}
	}
}

// E-T2 / E-T5: the two closure flows behind Tables 2 and 5.
func BenchmarkTable2ClosureGBA(b *testing.B) {
	benchClosure(b, closure.TimerGBA)
}

func BenchmarkTable2ClosureMGBA(b *testing.B) {
	benchClosure(b, closure.TimerMGBA)
}

func benchClosure(b *testing.B, timer closure.TimerKind) {
	b.Helper()
	cfg := gen.Suite()[2]
	cfg.Gates, cfg.FFs = cfg.Gates/2, cfg.FFs/2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := gen.Generate(cfg) // fresh design: Optimize mutates it
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := closure.Optimize(d, closure.DefaultOptions(timer)); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: Eq. (11) norm-proportional vs uniform row sampling inside SCG.
func BenchmarkSCGRowProbabilityNorm(b *testing.B) {
	benchSCGSampling(b, false)
}

func BenchmarkSCGRowProbabilityUniform(b *testing.B) {
	benchSCGSampling(b, true)
}

func benchSCGSampling(b *testing.B, uniform bool) {
	b.Helper()
	p := benchProblem(b)
	opt := solver.DefaultOptions()
	opt.UniformRowSampling = uniform
	var obj float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := solver.SCG(context.Background(), p, opt, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		obj += st.Objective
	}
	b.ReportMetric(obj/float64(b.N), "objective/op")
}

// Ablation: Algorithm 1's doubling schedule vs one oversized sample.
func BenchmarkDoublingVsOneShot(b *testing.B) {
	p := benchProblem(b)
	b.Run("doubling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SCGRS(context.Background(), p, solver.DefaultOptions(), rng.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		opt := solver.DefaultOptions()
		opt.MinRows = p.A.Rows() // first round solves the full system
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SCGRS(context.Background(), p, opt, rng.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: penalty weight of Eq. (6) vs solve cost.
func BenchmarkPenaltySweep(b *testing.B) {
	base := benchProblem(b)
	for _, pen := range []float64{0, 10, 100, 1000} {
		p := *base
		p.Penalty = pen
		b.Run(penaltyName(pen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.SCGRS(context.Background(), &p, solver.DefaultOptions(), rng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func penaltyName(p float64) string {
	switch p {
	case 0:
		return "w0"
	case 10:
		return "w10"
	case 100:
		return "w100"
	default:
		return "w1000"
	}
}

// Ablation: incremental timing update vs full re-analysis after a resize —
// the mechanism that makes the closure loop affordable (§3.4).
func BenchmarkIncrementalUpdate(b *testing.B) {
	g := benchDesign(b)
	cfg := sta.DefaultConfig()
	r := sta.Analyze(g, cfg)
	// Pick a combinational gate with an upsize available.
	var target int = -1
	for _, v := range g.Topo {
		in := g.D.Instances[v]
		if !in.IsFF() && g.D.Lib.Upsize(in.Cell) != nil {
			target = int(v)
			break
		}
	}
	if target < 0 {
		b.Fatal("no resizable gate")
	}
	inst := g.D.Instances[target]
	up := g.D.Lib.Upsize(inst.Cell)
	down := inst.Cell
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				g.D.Resize(inst, up)
			} else {
				g.D.Resize(inst, down)
			}
			r.Update([]int{target})
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				g.D.Resize(inst, up)
			} else {
				g.D.Resize(inst, down)
			}
			r = sta.Analyze(g, cfg)
		}
	})
}

// recalibrateFixture cold-calibrates the bench design, then ages it by a
// batch of accepted upsizes along the selected paths, mirroring what the
// closure flow's repair phase does between calibrations. It returns the
// graph, the pre-transform weights and the dirty set a recalibration gets.
func recalibrateFixture(b *testing.B) (*graph.Graph, []float64, []int) {
	b.Helper()
	g := benchDesign(b)
	m0, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if len(m0.Selection.Paths) == 0 {
		b.Fatal("no violated paths in bench design")
	}
	warm := m0.Weights
	d := g.D
	seen := make(map[int]bool)
	var dirty []int
	note := func(id int) {
		if !seen[id] {
			seen[id] = true
			dirty = append(dirty, id)
		}
	}
	resized := 0
	for _, p := range m0.Selection.Paths {
		if resized == 60 {
			break
		}
		for _, id := range p.Cells {
			if resized == 60 {
				break
			}
			inst := d.Instances[id]
			if seen[id] || inst.IsFF() {
				continue
			}
			to := d.Lib.Upsize(inst.Cell)
			if to == nil || d.Resize(inst, to) != nil {
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
		b.Fatal("no gate on the bench selection could be upsized")
	}
	return g, warm, dirty
}

// BenchmarkRecalibrateCold: the full calibration pipeline — serial
// enumeration, full CSR assembly, solve from dx0 = 0 — re-run from
// scratch against the aged design, which is what every recalibration
// costs without the persistent Calibrator.
func BenchmarkRecalibrateCold(b *testing.B) {
	g, _, _ := recalibrateFixture(b)
	sess := engine.NewSession(g)
	cfg, opt := sta.DefaultConfig(), core.DefaultOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.CalibrateWithSession(ctx, sess, cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		m.MGBA.Release()
		if m.GBA != m.MGBA {
			m.GBA.Release()
		}
	}
}

// BenchmarkRecalibrateIncremental: the persistent Calibrator recalibrating
// the same aged state from its cache and the dirty set, re-solving from
// the previous fit — the tentpole claim of the incremental session.
func BenchmarkRecalibrateIncremental(b *testing.B) {
	g, warm, dirty := recalibrateFixture(b)
	cal, err := core.NewCalibrator(engine.NewSession(g), sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cal.SetWarmWeights(warm)
	ctx := context.Background()
	if _, err := cal.Calibrate(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cal.Recalibrate(ctx, dirty)
		if err != nil {
			b.Fatal(err)
		}
		if m.GBA != m.MGBA {
			m.MGBA.Release()
		}
	}
	if cal.Stats().Incremental == 0 {
		b.Fatal("benchmark never took the incremental path")
	}
}

// benchBigProblem row-tiles the bench calibration system until it crosses
// the solver kernels' parallel cutoff, so the blocked paths are what gets
// measured (the raw bench system is deliberately below the cutoff, where
// the kernels stay serial).
func benchBigProblem(b *testing.B) *solver.Problem {
	b.Helper()
	base := benchProblem(b)
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
	return base.SubProblem(sel)
}

// d3WarmProblem returns D3's own calibration system and its cold fit: a
// warm solve from that fit has the shape of the incremental solves the
// closure flow runs on D3 (a few hundred rows of about 14 entries over
// about a hundred columns).
func d3WarmProblem(b *testing.B) (*solver.Problem, []float64) {
	b.Helper()
	d, err := gen.Generate(gen.Suite()[2])
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if m.Problem == nil {
		b.Fatal("no violated paths on D3")
	}
	return m.Problem, m.Correction
}

// PR4: the Eq. (6) solve on a calibration-scale system at serial versus
// 8-worker kernels. Results are bit-identical across the legs; the delta
// is pure wall-clock. d3-warm is one warm solve on D3's own system,
// seeded from its cold fit with calibration's default options and seed;
// iters/op is its SCG step count, the same on every run.
func BenchmarkSolverSCGRS(b *testing.B) {
	p := benchBigProblem(b)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
			p.A.SetParallelism(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.SCGRS(context.Background(), p, solver.DefaultOptions(), rng.New(42)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("d3-warm", func(b *testing.B) {
		p, x0 := d3WarmProblem(b)
		opt := core.DefaultOptions()
		opt.Solver.X0 = x0
		var st solver.Stats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if _, st, err = solver.SCGRS(context.Background(), p, opt.Solver, rng.New(opt.Seed)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Iters), "iters/op")
	})
}

// PR4: the fused one-pass Objective+Gradient kernel — the steady-state
// inner loop of GD — which must run allocation-free once the Problem
// scratch is warm.
func BenchmarkSolverObjectiveGradient(b *testing.B) {
	p := benchBigProblem(b)
	x := make([]float64, p.A.Cols())
	g := make([]float64, p.A.Cols())
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
			p.A.SetParallelism(workers)
			p.ObjectiveGradient(g, x) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ObjectiveGradient(g, x)
			}
		})
	}
}
