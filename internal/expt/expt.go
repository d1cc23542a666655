// Package expt defines one runnable experiment per table and figure of the
// paper's evaluation (plus the in-text §3.2 study), each regenerating the
// corresponding rows/series on the synthetic D1-D10 suite. cmd/experiments
// is a thin CLI over this package; the top-level bench harness wraps the
// same entry points in testing.B benchmarks.
package expt

import (
	"context"
	"fmt"
	"io"
	"math"

	"mgba/internal/aocv"
	"mgba/internal/closure"
	"mgba/internal/core"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/report"
	"mgba/internal/rng"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// Env carries the shared experiment environment: output sink, scaling, and
// caches so that Table 2 and Table 5 reuse the same closure runs.
type Env struct {
	Out   io.Writer
	Quick bool // shrink the suite for fast runs (tests, benchmarks)

	closureRuns map[string]*ClosureOutcome
}

// NewEnv creates an experiment environment writing progress to out.
func NewEnv(out io.Writer, quick bool) *Env {
	return &Env{Out: out, Quick: quick, closureRuns: map[string]*ClosureOutcome{}}
}

func (e *Env) logf(format string, args ...any) {
	if e.Out != nil {
		fmt.Fprintf(e.Out, format, args...)
	}
}

// SuiteConfigs returns the D1-D10 stand-in configurations, scaled down in
// Quick mode.
func (e *Env) SuiteConfigs() []gen.Config {
	suite := gen.Suite()
	if e.Quick {
		suite = suite[:3]
		for i := range suite {
			suite[i].Gates /= 4
			suite[i].FFs /= 4
		}
	}
	return suite
}

// ToyConfig returns the small §3.2 design.
func (e *Env) ToyConfig() gen.Config {
	cfg := gen.Toy()
	if e.Quick {
		cfg.Gates, cfg.FFs = cfg.Gates/2, cfg.FFs/2
	}
	return cfg
}

// buildToy generates the toy design and its baseline analysis.
func (e *Env) buildToy() (*graph.Graph, *sta.Result, *pba.Analyzer, error) {
	d, err := gen.Generate(e.ToyConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := graph.Build(d)
	if err != nil {
		return nil, nil, nil, err
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	return g, r, pba.NewAnalyzer(r), nil
}

// Table1 renders the derating lookup tables: the paper's exact Table 1 and
// a slice of the synthesized 16 nm table the suite runs on.
func Table1(e *Env) *report.Table {
	paper := aocv.PaperTable1()
	t := report.New("Table 1: AOCV derating lookup (paper example + synthesized 16nm late table)",
		"table", "distance", "d=3", "d=4", "d=5", "d=6", "d=8", "d=16")
	for di, dist := range paper.Distances {
		row := []string{"paper", report.F(dist*1000, 0) + " nm"}
		for _, depth := range []float64{3, 4, 5, 6} {
			row = append(row, report.F(paper.Values[di][0]*0+paper.Lookup(depth, dist), 2))
		}
		row = append(row, "-", "-")
		t.AddRow(row...)
	}
	synth := aocv.Default(16).Late
	for _, dist := range []float64{0.5, 5, 50} {
		row := []string{"16nm", report.F(dist*1000, 0) + " nm"}
		for _, depth := range []float64{3, 4, 5, 6, 8, 16} {
			row = append(row, report.F(synth.Lookup(depth, dist), 2))
		}
		t.AddRow(row...)
	}
	t.AddNote("derate decreases with cell depth (variation cancellation) and grows with distance")
	return t
}

// Fig2 reproduces the worked example of §2.2: GBA 740 ps vs PBA 690 ps on
// the Fig. 1/Fig. 2 circuit.
func Fig2(e *Env) (*report.Table, error) {
	d, info, cfg, err := fixtures.Fig2()
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(d)
	if err != nil {
		return nil, err
	}
	r := sta.Analyze(g, cfg)
	an := pba.NewAnalyzer(r)
	fi4 := g.FFIndex(info.FF4)
	p := an.WorstPath(fi4)
	if p == nil {
		return nil, fmt.Errorf("expt: no path at FF4")
	}
	tm := an.Retime(p)

	t := report.New("Fig. 2 worked example: cell depth and derate, GBA vs PBA (FF1->FF4 path)",
		"gate", "GBA depth", "GBA derate", "PBA depth", "PBA derate")
	dp := r.Depths
	for i, id := range info.Gates {
		t.AddRow(fmt.Sprintf("g%d", i+1),
			fmt.Sprintf("%d", dp.GBA[id]),
			report.F(r.Derate[id], 2),
			fmt.Sprintf("%d", tm.Depth),
			report.F(tm.LateDerate, 2))
	}
	t.AddNote("GBA path delay  = %s ps (paper Eq. 3: 740 ps)", report.F(p.GBAArrival, 0))
	t.AddNote("PBA path delay  = %s ps (paper Eq. 2: 690 ps)", report.F(tm.Arrival, 0))
	t.AddNote("pessimism gap   = %s ps", report.F(p.GBAArrival-tm.Arrival, 0))
	return t, nil
}

// Sec32 reproduces the in-text path-selection study of §3.2: fitting on
// (a) every violated path, (b) the global worst-m' subset, and (c) the
// per-endpoint top-k' subset, always evaluating the error phi of Eq. (10)
// and the gate coverage against the full violated population.
func Sec32(e *Env) (*report.Table, error) {
	g, r, an, err := e.buildToy()
	if err != nil {
		return nil, err
	}
	// One shared enumeration of the violated population; the three selection
	// schemes are cheap views over it rather than three k-worst searches.
	pop := pathsel.Enumerate(an, 2000)
	all := pop.All()
	if len(all.Paths) == 0 {
		return nil, fmt.Errorf("expt: toy design has no violated paths")
	}
	allTimings := make([]*pba.Timing, len(all.Paths))
	golden := make([]float64, len(all.Paths))
	for i, p := range all.Paths {
		allTimings[i] = an.Retime(p)
		golden[i] = allTimings[i].Slack
	}

	perEp := pop.TopK(20, 0)
	budget := len(perEp.Paths)
	global := pop.GlobalTopM(budget)

	t := report.New(fmt.Sprintf("Sec 3.2 path-selection study (toy: %d violated paths, %d gates in population)",
		len(all.Paths), len(all.CellSet())),
		"scheme", "paths fitted", "gate coverage (%)", "phi on all violated (%)")
	for _, sc := range []*pathsel.Selection{all, global, perEp} {
		model, err := fitOn(g, sc)
		if err != nil {
			return nil, err
		}
		fitted := make([]float64, len(all.Paths))
		for i, p := range all.Paths {
			fitted[i] = core.PathSlackWithWeights(r, an, p, model.Weights)
		}
		phi := core.Compare(fitted, golden, 0.02).Phi
		t.AddRow(sc.Scheme,
			fmt.Sprintf("%d", len(sc.Paths)),
			report.Pct(sc.Coverage(all), 2),
			report.Pct(phi, 2))
	}
	t.AddNote("paper: full solve phi=4.1%%; global top-m phi=72.4%% at 47.5%% coverage; per-endpoint k'=20 phi=5.1%% at 95.3%% coverage")
	return t, nil
}

// fitOn calibrates weights against an explicit path selection.
func fitOn(g *graph.Graph, sel *pathsel.Selection) (*core.Model, error) {
	opt := core.DefaultOptions()
	opt.Method = core.MethodSCGRS
	// Calibrate selects per-endpoint internally; to fit on an arbitrary
	// selection the experiment builds the model manually through the same
	// pipeline, reusing Calibrate by substituting the selection afterwards
	// would skew results. Instead we re-run the core pipeline pieces here.
	return core.CalibrateOnSelection(context.Background(), g, sta.DefaultConfig(), opt, sel)
}

// Fig3 reproduces the sparsity histogram of the optimal correction vector:
// the text rendering plus the headline fraction near zero.
func Fig3(e *Env) (string, *core.Model, error) {
	g, _, _, err := e.buildToy()
	if err != nil {
		return "", nil, err
	}
	opt := core.DefaultOptions()
	opt.Method = core.MethodSCGRS
	m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), opt)
	if err != nil {
		return "", nil, err
	}
	h := m.CorrectionHistogram(0.25, 25)
	s := report.Histogram("Fig. 3: distribution of the optimal correction x* (toy design)", h, 48)
	s += fmt.Sprintf("\nfraction within [-0.01, 0.01]: %s%% (paper: 95.9%%)\n",
		report.Pct(m.SparsityFraction(0.01), 1))
	return s, m, nil
}

// Fig4 reproduces the accuracy-vs-sampled-rows curve: the quality of the
// solution fitted on a uniformly sampled row subset, measured (like every
// accuracy number in the paper) against golden PBA over the *whole*
// selected-path population, as the row count doubles per Algorithm 1's
// schedule. The rank-deficient systems admit many equal-quality solutions,
// so quality is what converges, not the coordinates of x.
func Fig4(e *Env) (*report.Table, error) {
	g, r0, an, err := e.buildToy()
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions()
	opt.Method = core.MethodFull
	m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), opt)
	if err != nil {
		return nil, err
	}
	if m.Problem == nil {
		return nil, fmt.Errorf("expt: toy produced no problem")
	}
	golden, err := m.PathSlacks("golden")
	if err != nil {
		return nil, err
	}
	phiAt := func(x []float64) float64 {
		// Translate the correction into weights and evaluate every
		// selected path.
		weights := make([]float64, len(g.D.Instances))
		for i := range weights {
			weights[i] = 1
		}
		for k, c := range m.Columns {
			weights[c] = 1 + x[k]
		}
		fitted := make([]float64, len(m.Selection.Paths))
		for i, p := range m.Selection.Paths {
			fitted[i] = core.PathSlackWithWeights(r0, an, p, weights)
		}
		return core.Compare(fitted, golden, opt.Epsilon).Phi
	}
	floor := phiAt(m.Correction)

	t := report.New("Fig. 4: fit accuracy vs number of sampled rows (toy design)",
		"rows sampled", "of total (%)", "phi on all selected paths (%)")
	r := rng.New(909)
	total := m.Problem.A.Rows()
	sopt := solver.DefaultOptions()
	for rows := 64; ; rows *= 2 {
		if rows > total {
			rows = total
		}
		sel := r.SampleWithoutReplacement(total, rows)
		sub := m.Problem.SubProblem(sel)
		x, _, err := solver.SCG(context.Background(), sub, sopt, rng.New(17))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", rows),
			report.Pct(float64(rows)/float64(total), 1),
			report.Pct(phiAt(x), 2))
		if rows == total {
			break
		}
	}
	t.AddNote("exact full-system solve reaches phi = %s%%; the sampled curve converges sharply toward it (paper Fig. 4)",
		report.Pct(floor, 2))
	return t, nil
}

// SolverRow is one design's Table 4 measurement.
type SolverRow struct {
	Design   string
	Paths    int
	Accuracy map[core.Method]float64 // mse over selected paths
	Seconds  map[core.Method]float64 // solver wall-clock
	// Work is the matrix rows the calibration's solver attempts read
	// (solver.Stats.RowWork summed over the ladder): the solvers' cost as
	// counted work, free of the wall clock's noise.
	Work map[core.Method]int
}

// Table4 compares GD, SCG and SCG+RS on every suite design: modelling mse
// (Eq. 12) and solve time, with speedups normalized to GD.
func Table4(e *Env) (*report.Table, []SolverRow, error) {
	methods := []core.Method{core.MethodGD, core.MethodSCG, core.MethodSCGRS}
	t := report.New("Table 4: accuracy and speed of the optimization solvers",
		"design", "paths",
		"GD mse(1e-3)", "GD time(s)",
		"SCG mse(1e-3)", "SCG time(s)", "SCG speedup",
		"SCG+RS mse(1e-3)", "SCG+RS time(s)", "SCG+RS speedup")
	var rows []SolverRow
	sumAcc := map[core.Method]float64{}
	sumTime := map[core.Method]float64{}
	sumWork := map[core.Method]int{}
	n := 0
	for _, cfg := range e.SuiteConfigs() {
		// The analysis experiments use the uncapped constraint profile:
		// violations spread across the whole endpoint population, like the
		// paper's analysis tables. (The closure experiments keep the
		// fixability cap; see DESIGN.md.)
		cfg.DepthCap = 0
		d, err := gen.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		g, err := graph.Build(d)
		if err != nil {
			return nil, nil, err
		}
		row := SolverRow{Design: cfg.Name, Accuracy: map[core.Method]float64{},
			Seconds: map[core.Method]float64{}, Work: map[core.Method]int{}}
		for _, method := range methods {
			opt := core.DefaultOptions()
			opt.Method = method
			m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), opt)
			if err != nil {
				return nil, nil, err
			}
			mt, err := m.Evaluate("mgba")
			if err != nil {
				return nil, nil, err
			}
			row.Paths = mt.Paths
			row.Accuracy[method] = mt.MSE
			row.Seconds[method] = m.Stats.Elapsed.Seconds()
			for _, a := range m.Attempts {
				row.Work[method] += a.Stats.RowWork
			}
		}
		gd := row.Seconds[core.MethodGD]
		t.AddRow(cfg.Name, fmt.Sprintf("%d", row.Paths),
			report.F(row.Accuracy[core.MethodGD]*1e3, 3), report.F(gd, 3),
			report.F(row.Accuracy[core.MethodSCG]*1e3, 3), report.F(row.Seconds[core.MethodSCG], 3),
			report.F(gd/math.Max(row.Seconds[core.MethodSCG], 1e-9), 2),
			report.F(row.Accuracy[core.MethodSCGRS]*1e3, 3), report.F(row.Seconds[core.MethodSCGRS], 3),
			report.F(gd/math.Max(row.Seconds[core.MethodSCGRS], 1e-9), 2))
		rows = append(rows, row)
		for _, method := range methods {
			sumAcc[method] += row.Accuracy[method]
			sumTime[method] += row.Seconds[method]
			sumWork[method] += row.Work[method]
		}
		n++
		e.logf("table4: %s done\n", cfg.Name)
	}
	if n > 0 {
		gd := sumTime[core.MethodGD] / float64(n)
		t.AddRow("Avg.", "",
			report.F(sumAcc[core.MethodGD]/float64(n)*1e3, 3), report.F(gd, 3),
			report.F(sumAcc[core.MethodSCG]/float64(n)*1e3, 3), report.F(sumTime[core.MethodSCG]/float64(n), 3),
			report.F(gd/math.Max(sumTime[core.MethodSCG]/float64(n), 1e-9), 2),
			report.F(sumAcc[core.MethodSCGRS]/float64(n)*1e3, 3), report.F(sumTime[core.MethodSCGRS]/float64(n), 3),
			report.F(gd/math.Max(sumTime[core.MethodSCGRS]/float64(n), 1e-9), 2))
	}
	if n > 0 {
		gd := float64(sumWork[core.MethodGD])
		t.AddNote("counted work, matrix rows read over the suite: GD %d, SCG %d (%sx less), SCG+RS %d (%sx less)",
			sumWork[core.MethodGD],
			sumWork[core.MethodSCG], report.F(gd/math.Max(float64(sumWork[core.MethodSCG]), 1), 2),
			sumWork[core.MethodSCGRS], report.F(gd/math.Max(float64(sumWork[core.MethodSCGRS]), 1), 2))
	}
	t.AddNote("paper averages: GD 2.97e-3 @1.00x, SCG 2.45e-3 @2.71x, SCG+RS 1.99e-3 @13.82x")
	return t, rows, nil
}

// Table4Scaling is a supplementary study of the row-sampling regime: the
// paper's 5.1x gain of SCG+RS over plain SCG materializes when the path
// count m dwarfs the gate count n (their designs: m up to 3.5M rows). The
// suite designs sit at m/n of only 1-3, so this experiment sweeps k' to
// grow m on a fixed design and reports how the solvers scale.
func Table4Scaling(e *Env) (*report.Table, error) {
	cfg := e.SuiteConfigs()[1] // the largest design
	cfg.DepthCap = 0
	ks := []int{20, 80, 320}
	if e.Quick {
		ks = []int{10, 40}
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(d)
	if err != nil {
		return nil, err
	}
	t := report.New("Table 4 supplement: solver scaling with the selected-path count (design "+cfg.Name+")",
		"k'", "rows m", "cols n", "m/n", "GD time(s)", "SCG time(s)", "SCG+RS time(s)", "RS vs SCG")
	for _, k := range ks {
		opt := core.DefaultOptions()
		opt.K = k
		opt.Method = core.MethodSCGRS
		m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), opt)
		if err != nil {
			return nil, err
		}
		if m.Problem == nil {
			continue
		}
		p := m.Problem
		_, gdStats, err := solver.GD(context.Background(), p, solver.DefaultOptions())
		if err != nil {
			return nil, err
		}
		_, scgStats, err := solver.SCG(context.Background(), p, solver.DefaultOptions(), rng.New(5))
		if err != nil {
			return nil, err
		}
		_, rsStats, err := solver.SCGRS(context.Background(), p, solver.DefaultOptions(), rng.New(5))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", p.A.Rows()),
			fmt.Sprintf("%d", p.A.Cols()),
			report.F(float64(p.A.Rows())/float64(p.A.Cols()), 1),
			report.F(gdStats.Elapsed.Seconds(), 3),
			report.F(scgStats.Elapsed.Seconds(), 3),
			report.F(rsStats.Elapsed.Seconds(), 3),
			report.F(scgStats.Elapsed.Seconds()/rsStats.Elapsed.Seconds(), 2))
		e.logf("table4x: k'=%d done\n", k)
	}
	t.AddNote("GD scales with m per iteration; the sampled solvers decouple from m, which is the paper's point")
	return t, nil
}

// PassRow is one design's Table 3 measurement.
type PassRow struct {
	Design            string
	Paths             int
	GBAPass, MGBAPass float64
}

// Table3 compares the pass ratio (5% / 5 ps criterion against golden PBA)
// of original GBA and calibrated mGBA over the selected paths.
func Table3(e *Env) (*report.Table, []PassRow, error) {
	t := report.New("Table 3: pass ratio of GBA vs mGBA (golden: PBA; pass = within 5% or 5 ps)",
		"design", "selected paths", "GBA (%)", "mGBA (%)", "improvement (pts)")
	var rows []PassRow
	var sumG, sumM float64
	var sumPaths int
	for _, cfg := range e.SuiteConfigs() {
		cfg.DepthCap = 0 // analysis profile: violations span the population
		d, err := gen.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		g, err := graph.Build(d)
		if err != nil {
			return nil, nil, err
		}
		opt := core.DefaultOptions()
		opt.Method = core.MethodSCGRS
		m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), opt)
		if err != nil {
			return nil, nil, err
		}
		gbaM, err := m.Evaluate("cheap")
		if err != nil {
			return nil, nil, err
		}
		mgbaM, err := m.Evaluate("mgba")
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, PassRow{cfg.Name, gbaM.Paths, gbaM.PassRatio, mgbaM.PassRatio})
		t.AddRow(cfg.Name, fmt.Sprintf("%d", gbaM.Paths),
			report.Pct(gbaM.PassRatio, 2), report.Pct(mgbaM.PassRatio, 2),
			report.Pct(mgbaM.PassRatio-gbaM.PassRatio, 2))
		sumG += gbaM.PassRatio
		sumM += mgbaM.PassRatio
		sumPaths += gbaM.Paths
		e.logf("table3: %s done\n", cfg.Name)
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		t.AddRow("Avg.", fmt.Sprintf("%d", sumPaths/len(rows)),
			report.Pct(sumG/n, 2), report.Pct(sumM/n, 2), report.Pct((sumM-sumG)/n, 2))
	}
	t.AddNote("paper averages: GBA 51.57%%, mGBA 95.36%%, improvement 43.79 pts; no design regresses")
	return t, rows, nil
}

// ClosureOutcome bundles the two flow runs of one design for Tables 2 & 5.
type ClosureOutcome struct {
	Design     string
	GBA, MGBA  *closure.Result
	BeforeArea float64
	BeforeLeak float64
}

// runClosure executes (and caches) both flow variants on a design.
func (e *Env) runClosure(cfg gen.Config) (*ClosureOutcome, error) {
	if out, ok := e.closureRuns[cfg.Name]; ok {
		return out, nil
	}
	out := &ClosureOutcome{Design: cfg.Name}
	for _, timer := range []closure.TimerKind{closure.TimerGBA, closure.TimerMGBA} {
		d, err := gen.Generate(cfg) // same seed: identical starting design
		if err != nil {
			return nil, err
		}
		if timer == closure.TimerGBA {
			out.BeforeArea = d.Area()
			out.BeforeLeak = d.Leakage()
		}
		res, err := closure.Optimize(d, closure.DefaultOptions(timer))
		if err != nil {
			return nil, err
		}
		if timer == closure.TimerGBA {
			out.GBA = res
		} else {
			out.MGBA = res
		}
	}
	e.closureRuns[cfg.Name] = out
	e.logf("closure: %s done\n", cfg.Name)
	return out, nil
}

// improvement returns (gba-mgba)/gba as a percentage: positive means the
// mGBA flow used less of the resource.
func improvement(gba, mgba float64) float64 {
	if gba == 0 {
		return 0
	}
	return (gba - mgba) / math.Abs(gba) * 100
}

// slackImprovement returns the sign-off slack improvement percentage in
// the paper's convention: positive when mGBA's final slack is better.
func slackImprovement(gba, mgba float64) float64 {
	if gba == mgba {
		return 0
	}
	base := math.Abs(gba)
	if base == 0 {
		base = math.Abs(mgba)
	}
	return (mgba - gba) / base * 100
}

// Table2 compares the final QoR of the GBA-embedded and mGBA-embedded
// closure flows.
func Table2(e *Env) (*report.Table, []*ClosureOutcome, error) {
	t := report.New("Table 2: QoR improvement of the mGBA-embedded flow over the GBA-embedded flow",
		"design", "WNS (%)", "TNS (%)", "area (%)", "leakage (%)", "buffer (%)", "fixes (%)")
	var outs []*ClosureOutcome
	var sum [6]float64
	for _, cfg := range e.SuiteConfigs() {
		out, err := e.runClosure(cfg)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		vals := [6]float64{
			slackImprovement(out.GBA.SignoffWNS, out.MGBA.SignoffWNS),
			slackImprovement(out.GBA.SignoffTNS, out.MGBA.SignoffTNS),
			improvement(out.GBA.Area, out.MGBA.Area),
			improvement(out.GBA.Leakage, out.MGBA.Leakage),
			improvement(float64(out.GBA.Buffers), float64(out.MGBA.Buffers)),
			improvement(float64(out.GBA.Upsized+out.GBA.BuffersAdded),
				float64(out.MGBA.Upsized+out.MGBA.BuffersAdded)),
		}
		t.AddRow(out.Design,
			report.F(vals[0], 2), report.F(vals[1], 2), report.F(vals[2], 2),
			report.F(vals[3], 2), report.F(vals[4], 2), report.F(vals[5], 2))
		for i := range sum {
			sum[i] += vals[i]
		}
	}
	if len(outs) > 0 {
		n := float64(len(outs))
		t.AddRow("Avg.", report.F(sum[0]/n, 2), report.F(sum[1]/n, 2),
			report.F(sum[2]/n, 2), report.F(sum[3]/n, 2), report.F(sum[4]/n, 2),
			report.F(sum[5]/n, 2))
	}
	t.AddNote("positive = mGBA flow better; paper averages: WNS 1.20, TNS 0.65, area 5.58, leakage 14.77, buffer 4.84")
	t.AddNote("WNS/TNS measured at PBA sign-off for both flows; 'fixes' counts accepted timing repairs,")
	t.AddNote("the over-design mechanism behind the paper's area/leakage gains")
	return t, outs, nil
}

// Table5 compares end-to-end flow runtimes, decomposing the mGBA flow into
// post-route optimization and calibration time.
func Table5(e *Env) (*report.Table, error) {
	t := report.New("Table 5: runtime (s) of the closure flow with GBA and with mGBA embedded",
		"design", "GBA flow", "mGBA post-route", "mGBA calib", "mGBA total", "speedup")
	var sumG, sumP, sumC, sumT float64
	n := 0
	for _, cfg := range e.SuiteConfigs() {
		out, err := e.runClosure(cfg)
		if err != nil {
			return nil, err
		}
		gba := out.GBA.Elapsed.Seconds()
		calib := out.MGBA.CalibElapsed.Seconds()
		post := out.MGBA.Elapsed.Seconds() - calib
		total := out.MGBA.Elapsed.Seconds()
		t.AddRow(out.Design, report.F(gba, 3), report.F(post, 3), report.F(calib, 3),
			report.F(total, 3), report.F(gba/math.Max(total, 1e-9), 2))
		sumG += gba
		sumP += post
		sumC += calib
		sumT += total
		n++
	}
	if n > 0 {
		t.AddRow("Avg.", report.F(sumG/float64(n), 3), report.F(sumP/float64(n), 3),
			report.F(sumC/float64(n), 3), report.F(sumT/float64(n), 3),
			report.F(sumG/math.Max(sumT, 1e-9), 2))
	}
	t.AddNote("paper average speedup: 1.21x; at laptop scale the calibration is not amortized the way")
	t.AddNote("it is on >100M-path industrial designs, so compare the post-route column against the GBA flow")
	return t, nil
}
