package core_test

import (
	"context"
	"math"
	"testing"

	"mgba/internal/core"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/sta"
)

// fig2Violating returns the Fig. 2 fixture squeezed to a 600 ps period so
// its paths violate and enter calibration.
func fig2Violating(t *testing.T) (*graph.Graph, sta.Config) {
	t.Helper()
	d, _, cfg, err := fixtures.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	d.ClockPeriod = 600
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return g, cfg
}

func smallDesign(t *testing.T) (*graph.Graph, sta.Config) {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 500, 70
	cfg.Name = "core-small"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return g, sta.DefaultConfig()
}

func TestCalibrateFig2ExactFit(t *testing.T) {
	g, cfg := fig2Violating(t)
	opt := core.DefaultOptions()
	opt.Method = core.MethodFull
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Selection.Paths) == 0 {
		t.Fatal("no paths selected on a violating design")
	}
	mgba, err := m.PathSlacks("mgba")
	if err != nil {
		t.Fatal(err)
	}
	pbaS, err := m.PathSlacks("golden")
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 2 system is underdetermined: the exact solver must fit every
	// selected path essentially perfectly.
	for i := range mgba {
		if math.Abs(mgba[i]-pbaS[i]) > 0.5 {
			t.Fatalf("path %d: mgba slack %v vs pba %v", i, mgba[i], pbaS[i])
		}
	}
	// And the mGBA-timed graph recovers the 690 ps PBA arrival at FF4
	// instead of GBA's 740 ps.
	worst := math.Inf(1)
	for fi, s := range m.MGBA.Slack {
		if s < worst {
			worst = s
			_ = fi
		}
	}
	wantWorst := 600 - 690 - g.D.Instances[g.D.FFs[0]].Cell.Setup
	if math.Abs(worst-wantWorst) > 1.0 {
		t.Fatalf("mGBA worst endpoint slack = %v, want ~%v", worst, wantWorst)
	}
}

func TestCalibrateImprovesPassRatio(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	opt.Method = core.MethodSCGRS
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	gbaM, err := m.Evaluate("cheap")
	if err != nil {
		t.Fatal(err)
	}
	mgbaM, err := m.Evaluate("mgba")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pass ratio: GBA %.2f%% -> mGBA %.2f%% over %d paths (mse %.4g -> %.4g)",
		gbaM.PassRatio*100, mgbaM.PassRatio*100, gbaM.Paths, gbaM.MSE, mgbaM.MSE)
	if mgbaM.PassRatio <= gbaM.PassRatio {
		t.Fatalf("mGBA pass ratio %.3f not above GBA %.3f", mgbaM.PassRatio, gbaM.PassRatio)
	}
	if mgbaM.MSE >= gbaM.MSE {
		t.Fatalf("mGBA mse %.4g not below GBA %.4g", mgbaM.MSE, gbaM.MSE)
	}
	if mgbaM.PassRatio < 0.6 {
		t.Fatalf("mGBA pass ratio %.3f too low", mgbaM.PassRatio)
	}
}

func TestOptimismBoundedByPenalty(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	opt.Method = core.MethodSCGRS
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := m.Evaluate("mgba")
	if err != nil {
		t.Fatal(err)
	}
	// The quadratic penalty is soft, so a few stragglers are acceptable —
	// but optimistic paths must stay a small minority.
	if frac := float64(mt.Optimism) / float64(mt.Paths); frac > 0.15 {
		t.Fatalf("%.1f%% of paths optimistic beyond tolerance", frac*100)
	}
	// GBA must never be optimistic at all: it is the pessimistic baseline.
	gbaMt, err := m.Evaluate("cheap")
	if err != nil {
		t.Fatal(err)
	}
	if gbaMt.Optimism != 0 {
		t.Fatalf("GBA reported %d optimistic paths", gbaMt.Optimism)
	}
}

func TestWeightsIdentityOffPath(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	onPath := m.Selection.CellSet()
	for _, in := range g.D.Instances {
		if !onPath[in.ID] && m.Weights[in.ID] != 1 {
			t.Fatalf("off-path instance %d has weight %v", in.ID, m.Weights[in.ID])
		}
	}
}

func TestWeightsClamped(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Weights {
		if w < opt.MinWeight-1e-12 || w > opt.MaxWeight+1e-12 {
			t.Fatalf("weight %v outside clamp", w)
		}
	}
}

func TestNoViolationsIdentityModel(t *testing.T) {
	// The Fig. 2 fixture at its default relaxed 1000 ps period has no
	// violated paths: calibration must degrade gracefully to unit weights.
	d, _, cfg, err := fixtures.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Selection.Paths) != 0 {
		t.Fatalf("selected %d paths with no violations", len(m.Selection.Paths))
	}
	for _, w := range m.Weights {
		if w != 1 {
			t.Fatal("non-unit weight without calibration paths")
		}
	}
	if m.MGBA != m.GBA {
		t.Fatal("identity model should reuse the GBA result")
	}
}

func TestSparsityOfCorrection(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	opt.Method = core.MethodSCGRS
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3's claim: the optimal correction is extremely sparse. Our
	// synthetic designs concentrate pessimism on a minority of gates too.
	frac := m.SparsityFraction(0.01)
	t.Logf("sparsity: %.1f%% of corrections within [-0.01, 0.01]", frac*100)
	if frac < 0.5 {
		t.Fatalf("correction not sparse: only %.1f%% near zero", frac*100)
	}
	h := m.CorrectionHistogram(0.25, 50)
	if h.Total() == 0 {
		t.Fatal("empty correction histogram")
	}
}

func TestPathSlacksKinds(t *testing.T) {
	g, cfg := fig2Violating(t)
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gba, err := m.PathSlacks("cheap")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Selection.Paths {
		if gba[i] != p.GBASlack {
			t.Fatal("gba slack mismatch")
		}
	}
	if _, err := m.PathSlacks("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCalibrateRejectsBadOptions(t *testing.T) {
	g, cfg := fig2Violating(t)
	opt := core.DefaultOptions()
	opt.K = 0
	if _, err := core.Calibrate(context.Background(), g, cfg, opt); err == nil {
		t.Fatal("K=0 accepted")
	}
	opt = core.DefaultOptions()
	opt.Epsilon = -1
	if _, err := core.Calibrate(context.Background(), g, cfg, opt); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	opt = core.DefaultOptions()
	opt.MinWeight = 0
	if _, err := core.Calibrate(context.Background(), g, cfg, opt); err == nil {
		t.Fatal("zero MinWeight accepted")
	}
	wcfg := cfg
	wcfg.Weights = make([]float64, len(g.D.Instances))
	if _, err := core.Calibrate(context.Background(), g, wcfg, core.DefaultOptions()); err == nil {
		t.Fatal("pre-weighted config accepted")
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	a, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("calibration not deterministic")
		}
	}
}

func TestCompareMetrics(t *testing.T) {
	model := []float64{-10, -20, -30}
	golden := []float64{-10, -20, -30}
	mt := core.Compare(model, golden, 0.02)
	if mt.PassRatio != 1 || mt.MSE != 0 || mt.Optimism != 0 {
		t.Fatalf("identical vectors: %+v", mt)
	}
	// 4 ps absolute error on a large slack passes (5 ps rule)...
	mt = core.Compare([]float64{-104}, []float64{-100}, 0.02)
	if mt.PassRatio != 1 {
		t.Fatalf("4ps error should pass: %+v", mt)
	}
	// ...but 7 ps fails absolute and (7%) fails relative.
	mt = core.Compare([]float64{-107}, []float64{-100}, 0.02)
	if mt.PassRatio != 0 {
		t.Fatalf("7ps error should fail: %+v", mt)
	}
	// Optimism: model slack above golden beyond the epsilon band.
	mt = core.Compare([]float64{-90}, []float64{-100}, 0.02)
	if mt.Optimism != 1 {
		t.Fatalf("optimistic path not flagged: %+v", mt)
	}
	if mt.PassRatio != 0 {
		t.Fatalf("10%% error should also fail the pass rule: %+v", mt)
	}
}

func TestMethodString(t *testing.T) {
	if core.MethodGD.String() != "GD+w/oRS" ||
		core.MethodSCG.String() != "SCG+w/oRS" ||
		core.MethodSCGRS.String() != "SCG+RS" {
		t.Fatal("method names drifted from Table 4 labels")
	}
}
