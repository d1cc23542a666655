package core_test

import (
	"context"
	"strings"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

// calDesign generates a violating toy design with its graph and session.
func calDesign(t *testing.T) (*netlist.Design, *graph.Graph, *engine.Session) {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 700, 90
	cfg.Name = "calibrator-test"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, g, engine.NewSession(g)
}

// upsizeSelected applies n upsizes to distinct gates on the model's
// selected paths (worst first) and returns the dirty set the closure flow
// would record: each resized instance plus the drivers of its input nets.
func upsizeSelected(t *testing.T, d *netlist.Design, g *graph.Graph, m *core.Model, n int) []int {
	t.Helper()
	seen := make(map[int]bool)
	var dirty []int
	note := func(id int) {
		if !seen[id] {
			seen[id] = true
			dirty = append(dirty, id)
		}
	}
	resized := 0
	for _, p := range m.Selection.Paths {
		for _, id := range p.Cells {
			if resized == n {
				return dirty
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
		t.Fatal("no gate on the selection could be upsized")
	}
	return dirty
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRecalibrateMatchesColdExactly is the calibrator's core contract:
// after a batch of sizing transforms, the incremental Recalibrate must
// return bit-identical weights, selection, targets and mGBA slacks to a
// cold calibration of the same design state with the same warm start.
func TestRecalibrateMatchesColdExactly(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m0.Selection.Paths) == 0 {
		t.Fatal("toy design selected no paths")
	}

	dirty := upsizeSelected(t, d, g, m0, 40)

	mInc, err := cal.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	st := cal.Stats()
	if st.Incremental != 1 {
		t.Fatalf("expected 1 incremental recalibration, stats %+v", st)
	}
	if st.EndpointsReenumerated == 0 {
		t.Fatalf("incremental recalibration re-enumerated no endpoints: %+v", st)
	}

	// The cold reference: same design state, same warm start, fresh
	// session so nothing is shared with the calibrator under test.
	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}

	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("incremental weights differ from cold calibration")
	}
	if len(mInc.Selection.Paths) != len(mCold.Selection.Paths) {
		t.Fatalf("selection sizes differ: incremental %d vs cold %d",
			len(mInc.Selection.Paths), len(mCold.Selection.Paths))
	}
	for i, p := range mInc.Selection.Paths {
		q := mCold.Selection.Paths[i]
		if p.Launch != q.Launch || p.Capture != q.Capture || p.GBASlack != q.GBASlack {
			t.Fatalf("selected path %d differs: %+v vs %+v", i, p, q)
		}
	}
	if !sameFloats(mInc.Problem.B, mCold.Problem.B) {
		t.Error("assembled targets differ from cold calibration")
	}
	if !sameFloats(mInc.Problem.Guard, mCold.Problem.Guard) {
		t.Error("assembled guards differ from cold calibration")
	}
	if mInc.Problem.A.NNZ() != mCold.Problem.A.NNZ() {
		t.Errorf("matrix NNZ differs: %d vs %d", mInc.Problem.A.NNZ(), mCold.Problem.A.NNZ())
	}
	if !sameFloats(mInc.MGBA.Slack, mCold.MGBA.Slack) {
		t.Error("mGBA endpoint slacks differ from cold calibration")
	}
}

// TestRecalibrateRepeatedBatches drives several transform/recalibrate
// rounds through one calibrator and cross-checks each round against cold.
func TestRecalibrateRepeatedBatches(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		dirty := upsizeSelected(t, d, g, m, 10)
		warm := m.Weights
		m, err = cal.Recalibrate(ctx, dirty)
		if err != nil {
			t.Fatal(err)
		}
		coldOpt := opt
		coldOpt.WarmWeights = warm
		mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(m.Weights, mCold.Weights) {
			t.Fatalf("round %d: incremental weights differ from cold", round)
		}
	}
	if st := cal.Stats(); st.Incremental != 3 {
		t.Fatalf("expected 3 incremental recalibrations, stats %+v", st)
	}
}

// TestRecalibrateEmptyDirty mirrors the closure flow's round-boundary
// recalibrations with zero transforms since the last one: the result must
// still match a cold calibration (the warm start changes the solve).
func TestRecalibrateEmptyDirty(t *testing.T) {
	_, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mInc, err := cal.Recalibrate(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("empty-dirty recalibration differs from cold")
	}
	if st := cal.Stats(); st.EndpointsReenumerated != 0 {
		t.Errorf("empty dirty set re-enumerated %d endpoints", st.EndpointsReenumerated)
	}
}

// TestInvalidateForcesCold asserts the escape hatch: after Invalidate the
// next Recalibrate runs the full pipeline.
func TestInvalidateForcesCold(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dirty := upsizeSelected(t, d, g, m0, 5)
	cal.Invalidate()
	if _, err := cal.Recalibrate(ctx, dirty); err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Cold != 2 || st.Incremental != 0 {
		t.Fatalf("expected the recalibration to go cold, stats %+v", st)
	}
}

// TestRecalibrateMaxPathsDropsCache: when the re-enumerated population
// crosses MaxPaths, Recalibrate must return the cap error and drop its
// cache, so the next call runs a clean cold calibration.
func TestRecalibrateMaxPathsDropsCache(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := core.DefaultOptions()
	base, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Upsizing repairs violations; the cap is set to the repaired state's
	// population, which the original state then exceeds.
	orig := make([]*cells.Cell, len(d.Instances))
	for i, inst := range d.Instances {
		orig[i] = inst.Cell
	}
	dirty := upsizeSelected(t, d, g, base, 40)
	upsized := make([]*cells.Cell, len(d.Instances))
	for i, inst := range d.Instances {
		upsized[i] = inst.Cell
	}
	resizeAll := func(to []*cells.Cell) {
		t.Helper()
		for _, id := range dirty {
			if err := d.Resize(d.Instances[id], to[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Selection.Paths) >= len(base.Selection.Paths) {
		t.Fatalf("upsizes did not shrink the population (%d -> %d paths)",
			len(base.Selection.Paths), len(probe.Selection.Paths))
	}
	opt.MaxPaths = len(probe.Selection.Paths)

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resizeAll(orig)
	_, err = cal.Recalibrate(ctx, dirty)
	if err == nil || !strings.Contains(err.Error(), "MaxPaths") {
		t.Fatalf("re-enumeration over MaxPaths: got error %v", err)
	}
	if st := cal.Stats(); st.Cold != 1 || st.Incremental != 1 {
		t.Fatalf("over-cap recalibration not taken incrementally: stats %+v", st)
	}

	// Back under the cap: the dropped cache forces a cold calibration,
	// which must match a fresh one with the same warm start.
	resizeAll(upsized)
	m1, err := cal.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Cold != 2 || st.Incremental != 1 {
		t.Fatalf("call after the cap error did not run cold: stats %+v", st)
	}
	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	ref, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(m1.Weights, ref.Weights) || !sameFloats(m1.MGBA.Slack, ref.MGBA.Slack) {
		t.Fatal("cold calibration after the cap error differs from a fresh cold")
	}
}

// TestModelSurvivesLaterCalls pins the Calibrator's model contract: a
// returned model's weights, corrections, golden slacks and mGBA
// re-analysis keep every bit through a later Recalibrate and a later
// Calibrate. (Its GBA is the calibrator's cached baseline and is not
// pinned: it is valid only until the next call.)
func TestModelSurvivesLaterCalls(t *testing.T) {
	d, err := gen.Generate(gen.Suite()[2]) // D3
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := core.NewCalibrator(engine.NewSession(g), sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fields := func(m *core.Model) [][]float64 {
		return [][]float64{m.Weights, m.Correction, m.GoldenSlack, m.MGBA.Slack, {m.MGBA.WNS, m.MGBA.TNS}}
	}
	var kept [][]float64
	for _, f := range fields(m) {
		kept = append(kept, append([]float64(nil), f...))
	}
	check := func(after string) {
		t.Helper()
		names := []string{"Weights", "Correction", "GoldenSlack", "MGBA.Slack", "MGBA WNS/TNS"}
		for i, f := range fields(m) {
			if len(f) == 0 || !sameFloats(f, kept[i]) {
				t.Errorf("after %s: the earlier model's %s changed (%d entries)", after, names[i], len(f))
			}
		}
	}
	if _, err := cal.Recalibrate(ctx, upsizeSelected(t, d, g, m, 8)); err != nil {
		t.Fatal(err)
	}
	check("a Recalibrate")
	if _, err := cal.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}
	check("a Calibrate")
}
