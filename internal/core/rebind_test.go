package core_test

import (
	"context"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

// retimeOne applies the first legal backward register slide in the design
// and returns the structural dirty set the closure flow records for it:
// the moved register, the gate it crossed, and the non-clock drivers of
// their input nets.
func retimeOne(t *testing.T, d *netlist.Design, g *graph.Graph) []int {
	t.Helper()
	for _, ff := range d.Instances {
		if !ff.IsFF() || ff.Dead {
			continue
		}
		if len(ff.Inputs) == 0 {
			continue
		}
		drv := d.Nets[ff.Inputs[0]].Driver
		if drv < 0 {
			continue
		}
		gate := d.Instances[drv]
		if err := d.RetimeBackward(ff, gate); err != nil {
			continue
		}
		seen := make(map[int]bool)
		var dirty []int
		note := func(id int) {
			if !seen[id] {
				seen[id] = true
				dirty = append(dirty, id)
			}
		}
		for _, inst := range []*netlist.Instance{ff, gate} {
			note(inst.ID)
			for _, nid := range inst.Inputs {
				if dr := d.Nets[nid].Driver; dr >= 0 && !g.IsClock(dr) {
					note(dr)
				}
			}
		}
		return dirty
	}
	t.Fatal("no legal backward slide in fixture")
	return nil
}

// TestRebindRecalibrateMatchesCold is the core-level contract behind
// retiming: after a connectivity-changing move, Rebind to the rebuilt
// session plus Recalibrate over the structural dirty set must be
// bit-identical to a cold calibration of the new design state with the
// same warm start.
func TestRebindRecalibrateMatchesCold(t *testing.T) {
	d, err := fixtures.RetimePipeline(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession(g)
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
		t.Fatal("fixture selected no paths")
	}

	dirty := retimeOne(t, d, g)

	// The move changed connectivity: rebuild the timing graph and bind the
	// calibrator to the new session, exactly as the closure flow does. The
	// dirty set grows by every instance whose derate context (AOCV depth or
	// bounding box) the slide shifted.
	g2, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	sess2 := engine.NewSession(g2)
	for i := range d.Instances {
		if sess.Depths.GBA[i] != sess2.Depths.GBA[i] ||
			sess.Boxes.GBADistance[i] != sess2.Boxes.GBADistance[i] {
			dirty = append(dirty, i)
		}
	}
	if err := cal.Rebind(sess2); err != nil {
		t.Fatal(err)
	}

	mInc, err := cal.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Incremental != 1 {
		t.Fatalf("rebind forced a cold recalibration: stats %+v", st)
	}

	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g2), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}

	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("incremental weights differ from cold calibration after rebind")
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
	if !sameFloats(mInc.MGBA.Slack, mCold.MGBA.Slack) {
		t.Error("mGBA endpoint slacks differ from cold calibration after rebind")
	}
}

// TestRebindShapeMismatchInvalidates: binding a session over a different
// design shape must not reuse stale cached paths — the next calibration
// is cold.
func TestRebindShapeMismatchInvalidates(t *testing.T) {
	_, _, sess := calDesign(t)
	ctx := context.Background()
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}

	other, err := fixtures.RetimePipeline(2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Build(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Rebind(engine.NewSession(g2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Recalibrate(ctx, []int{0}); err != nil {
		t.Fatal(err)
	}
	st := cal.Stats()
	if st.Incremental != 0 {
		t.Fatalf("shape mismatch did not force cold recalibration: %+v", st)
	}
}
