package core_test

import (
	"context"
	"fmt"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
	"mgba/internal/transform"
)

// retimeOne applies the first legal backward register slide in the design
// and returns the structural dirty set the closure flow records for it:
// the moved register, the gate it crossed, and the non-clock drivers of
// their input nets.
func retimeOne(t *testing.T, d *netlist.Design, g *graph.Graph) []int {
	t.Helper()
	for _, ff := range d.Instances {
		if !ff.IsFF() {
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
	dirty = append(dirty, sessionDiff(sess, sess2)...)
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

// sessionDiff returns the instances of the old session whose GBA depth or
// bounding-box distance differs in the new one: the closure flow's
// widening of a structural move's dirty set.
func sessionDiff(old, cur *engine.Session) []int {
	var out []int
	for i := 0; i < old.NumInstances(); i++ {
		if old.Depths.GBA[i] != cur.Depths.GBA[i] ||
			old.Boxes.GBADistance[i] != cur.Boxes.GBADistance[i] {
			out = append(out, i)
		}
	}
	return out
}

// bufferOnSelection inserts a buffer through the buffer transform on the
// output net of a gate of the model's selected path pick (moving on along
// the selection until a net the netlist accepts turns up) and returns the
// move.
func bufferOnSelection(t *testing.T, d *netlist.Design, g *graph.Graph, m *core.Model, pick int) transform.Move {
	t.Helper()
	tr := transform.NewBuffer(0, 4)
	a := &transform.Analysis{D: d, G: g, R: m.GBA}
	paths := m.Selection.Paths
	for k := 0; k < len(paths); k++ {
		p := paths[(pick+k)%len(paths)]
		for j := len(p.Cells) / 2; j < len(p.Cells); j++ {
			out := d.Instances[p.Cells[j]].Output
			if out < 0 || len(d.Nets[out].Sinks) == 0 {
				continue
			}
			mv, err := tr.Apply(a, transform.Candidate{Target: out})
			if err != nil {
				t.Fatal(err)
			}
			if mv != nil {
				return mv
			}
		}
	}
	t.Fatal("no bufferable net on the selection")
	return nil
}

// requireMatchesCold asserts that an incremental model equals a cold
// calibration of the same design state with the same warm start:
// weights, mGBA slacks and arrivals, and each selected path's launch,
// capture and GBA slack.
func requireMatchesCold(t *testing.T, label string, inc, cold *core.Model) {
	t.Helper()
	if !sameFloats(inc.Weights, cold.Weights) {
		t.Fatalf("%s: weights differ from a cold calibration", label)
	}
	if !sameFloats(inc.MGBA.Slack, cold.MGBA.Slack) {
		t.Fatalf("%s: mGBA slacks differ from a cold calibration", label)
	}
	if !sameFloats(inc.MGBA.ArrivalOut, cold.MGBA.ArrivalOut) {
		t.Fatalf("%s: mGBA arrivals differ from a cold calibration", label)
	}
	if len(inc.Selection.Paths) != len(cold.Selection.Paths) {
		t.Fatalf("%s: selection sizes differ: incremental %d vs cold %d", label,
			len(inc.Selection.Paths), len(cold.Selection.Paths))
	}
	for i, p := range inc.Selection.Paths {
		q := cold.Selection.Paths[i]
		if p.Launch != q.Launch || p.Capture != q.Capture || p.GBASlack != q.GBASlack {
			t.Fatalf("%s: selected path %d differs: %+v vs %+v", label, i, p, q)
		}
	}
}

// TestRebindAfterBufferMatchesCold extends the rebind contract to buffer
// insertion, which appends an instance, following the closure flow's
// trial protocol. Each step first rejects a trial insertion: the move is
// reverted, which pops the buffer and its net, and the calibrator stays
// on its session, so the design is again the one that session was built
// on, and a Recalibrate on it must still equal a cold calibration. Then an
// insertion is accepted: Rebind to
// the rebuilt session plus Recalibrate over the move's dirty set (sinks,
// driver, buffer) widened with the session diff must equal a cold
// calibration of the new state. Every call must be served incrementally.
func TestRebindAfterBufferMatchesCold(t *testing.T) {
	for _, cfg := range []gen.Config{gen.Suite()[2], gen.Suite()[7]} { // D3, D8
		t.Run(cfg.Name, func(t *testing.T) {
			d, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.Build(d)
			if err != nil {
				t.Fatal(err)
			}
			sess := engine.NewSession(g)
			ctx := context.Background()
			scfg := sta.DefaultConfig()
			opt := core.DefaultOptions()
			cal, err := core.NewCalibrator(sess, scfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := cal.Calibrate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			coldOf := func(g *graph.Graph, warm []float64) *core.Model {
				t.Helper()
				coldOpt := opt
				coldOpt.WarmWeights = warm
				m, err := core.CalibrateWithSession(ctx, engine.NewSession(g), scfg, coldOpt)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			const steps = 12
			for step := 1; step <= steps; step++ {
				if len(prev.Selection.Paths) == 0 {
					t.Fatalf("step %d: nothing selected to buffer", step)
				}
				// Rejected trial: time it on a throwaway session, revert.
				mv := bufferOnSelection(t, d, g, prev, 7*step+3)
				gt, err := graph.Build(d)
				if err != nil {
					t.Fatal(err)
				}
				engine.NewSession(gt).Run(scfg).Release()
				if err := mv.Revert(&transform.Analysis{D: d, G: g, R: prev.GBA}); err != nil {
					t.Fatal(err)
				}
				if len(d.Instances) != sess.NumInstances() {
					t.Fatalf("step %d: the reverted trial left %d instances, the session has %d",
						step, len(d.Instances), sess.NumInstances())
				}
				mRej, err := cal.Recalibrate(ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				gr, err := graph.Build(d)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesCold(t, fmt.Sprintf("step %d, after a rejected trial", step), mRej, coldOf(gr, prev.Weights))
				prev = mRej

				// Accepted insertion: rebind to the rebuilt session.
				dirty := bufferOnSelection(t, d, g, prev, 7*step).DirtySet()
				g2, err := graph.Build(d)
				if err != nil {
					t.Fatal(err)
				}
				sess2 := engine.NewSession(g2)
				dirty = append(dirty, sessionDiff(sess, sess2)...)
				if err := cal.Rebind(sess2); err != nil {
					t.Fatal(err)
				}
				mInc, err := cal.Recalibrate(ctx, dirty)
				if err != nil {
					t.Fatal(err)
				}
				if st := cal.Stats(); st.Cold != 1 || st.Incremental != 2*step {
					t.Fatalf("step %d: not served incrementally: stats %+v", step, st)
				}
				requireMatchesCold(t, fmt.Sprintf("step %d, after an accepted insertion", step), mInc, coldOf(g2, prev.Weights))
				g, sess, prev = g2, sess2, mInc
			}
		})
	}
}

// TestRebindShapeMismatchInvalidates: binding a session over a different
// design — of another shape, or of the same shape — must not reuse stale
// cached paths: the next calibration is cold.
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

	// Another design with the same flip-flop and instance counts (a twin
	// of the bound one) is a mismatch too: the cache describes the design
	// it was built on, not any design of the same size.
	cal2, err := core.NewCalibrator(sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal2.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}
	twin, _, _ := calDesign(t)
	gt, err := graph.Build(twin)
	if err != nil {
		t.Fatal(err)
	}
	st2 := engine.NewSession(gt)
	if st2.NumFFs() != sess.NumFFs() || st2.NumInstances() != sess.NumInstances() {
		t.Fatal("twin design differs in shape")
	}
	if err := cal2.Rebind(st2); err != nil {
		t.Fatal(err)
	}
	if _, err := cal2.Recalibrate(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if st := cal2.Stats(); st.Cold != 2 || st.Incremental != 0 {
		t.Fatalf("same-shape foreign design did not force cold recalibration: %+v", st)
	}
}
