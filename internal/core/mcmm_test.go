package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/sta"
)

// mcmmSet returns the first n of a four-corner test set: the base corner
// plus margin-scaled / uncertainty-shifted companions.
func mcmmSet(n int) []core.CornerSpec {
	all := []core.CornerSpec{
		{Name: "typ"},
		{Name: "slow", DerateScale: 1.15, Uncertainty: 10},
		{Name: "fast", DerateScale: 0.85, Uncertainty: 5},
		{Name: "hot", DerateScale: 1.3, Uncertainty: 20},
	}
	return all[:n]
}

// TestSingleCornerSetMatchesGolden pins the N=1 contract against the
// committed golden file: a one-corner set with the identity spec must run
// the exact single-corner pipeline — same weights, corrections, QoR and
// checkpoint hashes on D3 + bufcase at Parallelism 1 and 4 — and must not
// grow any of the multi-corner machinery.
func TestSingleCornerSetMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden equivalence run is not short")
	}
	blob, err := os.ReadFile(calibGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want []calibGoldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, design := range []string{"d3", "bufcase"} {
		for _, par := range []int{1, 4} {
			opt := core.DefaultOptions()
			opt.Corners = mcmmSet(1)
			got := calibGoldenRunWith(t, design, par, opt)
			if i >= len(want) {
				t.Fatalf("golden has only %d runs", len(want))
			}
			if got != want[i] {
				t.Errorf("N=1 corner run %s/par%d diverged from the single-corner golden:\n got %+v\nwant %+v",
					design, par, got, want[i])
			}
			i++
		}
	}
}

// TestSingleCornerSetStaysPlain asserts the N=1 model carries none of the
// multi-corner state: no per-corner fits, no merged worst view.
func TestSingleCornerSetStaysPlain(t *testing.T) {
	_, _, sess := calDesign(t)
	opt := core.DefaultOptions()
	opt.Corners = mcmmSet(1)
	m, err := core.CalibrateWithSession(context.Background(), sess, sta.Config{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Corners != nil {
		t.Errorf("N=1 model grew %d corner fits, want none", len(m.Corners))
	}
	if m.WorstSlack != nil {
		t.Error("N=1 model grew a merged worst-slack view")
	}
	if m.MGBA == nil || len(m.MGBA.Slack) != len(m.GBA.Slack) {
		t.Error("N=1 model has no per-endpoint mGBA slack view of its own")
	}
}

// TestCornersNeverOptimistic is the per-corner Eq. (5) contract at N=2
// and N=4, for both independent and joint fits: no corner's fitted model
// may be optimistic against that corner's own golden retimes beyond the
// epsilon guard, and the merged view must be the per-endpoint worst.
func TestCornersNeverOptimistic(t *testing.T) {
	_, _, sess := calDesign(t)
	ctx := context.Background()
	for _, n := range []int{2, 4} {
		for _, joint := range []bool{false, true} {
			opt := core.DefaultOptions()
			opt.Corners = mcmmSet(n)
			opt.JointFit = joint
			m, err := core.CalibrateWithSession(ctx, sess, sta.Config{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Corners) != n {
				t.Fatalf("N=%d joint=%v: got %d corner fits", n, joint, len(m.Corners))
			}
			for _, cf := range m.Corners {
				cm, err := cf.Evaluate("mgba", opt.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				if cm.Optimism != 0 {
					t.Errorf("N=%d joint=%v corner %s: %d optimistic paths past the Eq. (5) guard",
						n, joint, cf.Spec.Name, cm.Optimism)
				}
				if cm.Paths == 0 {
					t.Errorf("N=%d joint=%v corner %s: fit covers no paths", n, joint, cf.Spec.Name)
				}
			}
			if len(m.WorstSlack) != len(m.MGBA.Slack) {
				t.Fatalf("N=%d joint=%v: merged view has %d endpoints, want %d",
					n, joint, len(m.WorstSlack), len(m.MGBA.Slack))
			}
			worst := append([]float64(nil), m.MGBA.Slack...)
			for i, w := range m.WorstSlack {
				for _, cf := range m.Corners {
					if s := cf.MGBA.Slack[i]; s < w {
						t.Fatalf("N=%d joint=%v endpoint %d: merged %v above corner %s's %v",
							n, joint, i, w, cf.Spec.Name, s)
					}
					worst[i] = min(worst[i], cf.MGBA.Slack[i])
				}
			}
			if !sameFloats(m.WorstSlack, worst) {
				t.Errorf("N=%d joint=%v: WorstSlack is not the per-endpoint minimum of MGBA.Slack and every corner's", n, joint)
			}
		}
	}
}

// requireSameCorners asserts two multi-corner models carry bit-identical
// fits: weights, corrections, per-path slacks and the merged worst view.
func requireSameCorners(t *testing.T, got, want *core.Model) {
	t.Helper()
	if !sameFloats(got.Weights, want.Weights) {
		t.Error("base weights differ")
	}
	if len(got.Corners) != len(want.Corners) {
		t.Fatalf("corner fits: %d vs %d", len(got.Corners), len(want.Corners))
	}
	for i := range want.Corners {
		g, w := got.Corners[i], want.Corners[i]
		if g.Spec != w.Spec {
			t.Fatalf("corner %d spec %+v vs %+v", i, g.Spec, w.Spec)
		}
		if !sameFloats(g.Weights, w.Weights) {
			t.Errorf("corner %s weights differ", w.Spec.Name)
		}
		if !sameFloats(g.Correction, w.Correction) {
			t.Errorf("corner %s corrections differ", w.Spec.Name)
		}
		if !sameFloats(g.GoldenSlack, w.GoldenSlack) {
			t.Errorf("corner %s golden slacks differ", w.Spec.Name)
		}
		if !sameFloats(g.ModelSlack, w.ModelSlack) {
			t.Errorf("corner %s model slacks differ", w.Spec.Name)
		}
		if !sameFloats(g.MGBA.Slack, w.MGBA.Slack) {
			t.Errorf("corner %s mGBA slacks differ", w.Spec.Name)
		}
	}
	if !sameFloats(got.WorstSlack, want.WorstSlack) {
		t.Error("merged worst-slack views differ")
	}
	if got.WorstWNS != want.WorstWNS || got.WorstTNS != want.WorstTNS {
		t.Errorf("merged QoR (%v, %v) vs (%v, %v)",
			got.WorstWNS, got.WorstTNS, want.WorstWNS, want.WorstTNS)
	}
}

// TestMultiCornerRecalibrateMatchesCold is the incremental contract for
// corner sets: over three sizing batches, the incremental Recalibrate
// (shared per-corner caches, dirty-only golden re-retimes) must be
// bit-identical to a cold calibration of the same design state with the
// same warm state, at N=2 and N=4, for independent and joint fits. Two
// calibrators run side by side from identical colds so their per-corner
// warm starts agree.
func TestMultiCornerRecalibrateMatchesCold(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, joint := range []bool{false, true} {
			t.Run(fmt.Sprintf("N%d/joint=%v", n, joint), func(t *testing.T) {
				d, g, sess := calDesign(t)
				ctx := context.Background()
				cfg := sta.Config{}
				opt := core.DefaultOptions()
				opt.Corners = mcmmSet(n)
				opt.JointFit = joint

				inc, err := core.NewCalibrator(sess, cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.NewCalibrator(engine.NewSession(g), cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				m, err := inc.Calibrate(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Calibrate(ctx); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 3; round++ {
					dirty := upsizeSelected(t, d, g, m, 30-10*round)
					mInc, err := inc.Recalibrate(ctx, dirty)
					if err != nil {
						t.Fatal(err)
					}
					if st := inc.Stats(); st.Incremental != round+1 {
						t.Fatalf("round %d: multi-corner recalibration did not run incrementally: stats %+v", round, st)
					}
					ref.Invalidate()
					mCold, err := ref.Calibrate(ctx)
					if err != nil {
						t.Fatal(err)
					}
					requireSameCorners(t, mInc, mCold)
					m = mInc
				}
			})
		}
	}
}

// TestMultiCornerStreamedMatchesMaterialized extends the streaming
// contract to corner sets: a shard-streamed multi-corner cold must produce
// the same per-corner fits and merged view a materialized one does, for
// independent and joint fits.
func TestMultiCornerStreamedMatchesMaterialized(t *testing.T) {
	g, cfg := streamEquivDesign(t, 700, 90)
	ctx := context.Background()
	for _, joint := range []bool{false, true} {
		opt := core.DefaultOptions()
		opt.Corners = mcmmSet(2)
		opt.JointFit = joint
		mat, err := core.Calibrate(ctx, g, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.StreamShard = 8
		str, err := core.Calibrate(ctx, g, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if str.Bank == nil {
			t.Fatal("streamed model has no bank")
		}
		requireSameCorners(t, str, mat)
	}
}
