package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/sta"
)

// TestObsOnOffCalibrationBitIdentical is the inertness contract of the
// observability layer at the calibration level: enabling metrics, spans
// and the JSONL event sink must not move a single bit of the fitted
// model — same RNG streams, same ordered combines, same weights — at
// serial and parallel settings alike (the D3 suite design, Parallelism
// 1 and 4).
func TestObsOnOffCalibrationBitIdentical(t *testing.T) {
	cfg := gen.Suite()[2] // D3
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}

	calibrate := func(par int, on bool) *core.Model {
		t.Helper()
		prev := obs.Enabled()
		defer obs.Enable(prev)
		obs.Enable(on)
		if on {
			// Exercise the full instrumented path, sink included.
			var sink bytes.Buffer
			obs.SetSink(&sink)
			defer obs.SetSink(nil)
		}
		scfg := sta.DefaultConfig()
		scfg.Parallelism = par
		m, err := core.Calibrate(context.Background(), g, scfg, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			off := calibrate(par, false)
			on := calibrate(par, true)
			if len(off.Selection.Paths) == 0 {
				t.Fatal("fixture too tame: no violated paths selected")
			}
			if len(on.Weights) != len(off.Weights) {
				t.Fatalf("weight lengths differ: %d vs %d", len(on.Weights), len(off.Weights))
			}
			for i := range off.Weights {
				if on.Weights[i] != off.Weights[i] {
					t.Fatalf("weights diverge at %d: obs-on %v vs obs-off %v",
						i, on.Weights[i], off.Weights[i])
				}
			}
			if len(on.Correction) != len(off.Correction) {
				t.Fatalf("correction lengths differ: %d vs %d", len(on.Correction), len(off.Correction))
			}
			for i := range off.Correction {
				if on.Correction[i] != off.Correction[i] {
					t.Fatalf("correction diverges at %d: %v vs %v",
						i, on.Correction[i], off.Correction[i])
				}
			}
			if on.Stats.Iters != off.Stats.Iters || on.Stats.Objective != off.Stats.Objective {
				t.Fatalf("solver trajectory differs: iters %d/%d, objective %v/%v",
					on.Stats.Iters, off.Stats.Iters, on.Stats.Objective, off.Stats.Objective)
			}
			if on.Degraded != off.Degraded {
				t.Fatalf("degradation differs: %v vs %v", on.Degraded, off.Degraded)
			}
		})
	}
}

// TestRecalibrateColdFallbackCounters reaches each branch on which a
// Recalibrate falls back to a cold calibration and requires that branch's
// counter, and only it, to rise: no cache (the first call, after
// Invalidate, and on a streamed calibrator, which keeps none), a clock
// cell or an instance the session does not time in the dirty set, and a
// golden mirror that cannot follow the dirty set.
func TestRecalibrateColdFallbackCounters(t *testing.T) {
	prev := obs.Enabled()
	defer obs.Enable(prev)
	obs.Enable(true)
	obs.Reset()
	defer obs.Reset()
	ctx := context.Background()
	reasons := []string{"no_cache", "dirty_clock", "mirror_failed"}
	counts := func() map[string]int64 {
		snap := obs.Snapshot()
		out := map[string]int64{}
		for _, r := range reasons {
			out[r], _ = snap["core.recalibrate.cold."+r].(int64)
		}
		return out
	}
	recal := func(label string, cal *core.Calibrator, dirty []int, want string) {
		t.Helper()
		before := counts()
		if _, err := cal.Recalibrate(ctx, dirty); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		after := counts()
		for _, r := range reasons {
			rise := int64(0)
			if r == want {
				rise = 1
			}
			if got := after[r] - before[r]; got != rise {
				t.Errorf("%s: core.recalibrate.cold.%s rose by %d, want %d", label, r, got, rise)
			}
		}
	}
	// newCal calibrates a fresh design under opt.
	newCal := func(opt core.Options) (*core.Calibrator, *netlist.Design, *graph.Graph, *core.Model) {
		t.Helper()
		d, g, sess := calDesign(t)
		cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), opt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cal.Calibrate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return cal, d, g, m
	}

	_, g, sess := calDesign(t)
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recal("first call", cal, nil, "no_cache")
	recal("warm cache, no edit", cal, nil, "")
	cal.Invalidate()
	recal("after Invalidate", cal, nil, "no_cache")
	recal("clock cell dirty", cal, []int{int(g.ClockChain[0][0])}, "dirty_clock")
	recal("unknown instance dirty", cal, []int{sess.NumInstances()}, "dirty_clock")

	stream := core.DefaultOptions()
	stream.StreamShard = 256
	scal, _, _, _ := newCal(stream)
	recal("streamed calibrator", scal, nil, "no_cache")

	failing := core.DefaultOptions()
	failing.ViewPair = "test-failing-update"
	fcal, fd, fg, fm := newCal(failing)
	dirty := upsizeSelected(t, fd, fg, fm, 2)
	*failUpdate = true
	defer func() { *failUpdate = false }()
	recal("failed golden mirror", fcal, dirty, "mirror_failed")
}
