package closure_test

import (
	"bytes"
	"fmt"
	"testing"

	"mgba/internal/closure"
	"mgba/internal/gen"
	"mgba/internal/obs"
)

// TestObsOnOffClosureBitIdentical extends the obs inertness contract to
// the whole closure flow on the D3 suite design: with metrics, phase
// spans and the event sink live, the flow must accept the exact same
// transform sequence and land on bit-identical QoR and weights as an
// uninstrumented run, at serial and parallel settings.
func TestObsOnOffClosureBitIdentical(t *testing.T) {
	cfg := gen.Suite()[2] // D3

	run := func(par int, on bool) *closure.Result {
		t.Helper()
		prev := obs.Enabled()
		defer obs.Enable(prev)
		obs.Enable(on)
		if on {
			var sink bytes.Buffer
			obs.SetSink(&sink)
			defer obs.SetSink(nil)
		}
		d, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := closure.DefaultOptions(closure.TimerMGBA)
		// Force mid-flow recalibrations so the instrumented incremental
		// calibrator path is exercised, not just the cold one.
		opt.RecalibrateEvery = 25
		opt.STA.Parallelism = par
		res, err := closure.Optimize(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			off := run(par, false)
			on := run(par, true)
			if on.Transforms != off.Transforms {
				t.Fatalf("transform counts differ: obs-on %d vs obs-off %d",
					on.Transforms, off.Transforms)
			}
			if on.Upsized != off.Upsized || on.Downsized != off.Downsized ||
				on.BuffersAdded != off.BuffersAdded {
				t.Fatalf("transform mix differs: up %d/%d down %d/%d buf %d/%d",
					on.Upsized, off.Upsized, on.Downsized, off.Downsized,
					on.BuffersAdded, off.BuffersAdded)
			}
			if on.Calibrations != off.Calibrations || on.Validations != off.Validations {
				t.Fatalf("pipeline counts differ: calib %d/%d validate %d/%d",
					on.Calibrations, off.Calibrations, on.Validations, off.Validations)
			}
			if on.TimerWNS != off.TimerWNS || on.TimerTNS != off.TimerTNS ||
				on.SignoffWNS != off.SignoffWNS || on.SignoffTNS != off.SignoffTNS {
				t.Fatalf("QoR differs: timer %v/%v %v/%v signoff %v/%v %v/%v",
					on.TimerWNS, off.TimerWNS, on.TimerTNS, off.TimerTNS,
					on.SignoffWNS, off.SignoffWNS, on.SignoffTNS, off.SignoffTNS)
			}
			if on.Area != off.Area || on.Leakage != off.Leakage {
				t.Fatalf("area/leakage differ: %v/%v vs %v/%v",
					on.Area, off.Area, on.Leakage, off.Leakage)
			}
			if len(on.Weights) != len(off.Weights) {
				t.Fatalf("weight lengths differ: %d vs %d", len(on.Weights), len(off.Weights))
			}
			for i := range off.Weights {
				if on.Weights[i] != off.Weights[i] {
					t.Fatalf("weights diverge at %d: %v vs %v", i, on.Weights[i], off.Weights[i])
				}
			}
		})
	}
}

// TestStructuralTrialsKeepSessionAndCalibrator counts the mechanism behind
// the closure-d3 benchmark configuration (D3, DefaultOptions(mGBA),
// RecalibrateEvery 25). Its buffer trials are all rejected; each times
// its move on a session derived from the flow's, by rebasing the flow's
// view onto it (one Update), and the pre-trial session, timing view and
// calibrator stay in place. So one run makes 3 full engine runs (the cold
// calibration's baseline, its weighted re-analysis and the sign-off), one
// Update per rejected structural trial on top of the resize loop's 645,
// and only its first calibration runs cold. Timing each trial with a
// full run on a fresh session made it 18 runs; rebuilding the session
// around every trial and its revert, and dropping the calibrator with
// it, made it 41 runs and 5 cold calibrations.
func TestStructuralTrialsKeepSessionAndCalibrator(t *testing.T) {
	d, err := gen.Generate(gen.Suite()[2]) // D3; the generator times it too
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.Enabled()
	defer obs.Enable(prev)
	obs.Enable(true)
	obs.Reset()
	defer obs.Reset()

	opt := closure.DefaultOptions(closure.TimerMGBA)
	opt.RecalibrateEvery = 25
	res, err := closure.Optimize(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.Snapshot()
	count := func(name string) int64 {
		v, _ := snap[name].(int64)
		return v
	}
	rejected := count("closure.transforms.buffer.rejected")
	if rejected == 0 {
		t.Fatal("no buffer trial ran; the configuration no longer exercises the structural protocol")
	}
	if n := count("engine.runs"); n != 3 {
		t.Errorf("engine.runs = %d, want 3", n)
	}
	if n := count("engine.updates"); n != 645+rejected {
		t.Errorf("engine.updates = %d, want %d (645 resize-loop updates + %d rejected structural trials)",
			n, 645+rejected, rejected)
	}
	if n := count("engine.sessions.derived"); n != rejected {
		t.Errorf("engine.sessions.derived = %d, want %d (one per structural trial)", n, rejected)
	}
	if n := count("engine.sessions.clock_rebuilt"); n != 0 {
		t.Errorf("engine.sessions.clock_rebuilt = %d, want 0 (buffers on data nets leave the clock network alone)", n)
	}
	// A derivation re-derives the edit's cones, not the design.
	evals := count("engine.derive_evals")
	t.Logf("engine.derive_evals = %d over %d derivations (%.1f per derivation, %d instances)",
		evals, rejected, float64(evals)/float64(rejected), len(d.Instances))
	if evals == 0 || evals >= rejected*int64(len(d.Instances))/4 {
		t.Errorf("engine.derive_evals = %d over %d derivations, want between 1 and a quarter of %d instances each",
			evals, rejected, len(d.Instances))
	}
	if n := count("core.calibrations.cold"); n != 1 {
		t.Errorf("core.calibrations.cold = %d, want 1", n)
	}
	if inc := count("core.calibrations.incremental"); inc+1 != int64(res.Calibrations) {
		t.Errorf("core.calibrations.incremental = %d, want %d (every calibration but the first)",
			inc, res.Calibrations-1)
	}
}
