package closure_test

import (
	"math"
	"path/filepath"
	"testing"

	"mgba/internal/closure"
	"mgba/internal/core"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/sta"
)

func testDesign(t *testing.T, seed uint64) *gen.Config {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 700, 90
	cfg.Seed = seed
	cfg.Name = "closure-test"
	// Keep the bulk of the violations within gate-sizing reach, like the
	// closure-suite designs; unfixable outliers would dominate otherwise.
	cfg.DepthCap = 0.05
	return &cfg
}

func optimize(t *testing.T, cfg *gen.Config, timer closure.TimerKind) (*closure.Result, float64, float64) {
	t.Helper()
	d, err := gen.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	wns0, tns0 := closure.Signoff(g, sta.DefaultConfig())
	res, err := closure.Optimize(d, closure.DefaultOptions(timer))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after optimization: %v", err)
	}
	return res, wns0, tns0
}

func TestGBAFlowImprovesTiming(t *testing.T) {
	res, wns0, tns0 := optimize(t, testDesign(t, 7001), closure.TimerGBA)
	if tns0 >= 0 {
		t.Fatalf("test design starts clean (tns0=%v); useless fixture", tns0)
	}
	if res.SignoffTNS < tns0*0.25 {
		t.Fatalf("GBA flow barely improved: signoff TNS %v from %v", res.SignoffTNS, tns0)
	}
	if res.SignoffWNS < wns0 {
		t.Fatalf("GBA flow worsened WNS: %v from %v", res.SignoffWNS, wns0)
	}
	if res.Upsized == 0 {
		t.Fatal("no upsizing happened on a violating design")
	}
}

func TestMGBAFlowClosesTiming(t *testing.T) {
	res, _, tns0 := optimize(t, testDesign(t, 7001), closure.TimerMGBA)
	if tns0 >= 0 {
		t.Fatal("fixture starts clean")
	}
	// The paper's own exit criterion tolerates a few residual violated
	// endpoints ("usually no more than 100 violated endpoints is
	// acceptable"); demand the same order of cleanliness at our scale.
	if res.ViolatedEndpoints > 5 {
		t.Fatalf("mGBA flow left %d timer violations", res.ViolatedEndpoints)
	}
	if res.SignoffTNS < -100 {
		t.Fatalf("mGBA flow left real violations: signoff TNS %v", res.SignoffTNS)
	}
	if res.Calibrations == 0 {
		t.Fatal("mGBA flow never calibrated")
	}
	if res.CalibElapsed <= 0 {
		t.Fatal("calibration time not recorded")
	}
}

// The headline of Table 2: the mGBA-embedded flow ends with less area and
// leakage than the GBA-embedded flow on the same design.
func TestMGBAFlowBeatsGBAQoR(t *testing.T) {
	cfg := testDesign(t, 7001)
	gba, _, _ := optimize(t, cfg, closure.TimerGBA)
	mgba, _, _ := optimize(t, cfg, closure.TimerMGBA)
	t.Logf("area %v vs %v, leakage %v vs %v, buffers %d vs %d",
		gba.Area, mgba.Area, gba.Leakage, mgba.Leakage, gba.Buffers, mgba.Buffers)
	if mgba.Area >= gba.Area {
		t.Fatalf("mGBA area %v not below GBA %v", mgba.Area, gba.Area)
	}
	if mgba.Leakage >= gba.Leakage {
		t.Fatalf("mGBA leakage %v not below GBA %v", mgba.Leakage, gba.Leakage)
	}
	// Both flows must be essentially clean at sign-off.
	if gba.SignoffTNS < -200 || mgba.SignoffTNS < -200 {
		t.Fatalf("flows not clean at signoff: GBA %v, mGBA %v", gba.SignoffTNS, mgba.SignoffTNS)
	}
}

func TestMGBAFlowAppliesFewerFixes(t *testing.T) {
	cfg := testDesign(t, 7001)
	gba, _, _ := optimize(t, cfg, closure.TimerGBA)
	mgba, _, _ := optimize(t, cfg, closure.TimerMGBA)
	if mgba.Upsized >= gba.Upsized {
		t.Fatalf("mGBA upsized %d, GBA %d: pessimism reduction had no effect",
			mgba.Upsized, gba.Upsized)
	}
}

func TestTransformAccounting(t *testing.T) {
	res, _, _ := optimize(t, testDesign(t, 7002), closure.TimerGBA)
	if res.Transforms != res.Upsized+res.Downsized+res.BuffersAdded {
		t.Fatalf("transform accounting broken: %d != %d+%d+%d",
			res.Transforms, res.Upsized, res.Downsized, res.BuffersAdded)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestGBAFlowValidates(t *testing.T) {
	res, _, _ := optimize(t, testDesign(t, 7001), closure.TimerGBA)
	if res.Validations == 0 {
		t.Fatal("GBA flow never ran PBA validation")
	}
	if res.Calibrations != 0 {
		t.Fatal("GBA flow should never calibrate")
	}
}

func TestSignoffLessPessimisticThanTimer(t *testing.T) {
	d, err := gen.Generate(*testDesign(t, 7003))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	wns, tns := closure.Signoff(g, sta.DefaultConfig())
	if tns < r.TNS || wns < r.WNS {
		t.Fatalf("PBA signoff (%v/%v) more pessimistic than GBA (%v/%v)", wns, tns, r.WNS, r.TNS)
	}
}

func TestOptimizeRejectsBadOptions(t *testing.T) {
	d, err := gen.Generate(*testDesign(t, 7004))
	if err != nil {
		t.Fatal(err)
	}
	opt := closure.DefaultOptions(closure.TimerGBA)
	opt.MaxTransforms = -1
	if _, err := closure.Optimize(d, opt); err == nil {
		t.Fatal("negative budget accepted")
	}
	opt = closure.DefaultOptions(closure.TimerGBA)
	opt.STA.Weights = make([]float64, 1)
	if _, err := closure.Optimize(d, opt); err == nil {
		t.Fatal("pre-set weights accepted")
	}
}

func TestZeroBudgetNoTransforms(t *testing.T) {
	d, err := gen.Generate(*testDesign(t, 7005))
	if err != nil {
		t.Fatal(err)
	}
	area0 := d.Area()
	opt := closure.DefaultOptions(closure.TimerGBA)
	opt.MaxTransforms = 0
	res, err := closure.Optimize(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transforms != 0 {
		t.Fatalf("transforms applied despite zero budget: %d", res.Transforms)
	}
	if math.Abs(d.Area()-area0) > 1e-9 {
		t.Fatal("area changed despite zero budget")
	}
}

func TestTimerKindString(t *testing.T) {
	if closure.TimerGBA.String() != "GBA" || closure.TimerMGBA.String() != "mGBA" {
		t.Fatal("timer names drifted")
	}
}

func TestRecoveryDoesNotBreakTiming(t *testing.T) {
	// After a full GBA run, the timer must not report worse timing than the
	// violation count the flow exited the fix phase with would imply: the
	// recovery phase is forbidden from creating regressions.
	cfg := testDesign(t, 7006)
	d, err := gen.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := closure.Optimize(d, closure.DefaultOptions(closure.TimerGBA))
	if err != nil {
		t.Fatal(err)
	}
	if res.Downsized > 0 && res.TimerWNS < -1e9 {
		t.Fatal("recovery destroyed timing")
	}
	// Re-analyze from scratch and compare to the recorded timer view.
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	if math.Abs(r.TNS-res.TimerTNS) > 1e-6 {
		t.Fatalf("recorded timer TNS %v != fresh analysis %v", res.TimerTNS, r.TNS)
	}
}

// TestIncrementalCalibrationEquivalence is the closure-level contract of
// the incremental calibrator: the default flow (dirty-set Recalibrate) and
// the ColdRecalibrate ablation must walk the exact same transform sequence
// and land on bit-identical QoR and weights. Any drift here means the
// incremental path changed the optimization, not just its cost.
func TestIncrementalCalibrationEquivalence(t *testing.T) {
	cfg := testDesign(t, 7001)

	runFlow := func(cold bool) *closure.Result {
		d, err := gen.Generate(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := closure.DefaultOptions(closure.TimerMGBA)
		// Force several mid-flow recalibrations so the incremental path is
		// actually exercised between transforms.
		opt.RecalibrateEvery = 25
		opt.ColdRecalibrate = cold
		res, err := closure.Optimize(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	inc := runFlow(false)
	cold := runFlow(true)

	if inc.Calibrations < 2 {
		t.Fatalf("flow calibrated only %d times; fixture too tame", inc.Calibrations)
	}
	if inc.ViolatedEndpoints != cold.ViolatedEndpoints {
		t.Errorf("violated endpoints differ: incremental %d vs cold %d",
			inc.ViolatedEndpoints, cold.ViolatedEndpoints)
	}
	if inc.Area != cold.Area || inc.Leakage != cold.Leakage {
		t.Errorf("area/leakage differ: %v/%v vs %v/%v",
			inc.Area, inc.Leakage, cold.Area, cold.Leakage)
	}
	if inc.Buffers != cold.Buffers || inc.BuffersAdded != cold.BuffersAdded {
		t.Errorf("buffer counts differ: %d/%d vs %d/%d",
			inc.Buffers, inc.BuffersAdded, cold.Buffers, cold.BuffersAdded)
	}
	if inc.Upsized != cold.Upsized || inc.Downsized != cold.Downsized {
		t.Errorf("transform counts differ: up %d/%d, down %d/%d",
			inc.Upsized, cold.Upsized, inc.Downsized, cold.Downsized)
	}
	if inc.TimerWNS != cold.TimerWNS || inc.TimerTNS != cold.TimerTNS {
		t.Errorf("timer QoR differs: WNS %v vs %v, TNS %v vs %v",
			inc.TimerWNS, cold.TimerWNS, inc.TimerTNS, cold.TimerTNS)
	}
	if inc.SignoffWNS != cold.SignoffWNS || inc.SignoffTNS != cold.SignoffTNS {
		t.Errorf("signoff QoR differs: WNS %v vs %v, TNS %v vs %v",
			inc.SignoffWNS, cold.SignoffWNS, inc.SignoffTNS, cold.SignoffTNS)
	}
	if len(inc.Weights) != len(cold.Weights) {
		t.Fatalf("weight vector lengths differ: %d vs %d", len(inc.Weights), len(cold.Weights))
	}
	for i := range inc.Weights {
		if inc.Weights[i] != cold.Weights[i] {
			t.Fatalf("weights diverge at %d: %v vs %v", i, inc.Weights[i], cold.Weights[i])
		}
	}
}

// TestPrerouteClosureStaysIncremental extends the incremental contract to
// the cross-stage pair on D3: the dirty-set flow must land on the
// ColdRecalibrate ablation's design, weights and QoR bit for bit, while
// the routed twin stays in step across the rejected buffer trials, so only
// the first calibration runs cold and each call counts once.
func TestPrerouteClosureStaysIncremental(t *testing.T) {
	runFlow := func(cold bool) (*closure.Result, string, map[string]any) {
		d, err := gen.Generate(gen.Suite()[2]) // D3
		if err != nil {
			t.Fatal(err)
		}
		opt := closure.DefaultOptions(closure.TimerMGBA)
		opt.RecalibrateEvery = 25
		opt.Core.ViewPair = core.PreroutePair
		opt.ColdRecalibrate = cold
		prev := obs.Enabled()
		defer obs.Enable(prev)
		obs.Enable(true)
		obs.Reset()
		defer obs.Reset()
		res, err := closure.Optimize(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, hashDesign(d), obs.Snapshot()
	}
	inc, incHash, snap := runFlow(false)
	cold, coldHash, _ := runFlow(true)

	if n := snap["closure.transforms.buffer.rejected"]; n == int64(0) {
		t.Fatal("no buffer trial rejected; the run never reverts an insertion")
	}
	nCold, _ := snap["core.calibrations.cold"].(int64)
	nInc, _ := snap["core.calibrations.incremental"].(int64)
	if nCold > 1 {
		t.Errorf("%d of %d calibrations ran cold, want only the first", nCold, inc.Calibrations)
	}
	if nCold+nInc != int64(inc.Calibrations) {
		t.Errorf("calibrations counted %d cold + %d incremental, want %d in all", nCold, nInc, inc.Calibrations)
	}
	if incHash != coldHash {
		t.Errorf("final designs diverge: %s vs %s", incHash, coldHash)
	}
	if inc.Transforms != cold.Transforms || inc.Calibrations != cold.Calibrations {
		t.Errorf("flow differs: %d transforms / %d calibrations vs %d / %d",
			inc.Transforms, inc.Calibrations, cold.Transforms, cold.Calibrations)
	}
	if inc.TimerWNS != cold.TimerWNS || inc.TimerTNS != cold.TimerTNS ||
		inc.SignoffWNS != cold.SignoffWNS || inc.SignoffTNS != cold.SignoffTNS {
		t.Errorf("QoR differs: timer %v/%v vs %v/%v, signoff %v/%v vs %v/%v",
			inc.TimerWNS, inc.TimerTNS, cold.TimerWNS, cold.TimerTNS,
			inc.SignoffWNS, inc.SignoffTNS, cold.SignoffWNS, cold.SignoffTNS)
	}
	if hashWeights(inc.Weights) != hashWeights(cold.Weights) {
		t.Error("calibration weights diverge between incremental and cold")
	}
}

// TestRejectedTrialsLeaveNoSlots: a reverted buffer trial pops its buffer
// and net, so a closure run ends with the instances and nets it started
// with plus the buffers it accepted, its weight vector as long as the
// design, and every checkpoint written, including those right after an
// accepted or a rejected trial. D3 rejects its buffer trials; bufcase
// accepts one.
func TestRejectedTrialsLeaveNoSlots(t *testing.T) {
	for _, tc := range []struct {
		name     string
		design   func() (*netlist.Design, error)
		rejected bool // the run must reject a buffer trial
		accepted int  // buffers the run must accept
	}{
		{"D3", func() (*netlist.Design, error) { return gen.Generate(gen.Suite()[2]) }, true, 0},
		{"bufcase", fixtures.BufferCase, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.design()
			if err != nil {
				t.Fatal(err)
			}
			nInst, nNets := len(d.Instances), len(d.Nets)
			prev := obs.Enabled()
			defer obs.Enable(prev)
			obs.Enable(true)
			obs.Reset()
			defer obs.Reset()

			opt := closure.DefaultOptions(closure.TimerMGBA)
			opt.RecalibrateEvery = 25
			opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
			opt.CheckpointEvery = 1 // a checkpoint after every accepted move
			res, err := closure.Optimize(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			rejected, _ := obs.Snapshot()["closure.transforms.buffer.rejected"].(int64)
			if tc.rejected && rejected == 0 {
				t.Fatal("no buffer trial rejected; the run never reverts an insertion")
			}
			if res.BuffersAdded != tc.accepted {
				t.Fatalf("%d buffers accepted, want %d", res.BuffersAdded, tc.accepted)
			}
			if got, want := len(d.Instances), nInst+res.BuffersAdded; got != want {
				t.Errorf("design ends with %d instances after %d rejected trials, want %d", got, rejected, want)
			}
			if got, want := len(d.Nets), nNets+res.BuffersAdded; got != want {
				t.Errorf("design ends with %d nets after %d rejected trials, want %d", got, rejected, want)
			}
			if len(res.Weights) != len(d.Instances) {
				t.Errorf("%d weights for %d instances", len(res.Weights), len(d.Instances))
			}
			if len(res.Faults) != 0 {
				t.Errorf("faults recorded: %q", res.Faults)
			}
			if res.Checkpoints == 0 {
				t.Error("no checkpoint written")
			}
		})
	}
}
