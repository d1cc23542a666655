package core_test

import (
	"context"
	"errors"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/obs"
	"mgba/internal/sta"
)

// The cross-stage ("preroute") pair corrects a pre-route analysis
// against a deterministically routed twin of the design. These tests pin
// the two contracts the abstraction must uphold on the new pair: the
// Eq. (5) never-optimistic constraint against the routed golden, and
// bit-exact equivalence between incremental recalibration and cold
// calibration.

func prerouteOptions() core.Options {
	opt := core.DefaultOptions()
	opt.ViewPair = core.PreroutePair
	// StrictSafety is deliberately NOT set: a cross-stage pair declares it
	// needs exact Eq. (5) enforcement and the calibrator forces it on —
	// the never-optimistic assertions below cover that forcing.
	return opt
}

func TestPrerouteCalibrateFitsRoutedGolden(t *testing.T) {
	_, _, sess := calDesign(t)
	cfg := sta.DefaultConfig()
	opt := prerouteOptions()

	m, err := core.CalibrateWithSession(context.Background(), sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pair != core.PreroutePair {
		t.Fatalf("model pair = %q, want %q", m.Pair, core.PreroutePair)
	}
	if m.Fault != "" || m.Degraded {
		t.Fatalf("preroute calibration degraded: fault=%q degraded=%v", m.Fault, m.Degraded)
	}
	if len(m.Selection.Paths) == 0 {
		t.Fatal("preroute pair selected no paths")
	}
	gba, err := m.Evaluate("cheap")
	if err != nil {
		t.Fatal(err)
	}
	mgba, err := m.Evaluate("mgba")
	if err != nil {
		t.Fatal(err)
	}
	// The routed twin lengthens most wires, so the uncorrected pre-route
	// view is optimistic on a healthy fraction of paths — the gap the fit
	// must close from below, which scale-back toward identity never could.
	if gba.Optimism == 0 {
		t.Fatal("routed perturbation produced no optimistic pre-route paths; the cross-stage case is vacuous")
	}
	// Eq. (5) on the new pair: no fitted slack is optimistic beyond the
	// epsilon guard against the routed golden.
	if mgba.Optimism != 0 {
		t.Fatalf("fitted pre-route slacks optimistic beyond eps on %d/%d paths (MSE %.3g)",
			mgba.Optimism, mgba.Paths, mgba.MSE)
	}
	if mgba.MSE >= gba.MSE {
		t.Fatalf("fit did not improve MSE: cheap %.3g -> mgba %.3g", gba.MSE, mgba.MSE)
	}
	// Weights above one must be reachable (the cheap view under-times
	// routed paths); the default pair's fits are all <= 1.
	up := 0
	for _, w := range m.Weights {
		if w > 1 {
			up++
		}
	}
	if up == 0 {
		t.Fatal("no fitted weight above 1: routed lengthening was not absorbed")
	}
}

// TestPrerouteRecalibrateMatchesCold is the calibrator contract replayed
// on the cross-stage pair: after a sizing batch, the incremental path —
// baseline update, routed-twin cell mirroring, row rebuild, warm solve —
// must land bit-identically on a cold calibration of the same state.
func TestPrerouteRecalibrateMatchesCold(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()
	opt := prerouteOptions()

	cal, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Pair() != core.PreroutePair {
		t.Fatalf("calibrator pair = %q", cal.Pair())
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

	coldOpt := opt
	coldOpt.WarmWeights = m0.Weights
	mCold, err := core.CalibrateWithSession(ctx, engine.NewSession(g), cfg, coldOpt)
	if err != nil {
		t.Fatal(err)
	}

	if !sameFloats(mInc.Weights, mCold.Weights) {
		t.Error("incremental weights differ from cold calibration on the preroute pair")
	}
	if len(mInc.GoldenSlack) != len(mCold.GoldenSlack) {
		t.Fatalf("golden slack counts differ: %d vs %d", len(mInc.GoldenSlack), len(mCold.GoldenSlack))
	}
	for i := range mInc.GoldenSlack {
		if mInc.GoldenSlack[i] != mCold.GoldenSlack[i] {
			t.Fatalf("routed golden slack %d differs: %v vs %v",
				i, mInc.GoldenSlack[i], mCold.GoldenSlack[i])
		}
	}
	if !sameFloats(mInc.Problem.B, mCold.Problem.B) {
		t.Error("assembled targets differ from cold calibration")
	}
	if !sameFloats(mInc.MGBA.Slack, mCold.MGBA.Slack) {
		t.Error("mGBA endpoint slacks differ from cold calibration")
	}
}

// TestPrerouteTargetsDifferFromDefault guards against the cross-stage
// pair silently degenerating into the default one: the routed golden
// must move the fit targets.
func TestPrerouteTargetsDifferFromDefault(t *testing.T) {
	_, _, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.DefaultConfig()

	mDef, err := core.CalibrateWithSession(ctx, sess, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mPre, err := core.CalibrateWithSession(ctx, sess, cfg, prerouteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mDef.Pair != core.DefaultViewPair {
		t.Fatalf("default model pair = %q", mDef.Pair)
	}
	if sameFloats(mDef.Problem.B, mPre.Problem.B) {
		t.Fatal("preroute targets identical to default pair; routed golden had no effect")
	}
}

// TestPathSlackKindAliases pins the removal of the legacy slack-kind
// aliases: "gba" and "pba" are rejected by PathSlacks, Evaluate and
// CornerFit.Evaluate alike; the kinds are "cheap", "golden" and "mgba".
func TestPathSlackKindAliases(t *testing.T) {
	_, _, sess := calDesign(t)
	m, err := core.CalibrateWithSession(context.Background(), sess, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"cheap", "golden", "mgba"} {
		if _, err := m.PathSlacks(kind); err != nil {
			t.Errorf("PathSlacks(%q): %v", kind, err)
		}
	}
	var cf core.CornerFit
	for _, alias := range []string{"gba", "pba"} {
		if _, err := m.PathSlacks(alias); err == nil {
			t.Errorf("PathSlacks accepted the legacy alias %q", alias)
		}
		if _, err := m.Evaluate(alias); err == nil {
			t.Errorf("Evaluate accepted the legacy alias %q", alias)
		}
		if _, err := cf.Evaluate(alias, 0.02); err == nil {
			t.Errorf("CornerFit.Evaluate accepted the legacy alias %q", alias)
		}
	}
}

func TestLookupViewPair(t *testing.T) {
	if _, err := core.LookupViewPair(""); err != nil {
		t.Fatalf("empty name must resolve to the default pair: %v", err)
	}
	for _, name := range []string{core.DefaultViewPair, core.PreroutePair} {
		p, err := core.LookupViewPair(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("LookupViewPair(%q).Name() = %q", name, p.Name())
		}
	}
	_, err := core.LookupViewPair("no-such-pair")
	if err == nil {
		t.Fatal("unknown pair name did not error")
	}
	for _, want := range []string{core.DefaultViewPair, core.PreroutePair} {
		if !containsStr(err.Error(), want) {
			t.Errorf("lookup error %q does not list registered pair %q", err, want)
		}
	}
	names := core.ViewPairNames()
	if len(names) < 2 {
		t.Fatalf("expected at least 2 registered pairs, got %v", names)
	}

	_, _, sess := calDesign(t)
	opt := core.DefaultOptions()
	opt.ViewPair = "no-such-pair"
	if _, err := core.NewCalibrator(sess, sta.DefaultConfig(), opt); err == nil {
		t.Fatal("NewCalibrator accepted an unknown view pair")
	}
	if _, err := core.CalibrateWithSession(context.Background(), sess, sta.DefaultConfig(), opt); err == nil {
		t.Fatal("CalibrateWithSession accepted an unknown view pair")
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// failingUpdatePair is the default pair with a golden provider whose
// incremental Update fails on demand, forcing Recalibrate's cold
// fallback.
type failingUpdatePair struct{ fail *bool }

func (failingUpdatePair) Name() string { return "test-failing-update" }

func (p failingUpdatePair) Bind(s *engine.Session, cfg sta.Config, opt core.Options) (core.GoldenProvider, error) {
	base, err := core.LookupViewPair(core.DefaultViewPair)
	if err != nil {
		return nil, err
	}
	golden, err := base.Bind(s, cfg, opt)
	return failingUpdate{golden, p.fail}, err
}

type failingUpdate struct {
	core.GoldenProvider
	fail *bool
}

func (f failingUpdate) Update(dirty []int) error {
	if *f.fail {
		return errors.New("mirror out of step")
	}
	return f.GoldenProvider.Update(dirty)
}

var failUpdate = new(bool)

func init() { core.RegisterViewPair(failingUpdatePair{fail: failUpdate}) }

// TestGoldenUpdateFallbackCountsOnce: a Recalibrate whose golden mirror
// cannot follow the dirty set falls back to a cold calibration, and that
// call counts as cold only — in the stats and in the metrics alike.
func TestGoldenUpdateFallbackCountsOnce(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	opt := core.DefaultOptions()
	opt.ViewPair = "test-failing-update"
	cal, err := core.NewCalibrator(sess, sta.DefaultConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dirty := upsizeSelected(t, d, g, m, 3)

	prev := obs.Enabled()
	defer obs.Enable(prev)
	obs.Enable(true)
	obs.Reset()
	defer obs.Reset()
	*failUpdate = true
	defer func() { *failUpdate = false }()
	if _, err := cal.Recalibrate(ctx, dirty); err != nil {
		t.Fatal(err)
	}
	if st := cal.Stats(); st.Cold != 2 || st.Incremental != 0 {
		t.Fatalf("fallback miscounted: stats %+v, want 2 cold and 0 incremental", st)
	}
	snap := obs.Snapshot()
	if c, i := snap["core.calibrations.cold"], snap["core.calibrations.incremental"]; c != int64(1) || i != int64(0) {
		t.Fatalf("fallback metrics: cold %v incremental %v, want 1 and 0", c, i)
	}
}
