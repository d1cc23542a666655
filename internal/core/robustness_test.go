package core_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/faultinject"
	"mgba/internal/solver"
)

// allOnes reports whether every weight is exactly the identity.
func allOnes(w []float64) bool {
	for _, v := range w {
		if v != 1 {
			return false
		}
	}
	return true
}

// TestLadderFallsToIdentityOnPersistentNaN: when every solver rung sees
// NaN gradients, calibration must land on identity weights (mGBA == GBA),
// record the fault, and never error or panic.
func TestLadderFallsToIdentityOnPersistentNaN(t *testing.T) {
	g, cfg := smallDesign(t)
	faultinject.SetSlice(faultinject.SolverGradient, func(v []float64) {
		for i := range v {
			v[i] = math.NaN()
		}
	})
	defer faultinject.Reset()
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded {
		t.Fatal("persistently poisoned calibration not marked degraded")
	}
	if m.Fault == "" {
		t.Fatal("identity fallback did not record a fault")
	}
	if m.SafetyScale != 0 {
		t.Fatalf("identity fallback SafetyScale = %v, want 0", m.SafetyScale)
	}
	if !allOnes(m.Weights) {
		t.Fatal("fallback weights are not identity")
	}
	if len(m.Attempts) != 3 {
		t.Fatalf("SCGRS ladder ran %d rungs, want 3", len(m.Attempts))
	}
	for _, a := range m.Attempts {
		if a.Rejected == "" {
			t.Fatalf("%v attempt accepted despite NaN gradients", a.Method)
		}
	}
	// Identity weights mean mGBA must reproduce GBA exactly.
	mg, _ := m.PathSlacks("mgba")
	gb, _ := m.PathSlacks("cheap")
	for i := range mg {
		if mg[i] != gb[i] {
			t.Fatalf("path %d: identity mGBA slack %v != GBA %v", i, mg[i], gb[i])
		}
	}
}

// TestLadderFallsOneRung: an injected startup error on the first rung only
// must degrade to the next method, which then succeeds.
func TestLadderFallsOneRung(t *testing.T) {
	g, cfg := smallDesign(t)
	calls := 0
	faultinject.SetError(faultinject.SolverStart, func() error {
		calls++
		if calls == 1 {
			return errors.New("injected solver startup failure")
		}
		return nil
	})
	defer faultinject.Reset()
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded {
		t.Fatal("fallback fit not marked degraded")
	}
	if m.Fault != "" {
		t.Fatalf("one-rung fallback should not reach identity, fault: %s", m.Fault)
	}
	if len(m.Attempts) < 2 {
		t.Fatalf("only %d attempts recorded", len(m.Attempts))
	}
	if m.Attempts[0].Rejected == "" {
		t.Fatal("first attempt not rejected")
	}
	if m.Attempts[1].Rejected != "" {
		t.Fatalf("second attempt rejected: %s", m.Attempts[1].Rejected)
	}
	if allOnes(m.Weights) {
		t.Fatal("fallback rung produced no fit at all")
	}
}

// TestStrictSafetyNoOptimism: strict mode must leave zero paths optimistic
// beyond the Eq. (5) epsilon guard on the training selection.
func TestStrictSafetyNoOptimism(t *testing.T) {
	g, cfg := smallDesign(t)
	opt := core.DefaultOptions()
	opt.StrictSafety = true
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Evaluate("mgba")
	if err != nil {
		t.Fatal(err)
	}
	if met.Optimism != 0 {
		t.Fatalf("strict safety left %d optimistic paths", met.Optimism)
	}
	if m.SafetyScale <= 0 || m.SafetyScale > 1 {
		t.Fatalf("SafetyScale = %v outside (0, 1]", m.SafetyScale)
	}
}

// TestDivergentStepsStaySafe: steps amplified 1e12x must either be
// rejected down the ladder or survive with the scale-back applied — in
// every case the final model obeys Eq. (5) on the selection (degraded fits
// are always scaled back).
func TestDivergentStepsStaySafe(t *testing.T) {
	g, cfg := smallDesign(t)
	faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 { return v * 1e12 })
	defer faultinject.Reset()
	opt := core.DefaultOptions()
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatal("non-finite weight escaped the pipeline")
		}
	}
	if !m.Degraded && !allOnes(m.Weights) {
		t.Fatal("divergent solve accepted as healthy")
	}
	// Eq. 5 on the training selection: s_mgba <= s_pba + eps*|s_pba|.
	mg, err := m.PathSlacks("mgba")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := m.PathSlacks("golden")
	for i := range mg {
		if mg[i] > pb[i]+opt.Epsilon*math.Abs(pb[i])+1e-9 {
			t.Fatalf("path %d optimistic: mGBA %v vs PBA %v", i, mg[i], pb[i])
		}
	}
}

// TestCalibrateCancelledContext: an already-cancelled context must yield a
// usable identity model immediately — no error, no panic, non-nil
// selection — because callers dereference the model unconditionally.
func TestCalibrateCancelledContext(t *testing.T) {
	g, cfg := smallDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := core.Calibrate(ctx, g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Partial || !m.Degraded {
		t.Fatalf("cancelled calibration not marked partial+degraded: %+v / %+v", m.Partial, m.Degraded)
	}
	if m.Selection == nil {
		t.Fatal("cancelled calibration returned nil selection")
	}
	if !allOnes(m.Weights) {
		t.Fatal("cancelled calibration returned non-identity weights")
	}
	if m.MGBA != m.GBA {
		t.Fatal("cancelled calibration should reuse the GBA view")
	}
	if m.MGBA == nil {
		t.Fatal("cancelled calibration returned no timing view")
	}
}

// TestCancelledMidSolveScalesBack: cancelling during the solver run must
// accept the partial iterate only with the Eq. (5) scale-back applied.
func TestCancelledMidSolveScalesBack(t *testing.T) {
	g, cfg := smallDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 {
		steps++
		if steps == 40 {
			cancel()
		}
		return v
	})
	defer faultinject.Reset()
	m, err := core.Calibrate(ctx, g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Partial {
		t.Skip("solver finished before the cancel landed; nothing to assert")
	}
	mg, err := m.PathSlacks("mgba")
	if err != nil {
		// Identity fallback: trivially safe.
		return
	}
	pb, _ := m.PathSlacks("golden")
	for i := range mg {
		if mg[i] > pb[i]+m.Opt.Epsilon*math.Abs(pb[i])+1e-9 {
			t.Fatalf("partial fit optimistic on path %d: mGBA %v vs PBA %v", i, mg[i], pb[i])
		}
	}
}

// TestConvergedFlagOnHealthyFit: the accepted attempt of a healthy
// calibration reports a terminal stop reason.
func TestConvergedFlagOnHealthyFit(t *testing.T) {
	g, cfg := smallDesign(t)
	m, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded {
		t.Skip("fixture unexpectedly degraded")
	}
	if !m.Stats.Converged {
		t.Fatalf("healthy fit did not converge: reason %v", m.Stats.Reason)
	}
	if m.Stats.Reason == solver.StopNone {
		t.Fatal("stop reason not recorded")
	}
}

// TestCorruptedWarmStartRejected: corrupted warm weights must never steer
// the fit. NaN entries fail the positivity filter and are dropped before
// the solver (the calibration proceeds exactly as if unseeded); infinite
// entries pass the filter, trip every rung's non-finite detector, and land
// the ladder on identity weights. Neither panics, errors, or goes
// optimistic.
func TestCorruptedWarmStartRejected(t *testing.T) {
	g, cfg := smallDesign(t)

	// NaN warm start: filtered out, bitwise-equal to an unseeded run.
	opt := core.DefaultOptions()
	opt.WarmWeights = make([]float64, len(g.D.Instances))
	for i := range opt.WarmWeights {
		opt.WarmWeights[i] = math.NaN()
	}
	m, err := core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Calibrate(context.Background(), g, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded || m.Fault != "" {
		t.Fatalf("NaN warm start degraded the fit: fault=%q", m.Fault)
	}
	for i := range m.Weights {
		if m.Weights[i] != ref.Weights[i] {
			t.Fatalf("NaN warm start steered the fit: weight %d is %v, unseeded %v",
				i, m.Weights[i], ref.Weights[i])
		}
	}

	// Infinite warm start: reaches the solver, rejected on every rung.
	for i := range opt.WarmWeights {
		opt.WarmWeights[i] = math.Inf(1)
	}
	m, err = core.Calibrate(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded || m.Fault == "" {
		t.Fatalf("infinite warm start not rejected: degraded=%v fault=%q", m.Degraded, m.Fault)
	}
	if !allOnes(m.Weights) {
		t.Fatal("infinite warm start leaked non-identity weights")
	}
	for _, a := range m.Attempts {
		if a.Rejected == "" {
			t.Fatalf("%v attempt accepted an infinite warm start", a.Method)
		}
	}
}

// TestCalibratorRecoversFromCorruptedWarmStart: a calibrator seeded with a
// poisoned warm start must degrade to identity on the first calibration and
// then recover on the next one (the identity outcome replaces the warm
// start), without any cache poisoning in between.
func TestCalibratorRecoversFromCorruptedWarmStart(t *testing.T) {
	g, cfg := smallDesign(t)
	sess := engine.NewSession(g)
	cal, err := core.NewCalibrator(sess, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, len(g.D.Instances))
	for i := range bad {
		bad[i] = math.Inf(1)
	}
	cal.SetWarmWeights(bad)
	m0, err := cal.Calibrate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !allOnes(m0.Weights) {
		t.Fatal("infinite warm start leaked non-identity weights")
	}
	m1, err := cal.Recalibrate(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fault != "" || m1.Degraded {
		t.Fatalf("calibrator did not recover after poisoned warm start: fault=%q degraded=%v",
			m1.Fault, m1.Degraded)
	}
	if allOnes(m1.Weights) {
		t.Fatal("recovered calibration produced no correction on a violating design")
	}
}
