package closure_test

import (
	"context"
	"errors"
	"io"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mgba/internal/closure"
	"mgba/internal/faultinject"
	"mgba/internal/gen"
	"mgba/internal/netlist"
)

// faultDesign is a smaller fixture than the QoR tests use: the fault suite
// exercises control flow, not closure quality.
func faultDesign(t *testing.T, seed uint64) *netlist.Design {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 400, 50
	cfg.Seed = seed
	cfg.Name = "fault-test"
	cfg.DepthCap = 0.05
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fastOptions shrinks the flow for fault tests.
func fastOptions(timer closure.TimerKind) closure.Options {
	opt := closure.DefaultOptions(timer)
	opt.MaxTransforms = 400
	opt.MaxBuffers = 10
	opt.RecalibrateEvery = 60
	return opt
}

// TestFlowSurvivesNaNGradients: with every solver gradient poisoned, the
// mGBA flow must degrade to identity weights (mGBA == GBA), record the
// faults, and still terminate with a valid optimized design.
func TestFlowSurvivesNaNGradients(t *testing.T) {
	d := faultDesign(t, 8001)
	faultinject.SetSlice(faultinject.SolverGradient, func(v []float64) {
		for i := range v {
			v[i] = math.NaN()
		}
	})
	defer faultinject.Reset()
	res, err := closure.Run(context.Background(), d, fastOptions(closure.TimerMGBA))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after faulted run: %v", err)
	}
	if res.Interrupted {
		t.Fatal("faulted run reported interrupted")
	}
	// Every calibration that had paths to fit must have degraded; ones on
	// a timing-closed design legitimately return a clean identity model.
	if res.DegradedCalibrations == 0 {
		t.Fatalf("no degraded calibrations recorded out of %d", res.Calibrations)
	}
	if len(res.Faults) == 0 {
		t.Fatal("identity fallbacks left no fault record")
	}
	for _, w := range res.Weights {
		if w != 1 {
			t.Fatalf("poisoned calibration produced non-identity weight %v", w)
		}
	}
}

// TestFlowSurvivesDivergentSteps: amplified solver steps must never leak
// non-finite weights into the timer or crash the flow.
func TestFlowSurvivesDivergentSteps(t *testing.T) {
	d := faultDesign(t, 8002)
	faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 { return v * 1e12 })
	defer faultinject.Reset()
	res, err := closure.Run(context.Background(), d, fastOptions(closure.TimerMGBA))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after faulted run: %v", err)
	}
	for i, w := range res.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("non-finite weight %v at instance %d", w, i)
		}
	}
	if math.IsNaN(res.TimerTNS) || math.IsNaN(res.SignoffTNS) {
		t.Fatal("non-finite QoR escaped the flow")
	}
}

// TestRunAlreadyCancelled: a context that is cancelled before Run starts
// must still yield an immediate, usable, zero-transform result.
func TestRunAlreadyCancelled(t *testing.T) {
	for _, timer := range []closure.TimerKind{closure.TimerGBA, closure.TimerMGBA} {
		d := faultDesign(t, 8003)
		area0 := d.Area()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := closure.Run(ctx, d, fastOptions(timer))
		if err != nil {
			t.Fatalf("%v: %v", timer, err)
		}
		if !res.Interrupted {
			t.Fatalf("%v: cancelled run not marked interrupted", timer)
		}
		if res.Transforms != 0 {
			t.Fatalf("%v: cancelled run applied %d transforms", timer, res.Transforms)
		}
		if d.Area() != area0 {
			t.Fatalf("%v: cancelled run mutated the design", timer)
		}
		if math.IsNaN(res.TimerTNS) || res.ViolatedEndpoints == 0 {
			t.Fatalf("%v: cancelled result lacks a usable timing view (TNS %v, violated %d)",
				timer, res.TimerTNS, res.ViolatedEndpoints)
		}
		if res.StopReason == "completed" || res.StopReason == "" {
			t.Fatalf("%v: wrong stop reason %q", timer, res.StopReason)
		}
	}
}

// TestCancelMidRunIsSafe: cancelling while the flow is mid-repair must
// stop it promptly at a transform boundary, leaving a valid design, honest
// counters, and a non-optimistic timing view (the PBA sign-off can only be
// better than or epsilon-close to what the embedded timer promised).
func TestCancelMidRunIsSafe(t *testing.T) {
	d := faultDesign(t, 8004)
	ctx, cancel := context.WithCancel(context.Background())
	opt := fastOptions(closure.TimerMGBA)
	opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	opt.CheckpointEvery = 10
	ckpts := 0
	opt.OnCheckpoint = func(string) {
		ckpts++
		if ckpts == 3 {
			cancel()
		}
	}
	res, err := closure.Run(ctx, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Skip("flow finished before the third checkpoint; nothing to assert")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after cancellation: %v", err)
	}
	if res.Transforms == 0 {
		t.Fatal("cancelled after 3 checkpoints but no transforms recorded")
	}
	if res.Transforms != res.Upsized+res.Downsized+res.BuffersAdded {
		t.Fatal("transform accounting broken by cancellation")
	}
	// Epsilon-pessimism safety: the mGBA view the flow stopped under must
	// not promise better timing than PBA sign-off delivers beyond the
	// calibration epsilon.
	eps := opt.Core.Epsilon
	if res.SignoffWNS < res.TimerWNS+eps*math.Abs(res.TimerWNS)-1e-6 {
		t.Fatalf("interrupted flow optimistic: timer WNS %v vs signoff %v", res.TimerWNS, res.SignoffWNS)
	}
}

// TestCheckpointResumeEquivalence is the acceptance criterion of the
// robustness work: a run killed at an arbitrary checkpoint and resumed
// must reach the same closure state as an uninterrupted run.
func TestCheckpointResumeEquivalence(t *testing.T) {
	opt := fastOptions(closure.TimerMGBA)

	// Reference: uninterrupted run.
	ref, err := closure.Run(context.Background(), faultDesign(t, 8005), opt)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: kill at the 3rd checkpoint (mid-repair, a few
	// transforms in), then resume until completion.
	path := filepath.Join(t.TempDir(), "ckpt.json")
	opt.CheckpointPath = path
	opt.CheckpointEvery = 5
	ctx, cancel := context.WithCancel(context.Background())
	ckpts := 0
	opt.OnCheckpoint = func(string) {
		ckpts++
		if ckpts == 3 {
			cancel()
		}
	}
	res, err := closure.Run(ctx, faultDesign(t, 8005), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Skip("flow completed before the kill point; equivalence trivially holds")
	}
	opt.OnCheckpoint = nil
	for hops := 0; res.Interrupted; hops++ {
		if hops > 10 {
			t.Fatal("resume never completed")
		}
		res, err = closure.Resume(context.Background(), path, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Resumed {
			t.Fatal("resumed run not marked resumed")
		}
	}

	if res.ViolatedEndpoints != ref.ViolatedEndpoints {
		t.Fatalf("violated endpoints diverged: resumed %d vs uninterrupted %d",
			res.ViolatedEndpoints, ref.ViolatedEndpoints)
	}
	if math.Abs(res.TimerTNS-ref.TimerTNS) > 1e-6 {
		t.Fatalf("timer TNS diverged: resumed %v vs uninterrupted %v", res.TimerTNS, ref.TimerTNS)
	}
	if res.Transforms != ref.Transforms {
		t.Fatalf("transform count diverged: resumed %d vs uninterrupted %d", res.Transforms, ref.Transforms)
	}
	if math.Abs(res.Area-ref.Area) > 1e-9 {
		t.Fatalf("area diverged: resumed %v vs uninterrupted %v", res.Area, ref.Area)
	}
}

// TestResumeOfCompletedRunIsNoOp: resuming a checkpoint whose flow already
// finished must return promptly without applying further transforms.
func TestResumeOfCompletedRunIsNoOp(t *testing.T) {
	d := faultDesign(t, 8006)
	opt := fastOptions(closure.TimerMGBA)
	opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	res, err := closure.Run(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("unexpected interruption")
	}
	res2, err := closure.Resume(context.Background(), opt.CheckpointPath, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Transforms != res.Transforms {
		t.Fatalf("no-op resume changed transform count: %d vs %d", res2.Transforms, res.Transforms)
	}
	if res2.ViolatedEndpoints != res.ViolatedEndpoints {
		t.Fatalf("no-op resume changed violations: %d vs %d", res2.ViolatedEndpoints, res.ViolatedEndpoints)
	}
}

// TestResumeRejectsTimerMismatch: a checkpoint written by one flow variant
// must not silently continue under the other.
func TestResumeRejectsTimerMismatch(t *testing.T) {
	d := faultDesign(t, 8007)
	opt := fastOptions(closure.TimerGBA)
	opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	if _, err := closure.Run(context.Background(), d, opt); err != nil {
		t.Fatal(err)
	}
	bad := fastOptions(closure.TimerMGBA)
	if _, err := closure.Resume(context.Background(), opt.CheckpointPath, bad); err == nil {
		t.Fatal("timer mismatch accepted")
	}
}

// TestGBAFlowCheckpointResume: the checkpoint machinery also covers the
// GBA flow (nil weights round-trip).
func TestGBAFlowCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	opt := fastOptions(closure.TimerGBA)
	opt.CheckpointPath = path
	opt.CheckpointEvery = 15
	ctx, cancel := context.WithCancel(context.Background())
	ckpts := 0
	opt.OnCheckpoint = func(string) {
		ckpts++
		if ckpts == 2 {
			cancel()
		}
	}
	res, err := closure.Run(ctx, faultDesign(t, 8008), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Skip("flow completed before the kill point")
	}
	opt.OnCheckpoint = nil
	for hops := 0; res.Interrupted; hops++ {
		if hops > 10 {
			t.Fatal("resume never completed")
		}
		res, err = closure.Resume(context.Background(), path, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	if res.Weights != nil {
		t.Fatal("GBA flow grew weights through resume")
	}
	if res.Validations == 0 {
		t.Fatal("resumed GBA flow never validated")
	}
}

// TestCancelDuringRecalibration: cancelling from inside the calibrator's
// path enumeration (after the initial cold calibration) must abandon the
// recalibration non-optimistically — identity weights, Partial recorded —
// and stop the flow at the next transform boundary with a valid design.
func TestCancelDuringRecalibration(t *testing.T) {
	d := faultDesign(t, 8009)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	faultinject.SetFloat(faultinject.PathEnum, func(v float64) float64 {
		// Let the initial cold calibration's enumeration pass, then cancel
		// mid-enumeration of a later (incremental) recalibration.
		if calls.Add(1) == 60 {
			cancel()
		}
		return v
	})
	defer faultinject.Reset()
	opt := fastOptions(closure.TimerMGBA)
	opt.RecalibrateEvery = 20
	res, err := closure.Run(ctx, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Skip("flow finished before the cancellation point; nothing to assert")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after mid-recalibration cancel: %v", err)
	}
	if math.IsNaN(res.TimerTNS) || math.IsNaN(res.SignoffTNS) {
		t.Fatal("non-finite QoR escaped the cancelled flow")
	}
	for i, w := range res.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w > 1 {
			t.Fatalf("optimistic or non-finite weight %v at instance %d after abandon", w, i)
		}
	}
	// Epsilon-pessimism safety: the view the flow stopped under must not
	// promise better timing than sign-off delivers.
	eps := opt.Core.Epsilon
	if res.SignoffWNS < res.TimerWNS+eps*math.Abs(res.TimerWNS)-1e-6 {
		t.Fatalf("interrupted recalibration optimistic: timer WNS %v vs signoff %v",
			res.TimerWNS, res.SignoffWNS)
	}
}

// TestFlowSurvivesCorruptedRowPatch: poisoning every row an incremental
// recalibration rebuilds with NaN must push the solve down the
// degradation ladder to identity weights, invalidate the calibrator's
// cache (so the following cold calibration is clean), and never leak
// non-finite state.
func TestFlowSurvivesCorruptedRowPatch(t *testing.T) {
	d := faultDesign(t, 8010)
	corrupted := 0
	faultinject.SetSlice(faultinject.RecalibrateRow, func(v []float64) {
		corrupted++
		for i := range v {
			v[i] = math.NaN()
		}
	})
	defer faultinject.Reset()
	opt := fastOptions(closure.TimerMGBA)
	res, err := closure.Run(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after corrupted-row run: %v", err)
	}
	if corrupted == 0 {
		t.Fatal("no incremental recalibration rebuilt a row")
	}
	if res.DegradedCalibrations == 0 && len(res.Faults) == 0 {
		t.Fatal("corrupted rows left no degradation or fault record")
	}
	for i, w := range res.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("non-finite weight %v at instance %d", w, i)
		}
	}
	if math.IsNaN(res.TimerTNS) || math.IsNaN(res.SignoffTNS) {
		t.Fatal("non-finite QoR escaped the flow")
	}
	// Non-optimism: sign-off must not be worse than the timer promised
	// beyond the calibration epsilon.
	eps := opt.Core.Epsilon
	if res.SignoffWNS < res.TimerWNS+eps*math.Abs(res.TimerWNS)-1e-6 {
		t.Fatalf("corrupted calibration optimistic: timer WNS %v vs signoff %v",
			res.TimerWNS, res.SignoffWNS)
	}
}

// failingWriter truncates every stream after limit bytes, the same write
// fault the netio crash suite injects.
type failingWriter struct {
	w       io.Writer
	limit   int
	written int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		n := f.limit - f.written
		if n > 0 {
			f.w.Write(p[:n])
			f.written += n
		}
		return n, errors.New("injected write failure")
	}
	n, err := f.w.Write(p)
	f.written += n
	return n, err
}

// TestRetimeFlowSurvivesCheckpointWriteFault extends the corruption suite
// to the v2 per-transform checkpoint path: with every checkpoint write
// truncated mid-stream, a retime-enabled flow must record the failures as
// faults and still complete with the exact design and QoR of an unfaulted
// run — losing checkpoints never loses or perturbs the optimization.
func TestRetimeFlowSurvivesCheckpointWriteFault(t *testing.T) {
	opt := retimeOptions(closure.TimerMGBA)
	ref, err := closure.Optimize(retimeDesign(t, 2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Retimed() == 0 {
		t.Fatalf("no retiming accepted; fixture too tame: kinds=%v", ref.Kinds)
	}

	faultinject.SetWriter(faultinject.NetioWrite, func(w io.Writer) io.Writer {
		return &failingWriter{w: w, limit: 64}
	})
	defer faultinject.Reset()

	opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	opt.CheckpointEvery = 1
	res, err := closure.Optimize(retimeDesign(t, 2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) == 0 {
		t.Fatal("truncated checkpoint writes recorded no faults")
	}
	if res.Checkpoints != 0 {
		t.Fatalf("%d checkpoints counted as written despite the write fault", res.Checkpoints)
	}
	if res.Transforms != ref.Transforms || res.Retimed() != ref.Retimed() {
		t.Fatalf("checkpoint faults perturbed the flow: %d/%d transforms vs %d/%d",
			res.Transforms, res.Retimed(), ref.Transforms, ref.Retimed())
	}
	if res.TimerWNS != ref.TimerWNS || res.TimerTNS != ref.TimerTNS {
		t.Fatalf("checkpoint faults perturbed QoR: WNS %v vs %v, TNS %v vs %v",
			res.TimerWNS, ref.TimerWNS, res.TimerTNS, ref.TimerTNS)
	}
}
