package closure

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/pba"
	"mgba/internal/sta"
	"mgba/internal/transform"
)

// phase identifies where in the flow a run (or a checkpoint of one) is.
type phase int

const (
	phaseRepair   phase = iota // round-based repair loop
	phaseRecovery              // area/leakage recovery pass
	phaseFinal                 // mGBA: final recalibrate + repair
	phaseDone                  // nothing left but finish()
)

// flow carries the mutable optimization state. The timing session is
// replaced only when a connectivity-changing move (buffer insertion,
// retiming) is accepted; the thousands of resize trials in between run
// through Result.Update against the same session, allocating nothing.
type flow struct {
	d   *netlist.Design
	opt Options
	ctx context.Context

	reg     *transform.Registry
	kindObs map[string]kindMetrics

	g    *graph.Graph
	sess *engine.Session
	// views holds one live timing view per corner, the selection corner
	// first: the one view under GBA and in a single-corner run, every
	// corner's fitted mGBA view in a multi-corner run (see corners.go).
	// mergedBuf is the reused worst-corner slack buffer.
	views     []*cornerView
	mergedBuf []float64

	// cal is the persistent mGBA calibrator; nil until the first
	// calibration. calStale marks it as bound to a session an accepted
	// structural move (buffer insertion, retiming) superseded; the next
	// calibrate rebinds it instead of discarding it. dirty accumulates the
	// instances whose timing changed through accepted transforms since
	// the last calibration — the seed set for the calibrator's
	// incremental re-enumeration.
	cal      *core.Calibrator
	calStale bool
	dirty    map[int]bool

	res        *Result
	transforms int // transforms since the last recalibration

	// owed is set when cancellation cut a calibration short: the flow
	// keeps reporting the identity view the calibration fell back to, but
	// checkpoints record the fit state the calibration started from, so a
	// resumed run redoes it instead of adopting the fallback.
	owed *fitState

	// skip marks the endpoints the current repair pass gave up on; nil
	// between passes. A checkpoint carries it, so a pass resumed mid-way
	// skips what the interrupted one had given up on.
	skip map[int]bool

	// Checkpoint/resume bookkeeping.
	curPhase        phase
	curRound        int
	recoveryPos     int // next f.g.Topo index for the recovery pass
	finalCalibrated bool
	sinceCkpt       int // accepted transforms since the last checkpoint
}

// sel is the selection corner's live view: the one transforms are
// proposed on and accepted against.
func (f *flow) sel() *sta.Result { return f.views[0].r }

// analysis bundles the flow's current timing view for transform calls.
// Rebuilt at each use: connectivity-changing trials replace G and R.
func (f *flow) analysis() *transform.Analysis {
	return &transform.Analysis{D: f.d, G: f.g, R: f.sel()}
}

// snap captures the acceptance snapshot of r for endpoint fi (NaN slack
// for recovery-pass calls, which carry no target endpoint).
func snap(r *sta.Result, fi int) transform.Snapshot {
	s := math.NaN()
	if fi >= 0 {
		s = r.Slack[fi]
	}
	return transform.Snapshot{Slack: s, WNS: r.WNS, TNS: r.TNS}
}

// stopped reports whether the run's context has been cancelled, latching
// the interruption into the Result the first time it observes it.
func (f *flow) stopped() bool {
	if f.res.Interrupted {
		return true
	}
	if f.ctx == nil {
		return false
	}
	select {
	case <-f.ctx.Done():
		f.res.Interrupted = true
		f.res.StopReason = f.ctx.Err().Error()
		return true
	default:
		return false
	}
}

// Optimize runs the timing-closure flow on the design in place and returns
// the final QoR. The design is mutated (resized cells, inserted buffers,
// relocated registers). It is Run with a background context.
func Optimize(d *netlist.Design, opt Options) (*Result, error) {
	return Run(context.Background(), d, opt)
}

// Run runs the timing-closure flow under a context. Cancelling the context
// (or exceeding its deadline) stops the flow at the next transform
// boundary and returns a valid partial Result with Interrupted set — never
// an error, and never a design in a half-applied-transform state. A
// context that is already cancelled yields a zero-transform Result whose
// QoR fields still describe the (re-timed) input design.
func Run(ctx context.Context, d *netlist.Design, opt Options) (*Result, error) {
	return run(ctx, d, opt, nil, nil, nil)
}

// Resume continues an interrupted run from a checkpoint written by a
// previous Run with Options.CheckpointPath set. The opt passed here
// controls the continued run and must use the same TimerKind (and, for a
// multi-corner run, the same corner count) the checkpoint was written
// under; counters, the repair pass's skipped endpoints and every
// corner's weights and timing view are restored, so the combined Result
// matches an uninterrupted run. A calibration the interrupted run owed —
// including one its cancellation cut short — is redone before the first
// transform.
func Resume(ctx context.Context, path string, opt Options) (*Result, error) {
	c, err := netio.LoadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	if len(c.State) == 0 {
		return nil, fmt.Errorf("closure: checkpoint has no flow state")
	}
	var st ckptState
	if err := json.Unmarshal(c.State, &st); err != nil {
		return nil, fmt.Errorf("closure: bad checkpoint state: %w", err)
	}
	if st.Phase < int(phaseRepair) || st.Phase > int(phaseDone) {
		return nil, fmt.Errorf("closure: checkpoint phase %d out of range", st.Phase)
	}
	if TimerKind(st.Timer) != opt.Timer {
		return nil, fmt.Errorf("closure: checkpoint was written by the %v flow, options select %v",
			TimerKind(st.Timer), opt.Timer)
	}
	if n := len(st.CornerWeights); n > 0 && n != len(opt.Core.Corners)-1 {
		return nil, fmt.Errorf("closure: checkpoint carries %d extra corner fits, options name %d corners",
			n, len(opt.Core.Corners))
	}
	for i, w := range st.CornerWeights {
		if len(w) != len(c.Design.Instances) {
			return nil, fmt.Errorf("closure: checkpoint corner %d has %d weights for %d instances",
				i+1, len(w), len(c.Design.Instances))
		}
		for _, v := range w {
			if !(v > 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("closure: checkpoint corner %d has weight %v", i+1, v)
			}
		}
	}
	return run(ctx, c.Design, opt, &st, c.Weights, c.Kinds)
}

// run is the shared body of Run and Resume: st/weights/kinds are nil for
// a fresh run and carry the checkpointed flow and per-transform state for
// a resumed one.
func run(ctx context.Context, d *netlist.Design, opt Options, st *ckptState,
	weights []float64, kinds map[string]json.RawMessage) (*Result, error) {
	if opt.STA.Weights != nil {
		return nil, fmt.Errorf("closure: STA config must not pre-set weights")
	}
	if opt.MaxTransforms < 0 || opt.MaxBuffers < 0 {
		return nil, fmt.Errorf("closure: negative budgets")
	}
	start := time.Now()
	f, err := newFlow(ctx, d, opt)
	if err != nil {
		return nil, err
	}
	ph, round := phaseRepair, 0
	if st != nil {
		f.restore(st, weights)
		if err := f.restoreKinds(kinds); err != nil {
			return nil, err
		}
		ph, round = phase(st.Phase), st.Round
	}
	f.curPhase, f.curRound = ph, round

	if err := f.buildTiming(st != nil); err != nil {
		return nil, err
	}

	for ph < phaseDone && !f.stopped() {
		f.curPhase = ph
		sp := obs.StartSpan("closure." + phaseName(ph))
		switch ph {
		case phaseRepair:
			// Repair in rounds: each round fixes what its timing view can
			// fix, then the view is refreshed and the remaining violators
			// retried.
			//
			// The two flows refresh differently, mirroring practice (§2.2
			// of the paper): the GBA flow must subject its remaining
			// violating endpoints to a PBA validation pass — the very
			// bottleneck the paper calls out, whose cost grows with GBA's
			// pessimism — while the mGBA flow simply recalibrates its
			// weights, which are PBA-accurate by construction.
			for ; round < 3; round++ {
				f.curRound = round
				obsRepairRounds.Inc()
				f.checkpoint()
				if err := f.fixViolations(); err != nil {
					return nil, err
				}
				if f.stopped() {
					break
				}
				if f.opt.Timer == TimerGBA {
					if f.validateViolators() == 0 {
						break // PBA waives the residual GBA violations
					}
					continue // real violations remain: retry the repair loop
				}
				if f.violatedCount() == 0 {
					break
				}
				if round == 2 {
					break
				}
				if err := f.calibrate(); err != nil {
					return nil, err
				}
				if f.stopped() {
					break
				}
			}
			if !f.stopped() {
				ph, round = phaseRecovery, 0
			}
		case phaseRecovery:
			f.checkpoint()
			if err := f.recoverArea(); err != nil {
				return nil, err
			}
			if !f.stopped() {
				ph, f.recoveryPos = phaseFinal, 0
			}
		case phaseFinal:
			f.curRound = 0
			f.checkpoint()
			// Recovery under a slightly stale view can overreach: refresh
			// and run one final repair pass so the flow exits at its own
			// timing closure. Skipped when nothing changed since the last
			// calibration.
			if f.opt.Timer == TimerMGBA && (f.finalCalibrated || f.transforms > 0) {
				if !f.finalCalibrated {
					if err := f.calibrate(); err != nil {
						return nil, err
					}
					f.finalCalibrated = true
				}
				if !f.stopped() {
					if err := f.fixViolations(); err != nil {
						return nil, err
					}
				}
			}
			if !f.stopped() {
				ph = phaseDone
			}
		}
		sp.End()
	}

	f.finish()
	if !f.res.Interrupted {
		f.res.StopReason = "completed"
	}
	// Exit checkpoint: for an interrupted run this is the resume point;
	// for a completed run it records phaseDone so a Resume is a no-op.
	f.curPhase, f.curRound = ph, round
	f.checkpoint()
	f.res.Elapsed = time.Since(start)
	return f.res, nil
}

// newFlow sets up a run's flow state: the transform registry and the
// per-kind metrics.
func newFlow(ctx context.Context, d *netlist.Design, opt Options) (*flow, error) {
	f := &flow{d: d, opt: opt, ctx: ctx, res: &Result{Timer: opt.Timer}}
	var err error
	if f.reg, err = buildRegistry(opt); err != nil {
		return nil, err
	}
	f.kindObs = make(map[string]kindMetrics)
	for _, k := range f.reg.Kinds() {
		f.kindObs[k] = kindMetricsFor(k)
	}
	return f, nil
}

// buildTiming builds the timing graph and session of the design the run
// starts from, and its first timing views: a calibration (a plain analysis
// under GBA). A resumed mGBA run instead restores where the interrupted
// run stood, preserving its calibration cadence: a calibrator whose every
// corner is warm-started from the checkpointed fits, and every view
// re-timed under its corner's config and its own weights — full runs, for
// a resumed run has no view to rebase. A calibration the checkpoint's
// cadence says is due runs before anything else.
func (f *flow) buildTiming(resumed bool) error {
	g, err := graph.Build(f.d)
	if err != nil {
		return err
	}
	f.g, f.sess = g, engine.NewSession(g)
	if resumed && f.opt.Timer == TimerMGBA && len(f.views) > 0 {
		if err := f.newCalibrator(); err != nil {
			return err
		}
		cfgs := f.cal.CornerConfigs()
		for i, v := range f.views {
			v.cfg = cfgs[i]
			v.r = f.sess.Run(v.config(len(f.d.Instances)))
		}
		return f.maybeRecalibrate()
	}
	return f.calibrate()
}

// newCalibrator creates the flow's persistent calibrator on the current
// session. The weights a resumed run carries warm-start its first solve
// on every corner (the calibrator chains its own thereafter).
func (f *flow) newCalibrator() error {
	cal, err := core.NewCalibrator(f.sess, f.opt.STA, f.opt.Core)
	if err != nil {
		return err
	}
	cal.SetWarmWeights(f.weights()...)
	f.cal = cal
	return nil
}

// calibrate refreshes the mGBA weights (or simply re-analyzes under GBA),
// running against the flow's persistent calibrator so the per-design state
// is never recomputed mid-flow: a recalibration re-enumerates only the
// endpoints reached by the dirty gates' fan-out cones and rebuilds the
// calibration problem from the cached paths, warm-starting the solve from
// the previous correction. A calibrator left stale by an accepted structural
// move is first rebound to the current session (the design kept its
// instances and at most appended a buffer, so the cache survives).
// Calibration cannot fail the flow: a solver fault degrades down core's
// solver ladder — at worst to identity weights (mGBA == GBA) — and is
// recorded in the Result.
func (f *flow) calibrate() error {
	if f.opt.Timer == TimerGBA {
		f.adopt([]*cornerView{{cfg: f.opt.STA, r: f.sess.Run(f.opt.STA)}})
		return nil
	}
	t0 := time.Now()
	if f.cal == nil {
		if err := f.newCalibrator(); err != nil {
			return err
		}
	} else if f.calStale {
		if err := f.cal.Rebind(f.sess); err != nil {
			return err
		}
	}
	f.calStale = false
	start := f.liveFit()
	var model *core.Model
	var err error
	if f.opt.ColdRecalibrate {
		model, err = f.cal.Calibrate(f.ctx)
	} else {
		model, err = f.cal.Recalibrate(f.ctx, f.dirtyList())
	}
	if err != nil {
		return err
	}
	f.res.Calibrations++
	obsCalibrations.Inc()
	f.res.CalibElapsed += time.Since(t0)
	if model.Degraded || model.Partial {
		f.res.DegradedCalibrations++
	}
	if model.Fault != "" {
		f.res.Faults = append(f.res.Faults,
			fmt.Sprintf("calibration %d: %s", f.res.Calibrations, model.Fault))
	}
	f.owed = nil
	if model.Partial {
		f.owed = &start
	}
	// The calibration's baseline GBA stays with the calibrator, which
	// advances it incrementally across recalibrations; the flow takes
	// only the fitted views.
	f.adopt(modelViews(model))
	f.dirty = nil
	f.transforms = 0
	return nil
}

// noteDirty records instances whose timing changed through an accepted
// transform, to seed the next incremental recalibration. GBA runs carry no
// calibration state, so they skip the bookkeeping.
func (f *flow) noteDirty(ids []int) {
	if f.opt.Timer != TimerMGBA {
		return
	}
	if f.dirty == nil {
		f.dirty = make(map[int]bool)
	}
	for _, id := range ids {
		f.dirty[id] = true
	}
}

// dirtyList returns the accumulated dirty set in deterministic order.
func (f *flow) dirtyList() []int {
	if len(f.dirty) == 0 {
		return nil
	}
	out := make([]int, 0, len(f.dirty))
	for id := range f.dirty {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// maybeRecalibrate refreshes stale mGBA weights on cadence.
func (f *flow) maybeRecalibrate() error {
	if f.opt.Timer != TimerMGBA || f.opt.RecalibrateEvery <= 0 {
		return nil
	}
	if f.transforms < f.opt.RecalibrateEvery {
		return nil
	}
	return f.calibrate()
}

// fixViolations is the main repair loop: worstEndpoint picks a violating
// endpoint, the registry's repair transforms propose moves on its worst
// path, the first accepted one sticks, and the loop iterates.
// Cancellation is honored between transforms: an in-flight trial always
// completes (and is kept or reverted whole), so an interrupted design is
// never left with a half-applied transform.
func (f *flow) fixViolations() error {
	if f.skip == nil {
		f.skip = make(map[int]bool)
	}
	for f.res.Transforms < f.opt.MaxTransforms {
		if f.stopped() {
			return nil // the checkpoint keeps the pass's skip set
		}
		fi := worstEndpoint(f.mergedSlack(), f.skip)
		if fi < 0 {
			break // timing closed (or every violator exhausted)
		}
		if f.violatedCount() == 0 {
			break
		}
		improved, err := f.repairEndpoint(fi)
		if err != nil {
			return err
		}
		if !improved {
			f.skip[fi] = true
			continue
		}
		if err := f.maybeRecalibrate(); err != nil {
			return err
		}
	}
	f.skip = nil
	return nil
}

// worstEndpoint returns the endpoint the repair loop works on next: the
// one with the most negative slack outside skip, the lowest index among
// equals, or -1 when no endpoint outside skip violates. slack is the
// per-endpoint (merged worst-corner) timer slack; skip marks endpoints
// the current pass gave up on. It is stateless, so a resumed pass picks
// exactly as the interrupted one would have.
func worstEndpoint(slack []float64, skip map[int]bool) int {
	worst, worstSlack := -1, 0.0
	for fi, s := range slack {
		if skip[fi] {
			continue
		}
		if s < worstSlack {
			worst, worstSlack = fi, s
		}
	}
	return worst
}

// validateViolators subjects every timer-violating endpoint to PBA
// path validation — the GBA flow's obligatory reality check — and returns
// how many endpoints truly violate. Its cost is proportional to the number
// of violating endpoints, which is exactly where GBA pessimism hurts.
func (f *flow) validateViolators() int {
	t0 := time.Now()
	f.res.Validations++
	obsValidations.Inc()
	an := pba.NewAnalyzer(f.sel())
	real := 0
	for fi, s := range f.sel().Slack {
		if s < 0 && pbaSlack(an, fi) < 0 {
			real++
		}
	}
	f.res.ValidateElapsed += time.Since(t0)
	return real
}

func (f *flow) violatedCount() int {
	n := 0
	// Merged worst-corner slack: an endpoint failing in any corner counts.
	for _, s := range f.mergedSlack() {
		if s < 0 {
			n++
		}
	}
	obsViolated.SetInt(n)
	return n
}

// repairEndpoint offers the endpoint's worst path to each repair
// transform in registry order (budget permitting) and applies the first
// accepted candidate.
func (f *flow) repairEndpoint(fi int) (bool, error) {
	path := transform.WorstPath(f.analysis(), fi)
	if len(path) == 0 {
		return false, nil
	}
	for _, tr := range f.reg.Repair {
		kind := tr.Kind()
		if f.res.Kinds[kind] >= f.budget(kind) {
			continue
		}
		for _, c := range tr.Propose(f.analysis(), fi, path) {
			ok, err := f.tryCandidate(tr, fi, c)
			if err != nil {
				return false, err
			}
			if ok {
				f.noteKind(kind)
				f.noteTransform()
				return true, nil
			}
		}
	}
	return false, nil
}

// tryCandidate applies one candidate, arbitrates acceptance, and unwinds
// rejections, dispatching on the transform's capability bit:
//
//   - connectivity-preserving (upsize, downsize): advance the Result in
//     place over the move's dirty set — the cheap path;
//   - connectivity-changing (buffer, retime): time the trial on a session
//     derived from the flow's, and on acceptance adopt it, mark the
//     calibrator for rebinding, and widen the dirty set with the
//     instances whose derate inputs the derivation moved.
func (f *flow) tryCandidate(tr transform.Transform, fi int, c transform.Candidate) (bool, error) {
	a := f.analysis()
	before := snap(a.R, fi)
	mv, err := tr.Apply(a, c)
	if err != nil {
		return false, err
	}
	if mv == nil {
		return false, nil
	}
	if !tr.ConnectivityChanging() {
		mod := mv.DirtySet()
		cwns := f.cornerWNS()
		f.update(mod)
		if tr.Accept(before, snap(a.R, fi)) && !vetoed(cwns, f.views) {
			f.noteDirty(mod)
			return true, nil
		}
		f.noteReject(tr.Kind())
		if rerr := mv.Revert(a); rerr == nil {
			f.update(mod)
		} else {
			// The design kept the trial cell: the gate is dirty after all.
			f.noteDirty(mod)
		}
		return false, nil
	}
	return f.tryStructural(tr, fi, mv, before)
}

// tryStructural is the trial protocol for connectivity-changing moves
// (buffer insertion, retiming). The trial's session is derived from the
// flow's over the move's edited instances — its graph patched, its DP
// state re-derived over the move's cones, its clock state shared while
// the move leaves the clock network alone — and the trial's views are the
// flow's rebased onto it: an Update over what the move reached, bitwise
// equal to a fresh run. On acceptance the flow adopts them, marks the
// calibrator stale (the next calibrate rebinds instead of going cold),
// and widens the move's structural dirty set with every instance whose
// graph-derived depth or bounding-box state moved (Session.Moved) —
// together they cover exactly the instances whose timing the move could
// have changed, which is what makes the subsequent incremental
// recalibration bit-identical to a cold one. On rejection the trial
// session is discarded (the next trial fills its storage) and the move
// reverted, leaving the design exactly as the trial found it; the
// pre-trial session, timing views and calibrator simply remain in place,
// and the weight vectors drop the padding the trial gave them.
func (f *flow) tryStructural(tr transform.Transform, fi int, mv transform.Move, before transform.Snapshot) (bool, error) {
	edited := mv.DirtySet()
	newSess, err := f.sess.Derive(edited)
	if err != nil {
		return false, fmt.Errorf("closure: %s move broke the timing graph: %w", mv.Kind(), err)
	}
	cwns := f.cornerWNS()
	trial := f.rebase(newSess, edited)
	if tr.Accept(before, snap(trial[0].r, fi)) && !vetoed(cwns, trial) {
		dirty := append(slices.Clone(edited), newSess.Moved()...)
		// The old views belong to the superseded session; swap in the
		// trial session's.
		f.adopt(trial)
		f.g, f.sess = newSess.G, newSess
		if f.cal != nil {
			f.calStale = true
		}
		f.noteDirty(dirty)
		return true, nil
	}
	f.noteReject(tr.Kind())
	for _, v := range trial {
		v.r.Release()
	}
	newSess.Discard()
	if err := mv.Revert(f.analysis()); err != nil {
		return false, err
	}
	// Drop the weights padded for the popped instances; the capacity
	// stays for the next trial.
	n := len(f.d.Instances)
	for _, v := range f.views {
		v.weights = v.weights[:min(len(v.weights), n)]
	}
	return false, nil
}

// finish records the final QoR, including a PBA sign-off measurement so
// that GBA-flow and mGBA-flow results are compared on equal footing. It
// always runs, interrupted or not: a cancelled run still reports honest
// final numbers for the state it leaves the design in.
func (f *flow) finish() {
	f.res.TimerWNS = f.sel().WNS
	f.res.TimerTNS = f.sel().TNS
	f.res.ViolatedEndpoints = f.violatedCount()
	f.res.Area = f.d.Area()
	f.res.Leakage = f.d.Leakage()
	f.res.Buffers = f.d.BufferCount()
	f.res.Weights = f.views[0].weights // nil under GBA
	f.res.Corners = f.cornerQoR()

	f.res.SignoffWNS, f.res.SignoffTNS = signoff(f.sess, f.opt.STA)
}
