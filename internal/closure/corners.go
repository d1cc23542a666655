package closure

import (
	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/sta"
)

// Multi-corner closure: when Options.Core.Corners names N>=2 corners, the
// calibrator hands the flow one fitted mGBA view per corner. The flow
// keeps every extra corner's view advanced in lockstep with the selection
// corner's (in-place Update for resizes, a Rebase onto a structural
// trial's session, each under the corner's own fitted weights), schedules
// repairs against the merged worst-corner slack, and vetoes any transform
// that regresses a corner's WNS — a move is only accepted when no corner
// gets worse, so closing the selection corner never reopens another.
// Checkpoints carry every extra corner's weights, so a resumed run starts
// with the same views and the same per-corner warm starts.

// cornerView is one extra corner's live timing view inside the flow.
type cornerView struct {
	name    string
	cfg     sta.Config // the corner's analysis config, Weights unset
	weights []float64  // the corner's fitted weights, padded with 1 for appended instances
	r       *sta.Result
}

// CornerQoR is one corner's final timing in a multi-corner Result.
type CornerQoR struct {
	Name string  `json:"name"`
	WNS  float64 `json:"wns"`
	TNS  float64 `json:"tns"`
}

// adoptCorners takes over the extra corners' fitted views from a fresh
// calibration, releasing the previous generation's buffers.
func (f *flow) adoptCorners(model *core.Model) {
	f.releaseCorners()
	if len(model.Corners) < 2 {
		return
	}
	f.cviews = make([]*cornerView, 0, len(model.Corners)-1)
	for _, cf := range model.Corners[1:] {
		f.cviews = append(f.cviews, &cornerView{name: cf.Spec.Name, cfg: cf.Cfg, weights: cf.Weights, r: cf.MGBA})
	}
}

// releaseCorners returns every corner view's buffers to its session pool.
func (f *flow) releaseCorners() {
	for _, cv := range f.cviews {
		if cv.r != nil {
			cv.r.Release()
		}
	}
	f.cviews = nil
}

// restoreCorners rebuilds a resumed run's extra-corner views from its
// checkpointed weights: each corner's config from the calibrator, timed
// under the corner's own weights on the current session. These are full
// runs: a resumed run has no view to rebase.
func (f *flow) restoreCorners() {
	cfgs := f.cal.CornerConfigs()
	for i, w := range f.resumeCorners {
		cv := &cornerView{name: f.opt.Core.Corners[i+1].Name, cfg: cfgs[i+1], weights: w}
		cv.r = f.sess.Run(f.cornerConfig(cv))
		f.cviews = append(f.cviews, cv)
	}
	f.resumeCorners = nil
}

// cornerConfig returns the corner's analysis config under its own
// weights, padded with 1 for instances created since its calibration.
func (f *flow) cornerConfig(cv *cornerView) sta.Config {
	cv.weights = padWeights(cv.weights, len(f.d.Instances))
	cfg := cv.cfg
	cfg.Weights = cv.weights
	return cfg
}

// rebaseCorners carries every corner's view over to a structural trial's
// session (see Result.Rebase), without touching the flow's own views.
func (f *flow) rebaseCorners(sess *engine.Session, edited []int) []*sta.Result {
	if len(f.cviews) == 0 {
		return nil
	}
	out := make([]*sta.Result, len(f.cviews))
	for i, cv := range f.cviews {
		out[i] = cv.r.Rebase(sess, f.cornerConfig(cv), edited)
	}
	return out
}

// cornerWNS snapshots each corner's WNS before a trial.
func (f *flow) cornerWNS() []float64 {
	if len(f.cviews) == 0 {
		return nil
	}
	out := make([]float64, len(f.cviews))
	for i, cv := range f.cviews {
		out[i] = cv.r.WNS
	}
	return out
}

// updateCorners advances every corner view in place over a
// connectivity-preserving move's dirty set.
func (f *flow) updateCorners(mod []int) {
	for _, cv := range f.cviews {
		cv.r.Update(mod)
	}
}

// cornersRegressed is the acceptance veto: true when any corner's WNS
// fell below where it stood before the trial (a failing corner may not
// get worse; a passing corner may not start failing). The epsilon
// absorbs the engine's floating-point noise.
func (f *flow) cornersRegressed(before []float64) bool {
	for i, cv := range f.cviews {
		if regressedWNS(before[i], cv.r.WNS) {
			return true
		}
	}
	return false
}

func regressedWNS(before, after float64) bool {
	floor := before
	if floor > 0 {
		floor = 0
	}
	return after < floor-1e-9
}

// vetoedByCorners folds the veto over a trial session's corner results.
func vetoedByCorners(before []float64, after []*sta.Result) bool {
	for i, r := range after {
		if regressedWNS(before[i], r.WNS) {
			return true
		}
	}
	return false
}

// mergedSlack returns the per-endpoint slack the scheduler and the
// violation count run on: the worst slack over every corner when extra
// corners are live, the flow's own view otherwise. The buffer is reused
// across calls; callers must not retain it.
func (f *flow) mergedSlack() []float64 {
	if len(f.cviews) == 0 {
		return f.r.Slack
	}
	if cap(f.mergedBuf) < len(f.r.Slack) {
		f.mergedBuf = make([]float64, len(f.r.Slack))
	}
	merged := f.mergedBuf[:len(f.r.Slack)]
	copy(merged, f.r.Slack)
	for _, cv := range f.cviews {
		for i, s := range cv.r.Slack {
			if s < merged[i] {
				merged[i] = s
			}
		}
	}
	return merged
}

// cornerQoR reports each live corner's final timing for the Result.
func (f *flow) cornerQoR() []CornerQoR {
	if len(f.cviews) == 0 {
		return nil
	}
	out := make([]CornerQoR, len(f.cviews))
	for i, cv := range f.cviews {
		out[i] = CornerQoR{Name: cv.name, WNS: cv.r.WNS, TNS: cv.r.TNS}
	}
	return out
}
