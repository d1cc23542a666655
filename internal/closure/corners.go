package closure

import (
	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/sta"
)

// Multi-corner closure: when Options.Core.Corners names N>=2 corners, the
// calibrator hands the flow one fitted mGBA view per corner. The flow
// keeps every corner's view in one list, the selection corner's first,
// and advances them in lockstep (in-place Update for resizes, a Rebase
// onto a structural trial's session, each under the corner's own config
// and fitted weights), schedules repairs against the merged worst-corner
// slack, and vetoes any transform that regresses an extra corner's WNS —
// a move is only accepted when no corner gets worse, so closing the
// selection corner never reopens another. Checkpoints carry every view's
// weights, so a resumed run starts with the same views and the same
// per-corner warm starts.

// cornerView is one corner's live timing view inside the flow.
type cornerView struct {
	name    string
	cfg     sta.Config // the corner's analysis config, Weights unset
	weights []float64  // the corner's fitted weights (nil under GBA), padded with 1 for appended instances
	r       *sta.Result
}

// CornerQoR is one corner's final timing in a multi-corner Result.
type CornerQoR struct {
	Name string  `json:"name"`
	WNS  float64 `json:"wns"`
	TNS  float64 `json:"tns"`
}

// modelViews returns a calibration's fitted views in corner order: every
// corner's of a multi-corner fit, else the model's own.
func modelViews(m *core.Model) []*cornerView {
	if len(m.Corners) < 2 {
		return []*cornerView{{cfg: m.Cfg, weights: m.Weights, r: m.MGBA}}
	}
	views := make([]*cornerView, len(m.Corners))
	for i, cf := range m.Corners {
		views[i] = &cornerView{name: cf.Spec.Name, cfg: cf.Cfg, weights: cf.Weights, r: cf.MGBA}
	}
	return views
}

// adopt swaps in a new generation of views, returning the previous one's
// scratch buffers to its session pool. Safe because the flow is the only
// holder of its views' Results between refreshes.
func (f *flow) adopt(views []*cornerView) {
	for _, v := range f.views {
		v.r.Release()
	}
	f.views = views
}

// weights lists every view's weights in corner order.
func (f *flow) weights() [][]float64 {
	var out [][]float64
	for _, v := range f.views {
		out = append(out, v.weights)
	}
	return out
}

// config returns the view's analysis config under its weights, padded
// with 1 up to n instances for those created since its calibration.
func (v *cornerView) config(n int) sta.Config {
	cfg := v.cfg
	if v.weights != nil {
		for len(v.weights) < n {
			v.weights = append(v.weights, 1)
		}
		cfg.Weights = v.weights
	}
	return cfg
}

// update advances every view in place over a connectivity-preserving
// move's dirty set.
func (f *flow) update(mod []int) {
	for _, v := range f.views {
		v.r.Update(mod)
	}
}

// rebase carries every view over to a structural trial's session (see
// Result.Rebase), padding the views' weights to the trial design but
// leaving their results as they are.
func (f *flow) rebase(sess *engine.Session, edited []int) []*cornerView {
	trial := make([]*cornerView, len(f.views))
	for i, v := range f.views {
		cfg := v.config(len(f.d.Instances))
		tv := *v
		tv.r = v.r.Rebase(sess, cfg, edited)
		trial[i] = &tv
	}
	return trial
}

// cornerWNS snapshots each extra corner's WNS before a trial.
func (f *flow) cornerWNS() []float64 {
	if len(f.views) < 2 {
		return nil
	}
	out := make([]float64, len(f.views)-1)
	for i, v := range f.views[1:] {
		out[i] = v.r.WNS
	}
	return out
}

// vetoed is the acceptance veto over a trial's views: true when any
// extra corner's WNS fell below where it stood before the trial (a
// failing corner may not get worse; a passing corner may not start
// failing). The epsilon absorbs the engine's floating-point noise.
func vetoed(before []float64, views []*cornerView) bool {
	for i, b := range before {
		floor := min(b, 0)
		if views[i+1].r.WNS < floor-1e-9 {
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
	sel := f.sel().Slack
	if len(f.views) < 2 {
		return sel
	}
	if cap(f.mergedBuf) < len(sel) {
		f.mergedBuf = make([]float64, len(sel))
	}
	merged := f.mergedBuf[:len(sel)]
	copy(merged, sel)
	for _, v := range f.views[1:] {
		for i, s := range v.r.Slack {
			if s < merged[i] {
				merged[i] = s
			}
		}
	}
	return merged
}

// cornerQoR reports each extra corner's final timing for the Result.
func (f *flow) cornerQoR() []CornerQoR {
	if len(f.views) < 2 {
		return nil
	}
	out := make([]CornerQoR, len(f.views)-1)
	for i, v := range f.views[1:] {
		out[i] = CornerQoR{Name: v.name, WNS: v.r.WNS, TNS: v.r.TNS}
	}
	return out
}
