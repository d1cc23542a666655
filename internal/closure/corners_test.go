package closure

import (
	"context"
	"math"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/transform"
)

// TestStructuralTrialKeepsCornerWeights: without JointFit every corner
// carries its own fitted weights and config, and its live view is timed
// under them. After each accepted structural trial, every view the flow
// adopted — the selection corner's and each extra corner's — must equal,
// bit for bit, a fresh run of its corner config under its own weights on
// the adopted session. The selection corner is not the identity, so a
// trial timed under the base config cannot pass. D1 rather than a
// hand-built fixture: the fixtures' fits are the identity at every
// corner, which would hide a view timed under another corner's weights.
func TestStructuralTrialKeepsCornerWeights(t *testing.T) {
	d, err := gen.Generate(gen.Suite()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(TimerMGBA)
	opt.Transforms = []string{"upsize", "buffer", "retime"}
	if opt.Core.Corners, err = core.ParseCorners("slow:1.15:10,typ"); err != nil {
		t.Fatal(err)
	}
	f, err := newFlow(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.buildTiming(false); err != nil {
		t.Fatal(err)
	}
	if len(f.cviews) != 1 {
		t.Fatalf("%d extra corner views, want 1", len(f.cviews))
	}
	distinct := false
	for i, w := range f.cviews[0].weights {
		distinct = distinct || w != f.weights[i]
	}
	if !distinct {
		t.Fatal("the corners' fits coincide; the check cannot tell their weights apart")
	}

	accepted := map[string]int{}
	for _, fi := range f.r.ViolatingEndpoints() {
		path := transform.WorstPath(f.analysis(), fi)
		for _, tr := range f.reg.Repair {
			if !tr.ConnectivityChanging() {
				continue
			}
			for _, c := range tr.Propose(f.analysis(), fi, path) {
				ok, err := f.tryCandidate(tr, fi, c)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				accepted[tr.Kind()]++
				sel := f.cal.CornerConfigs()[0]
				sel.Weights = f.weights
				fresh := f.sess.Run(sel)
				if !sameResult(f.r, fresh) {
					t.Fatalf("selection corner after an accepted %s: view differs from a fresh run under its config", tr.Kind())
				}
				fresh.Release()
				for _, cv := range f.cviews {
					cfg := cv.cfg
					cfg.Weights = cv.weights
					fresh := f.sess.Run(cfg)
					if !sameResult(cv.r, fresh) {
						t.Fatalf("corner %s after an accepted %s: view differs from a fresh run under its own weights",
							cv.name, tr.Kind())
					}
					fresh.Release()
				}
				path = transform.WorstPath(f.analysis(), fi)
			}
		}
	}
	if accepted["buffer"] == 0 || accepted["retime"] == 0 {
		t.Fatalf("accepted %v; want both structural kinds", accepted)
	}
}

// sameResult compares two analyses of one session bit for bit.
func sameResult(a, b *engine.Result) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return same(a.ArrivalOut, b.ArrivalOut) && same(a.RequiredOut, b.RequiredOut) &&
		same(a.CellDelay, b.CellDelay) && same(a.Slack, b.Slack) &&
		a.WNS == b.WNS && a.TNS == b.TNS
}
