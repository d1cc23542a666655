package closure_test

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mgba/internal/closure"
	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/netio"
	"mgba/internal/netlist"
)

// resumeOptions is a D3 closure that recalibrates and checkpoints often
// enough for a kill to land between calibrations and on them.
func resumeOptions() closure.Options {
	opt := closure.DefaultOptions(closure.TimerMGBA)
	opt.RecalibrateEvery = 25
	opt.CheckpointEvery = 20
	return opt
}

// multiCornerResumeOptions is resumeOptions over two corners.
func multiCornerResumeOptions(t *testing.T, joint bool) closure.Options {
	t.Helper()
	opt := resumeOptions()
	var err error
	if opt.Core.Corners, err = core.ParseCorners("typ,slow:1.15:10"); err != nil {
		t.Fatal(err)
	}
	opt.Core.JointFit = joint
	return opt
}

func d3(t *testing.T) *netlist.Design {
	t.Helper()
	d, err := gen.Generate(gen.Suite()[2])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runKilledAndResumed runs the flow on d, cancels it at the kill-th
// checkpoint (before it starts for kill 0) and resumes it from the exit
// checkpoint until it completes. It returns the result and the path of
// the exit checkpoint.
func runKilledAndResumed(t *testing.T, d *netlist.Design, opt closure.Options, kill int) (*closure.Result, string) {
	t.Helper()
	opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if kill == 0 {
		cancel()
	}
	ckpts := 0
	opt.OnCheckpoint = func(string) {
		if ckpts++; ckpts == kill {
			cancel()
		}
	}
	res, err := closure.Run(ctx, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatalf("kill point %d: the flow completed before it", kill)
	}
	opt.OnCheckpoint = nil
	for hops := 0; res.Interrupted; hops++ {
		if hops > 10 {
			t.Fatal("resume never completed")
		}
		if res, err = closure.Resume(context.Background(), opt.CheckpointPath, opt); err != nil {
			t.Fatal(err)
		}
	}
	return res, opt.CheckpointPath
}

// resumeDiff names the first QoR field in which a resumed run differs
// from the uninterrupted one, floats bit for bit, or returns "".
func resumeDiff(ref, res *closure.Result) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case res.Transforms != ref.Transforms || !maps.Equal(res.Kinds, ref.Kinds):
		return fmt.Sprintf("transforms %d %v, uninterrupted %d %v", res.Transforms, res.Kinds, ref.Transforms, ref.Kinds)
	case !same(res.Area, ref.Area):
		return fmt.Sprintf("area %v, uninterrupted %v", res.Area, ref.Area)
	case !same(res.TimerWNS, ref.TimerWNS) || !same(res.TimerTNS, ref.TimerTNS):
		return fmt.Sprintf("timer WNS/TNS %v/%v, uninterrupted %v/%v", res.TimerWNS, res.TimerTNS, ref.TimerWNS, ref.TimerTNS)
	case len(res.Corners) != len(ref.Corners):
		return fmt.Sprintf("%d corners, uninterrupted %d", len(res.Corners), len(ref.Corners))
	}
	for i, c := range ref.Corners {
		if got := res.Corners[i]; got.Name != c.Name || !same(got.WNS, c.WNS) || !same(got.TNS, c.TNS) {
			return fmt.Sprintf("corner %s WNS/TNS %v/%v, uninterrupted %v/%v", c.Name, got.WNS, got.TNS, c.WNS, c.TNS)
		}
	}
	if !slices.EqualFunc(res.Weights, ref.Weights, same) {
		return "final weights"
	}
	return ""
}

// TestMultiCornerResumeMatchesUninterrupted: a run killed at a checkpoint
// and resumed must end where the uninterrupted run ends — transforms and
// kinds, area, timer WNS/TNS, every corner's WNS/TNS and the final
// weights. The uninterrupted run advances its corner views by incremental
// updates between calibrations, the resumed one rebuilds them with full
// runs, so this also pins Update == Run inside the flow. The kill points
// include ones where the interrupted repair pass had already given up on
// some endpoints (10, and 8 under JointFit), which the resumed pass must
// skip too, and ones that land on a calibration point (6 and 14), whose
// cancelled calibration the resumed run must redo. The single-corner legs
// cover the same kill at 6 and a run cancelled before it starts.
func TestMultiCornerResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("fourteen D3 closure runs and their resumes")
	}
	for _, c := range []struct {
		corners int
		joint   bool
		kills   []int
	}{
		{2, false, []int{1, 2, 3, 5, 6, 10, 14}},
		{2, true, []int{6, 8, 14}},
		{1, false, []int{0, 6}},
	} {
		opt := resumeOptions()
		if c.corners > 1 {
			opt = multiCornerResumeOptions(t, c.joint)
		}
		ref, err := closure.Run(context.Background(), d3(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Corners) != c.corners-1 {
			t.Fatalf("%d extra corners reported, want %d", len(ref.Corners), c.corners-1)
		}
		for _, kill := range c.kills {
			res, _ := runKilledAndResumed(t, d3(t), opt, kill)
			if diff := resumeDiff(ref, res); diff != "" {
				t.Errorf("%d corners, JointFit %v, killed at checkpoint %d: %s", c.corners, c.joint, kill, diff)
			}
		}
	}
}

// TestResumeRejectsCornerMismatch: a multi-corner checkpoint resumed
// under options naming another corner count, or carrying a corrupt extra
// corner weight vector, is a clean error.
func TestResumeRejectsCornerMismatch(t *testing.T) {
	opt := multiCornerResumeOptions(t, false)
	opt.MaxTransforms = 5
	opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	if _, err := closure.Run(context.Background(), faultDesign(t, 8007), opt); err != nil {
		t.Fatal(err)
	}
	one := opt
	one.Core.Corners = opt.Core.Corners[:1]
	_, err := closure.Resume(context.Background(), opt.CheckpointPath, one)
	if err == nil || !strings.Contains(err.Error(), "corner") {
		t.Fatalf("resume under one corner of a two-corner checkpoint: err = %v", err)
	}

	c, err := netio.LoadCheckpointFile(opt.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.Unmarshal(c.State, &st); err != nil {
		t.Fatal(err)
	}
	cw, _ := st["corner_weights"].([]any)
	if len(cw) != 1 {
		t.Fatalf("checkpoint carries %d extra corner weight vectors, want 1", len(cw))
	}
	for _, bad := range []any{[]any{1.0}, append([]any{-1.0}, cw[0].([]any)[1:]...)} {
		st["corner_weights"] = []any{bad}
		if c.State, err = json.Marshal(st); err != nil {
			t.Fatal(err)
		}
		if err := netio.SaveCheckpointFile(opt.CheckpointPath, c); err != nil {
			t.Fatal(err)
		}
		_, err = closure.Resume(context.Background(), opt.CheckpointPath, opt)
		if err == nil || !strings.Contains(err.Error(), "corner 1") {
			t.Fatalf("resume of a checkpoint with corner weights %.3v: err = %v", bad, err)
		}
	}
}
