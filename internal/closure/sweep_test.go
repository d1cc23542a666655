package closure_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mgba/internal/closure"
	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/netio"
	"mgba/internal/rng"
)

// sweepCorners is the pool corner sets are drawn from, the identity
// corner first.
var sweepCorners = []string{"typ", "slow:1.15:10", "fast:0.9:5"}

// sweepMixes are the transform mixes a case draws from: upsize alone or
// with the structural moves, which are tried only where sizing failed
// when upsize comes first, and on every endpoint when they come first.
var sweepMixes = [][]string{
	{"upsize"},
	{"upsize", "buffer"},
	{"upsize", "buffer", "retime"},
	{"retime", "upsize"},
	{"buffer", "retime", "upsize"},
	{"retime", "buffer", "upsize"},
}

// sweepCase is one drawn flow configuration.
type sweepCase struct {
	design gen.Config
	opt    closure.Options
	kill   int // picks the checkpoint the killed run is cancelled at
}

func (c sweepCase) String() string {
	return fmt.Sprintf("%s (%d gates, cone %v) corners %s JointFit %v transforms %v",
		c.design.Name, c.design.Gates, c.design.ConeMode, core.FormatCorners(c.opt.Core.Corners),
		c.opt.Core.JointFit, c.opt.Transforms)
}

// drawSweepCase draws a small generated design, a corner set of one to
// three corners whose selection corner may be any of the pool's, JointFit,
// a transform mix, the recalibration, checkpoint and buffer wire-delay
// settings, and a kill point.
func drawSweepCase(t *testing.T, seed uint64) sweepCase {
	t.Helper()
	// Fork spreads the draws over the small seeds: drawn from
	// rng.New(seed) itself, seeds 1–16 picked the same selection corner
	// 12 times.
	r := rng.New(seed).Fork()
	gates := 400 + r.Intn(500)
	design := gen.Config{
		Name: fmt.Sprintf("sweep-%d", seed), Seed: 90000 + seed, Node: []int{16, 28, 40}[r.Intn(3)],
		Gates: gates, FFs: gates/10 + r.Intn(20), MaxLevel: 5 + r.Intn(4),
		AreaPerGate: float64(30 + r.Intn(60)), ViolateFrac: 0.3 + 0.2*r.Float64(),
	}
	if design.ConeMode = r.Intn(3) > 0; design.ConeMode {
		design.DepthCap, design.JoinP, design.ShareP = 0.05, 0.05*r.Float64(), 0.05*r.Float64()
	} else {
		design.LongEdgeP = 0.1 * r.Float64()
	}
	opt := closure.DefaultOptions(closure.TimerMGBA)
	opt.RecalibrateEvery = 20 + r.Intn(40)
	opt.CheckpointEvery = 3 + r.Intn(6)
	opt.WireDelayForBuf = float64(4 + r.Intn(12))
	opt.Transforms = sweepMixes[r.Intn(len(sweepMixes))]
	spec := make([]string, 1+r.Intn(len(sweepCorners)))
	sel := r.Intn(len(sweepCorners))
	for i := range spec {
		spec[i] = sweepCorners[(sel+i)%len(sweepCorners)]
	}
	var err error
	if opt.Core.Corners, err = core.ParseCorners(strings.Join(spec, ",")); err != nil {
		t.Fatal(err)
	}
	opt.Core.JointFit = len(spec) > 1 && r.Intn(2) == 0
	return sweepCase{design: design, opt: opt, kill: r.Intn(1 << 20)}
}

// sweepRun runs the case's flow on a fresh design to completion under
// opt, cancelled at checkpoint kill and resumed when kill > 0 (see
// runKilledAndResumed). It checks what every run must hold: all its
// checkpoints written, its weights as long as the design and every extra
// corner reported. It returns the result and the exit checkpoint.
func sweepRun(t *testing.T, c sweepCase, opt closure.Options, kill int) (*closure.Result, *netio.Checkpoint) {
	t.Helper()
	d, err := gen.Generate(c.design)
	if err != nil {
		t.Fatal(err)
	}
	var res *closure.Result
	if kill > 0 {
		res, opt.CheckpointPath = runKilledAndResumed(t, d, opt, kill)
	} else {
		opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
		if res, err = closure.Run(context.Background(), d, opt); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := netio.LoadCheckpointFile(opt.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Faults {
		if strings.HasPrefix(f, "checkpoint") {
			t.Fatalf("%v, kill %d: %s", c, kill, f)
		}
	}
	if len(res.Weights) != len(ck.Design.Instances) {
		t.Fatalf("%v, kill %d: %d final weights for %d instances", c, kill, len(res.Weights), len(ck.Design.Instances))
	}
	if len(res.Corners) != max(len(opt.Core.Corners), 1)-1 {
		t.Fatalf("%v, kill %d: %d extra corners reported for %d corners", c, kill, len(res.Corners), len(opt.Core.Corners))
	}
	return res, ck
}

// sweepDiff names the first thing in which two completed runs differ,
// floats bit for bit, or returns "": their results (resumeDiff), the
// extra corners' final weights and the designs they left, as their exit
// checkpoints record them.
func sweepDiff(t *testing.T, ref, res *closure.Result, refCk, resCk *netio.Checkpoint) string {
	t.Helper()
	if diff := resumeDiff(ref, res); diff != "" {
		return diff
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !slices.EqualFunc(cornerWeights(t, refCk), cornerWeights(t, resCk), func(x, y []float64) bool { return slices.EqualFunc(x, y, same) }) {
		return "extra corners' final weights"
	}
	if ha, hb := hashDesign(refCk.Design), hashDesign(resCk.Design); ha != hb {
		return fmt.Sprintf("design %s, uninterrupted %s", hb, ha)
	}
	return ""
}

// cornerWeights reads the extra corners' weights from a checkpoint's
// flow state.
func cornerWeights(t *testing.T, ck *netio.Checkpoint) [][]float64 {
	t.Helper()
	var st struct {
		CornerWeights [][]float64 `json:"corner_weights"`
	}
	if err := json.Unmarshal(ck.State, &st); err != nil {
		t.Fatal(err)
	}
	return st.CornerWeights
}

// TestFlowCornerSweep is a seeded sweep of the mGBA flow over small
// generated designs, corner sets of one to three corners whose selection
// corner need not be the identity, JointFit on and off, transform mixes
// with and without the structural moves, and kill points. Each case's
// run killed at a checkpoint and resumed must equal the uninterrupted run
// bit for bit: transforms and kinds, every corner's WNS/TNS and final
// weights, and the design. A case whose set is the identity corner alone
// must also equal the run with no corner set. Every run must write all
// its checkpoints, keep its weights as long as the design and report
// every extra corner.
func TestFlowCornerSweep(t *testing.T) {
	seeds := uint64(24) // about 4 s
	if raceEnabled {
		seeds = 2
	}
	identity, offSelection := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		c := drawSweepCase(t, seed)
		ref, refCk := sweepRun(t, c, c.opt, 0)
		kill := 1 + c.kill%(ref.Checkpoints-1) // the last checkpoint is the exit one
		res, resCk := sweepRun(t, c, c.opt, kill)
		if diff := sweepDiff(t, ref, res, refCk, resCk); diff != "" {
			t.Errorf("seed %d, %v, killed at checkpoint %d of %d: %s", seed, c, kill, ref.Checkpoints, diff)
		}
		if c.opt.Core.Corners[0].Name != "typ" {
			offSelection++
		} else if len(c.opt.Core.Corners) == 1 {
			identity++
			plain := c.opt
			plain.Core.Corners = nil
			res, resCk := sweepRun(t, c, plain, 0)
			if diff := sweepDiff(t, ref, res, refCk, resCk); diff != "" {
				t.Errorf("seed %d, %v: the identity corner set differs from no set: %s", seed, c, diff)
			}
		}
	}
	if !raceEnabled && (identity == 0 || offSelection == 0) {
		t.Fatalf("the seeds drew %d identity sets and %d non-identity selection corners; want both", identity, offSelection)
	}
}
