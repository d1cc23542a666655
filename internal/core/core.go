// Package core implements the paper's contribution — the modified
// graph-based analysis (mGBA) slack model of §3.1 and the calibration
// flow of §3.4 — generalized into a cross-stage slack-correction engine:
// the session's own (cheap) analysis is fitted against a golden view that
// a pluggable view pair provides, so the same machinery that corrects
// GBA against PBA retiming (the paper's instance, and the default pair)
// also corrects a pre-route analysis against a routed twin of the design
// (the "preroute" pair).
//
// Calibration pipeline (the right-hand side of the paper's Fig. 5):
//
//	cheap analyze -> per-endpoint top-k' violated path selection (§3.2)
//	-> golden retiming of the selected paths (fit targets)
//	-> assemble the sparse system of Eq. (9) in correction space
//	-> solve with GD / SCG / SCG+RS (§3.3) -> per-gate weights w = 1 + dx
//	-> re-run the cheap analysis with weighted delays.
//
// The fitted path slack never exceeds the golden slack by more than the
// epsilon tolerance of Eq. (5), enforced through the quadratic penalty of
// Eq. (6).
//
// There is one implementation of that flow, the Calibrator. A cold
// calibration streams the enumeration in endpoint shards (one shard
// unless Options.StreamShard is set), retiming and assembling each shard
// as it arrives. Every step runs once per analysis corner, over a corner
// list that has one entry unless Options.Corners names more. An
// incremental Recalibrate re-enumerates and retimes only the endpoints a
// change can reach, then rebuilds every corner's rows from the cached
// per-endpoint groups with the same assembler.
//
// The pipeline lives in one file per stage: viewpair.go (the pair
// interfaces and registry), calibrator.go (the cold and incremental
// flows), assembly.go (the Eq. (9) rows), fit.go (the solve and its
// degradation ladder), mcmm.go (the multi-corner fits), signoff.go (slack
// evaluation and the paper's accuracy metrics) and preroute.go (the
// cross-stage pair).
package core

import (
	"context"
	"fmt"

	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/obs"
	"mgba/internal/pathsel"
	"mgba/internal/solver"
	"mgba/internal/sta"
)

// Method selects the optimization solver for the calibration fit.
type Method int

// The solver methods compared in Table 4, plus the exact reference.
const (
	MethodGD    Method = iota // gradient descent, no row selection
	MethodSCG                 // Algorithm 2, no row selection
	MethodSCGRS               // Algorithm 1 + Algorithm 2 (the paper's choice)
	MethodFull                // active-set CGNR reference (tiny cases only)
)

func (m Method) String() string {
	switch m {
	case MethodGD:
		return "GD+w/oRS"
	case MethodSCG:
		return "SCG+w/oRS"
	case MethodSCGRS:
		return "SCG+RS"
	case MethodFull:
		return "full"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options parameterizes a calibration. DefaultOptions matches the paper's
// settings (k' = 20, epsilon-guarded constraints, SCG+RS solver).
type Options struct {
	K        int     // k': worst paths kept per endpoint (20)
	MaxPaths int     // m' bound: a larger selected population is an error; <=0 means none
	Epsilon  float64 // eps of Eq. (5): relative optimism tolerance
	Penalty  float64 // w of Eq. (6)
	Method   Method
	Solver   solver.Options
	Seed     uint64

	// ViewPair names the registered (cheap, golden) view pair the
	// calibration corrects between; "" selects DefaultViewPair, the
	// paper's GBA<->PBA pairing. The "preroute" pair corrects a pre-route
	// analysis against a deterministic routed twin of the design, seeded
	// by Seed.
	ViewPair string

	// MinWeight/MaxWeight clamp the fitted weights; a weight outside this
	// band would mean the fit wandered into physically meaningless
	// territory (negative or wildly inflated delays).
	MinWeight, MaxWeight float64

	// WarmWeights, when set, seeds the solver with a previous calibration's
	// per-instance weights (indexed by instance ID). The closure flow uses
	// it to make mid-flow recalibrations cheap: the netlist changed only
	// incrementally, so the old weights are near-optimal already.
	WarmWeights []float64

	// StreamShard is the endpoint shard size of cold calibration: each
	// shard is enumerated, retimed and appended to the Eq. (9) systems in
	// turn. 0 means a single shard, with the paths kept in pointer form
	// (Model.Selection) and cached for incremental recalibration. A
	// positive size keeps the population in slab form instead
	// (Model.Bank), so each shard's pointer-form paths become garbage once
	// assembled: peak memory is one shard plus the assembled system. Such
	// a calibrator keeps no incremental cache. The fitted weights are
	// bit-identical at every shard size.
	StreamShard int

	// Corners is the multi-corner (MCMM) corner set. Empty or length 1
	// runs the single-corner pipeline (a one-element set applies that
	// corner's derates and uncertainty to the analysis config and is
	// otherwise bit-identical to the plain calibrator). With N >= 2
	// corners, Corners[0] is the selection corner: its enumeration feeds
	// every corner's Eq. (9) system, StrictSafety is forced on (the
	// never-optimistic guard must hold per corner by construction), and
	// the model grows per-corner fits plus a merged worst-corner slack
	// view.
	Corners []CornerSpec

	// JointFit solves the N per-corner systems as one stacked fit sharing
	// the sparsity pattern — a single weight vector that every corner's
	// guard constrains — instead of N independent per-corner fits. Only
	// meaningful with >= 2 corners.
	JointFit bool

	// StrictSafety enforces Eq. (5) exactly on the training selection by
	// scaling the fitted correction back until no selected path is
	// optimistic beyond the epsilon guard. The paper's soft penalty
	// tolerates a small optimistic tail in exchange for fit quality, so
	// this is off by default; degraded and cancelled (partial) fits are
	// always scaled back regardless, because a fit of unknown quality must
	// never be allowed to go optimistic.
	StrictSafety bool
}

// DefaultOptions returns the paper's calibration parameters.
func DefaultOptions() Options {
	return Options{
		K:         20,
		MaxPaths:  5_000_000,
		Epsilon:   0.02,
		Penalty:   50,
		Method:    MethodSCGRS,
		Solver:    solver.DefaultOptions(),
		Seed:      1,
		MinWeight: 0.1,
		MaxWeight: 2.0,
	}
}

// Model is a fitted mGBA model for one design state.
type Model struct {
	G       *graph.Graph
	Session *engine.Session // timing session shared by the cheap and mGBA runs
	Cfg     sta.Config      // the cheap config calibrated against (Weights == nil)
	Opt     Options
	Pair    string // name of the view pair the model was fitted on

	// GBA is the baseline cheap analysis. From a Calibrator it is the
	// calibrator's cached baseline, valid until its next Calibrate,
	// Recalibrate, Rebind or Invalidate; clone it to keep it.
	GBA       *sta.Result
	Selection *pathsel.Selection // calibration paths (empty when streamed)

	// Bank holds the calibration paths in slab form when the model was
	// fitted through Options.StreamShard; Selection.Paths is empty then.
	// GoldenSlack is the golden slack per calibration path, in row order.
	Bank        *pathsel.Bank
	GoldenSlack []float64

	Problem    *solver.Problem // Eq. (9) system in correction space
	Columns    []int           // column -> instance ID
	Correction []float64       // solved dx per column
	Weights    []float64       // per instance ID: 1 + dx (1 off-path)
	Stats      solver.Stats

	MGBA *sta.Result // re-analysis with the fitted weights

	// Corners holds the per-corner fits of a multi-corner calibration
	// (Corners[0] mirrors the model's own selection-corner fit); nil in
	// single-corner mode. WorstSlack is the merged worst-corner mGBA
	// slack per endpoint at calibration time, with WorstWNS/WorstTNS its
	// negative-slack reduction. (The closure flow merges its own live
	// views, which it advances between calibrations.)
	Corners            []*CornerFit
	WorstSlack         []float64
	WorstWNS, WorstTNS float64

	// Robustness record (see DESIGN.md §"Failure model & degradation
	// ladder").

	// Degraded is true when the accepted fit came from a safer solver
	// than requested, or from the identity fallback.
	Degraded bool
	// Partial is true when the fit was cut short by context cancellation
	// and the solver's best iterate was accepted.
	Partial bool
	// Fault describes why calibration fell back to identity weights; ""
	// when a fit was accepted.
	Fault string
	// SafetyScale is the factor the Eq. (5) scale-back applied to the
	// correction: 1 means the raw fit was already safe (or strict safety
	// was not required), 0 means identity weights.
	SafetyScale float64
	// Attempts records every solver run of the degradation ladder, in
	// order, including rejected ones.
	Attempts []Attempt
}

// Attempt is one rung of the degradation ladder: which solver ran, its
// stats, and — when it was rejected — why.
type Attempt struct {
	Method   Method
	Stats    solver.Stats
	Rejected string // "" when the attempt was accepted
}

// Calibrate runs the full mGBA calibration pipeline on a design's timing
// graph under the given cheap configuration, selecting calibration paths
// with the per-endpoint top-k' scheme of §3.2. It builds a throwaway
// engine.Session; callers that recalibrate the same design repeatedly
// (the closure loop) should use CalibrateWithSession instead.
//
// Cancelling ctx stops the pipeline at the next path or solver iteration
// and returns a valid *partial* model: at worst identity weights (mGBA ==
// the cheap baseline), at best the solver's last safe iterate, never an
// error. Errors are reserved for invalid inputs.
func Calibrate(ctx context.Context, g *graph.Graph, cfg sta.Config, opt Options) (*Model, error) {
	return calibrate(ctx, nil, g, cfg, opt, nil)
}

// CalibrateWithSession runs the calibration pipeline on an existing timing
// session, so the per-design immutable state (depths, boxes, clock index,
// CRPR credit cache) and the per-run scratch buffers are reused instead of
// recomputed — the difference between a per-iteration and a per-design
// cost inside the closure loop.
func CalibrateWithSession(ctx context.Context, s *engine.Session, cfg sta.Config, opt Options) (*Model, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil session")
	}
	return calibrate(ctx, s, s.G, cfg, opt, nil)
}

// CalibrateOnSelection runs the same pipeline against an explicit path
// selection instead of the built-in per-endpoint scheme; the §3.2 study
// uses it to compare selection schemes under identical fitting.
func CalibrateOnSelection(ctx context.Context, g *graph.Graph, cfg sta.Config, opt Options, sel *pathsel.Selection) (*Model, error) {
	if sel == nil {
		return nil, fmt.Errorf("core: nil selection")
	}
	return calibrate(ctx, nil, g, cfg, opt, sel)
}

func calibrate(ctx context.Context, s *engine.Session, g *graph.Graph, cfg sta.Config, opt Options, sel *pathsel.Selection) (*Model, error) {
	if s == nil {
		s = engine.NewSession(g)
	}
	// A throwaway Calibrator runs the identical cold pipeline; one-shot
	// callers never exercise its cache, so the weighted-baseline clone is
	// skipped rather than leaked.
	c, err := newBoundCalibrator(s, cfg, opt, true)
	if err != nil {
		return nil, err
	}
	return c.cold(ctx, sel)
}

// validateOptions rejects configurations the pipeline cannot run on.
func validateOptions(cfg sta.Config, opt Options) error {
	if cfg.Weights != nil {
		return fmt.Errorf("core: calibration config must not carry weights")
	}
	if opt.K < 1 {
		return fmt.Errorf("core: K must be >= 1")
	}
	if opt.Epsilon < 0 {
		return fmt.Errorf("core: negative epsilon")
	}
	if opt.MinWeight <= 0 || opt.MaxWeight < opt.MinWeight {
		return fmt.Errorf("core: bad weight clamp [%v,%v]", opt.MinWeight, opt.MaxWeight)
	}
	if _, err := LookupViewPair(opt.ViewPair); err != nil {
		return err
	}
	if err := ValidateCorners(opt.Corners); err != nil {
		return err
	}
	return nil
}

// abandon turns a half-built model into the degenerate identity model:
// unit weights, no selection, mGBA == the cheap baseline. The result is
// always valid, and pessimism-safe whenever the cheap view is
// conservative (the default pair always is: GBA never under-estimates a
// path delay that PBA would increase).
func (m *Model) abandon(why string) *Model {
	obsCalibAbandoned.Inc()
	obs.Event("calibration_abandoned", "why", why)
	m.Selection = &pathsel.Selection{}
	m.Bank = nil
	m.GoldenSlack = nil
	m.Problem = nil
	m.Columns = nil
	m.Correction = nil
	m.Weights = identity(len(m.G.D.Instances))
	m.MGBA = m.GBA
	m.Corners = nil
	m.WorstSlack = nil
	m.WorstWNS, m.WorstTNS = 0, 0
	m.Partial = true
	m.Degraded = true
	m.Fault = why
	m.SafetyScale = 0
	return m
}

// cancelled reports whether ctx is done; a nil ctx never cancels.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func identity(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}
