// Package engine is the timing engine behind graph-based analysis: it
// splits a design's timing state into the immutable, design-derived part —
// owned by a reusable Session — and the per-run analysis part — carried by
// a Result backed by pooled scratch buffers.
//
// The split exists because the paper's framework (§3.4) puts the timer
// *inside* a timing-closure optimization loop: the loop re-times the same
// design thousands of times (mGBA weight applications, incremental updates
// after resizes, PBA budget queries), yet the expensive derived state —
// topological levels, worst-casing depth and bounding-box DPs, the clock
// index, clock insertion delays and the leaf-pair CRPR credit cache — only
// depends on the design, not on the run. A Session computes that state
// once; each Run then costs exactly one forward/backward propagation, and
// on the steady-state path allocates nothing but its *Result header
// (Release returns a Result's buffers to the session pool, and every
// pass goes to the worker pool through a par.Body those buffers keep;
// TestRunSteadyStateZeroAlloc). A structural edit of the data network
// (buffer insertion, retiming) needs a new graph and session, but no
// rebuild: Session.Derive patches the graph's touched rows, re-derives
// the DP state over the edit's cones and shares the clock state while
// the clock network is provably unchanged, and Result.Rebase carries a
// view over with one incremental Update.
//
// Propagation is level-parallel: within each topological level no instance
// depends on another, so levels are partitioned across a worker pool
// (Config.Parallelism; 0 means runtime.NumCPU()). Every instance's values
// are computed independently from already-final fanins and written to that
// instance's slot only — no accumulation across goroutines — so results
// are bitwise identical at every parallelism setting, including 1. A Run
// touches the netlist in the order it is laid out: one pass over instance
// IDs first stages each instance's output load and wire delay in its own
// slots, and each level lists its instances by ascending ID.
//
// The analysis semantics (worst-depth/worst-distance AOCV derating,
// worst-slew merging, conservative CRPR crediting, setup/hold slacks,
// incremental update) are unchanged from the original internal/sta engine;
// internal/sta remains as a thin compatibility layer aliasing these types.
package engine

import (
	"mgba/internal/aocv"
	"mgba/internal/graph"
	"mgba/internal/par"
)

// Config selects the analysis features of one run. The zero value is a
// plain timer with every pessimism source disabled; use DefaultConfig for
// the paper's GBA setting.
type Config struct {
	DerateData  bool // apply AOCV late derates to data cells and FF CK->Q arcs
	DerateClock bool // apply AOCV late/early derates to the clock tree

	// DelayOverride forces the nominal (pre-derate) delay of specific
	// instances, bypassing the load/slew model. Used by the Fig. 2 worked
	// example (all gates exactly 100 ps) and by tests.
	DelayOverride map[int]float64

	// Weights is the per-instance mGBA weighting factor vector (Eq. 8)
	// applied multiplicatively to the derated cell delay. nil means all 1
	// (original GBA).
	Weights []float64

	// IdealClock treats every clock buffer as zero-delay, removing clock
	// insertion and CRPR effects entirely.
	IdealClock bool

	// Derates, when non-nil, replaces the design's AOCV table set for this
	// run — the per-corner binding of multi-corner analysis. nil keeps the
	// design's own tables (bit-identical to an analysis before this knob
	// existed).
	Derates *aocv.Set

	// Uncertainty is the clock uncertainty of the analysis corner in ps,
	// subtracted from the setup required time at every endpoint (and from
	// the PBA retiming budget). Zero — the default — changes nothing.
	Uncertainty float64

	// Parallelism is the worker count for level-parallel propagation:
	// 0 means runtime.NumCPU(), 1 runs fully sequential. Results are
	// bitwise identical at every setting.
	Parallelism int
}

// DefaultConfig is the paper's GBA: full AOCV derating on data and clock,
// worst-slew merging, conservative CRPR crediting.
func DefaultConfig() Config {
	return Config{DerateData: true, DerateClock: true}
}

// workers resolves a Parallelism setting to a concrete worker count,
// using the repo-wide convention of internal/par.
func workers(p int) int { return par.Workers(p) }

// Workers resolves a Config.Parallelism setting to a concrete worker count
// (0 = NumCPU, anything below 1 = sequential). Exported so other stages —
// the PBA path enumerator — can share the engine's parallelism convention.
func Workers(p int) int { return workers(p) }

// Analyze runs one cold full analysis: a throwaway Session plus one Run.
// Callers that re-time the same design repeatedly should hold a Session
// and call Run themselves — that is the whole point of the session split.
func Analyze(g *graph.Graph, cfg Config) *Result {
	return NewSession(g).Run(cfg)
}
