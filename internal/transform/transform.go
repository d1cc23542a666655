// Package transform defines the pluggable closure-move framework: the
// Transform interface every timing-closure move implements, the Move
// handle an application returns (revert and dirty set), and the
// Registry the closure scheduler iterates. The four shipped transforms —
// gate upsizing, buffer insertion, register retiming, and the
// recovery-pass downsizing — live here as self-contained implementations;
// the closure package is a generic scheduler over a Registry and carries
// no move-specific logic.
//
// The capability contract is the ConnectivityChanging bit plus the Move's
// DirtySet:
//
//   - !ConnectivityChanging (upsize, downsize): the timing graph is
//     untouched, the flow advances its Result in place with
//     Result.Update(DirtySet) — thousands of trials against one session.
//   - ConnectivityChanging (buffer insertion, retiming): the move rewires
//     the graph — a buffer also appends an instance — so the flow derives
//     a trial session from its own over the DirtySet, patching its graph,
//     and rebases its view onto it (engine Session.Derive, Result.Rebase).
//     A rejected move is reverted, the trial session discarded and the
//     pre-trial session stays; an accepted one
//     is adopted, the persistent calibrator is rebound to it, and the
//     dirty set, widened with the instances whose graph-derived depth or
//     bounding box moved, drives an exact *incremental* recalibration.
//
// Acceptance is also per-transform (Accept over before/after timing
// snapshots): repair moves demand target-endpoint improvement under a WNS
// or TNS guard, recovery moves demand no new violations.
package transform

import (
	"encoding/json"
	"math"

	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

// Eps is the slack comparison tolerance shared by every Accept rule: an
// improvement must clear it, a guard may regress by at most it.
const Eps = 1e-9

// Analysis bundles the live timing view transforms propose against. The
// scheduler rebuilds it whenever the graph or result changes; transforms
// must not retain it across calls.
type Analysis struct {
	D *netlist.Design
	G *graph.Graph
	R *sta.Result
}

// Snapshot captures the timing quantities Accept rules arbitrate on.
// Slack is the target endpoint's slack; recovery-pass applications have no
// target endpoint and pass NaN (recovery Accept rules ignore it).
type Snapshot struct {
	Slack float64
	WNS   float64
	TNS   float64
}

// Candidate is one proposed application site. Target and Aux are
// transform-defined IDs (an instance, a net, an FF/gate pair); Op
// discriminates between the transform's move variants.
type Candidate struct {
	Target int
	Aux    int
	Op     int
}

// Move is one applied transform instance: the handle to revert it and the
// instances whose timing it touched.
type Move interface {
	// Kind echoes the owning transform's kind.
	Kind() string
	// Revert undoes the application exactly. After a successful revert the
	// design is bit-identical to its pre-Apply state.
	Revert(a *Analysis) error
	// DirtySet returns the instances whose timing changed, the seed for
	// incremental Result.Update and calibrator recalibration. A
	// connectivity-changing move includes the instances it created.
	DirtySet() []int
}

// Transform is one pluggable closure move.
type Transform interface {
	// Kind names the transform; it keys budgets, counters, and the
	// checkpoint per-transform state blobs.
	Kind() string
	// ConnectivityChanging reports whether applications rewire the
	// netlist, invalidating the timing graph and session.
	ConnectivityChanging() bool
	// Propose ranks application sites on the worst path into endpoint fi
	// (a D.FFs position; -1 for recovery-pass calls, where path carries
	// the single instance under consideration). The scheduler tries
	// candidates in the returned order until one is accepted.
	Propose(a *Analysis, fi int, path []int) []Candidate
	// Apply performs the candidate's edit. (nil, nil) means the candidate
	// turned out inapplicable — not an error, the scheduler just moves
	// on; a non-nil error aborts the flow.
	Apply(a *Analysis, c Candidate) (Move, error)
	// Accept decides whether the applied move is kept, given timing
	// snapshots from immediately before and after the application.
	Accept(before, after Snapshot) bool
}

// Stateful is implemented by transforms that carry run state beyond the
// netlist (the retimer's per-register lag map). The closure flow embeds
// the blob in checkpoints (format v2, keyed by Kind) and restores it on
// resume.
type Stateful interface {
	StateBlob() (json.RawMessage, error)
	Restore(blob json.RawMessage) error
}

// Registry is the transform set a closure run schedules over: Repair
// transforms are tried in order on each violating endpoint's worst path;
// Recovery transforms are offered slack-rich gates in the recovery pass.
type Registry struct {
	Repair   []Transform
	Recovery []Transform
}

// Kinds returns the registered kinds, repair first, without duplicates.
func (r *Registry) Kinds() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range append(append([]Transform(nil), r.Repair...), r.Recovery...) {
		if !seen[t.Kind()] {
			seen[t.Kind()] = true
			out = append(out, t.Kind())
		}
	}
	return out
}

// ByKind returns the registered transform of the given kind, or nil.
func (r *Registry) ByKind(kind string) Transform {
	for _, t := range r.Repair {
		if t.Kind() == kind {
			return t
		}
	}
	for _, t := range r.Recovery {
		if t.Kind() == kind {
			return t
		}
	}
	return nil
}

// ModifiedSet returns the instances whose timing must be re-evaluated
// after instance id changed cell: the instance itself plus the drivers of
// its input nets (their loads changed).
func ModifiedSet(a *Analysis, id int) []int {
	inst := a.D.Instances[id]
	mod := []int{id}
	for _, nid := range inst.Inputs {
		if drv := a.D.Nets[nid].Driver; drv >= 0 && !a.G.IsClock(drv) {
			mod = append(mod, drv)
		}
	}
	return mod
}

// WorstPath walks the worst timer path into endpoint fi by following
// maximal arrivals backward, returning the instance IDs from launch FF to
// the last combinational gate before the endpoint.
func WorstPath(a *Analysis, fi int) []int {
	d := a.D
	ffID := d.FFs[fi]
	var rev []int
	cur, ok := worstFanin(a, ffID)
	for ok {
		rev = append(rev, cur)
		if d.Instances[cur].IsFF() {
			break
		}
		cur, ok = worstFanin(a, cur)
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

func worstFanin(a *Analysis, v int) (int, bool) {
	best, bestAt := -1, math.Inf(-1)
	for _, e := range a.G.Fanin(v) {
		at := a.R.ArrivalOut[e.From] + a.R.WireDelay[e.From]
		if at > bestAt {
			best, bestAt = int(e.From), at
		}
	}
	return best, best >= 0
}
