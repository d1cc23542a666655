package transform

import (
	"mgba/internal/cells"
	"mgba/internal/netlist"
)

// resizeMove is the shared Move of the two cell-swap transforms. A swap
// preserves connectivity, so the dirty set is the exact incremental-update
// seed and Revert is the opposite swap.
type resizeMove struct {
	kind  string
	inst  *netlist.Instance
	from  *cells.Cell
	dirty []int
}

func (m *resizeMove) Kind() string { return m.kind }

func (m *resizeMove) Revert(a *Analysis) error {
	return a.D.Resize(m.inst, m.from)
}

func (m *resizeMove) DirtySet() []int { return m.dirty }

// Upsize is the first-choice repair transform: swap the slowest path gate
// for its next-stronger drive variant. Candidates are every path gate with
// headroom, ranked by decreasing derated cell delay.
type Upsize struct{}

// NewUpsize returns the upsize transform.
func NewUpsize() *Upsize { return &Upsize{} }

// Kind implements Transform.
func (*Upsize) Kind() string { return "upsize" }

// ConnectivityChanging implements Transform: a cell swap keeps the graph.
func (*Upsize) ConnectivityChanging() bool { return false }

// Propose implements Transform: path gates with an upsize available, in
// decreasing derated-delay order (repeated strict-first-max selection, so
// equal delays keep path order).
func (*Upsize) Propose(a *Analysis, fi int, path []int) []Candidate {
	type cand struct {
		id    int
		delay float64
	}
	var cands []cand
	for _, v := range path {
		if a.D.Lib.Upsize(a.D.Instances[v].Cell) != nil {
			cands = append(cands, cand{v, a.R.CellDelay[v]})
		}
	}
	out := make([]Candidate, 0, len(cands))
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].delay > cands[best].delay {
				best = i
			}
		}
		out = append(out, Candidate{Target: cands[best].id})
		cands = append(cands[:best], cands[best+1:]...)
	}
	return out
}

// Apply implements Transform.
func (t *Upsize) Apply(a *Analysis, c Candidate) (Move, error) {
	return applyResize(a, c.Target, t.Kind(), true)
}

// Accept implements Transform: the target endpoint must improve without
// making the design's worst slack worse. A strict TNS guard would paralyze
// repair inside tightly-coupled cones, where upsizing one gate always
// taxes a sibling path slightly.
func (*Upsize) Accept(before, after Snapshot) bool {
	return after.Slack > before.Slack+Eps && after.WNS >= before.WNS-Eps
}

// Downsize is the recovery transform: shrink a slack-rich gate to recover
// area and leakage. The recovery pass drives it one gate at a time.
type Downsize struct{}

// NewDownsize returns the downsize transform.
func NewDownsize() *Downsize { return &Downsize{} }

// Kind implements Transform.
func (*Downsize) Kind() string { return "downsize" }

// ConnectivityChanging implements Transform.
func (*Downsize) ConnectivityChanging() bool { return false }

// Propose implements Transform: each offered gate with a weaker variant
// available is a candidate, in the offered order.
func (*Downsize) Propose(a *Analysis, fi int, path []int) []Candidate {
	var out []Candidate
	for _, v := range path {
		if a.D.Lib.Downsize(a.D.Instances[v].Cell) != nil {
			out = append(out, Candidate{Target: v})
		}
	}
	return out
}

// Apply implements Transform.
func (t *Downsize) Apply(a *Analysis, c Candidate) (Move, error) {
	return applyResize(a, c.Target, t.Kind(), false)
}

// Accept implements Transform: keep when no violating endpoint got worse
// and no new violation appeared (recovery never trades timing for area).
func (*Downsize) Accept(before, after Snapshot) bool {
	return after.WNS >= before.WNS-Eps && after.TNS >= before.TNS-Eps
}

// applyResize performs the swap shared by Upsize and Downsize.
func applyResize(a *Analysis, id int, kind string, up bool) (Move, error) {
	inst := a.D.Instances[id]
	from := inst.Cell
	var to *cells.Cell
	if up {
		to = a.D.Lib.Upsize(from)
	} else {
		to = a.D.Lib.Downsize(from)
	}
	if to == nil {
		return nil, nil
	}
	if err := a.D.Resize(inst, to); err != nil {
		return nil, nil // ineligible swap: not a fault, just no move
	}
	return &resizeMove{
		kind:  kind,
		inst:  inst,
		from:  from,
		dirty: ModifiedSet(a, id),
	}, nil
}
