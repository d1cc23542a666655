// Package pba implements path-based analysis: exact per-path timing with
// path-specific AOCV derating, path-specific slew propagation and exact
// clock-reconvergence-pessimism credit. Its results are the golden
// reference the mGBA weights are fitted against (§2.2 of the paper).
//
// Because enumerating every path of a real design is intractable, the
// package provides a per-endpoint k-worst-path enumerator over the GBA
// timing graph. It is a best-first search keyed on accumulated sidetrack
// (Eppstein's k-shortest-paths formulation): paths come out in descending
// GBA-arrival order up to float64 rounding, with equal-key paths taken
// depth-first, so the k worst GBA-slack paths of an endpoint come out
// first. The critical-path selection schemes of §3.2 are built on top of
// this in internal/pathsel.
package pba

import (
	"math"
	"sync"
	"sync/atomic"

	"mgba/internal/engine"
	"mgba/internal/faultinject"
	"mgba/internal/netlist"
	"mgba/internal/par"
	"mgba/internal/sta"
)

// Path is one register-to-register path found by the enumerator. Cells
// lists the delay-carrying instances in path order: the launch FF (whose
// CK->Q arc is derated like a data cell) followed by the combinational
// gates. The capture FF contributes its setup time, not a cell delay.
type Path struct {
	Launch  int   // launch FF instance ID
	Capture int   // capture FF instance ID (the endpoint)
	Cells   []int // launch FF followed by combinational gate instance IDs

	GBAArrival float64 // data arrival at the D pin under GBA
	GBASlack   float64 // setup slack under GBA (conservative CRPR credit applied)
}

// NumGates returns the combinational cell depth of the path (PBA depth).
func (p *Path) NumGates() int { return len(p.Cells) - 1 }

// Timing is the exact PBA retiming of one path.
type Timing struct {
	Path *Path

	Depth      int     // combinational cell depth used for the AOCV lookup
	Distance   float64 // launch-to-capture endpoint distance, um
	LateDerate float64 // the single path-specific late factor
	CRPR       float64 // clock reconvergence credit added to the slack

	CellSum float64 // sum of path-specific derated cell delays
	WireSum float64 // sum of (underated) wire delays along the path
	Arrival float64 // data arrival at the D pin under PBA
	Slack   float64 // setup slack under PBA
}

// Analyzer retimes paths exactly against a finished GBA analysis (the GBA
// result supplies clock insertion delays, budgets and the graph). Because
// every Result is backed by an engine.Session, the exact per-pair CRPR
// credits consulted by Retime come from the session's precomputed
// leaf-pair matrix — repeated retiming never re-walks the clock tree.
type Analyzer struct {
	R *sta.Result
}

// NewAnalyzer wraps a GBA result for path retiming. The result must stay
// unreleased for the analyzer's lifetime.
func NewAnalyzer(r *sta.Result) *Analyzer { return &Analyzer{R: r} }

// Session returns the timing session backing the wrapped analysis.
func (a *Analyzer) Session() *engine.Session { return a.R.S }

// Budget returns the slack budget of an endpoint (D.FFs position):
// period + early capture clock - setup. Slack = budget + CRPR - arrival.
func (a *Analyzer) Budget(captureIdx int) float64 {
	d := a.R.G.D
	ff := d.Instances[d.FFs[captureIdx]]
	return d.ClockPeriod + a.R.ClockEarly[captureIdx] - ff.Cell.Setup - a.R.Cfg.Uncertainty
}

// Retime computes the exact PBA timing of p: the path-specific AOCV late
// factor at the path's true depth and endpoint distance, slew propagated
// along the path only, and the exact CRPR credit of the launch/capture
// clock pair.
func (a *Analyzer) Retime(p *Path) *Timing {
	obsRetimes.Inc()
	r := a.R
	d := r.G.D
	launch := d.Instances[p.Launch]
	capture := d.Instances[p.Capture]

	depth := p.NumGates()
	dist := netlist.Distance(launch, capture)
	late := 1.0
	if r.Cfg.DerateData {
		lookupDepth := float64(depth)
		if lookupDepth < 1 {
			lookupDepth = 1 // direct FF-to-FF transfer
		}
		derates := r.Cfg.Derates
		if derates == nil {
			derates = d.Derates
		}
		late = derates.Late.Lookup(lookupDepth, dist)
	}

	var cellSum, wireSum, slew float64
	for _, v := range p.Cells {
		in := d.Instances[v]
		var nom float64
		if ov, ok := r.Cfg.DelayOverride[v]; ok {
			nom = ov
			slew = 0
		} else {
			load := d.LoadCap(d.Nets[in.Output])
			nom = in.Cell.Delay(load, slew)
			slew = in.Cell.OutputSlew(load, slew)
		}
		w := 1.0
		if r.Cfg.Weights != nil {
			// Weighted retiming is only meaningful for mGBA validation;
			// golden PBA uses unit weights. Kept for completeness.
			w = r.Cfg.Weights[v]
		}
		cellSum += nom * late * w
		wireSum += r.WireDelay[v]
	}

	launchIdx := r.G.FFIndex(p.Launch)
	captureIdx := r.G.FFIndex(p.Capture)
	crpr := r.CRPRCredit(launchIdx, captureIdx)
	arrival := r.ClockLate[launchIdx] + cellSum + wireSum
	slack := a.Budget(captureIdx) + crpr - arrival
	return &Timing{
		Path:       p,
		Depth:      depth,
		Distance:   dist,
		LateDerate: late,
		CRPR:       crpr,
		CellSum:    cellSum,
		WireSum:    wireSum,
		Arrival:    arrival,
		Slack:      slack,
	}
}

// searchState is a partial path suffix during backward best-first search:
// everything from inst's output pin to the endpoint's D pin is fixed and
// costs tail picoseconds under GBA. parent is the index of the state
// towards the endpoint in the search's state list, -1 next to the
// endpoint.
type searchState struct {
	inst   int
	parent int
	tail   float64
}

// heapItem is the search key of the state at index id of the state list.
// gap is the state's accumulated sidetrack: the sum, over the edges u->v
// its suffix takes, of maxAt(v) - (ArrivalOut[u] + WireDelay[u]), i.e. how
// far u's arrival at v falls short of v's worst input arrival. In exact
// arithmetic a finished path's GBA arrival is the endpoint's D-pin arrival
// minus its gap, so ascending gap is descending arrival. Unlike the
// arrival bound ArrivalOut[u] + tail, which float64 rounding lets drift
// above its parent's along a critical chain, the gap adds exactly 0.0 on
// every argmax edge and never decreases from parent to child.
type heapItem struct {
	gap float64
	id  int
}

// before is the heap order: smaller gap first and, among equal gaps, the
// later push (states are listed in push order) first, so equal-gap chains
// are followed depth-first. ids are unique, so the order is total and the
// search deterministic.
func (x heapItem) before(y heapItem) bool {
	if x.gap != y.gap {
		return x.gap < y.gap
	}
	return x.id > y.id
}

// stateHeap is a binary min-heap of heapItems under before.
type stateHeap []heapItem

func (h *stateHeap) push(it heapItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
	*h = q
}

func (h *stateHeap) pop() heapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// enumScratch is the per-enumeration working set — the best-first heap
// and the list of every state pushed — pooled so repeated KWorst calls
// (one per endpoint per recalibration) run allocation-free in steady state.
type enumScratch struct {
	heap   stateHeap
	states []searchState
}

var scratchPool = sync.Pool{New: func() any { return new(enumScratch) }}

func getScratch() *enumScratch { return scratchPool.Get().(*enumScratch) }

func putScratch(sc *enumScratch) { scratchPool.Put(sc) }

// pushFanins pushes one state per fanin u of v: the suffix from u's output
// pin through v, extending the state at index parent, or from u's output
// pin alone when v is the capture FF and parent is -1. v's worst input
// arrival is recomputed with the engine's own expression, so the argmax
// fanin's sidetrack is exactly 0.0.
func (sc *enumScratch) pushFanins(r *sta.Result, v, parent int, gap float64) {
	fanin := r.G.Fanin(v)
	maxAt := math.Inf(-1)
	for _, e := range fanin {
		if at := r.ArrivalOut[e.From] + r.WireDelay[e.From]; at > maxAt {
			maxAt = at
		}
	}
	var through float64 // tail up to v's input pins
	if parent >= 0 {
		p := sc.states[parent]
		through = p.tail + r.CellDelay[p.inst]
	}
	for _, e := range fanin {
		u := int(e.From)
		tail := r.WireDelay[u]
		if parent >= 0 {
			tail = through + r.WireDelay[u]
		}
		sc.heap.push(heapItem{gap: gap + (maxAt - (r.ArrivalOut[u] + r.WireDelay[u])), id: len(sc.states)})
		sc.states = append(sc.states, searchState{inst: u, parent: parent, tail: tail})
	}
}

// KWorst enumerates up to k paths ending at endpoint captureIdx (a D.FFs
// position), worst GBA slack first. When stopAtSlack is non-nil,
// enumeration also stops as soon as the next path's GBA slack reaches
// *stopAtSlack (use 0 to collect exactly the violated paths).
//
// The search is best-first on the accumulated sidetrack (see heapItem), so
// paths come out in ascending sidetrack order: descending GBA arrival up to
// float64 rounding, with equal-key paths taken depth-first. The order is
// deterministic, whatever the Parallelism of a KWorstAll fan-out. A path's
// GBAArrival is ArrivalOut[launch] plus its tail, summed from the endpoint
// back.
func (a *Analyzer) KWorst(captureIdx, k int, stopAtSlack *float64) []*Path {
	sc := getScratch()
	out := a.kWorst(sc, captureIdx, k, stopAtSlack)
	putScratch(sc)
	return out
}

// kWorst runs one endpoint search on sc, leaving the states it pushed in
// sc.states until the next search.
func (a *Analyzer) kWorst(sc *enumScratch, captureIdx, k int, stopAtSlack *float64) []*Path {
	_ = faultinject.Float64(faultinject.PathEnum, float64(captureIdx))
	r := a.R
	d := r.G.D
	ffID := d.FFs[captureIdx]
	budget := a.Budget(captureIdx)
	gbaCredit := r.GBACRPR[captureIdx]

	sc.heap, sc.states = sc.heap[:0], sc.states[:0]
	sc.pushFanins(r, ffID, -1, 0)
	var out []*Path
	for len(sc.heap) > 0 && len(out) < k {
		it := sc.heap.pop()
		s := sc.states[it.id]
		if !d.Instances[s.inst].IsFF() {
			sc.pushFanins(r, s.inst, it.id, it.gap)
			continue
		}
		arrival := r.ArrivalOut[s.inst] + s.tail
		slack := budget + gbaCredit - arrival
		if stopAtSlack != nil && slack >= *stopAtSlack {
			break // everything still enqueued is at least this good, up to rounding
		}
		// Count the chain first, so the path's cells are one allocation of
		// exactly their length.
		n := 1
		for p := s.parent; p >= 0; p = sc.states[p].parent {
			n++
		}
		cells := make([]int, n)
		cells[0] = s.inst
		for i, p := 1, s.parent; p >= 0; i, p = i+1, sc.states[p].parent {
			cells[i] = sc.states[p].inst
		}
		out = append(out, &Path{
			Launch:     s.inst,
			Capture:    ffID,
			Cells:      cells,
			GBAArrival: arrival,
			GBASlack:   slack,
		})
	}
	obsEndpointsSwept.Inc()
	obsPathsEnumerated.Add(int64(len(out)))
	obsSearchStates.Add(int64(len(sc.states)))
	return out
}

// EndpointIndices returns the D.FFs positions of every constrained
// endpoint — flip-flops with at least one data fanin — in FF order.
func (a *Analyzer) EndpointIndices() []int {
	g := a.R.G
	out := make([]int, 0, len(g.D.FFs))
	for fi, id := range g.D.FFs {
		if len(g.Fanin(id)) > 0 {
			out = append(out, fi)
		}
	}
	return out
}

// KWorstAll runs KWorst for every endpoint in endpoints (D.FFs positions)
// and returns the per-endpoint path lists in input order. The independent
// searches are fanned across a worker pool sized by parallelism (engine
// convention: 0 = NumCPU, 1 = sequential); because each endpoint's search
// is self-contained and results are slotted by input position, the output
// is identical to serial KWorst calls at every parallelism setting.
func (a *Analyzer) KWorstAll(endpoints []int, k int, stopAtSlack *float64, parallelism int) [][]*Path {
	obsFanoutGauge.SetInt(len(endpoints))
	out := make([][]*Path, len(endpoints))
	workers := engine.Workers(parallelism)
	if workers > len(endpoints) {
		workers = len(endpoints)
	}
	if workers <= 1 {
		sc := getScratch()
		for i, fi := range endpoints {
			out[i] = a.kWorst(sc, fi, k, stopAtSlack)
		}
		putScratch(sc)
		return out
	}
	// Fan out on the shared internal/par pool: each worker drains an
	// atomic endpoint counter with its own pooled scratch (endpoint costs
	// are wildly uneven, so dynamic balancing beats fixed ranges).
	var next atomic.Int64
	par.Run(workers, func() {
		sc := getScratch()
		defer putScratch(sc)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(endpoints) {
				return
			}
			out[i] = a.kWorst(sc, endpoints[i], k, stopAtSlack)
		}
	})
	return out
}

// WorstPath returns the single worst GBA path of an endpoint, or nil when
// the endpoint is unconstrained.
func (a *Analyzer) WorstPath(captureIdx int) *Path {
	ps := a.KWorst(captureIdx, 1, nil)
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// AllViolated enumerates every negative-GBA-slack path of every endpoint,
// capped at capPerEndpoint per endpoint (a safety valve: reconvergent
// designs have exponentially many paths). Endpoints are enumerated with
// the analysis' Parallelism setting; the result is endpoint-major in FF
// order, identical at every setting.
func (a *Analyzer) AllViolated(capPerEndpoint int) []*Path {
	zero := 0.0
	per := a.KWorstAll(a.EndpointIndices(), capPerEndpoint, &zero, a.R.Cfg.Parallelism)
	var out []*Path
	for _, ps := range per {
		out = append(out, ps...)
	}
	return out
}
