package engine

import (
	"math"

	"mgba/internal/aocv"
	"mgba/internal/graph"
	"mgba/internal/obs"
)

// Result holds one complete forward/backward GBA analysis of a design.
// The clock-derived slices (ClockLate, ClockEarly, GBACRPR) alias state
// owned by the Session and are shared, read-only, between Results; the
// per-run slices come from the session's scratch pool and are exclusive
// to this Result until Release is called.
type Result struct {
	G   *graph.Graph
	Cfg Config
	S   *Session // the owning session

	Depths *graph.Depths
	Boxes  *graph.Boxes

	// Per-instance quantities (indexed by instance ID).
	NominalDelay []float64 // load/slew delay before derating, incl. overrides
	Derate       []float64 // late AOCV factor applied (1 when not derated)
	CellDelay    []float64 // NominalDelay * Derate * weight — the a_ij basis
	WireDelay    []float64 // output-net wire delay (not derated, not weighted)
	Slew         []float64 // worst-case output transition
	ArrivalOut   []float64 // latest data arrival at the instance output
	RequiredOut  []float64 // earliest required time at the instance output
	MinArrival   []float64 // earliest data arrival (hold analysis)

	// Per-FF quantities (indexed by position in D.FFs).
	ClockLate  []float64 // launch clock insertion delay (late derates)
	ClockEarly []float64 // capture clock insertion delay (early derates)
	GBACRPR    []float64 // conservative (worst launch pair) CRPR credit GBA applies
	DataAtD    []float64 // latest data arrival at the FF's D pin
	MinAtD     []float64 // earliest data arrival at the FF's D pin
	Slack      []float64 // setup slack per endpoint (+Inf when unconstrained)
	HoldSlack  []float64 // hold slack per endpoint (+Inf when unconstrained)

	WNS, TNS float64 // worst / total negative setup slack over endpoints

	cs  *clockState
	sc  *scratch
	par int // resolved worker count
}

// Release returns the Result's per-run buffers to the session pool so the
// next Run reuses them instead of allocating. The Result — including every
// slice read from it — must not be used afterwards. Releasing twice, or
// releasing nil, is a no-op.
func (r *Result) Release() {
	if r == nil || r.sc == nil {
		return
	}
	sc := r.sc
	r.sc = nil
	r.S.scratchMu.Lock()
	r.S.free = append(r.S.free, sc)
	r.S.scratchMu.Unlock()
}

// Clone returns an independent copy of the Result backed by its own
// per-run buffers from the session pool, bitwise equal to the original.
// The clock-derived slices stay shared (session-owned, read-only). The
// incremental calibrator uses it to keep a private weighted baseline it
// advances in place across recalibrations while every caller still owns —
// and may Release — the result it was handed. Cloning a released Result
// returns nil.
func (r *Result) Clone() *Result {
	if r == nil || r.sc == nil {
		return nil
	}
	sc := r.S.getScratch()
	copy(sc.backInst, r.sc.backInst)
	copy(sc.backFF, r.sc.backFF)
	cl := *r
	cl.sc = sc
	cl.NominalDelay = sc.nominalDelay
	cl.Derate = sc.derate
	cl.CellDelay = sc.cellDelay
	cl.WireDelay = sc.wireDelay
	cl.Slew = sc.slew
	cl.ArrivalOut = sc.arrivalOut
	cl.RequiredOut = sc.requiredOut
	cl.MinArrival = sc.minArrival
	cl.DataAtD = sc.dataAtD
	cl.MinAtD = sc.minAtD
	cl.Slack = sc.slack
	cl.HoldSlack = sc.holdSlack
	return &cl
}

// weight returns the mGBA weighting factor of instance v.
func (r *Result) weight(v int) float64 {
	if r.Cfg.Weights == nil {
		return 1
	}
	return r.Cfg.Weights[v]
}

// derates resolves the AOCV table set this run analyzes under: the
// config's corner binding when set, the design's own tables otherwise.
func (r *Result) derates() *aocv.Set {
	if r.Cfg.Derates != nil {
		return r.Cfg.Derates
	}
	return r.G.D.Derates
}

// lateDerate returns the conservative late AOCV factor GBA applies to the
// data cell v.
func (r *Result) lateDerate(v int) float64 {
	if !r.Cfg.DerateData {
		return 1
	}
	return r.derates().Late.Lookup(float64(r.Depths.GBA[v]), r.Boxes.GBADistance[v])
}

// CRPRCredit returns the exact clock-reconvergence pessimism credit for a
// launch/capture FF pair (positions into D.FFs). PBA applies it per path;
// GBA applies only the conservative per-endpoint minimum (GBACRPR). The
// lookup hits the session's precomputed leaf-pair matrix.
func (r *Result) CRPRCredit(launchIdx, captureIdx int) float64 {
	if r.Cfg.IdealClock || !r.Cfg.DerateClock {
		return 0
	}
	ci := r.G.ClockIndex()
	return r.cs.credits[ci.LeafOfFF[launchIdx]][ci.LeafOfFF[captureIdx]]
}

// nominalDelay computes the pre-derate delay of instance v given its worst
// input slew, honouring overrides.
func (r *Result) nominalDelay(v int, inSlew float64) float64 {
	if ov, ok := r.Cfg.DelayOverride[v]; ok {
		return ov
	}
	d := r.G.D
	in := d.Instances[v]
	if in.Output < 0 {
		return 0
	}
	load := d.LoadCap(d.Nets[in.Output])
	return in.Cell.Delay(load, inSlew)
}

// forwardAll propagates worst slews and max/min arrivals level by level.
// Levels are data-independent internally, so each one is partitioned
// across the worker pool; every worker writes only the slots of its own
// instances, which keeps the parallel schedule bitwise identical to the
// sequential one.
func (r *Result) forwardAll() {
	s := r.S
	for l := 0; l+1 < len(s.levelOff); l++ {
		lo, hi := s.levelOff[l], s.levelOff[l+1]
		r.parallelFor(hi-lo, func(a, b int) {
			for i := lo + a; i < lo+b; i++ {
				r.evalInstance(int(s.levelOrder[i]))
			}
		})
	}
	r.collectEndpointArrivals()
}

// evalInstance recomputes the slew, delays and arrivals of one instance
// from its (already final) fanins.
func (r *Result) evalInstance(v int) {
	d := r.G.D
	in := d.Instances[v]

	// Worst input slew and input arrival window.
	var worstSlew float64
	maxAt := math.Inf(-1)
	minAt := math.Inf(1)
	if in.IsFF() {
		fi := r.G.FFIndex(v)
		maxAt = r.ClockLate[fi]
		minAt = r.ClockEarly[fi]
		worstSlew = 0
	} else {
		for _, e := range r.G.Fanin(v) {
			if s := r.Slew[e.From]; s > worstSlew {
				worstSlew = s
			}
			at := r.ArrivalOut[e.From] + r.WireDelay[e.From]
			if at > maxAt {
				maxAt = at
			}
			mn := r.MinArrival[e.From] + r.WireDelay[e.From]
			if mn < minAt {
				minAt = mn
			}
		}
		if len(r.G.Fanin(v)) == 0 {
			maxAt, minAt = 0, 0
		}
	}

	nom := r.nominalDelay(v, worstSlew)
	der := r.lateDerate(v)
	r.NominalDelay[v] = nom
	r.Derate[v] = der
	r.CellDelay[v] = nom * der * r.weight(v)
	if in.Output >= 0 {
		r.WireDelay[v] = d.Nets[in.Output].WireDelay
		if _, ok := r.Cfg.DelayOverride[v]; ok {
			r.Slew[v] = 0
		} else {
			r.Slew[v] = in.Cell.OutputSlew(d.LoadCap(d.Nets[in.Output]), worstSlew)
		}
	} else {
		r.WireDelay[v] = 0
		r.Slew[v] = 0
	}
	r.ArrivalOut[v] = maxAt + r.CellDelay[v]
	// Hold analysis uses the same derated delay basis; the pessimism gap
	// for hold comes from the max/min window, kept simple deliberately.
	r.MinArrival[v] = minAt + r.CellDelay[v]
}

// collectEndpointArrivals refreshes the per-endpoint D-pin arrival windows
// from the final instance arrivals. Endpoints are independent, so the scan
// is partitioned across workers.
func (r *Result) collectEndpointArrivals() {
	r.parallelFor(len(r.G.D.FFs), func(lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			r.collectEndpoint(fi)
		}
	})
}

// collectEndpoint refreshes endpoint fi's D-pin arrival window from its
// drivers' final arrivals.
func (r *Result) collectEndpoint(fi int) {
	fanin := r.G.Fanin(r.G.D.FFs[fi])
	if len(fanin) == 0 {
		r.DataAtD[fi] = math.Inf(-1)
		r.MinAtD[fi] = math.Inf(1)
		return
	}
	maxAt := math.Inf(-1)
	minAt := math.Inf(1)
	for _, e := range fanin {
		at := r.ArrivalOut[e.From] + r.WireDelay[e.From]
		if at > maxAt {
			maxAt = at
		}
		mn := r.MinArrival[e.From] + r.WireDelay[e.From]
		if mn < minAt {
			minAt = mn
		}
	}
	r.DataAtD[fi] = maxAt
	r.MinAtD[fi] = minAt
}

// endpointRequired returns the setup required time at endpoint fi's D pin:
// the capture edge (period + early capture clock) minus the setup time,
// plus GBA's conservative CRPR credit.
func (r *Result) endpointRequired(fi int) float64 {
	d := r.G.D
	ff := d.Instances[d.FFs[fi]]
	return d.ClockPeriod + r.ClockEarly[fi] - ff.Cell.Setup + r.GBACRPR[fi] - r.Cfg.Uncertainty
}

// endpointSlacks derives setup and hold slacks, WNS and TNS. The WNS/TNS
// reduction stays sequential: it is O(#endpoints) and a fixed fold order
// keeps the sums bitwise stable.
func (r *Result) endpointSlacks() {
	d := r.G.D
	r.WNS, r.TNS = 0, 0
	for fi, ffID := range d.FFs {
		if len(r.G.Fanin(ffID)) == 0 {
			r.Slack[fi] = unconstrained
			r.HoldSlack[fi] = unconstrained
			continue
		}
		ff := d.Instances[ffID]
		r.Slack[fi] = r.endpointRequired(fi) - r.DataAtD[fi]
		// Hold: earliest data edge must beat the same-cycle capture edge
		// (late capture clock) plus the hold requirement.
		r.HoldSlack[fi] = r.MinAtD[fi] - (r.ClockLate[fi] - r.ClockEarly[fi] + ff.Cell.Hold) - r.ClockEarly[fi]
		if s := r.Slack[fi]; s < 0 {
			r.TNS += s
			if s < r.WNS {
				r.WNS = s
			}
		}
	}
}

// backwardAll propagates required times from endpoints toward launch FFs,
// sweeping the levels in descending order. Every fanout of an instance
// sits on a strictly higher level (or is an endpoint FF, whose required
// time is closed-form), so within a level the instances are again
// independent.
func (r *Result) backwardAll() {
	s := r.S
	r.parallelFor(len(r.RequiredOut), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r.RequiredOut[i] = unconstrained
		}
	})
	for l := len(s.levelOff) - 2; l >= 0; l-- {
		lo, hi := s.levelOff[l], s.levelOff[l+1]
		r.parallelFor(hi-lo, func(a, b int) {
			for i := lo + a; i < lo+b; i++ {
				v := int(s.levelOrder[i])
				r.RequiredOut[v] = r.requiredAt(v)
			}
		})
	}
}

// requiredAt derives RequiredOut[v], the latest time instance v's output
// may switch without violating any downstream endpoint, from its fanouts'
// final values. It reads nothing else: the required times and cell delays
// of v's combinational fanouts, v's own wire delay, and the required
// times of the endpoints v drives. Run and Update both derive required
// times through it.
func (r *Result) requiredAt(v int) float64 {
	g := r.G
	req := unconstrained
	for _, e := range g.Fanout(v) {
		var cand float64
		if fi := g.FFIndex(int(e.To)); fi >= 0 {
			cand = r.endpointRequired(fi) - r.WireDelay[v]
		} else {
			cand = r.RequiredOut[e.To] - r.CellDelay[e.To] - r.WireDelay[v]
		}
		if cand < req {
			req = cand
		}
	}
	return req
}

// InstanceSlack returns the slack of the worst path through instance v —
// the quantity the closure flow sorts on when choosing what to fix.
func (r *Result) InstanceSlack(v int) float64 {
	if math.IsInf(r.RequiredOut[v], 1) {
		return unconstrained
	}
	return r.RequiredOut[v] - r.ArrivalOut[v]
}

// ViolatingEndpoints returns the D.FFs positions of endpoints with negative
// setup slack, unsorted.
func (r *Result) ViolatingEndpoints() []int {
	var out []int
	for fi, s := range r.Slack {
		if s < 0 {
			out = append(out, fi)
		}
	}
	return out
}

// Update re-propagates timing after the given instances changed (resize,
// delay override or weight change), costing what the change reaches
// rather than the design:
//
//   - Forward, it re-evaluates the modified instances and their data
//     fan-out cone in topological order, stopping at flip-flops, and
//     refreshes the D-pin windows of the endpoints that cone feeds.
//   - Backward, it re-derives RequiredOut for every re-evaluated instance
//     and each of its fan-in drivers (that covers a moved cell delay, a
//     moved wire delay and a resized flip-flop's setup time), sweeping
//     toward the launch flip-flops and going on past an instance only
//     when the bits of its required time changed.
//   - Endpoint slacks, WNS and TNS are then refolded over every endpoint,
//     in the same order as Run.
//
// The result is bitwise equal to a fresh Run provided the caller keeps
// the contract: modified lists every instance whose own delay inputs
// moved, including the drivers whose load a resize changed, and between
// Updates the Result's Cfg changes only in Weights and DelayOverride
// entries of instances listed in modified. Every value Update does not
// recompute is then a pure function of inputs that kept their bits.
//
// Connectivity changes (buffer insertion) invalidate the graph and the
// session; rebuild with graph.Build and NewSession, and Run again instead.
func (r *Result) Update(modified []int) {
	if len(modified) == 0 {
		return
	}
	tUpd := obs.Clock()
	s, g := r.S, r.G
	cs := s.getConeScratch()
	s.seedCone(cs, modified)
	evals, rederived := 0, 0
	w := 0
	for p := popLow(cs.fwd, &w); p >= 0; p = popLow(cs.fwd, &w) {
		v := int(g.Topo[p])
		r.evalInstance(v)
		evals++
		s.growCone(cs, v)
		mark(cs.bwd, int32(p))
		for _, e := range g.Fanin(v) {
			mark(cs.bwd, s.topoPos[e.From])
		}
	}
	for fi, hit := range cs.hit {
		if hit {
			r.collectEndpoint(fi)
		}
	}
	w = len(cs.bwd) - 1
	for p := popHigh(cs.bwd, &w); p >= 0; p = popHigh(cs.bwd, &w) {
		v := int(g.Topo[p])
		req := r.requiredAt(v)
		rederived++
		if math.Float64bits(req) == math.Float64bits(r.RequiredOut[v]) {
			continue
		}
		r.RequiredOut[v] = req
		if g.FFIndex(v) < 0 {
			// A flip-flop's own required time feeds no other: its
			// fan-in drivers see only its endpoint required time.
			for _, e := range g.Fanin(v) {
				mark(cs.bwd, s.topoPos[e.From])
			}
		}
	}
	s.putConeScratch(cs)
	r.endpointSlacks()
	obsUpdates.Inc()
	obsUpdateEvals.Add(int64(evals))
	obsUpdateRederived.Add(int64(rederived))
	obsUpdateNS.ObserveSince(tUpd)
}
