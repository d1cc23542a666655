package engine

import (
	"math"
	"slices"

	"mgba/internal/aocv"
	"mgba/internal/bitset"
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
	p := r.S.pool
	p.mu.Lock()
	p.free = append(p.free, sc)
	p.mu.Unlock()
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
	for i, src := range r.sc.inst() {
		copy(sc.inst()[i], src)
	}
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

// forwardAll stages every instance's netlist reads, then propagates
// worst slews and max/min arrivals level by level. The stage pass sweeps
// instance IDs upward and each level lists its instances by ascending ID,
// so both walk the netlist's instances, nets and sink lists forward
// through memory. The instances of a level are independent of each
// other, so each level is partitioned across the worker pool; every
// worker writes only the slots of its own instances, which keeps any
// order within a level, and the parallel schedule, bitwise identical to
// the sequential one.
func (r *Result) forwardAll() {
	s := r.S
	r.parallelFor(passStage, 0, len(r.NominalDelay))
	for l := 0; l+1 < len(s.levelOff); l++ {
		r.parallelFor(passForward, s.levelOff[l], s.levelOff[l+1]-s.levelOff[l])
	}
	r.parallelFor(passEndpoints, 0, len(r.G.D.FFs))
}

// stage writes the two netlist reads evalInstance needs of instance v
// into v's own slots: its output net's load into NominalDelay, where
// evalInstance reads it back for the delay and the output slew before
// overwriting it with the delay, and the net's wire delay into
// WireDelay, its final value. An instance that drives no net gets zeros.
func (r *Result) stage(v int) {
	d := r.G.D
	if out := d.Instances[v].Output; out >= 0 {
		n := d.Nets[out]
		r.NominalDelay[v], r.WireDelay[v] = d.LoadCap(n), n.WireDelay
	} else {
		r.NominalDelay[v], r.WireDelay[v] = 0, 0
	}
}

// evalInstance recomputes the slew, delays and arrivals of one staged
// instance from its (already final) fanins.
func (r *Result) evalInstance(v int) {
	in := r.G.D.Instances[v]

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

	// The pre-derate delay and the output slew, both from the staged
	// load; an override fixes the delay and zeroes the slew.
	load := r.NominalDelay[v]
	var nom, slew float64
	if ov, ok := r.Cfg.DelayOverride[v]; ok {
		nom = ov
	} else if in.Output >= 0 {
		nom = in.Cell.Delay(load, worstSlew)
		slew = in.Cell.OutputSlew(load, worstSlew)
	}
	der := r.lateDerate(v)
	r.NominalDelay[v] = nom
	r.Derate[v] = der
	r.CellDelay[v] = nom * der * r.weight(v)
	r.Slew[v] = slew
	r.ArrivalOut[v] = maxAt + r.CellDelay[v]
	// Hold analysis uses the same derated delay basis; the pessimism gap
	// for hold comes from the max/min window, kept simple deliberately.
	r.MinArrival[v] = minAt + r.CellDelay[v]
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
	r.parallelFor(passResetRequired, 0, len(r.RequiredOut))
	for l := len(s.levelOff) - 2; l >= 0; l-- {
		r.parallelFor(passBackward, s.levelOff[l], s.levelOff[l+1]-s.levelOff[l])
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
// Connectivity changes (buffer insertion, retiming) invalidate the graph
// and the session: Derive the new session from r's and Rebase r onto it
// instead.
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
	for p := bitset.PopLow(cs.fwd, &w); p >= 0; p = bitset.PopLow(cs.fwd, &w) {
		v := int(g.Topo[p])
		r.stage(v)
		r.evalInstance(v)
		evals++
		s.growCone(cs, v)
		bitset.Mark(cs.bwd, p)
		for _, e := range g.Fanin(v) {
			bitset.Mark(cs.bwd, int(s.G.Pos[e.From]))
		}
	}
	for fi, hit := range cs.hit {
		if hit {
			r.collectEndpoint(fi)
		}
	}
	w = len(cs.bwd) - 1
	for p := bitset.PopHigh(cs.bwd, &w); p >= 0; p = bitset.PopHigh(cs.bwd, &w) {
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
				bitset.Mark(cs.bwd, int(s.G.Pos[e.From]))
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

// Rebase returns r's analysis carried over to s, a session Derived from
// r's after a structural edit of the design, and advanced to cfg: bitwise
// equal to s.Run(cfg), at the cost of one Update over what the edit
// reached. r itself is left as it was.
//
// edited lists the instances the edit touched directly: those whose
// fan-in, fan-out, output load or output net changed, and those it
// created (a structural Move's DirtySet). Rebase adds what else differs
// between the two sessions: the instances whose GBA depth or distance
// moved (s.Moved), the instances that joined the data DAG, and the
// flip-flops whose clock insertion delays or conservative credit moved.
// Every slot that left s's data DAG or joined its geometry off the DAG is
// reset to what a Run leaves there (zero, RequiredOut +Inf). cfg may
// differ from r.Cfg only in Weights and DelayOverride entries of
// instances edited lists or r's session never timed. Per-endpoint slots
// are carried over by position: Derive keeps the flip-flop list.
func (r *Result) Rebase(s *Session, cfg Config, edited []int) *Result {
	old := r.S
	if s.parent != old.id {
		panic("engine: Rebase onto a session not Derived from the Result's")
	}
	nr := s.newResult(cfg)
	n := min(old.nInst, s.nInst)
	for _, sl := range [][2][]float64{
		{nr.NominalDelay, r.NominalDelay}, {nr.Derate, r.Derate},
		{nr.CellDelay, r.CellDelay}, {nr.WireDelay, r.WireDelay},
		{nr.Slew, r.Slew}, {nr.ArrivalOut, r.ArrivalOut},
		{nr.RequiredOut, r.RequiredOut}, {nr.MinArrival, r.MinArrival},
	} {
		copy(sl[0][:n], sl[1][:n])
	}
	copy(nr.sc.backFF, r.sc.backFF)
	seeds := append(slices.Clone(s.moved), edited...)
	// Every instance that joined or left the data DAG, or that the edit
	// created, has its graph rows rebuilt.
	for _, v := range s.rows {
		if s.G.Pos[v] < 0 {
			nr.NominalDelay[v], nr.Derate[v], nr.CellDelay[v], nr.WireDelay[v] = 0, 0, 0, 0
			nr.Slew[v], nr.ArrivalOut[v], nr.MinArrival[v] = 0, 0, 0
			nr.RequiredOut[v] = unconstrained
		} else if int(v) >= old.nInst || old.G.Pos[v] < 0 {
			seeds = append(seeds, int(v))
		}
	}
	bits := math.Float64bits
	for fi, ff := range s.G.D.FFs {
		if bits(nr.ClockLate[fi]) != bits(r.ClockLate[fi]) ||
			bits(nr.ClockEarly[fi]) != bits(r.ClockEarly[fi]) ||
			bits(nr.GBACRPR[fi]) != bits(r.GBACRPR[fi]) {
			seeds = append(seeds, ff)
		}
	}
	nr.Update(seeds)
	return nr
}
