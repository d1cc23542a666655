package engine

import "math"

// The reference propagation: a full analysis the way Run made it before
// it staged its netlist reads and swept each level by instance ID. Levels
// are filled in Kahn (Topo) order, every use of an output load reads it
// from the netlist, nothing is staged, and one worker sweeps. It shares
// with Run only the session's clock state and scratch pool and the
// per-slot helpers neither change touched (lateDerate, weight,
// collectEndpoint, requiredAt, endpointSlacks).
// TestRunMatchesReference and FuzzRunMatchesReference require Run, and
// Update after a resize, to equal it bit for bit.

// RefRun returns the reference analysis of s under cfg. Release it like
// any Result.
func RefRun(s *Session, cfg Config) *Result {
	r := s.newResult(cfg)
	order, off := refLevelize(s)
	for l := 0; l+1 < len(off); l++ {
		for _, v := range order[off[l]:off[l+1]] {
			r.refEvalInstance(int(v))
		}
	}
	for fi := range r.G.D.FFs {
		r.collectEndpoint(fi)
	}
	for i := range r.RequiredOut {
		r.RequiredOut[i] = unconstrained
	}
	for l := len(off) - 2; l >= 0; l-- {
		for _, v := range order[off[l]:off[l+1]] {
			r.RequiredOut[v] = r.requiredAt(int(v))
		}
	}
	r.endpointSlacks()
	return r
}

// refLevelize groups the data instances by topological level, in Topo
// order within a level.
func refLevelize(s *Session) (order []int32, off []int) {
	g := s.G
	d := g.D
	level := make([]int, len(d.Instances))
	maxLevel := 0
	for _, v := range g.Topo {
		if d.Instances[v].IsFF() {
			continue // level 0: registers are path sources
		}
		lv := 1
		for _, e := range g.Fanin(int(v)) {
			if d.Instances[e.From].IsFF() {
				continue
			}
			if l := level[e.From] + 1; l > lv {
				lv = l
			}
		}
		level[v] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	off = make([]int, maxLevel+2)
	for _, v := range g.Topo {
		off[level[v]+1]++
	}
	for l := 1; l < len(off); l++ {
		off[l] += off[l-1]
	}
	order = make([]int32, len(g.Topo))
	fill := append([]int(nil), off[:maxLevel+1]...)
	for _, v := range g.Topo {
		order[fill[level[v]]] = v
		fill[level[v]]++
	}
	return order, off
}

// refNominalDelay computes the pre-derate delay of instance v given its
// worst input slew, honouring overrides.
func (r *Result) refNominalDelay(v int, inSlew float64) float64 {
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

// refEvalInstance recomputes the slew, delays and arrivals of one
// instance from its (already final) fanins.
func (r *Result) refEvalInstance(v int) {
	d := r.G.D
	in := d.Instances[v]

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

	nom := r.refNominalDelay(v, worstSlew)
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
	r.MinArrival[v] = minAt + r.CellDelay[v]
}
