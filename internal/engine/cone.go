package engine

import "mgba/internal/bitset"

// coneScratch is one reusable buffer set for cone walks. Sessions pool
// them the same way they pool per-run timing scratch: a plain free list
// keeps reuse deterministic and the steady state allocation-free.
//
// fwd and bwd are bitsets over topological positions: bit p stands for
// G.Topo[p]. A data edge into a combinational gate always runs from a
// lower position to a higher one, so an ascending sweep of fwd visits a
// forward cone in topological order while the sweep itself grows it, and
// a descending sweep of bwd does the same for a backward cone. The
// sweeps clear every bit they visit. hit flags, per D.FFs position, an
// endpoint whose D pin the forward cone reaches.
type coneScratch struct {
	fwd, bwd []uint64
	hit      []bool
}

// getConeScratch pops a released cone buffer set that fits the session
// (cut to its topological order) or allocates a new one.
func (s *Session) getConeScratch() *coneScratch {
	words := (len(s.G.Topo) + 63) / 64
	p := s.pool
	var cs *coneScratch
	p.mu.Lock()
	if n := len(p.coneFree); n > 0 {
		cs = p.coneFree[n-1]
		p.coneFree = p.coneFree[:n-1]
	}
	p.mu.Unlock()
	if cs != nil && cap(cs.fwd) >= words {
		cs.fwd, cs.bwd = cs.fwd[:words], cs.bwd[:words]
		clear(cs.fwd)
		clear(cs.bwd)
		clear(cs.hit)
		return cs
	}
	return &coneScratch{
		fwd: make([]uint64, words),
		bwd: make([]uint64, words),
		hit: make([]bool, s.nFF),
	}
}

func (s *Session) putConeScratch(cs *coneScratch) {
	p := s.pool
	p.mu.Lock()
	p.coneFree = append(p.coneFree, cs)
	p.mu.Unlock()
}

// seedCone marks in cs.fwd every modified instance on the data DAG.
// Clock buffers and IDs outside the session's geometry have no data
// fanout and no timing of their own, so they seed nothing.
func (s *Session) seedCone(cs *coneScratch, modified []int) {
	for _, v := range modified {
		if v >= 0 && v < s.nInst && s.G.Pos[v] >= 0 {
			bitset.Mark(cs.fwd, int(s.G.Pos[v]))
		}
	}
}

// growCone extends the forward cone over v's data fanout: a
// combinational sink joins cs.fwd, a flip-flop sink is an endpoint the
// cone reaches (flip-flops stop the walk: their Q pins launch new paths).
func (s *Session) growCone(cs *coneScratch, v int) {
	g := s.G
	for _, e := range g.Fanout(v) {
		if fi := g.FFIndex(int(e.To)); fi >= 0 {
			cs.hit[fi] = true
		} else {
			bitset.Mark(cs.fwd, int(s.G.Pos[e.To]))
		}
	}
}

// FanoutEndpoints returns the D.FFs positions of every constrained
// endpoint whose fan-in cone contains one of the modified instances —
// exactly the endpoints whose timing (and therefore whose selected paths)
// a resize of those instances can touch. It walks the forward data cone
// with the same stop-at-flip-flop rule as Result.Update, so the set it
// reports is the endpoint shadow of the cone Update re-evaluates. A
// modified flip-flop counts as affecting its own endpoint (its setup and
// CK->Q arcs changed) in addition to everything downstream of its Q pin.
// The result is sorted in FF order and deterministic.
func (s *Session) FanoutEndpoints(modified []int) []int {
	return s.FanoutEndpointsInto(nil, modified)
}

// FanoutEndpointsInto is FanoutEndpoints appending into dst (which may be
// nil). With a pre-sized dst it performs zero allocations in the steady
// state: the cone buffers come from the session pool.
func (s *Session) FanoutEndpointsInto(dst []int, modified []int) []int {
	g := s.G
	if len(modified) == 0 {
		return dst
	}
	cs := s.getConeScratch()
	defer s.putConeScratch(cs)
	for _, v := range modified {
		if v >= 0 && v < s.nInst {
			if fi := g.FFIndex(v); fi >= 0 {
				cs.hit[fi] = true
			}
		}
	}
	s.seedCone(cs, modified)
	w := 0
	for p := bitset.PopLow(cs.fwd, &w); p >= 0; p = bitset.PopLow(cs.fwd, &w) {
		s.growCone(cs, int(g.Topo[p]))
	}
	for fi, id := range g.D.FFs {
		if cs.hit[fi] && len(g.Fanin(id)) > 0 {
			dst = append(dst, fi)
		}
	}
	return dst
}
