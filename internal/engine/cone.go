package engine

import "math/bits"

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

func (s *Session) getConeScratch() *coneScratch {
	s.scratchMu.Lock()
	if n := len(s.coneFree); n > 0 {
		cs := s.coneFree[n-1]
		s.coneFree = s.coneFree[:n-1]
		s.scratchMu.Unlock()
		clear(cs.fwd)
		clear(cs.bwd)
		clear(cs.hit)
		return cs
	}
	s.scratchMu.Unlock()
	words := (len(s.G.Topo) + 63) / 64
	return &coneScratch{
		fwd: make([]uint64, words),
		bwd: make([]uint64, words),
		hit: make([]bool, s.nFF),
	}
}

func (s *Session) putConeScratch(cs *coneScratch) {
	s.scratchMu.Lock()
	s.coneFree = append(s.coneFree, cs)
	s.scratchMu.Unlock()
}

// mark sets topological position p in the bitset.
func mark(set []uint64, p int32) { set[p>>6] |= 1 << (uint32(p) & 63) }

// popLow clears and returns the lowest set position of the bitset, or -1
// when it is empty. *w is the sweep's word cursor, starting at 0: no
// position below it may be set again during the sweep.
func popLow(set []uint64, w *int) int {
	for ; *w < len(set); *w++ {
		if x := set[*w]; x != 0 {
			b := bits.TrailingZeros64(x)
			set[*w] = x &^ (1 << uint(b))
			return *w<<6 | b
		}
	}
	return -1
}

// popHigh is popLow for a descending sweep: *w starts at len(set)-1 and
// no position above it may be set again during the sweep.
func popHigh(set []uint64, w *int) int {
	for ; *w >= 0; *w-- {
		if x := set[*w]; x != 0 {
			b := 63 - bits.LeadingZeros64(x)
			set[*w] = x &^ (1 << uint(b))
			return *w<<6 | b
		}
	}
	return -1
}

// seedCone marks in cs.fwd every modified instance on the data DAG.
// Clock buffers and IDs outside the session's geometry have no data
// fanout and no timing of their own, so they seed nothing.
func (s *Session) seedCone(cs *coneScratch, modified []int) {
	for _, v := range modified {
		if v >= 0 && v < s.nInst && s.topoPos[v] >= 0 {
			mark(cs.fwd, s.topoPos[v])
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
			mark(cs.fwd, s.topoPos[e.To])
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
	for p := popLow(cs.fwd, &w); p >= 0; p = popLow(cs.fwd, &w) {
		s.growCone(cs, int(g.Topo[p]))
	}
	for fi, id := range g.D.FFs {
		if cs.hit[fi] && len(g.Fanin(id)) > 0 {
			dst = append(dst, fi)
		}
	}
	return dst
}
