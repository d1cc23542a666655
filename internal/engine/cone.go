package engine

// coneScratch is one reusable buffer set for forward-cone walks. Sessions
// pool them the same way they pool per-run timing scratch: a plain free
// list keeps reuse deterministic and the steady state allocation-free.
type coneScratch struct {
	seen  []bool
	hit   []bool
	queue []int32
}

func (s *Session) getConeScratch() *coneScratch {
	s.scratchMu.Lock()
	if n := len(s.coneFree); n > 0 {
		cs := s.coneFree[n-1]
		s.coneFree = s.coneFree[:n-1]
		s.scratchMu.Unlock()
		clear(cs.seen)
		clear(cs.hit)
		cs.queue = cs.queue[:0]
		return cs
	}
	s.scratchMu.Unlock()
	return &coneScratch{
		seen: make([]bool, s.nInst),
		hit:  make([]bool, s.nFF),
	}
}

func (s *Session) putConeScratch(cs *coneScratch) {
	s.scratchMu.Lock()
	s.coneFree = append(s.coneFree, cs)
	s.scratchMu.Unlock()
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
// state: the visited/hit/queue buffers come from the session pool.
func (s *Session) FanoutEndpointsInto(dst []int, modified []int) []int {
	g := s.G
	d := g.D
	if len(modified) == 0 {
		return dst
	}
	cs := s.getConeScratch()
	defer s.putConeScratch(cs)
	seen, hit, queue := cs.seen, cs.hit, cs.queue
	for _, v := range modified {
		if v < 0 || v >= len(seen) || seen[v] {
			continue
		}
		seen[v] = true
		queue = append(queue, int32(v))
		if d.Instances[v].IsFF() {
			hit[g.FFIndex(v)] = true
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range g.Fanout(int(v)) {
			if d.Instances[e.To].IsFF() {
				hit[g.FFIndex(int(e.To))] = true
			} else if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	cs.queue = queue[:0]
	for fi, id := range d.FFs {
		if hit[fi] && len(g.Fanin(id)) > 0 {
			dst = append(dst, fi)
		}
	}
	return dst
}
