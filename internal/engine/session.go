package engine

import (
	"math"
	"slices"
	"sync"

	"mgba/internal/aocv"
	"mgba/internal/cells"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/obs"
)

// Session owns everything derivable from the design alone: the timing
// graph, the worst-casing depth and bounding-box DPs, the topological
// levelization that drives parallel propagation, the clock insertion
// delays and leaf-pair CRPR credit cache (per clock configuration), and a
// pool of per-run scratch buffers. Build one Session per design state and
// reuse it across any number of Runs.
//
// A Session is safe for concurrent Runs. It becomes stale when the
// design's connectivity, placement, or clock tree changes (buffer
// insertion, cell moves): rebuild the graph with graph.Build, Derive the
// new Session from the stale one, and Rebase the stale Results onto it.
// Gate resizing on the data path does not invalidate it — that is what
// Result.Update is for.
//
// The Session's geometry — its instance and flip-flop counts — is fixed
// when it is built: every per-run buffer it hands out keeps it, so
// Results of one Session always share one layout.
type Session struct {
	G      *graph.Graph
	Depths *graph.Depths
	Boxes  *graph.Boxes

	nInst, nFF int // geometry at build time: len(D.Instances), len(D.FFs)

	// Levelization of the data DAG, built by the first Run: level 0 holds
	// the flip-flops (path sources), level l>0 the combinational gates
	// whose deepest fanin sits at level l-1. levelOrder lists instances
	// grouped by level (topo order within a level); level l spans
	// levelOrder[levelOff[l]:levelOff[l+1]].
	levelOnce  sync.Once
	levelOrder []int32
	levelOff   []int

	topoPos []int32 // topological position per instance ID, -1 off the data DAG

	mu     sync.Mutex
	clocks map[clockKey]*clockState // per clock configuration

	scratchMu sync.Mutex
	free      []*scratch     // released per-run buffer sets
	coneFree  []*coneScratch // released forward-cone walk buffers
}

// clockKey identifies the clock-dependent immutable state: clock insertion
// delays and CRPR credits depend only on whether the clock tree is derated
// or idealized and on which AOCV table set the run binds (per-corner
// analyses carry their own), never on data-path settings or weights. The
// derate set is resolved (nil config → the design's tables) before keying,
// so every default-corner run shares one cache entry.
type clockKey struct {
	derate, ideal bool
	derates       *aocv.Set
}

// clockState is the clock-derived immutable state for one clock
// configuration: per-FF insertion delays, the conservative per-endpoint
// GBA credit, and the exact credit of every clock-leaf pair.
type clockState struct {
	clockLate  []float64 // per D.FFs position, late derates
	clockEarly []float64 // per D.FFs position, early derates
	gbaCRPR    []float64 // per D.FFs position, conservative credit

	// credits[leafL][leafC] is the exact CRPR credit of a launch/capture
	// clock-leaf pair. nil when the configuration yields zero credits
	// (ideal clock, or clock derating off).
	credits [][]float64

	// bufs records, per clock-chain buffer, every design input the state
	// read of it. With the session graph's flip-flop list and clock
	// chains it is the whole input of the state: Derive shares the state
	// only while the design still matches it bit for bit.
	bufs []clockBuf
}

// clockBuf is one clock buffer's delay and derate inputs as a clock state
// read them: its cell, the load and wire delay of its output net, and its
// placement (the derate distance from the chain root).
type clockBuf struct {
	id         int32
	cell       *cells.Cell
	load, wire float64
	x, y       float64
}

func readClockBuf(d *netlist.Design, id int32) clockBuf {
	in := d.Instances[id]
	n := d.Nets[in.Output]
	return clockBuf{id: id, cell: in.Cell, load: d.LoadCap(n), wire: n.WireDelay, x: in.X, y: in.Y}
}

// unchanged reports whether the design still holds every recorded clock
// buffer input bit for bit. Derive asks only while the design keeps the
// state's clock chains, so every recorded buffer still drives a net.
func (cs *clockState) unchanged(d *netlist.Design) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, b := range cs.bufs {
		now := readClockBuf(d, b.id)
		if now.cell != b.cell || !same(now.load, b.load) || !same(now.wire, b.wire) ||
			!same(now.x, b.x) || !same(now.y, b.y) {
			return false
		}
	}
	return true
}

var unconstrained = math.Inf(1)

// NewSession computes the design-derived immutable state: depth and
// bounding-box DPs, topological positions, and the scratch pool geometry.
// Clock state is derived lazily per clock configuration, and the
// levelization on the first Run.
func NewSession(g *graph.Graph) *Session {
	s := &Session{
		G:      g,
		Depths: g.ComputeDepths(),
		Boxes:  g.ComputeBoxes(),
		clocks: make(map[clockKey]*clockState),
		nInst:  len(g.D.Instances),
		nFF:    len(g.D.FFs),
	}
	s.topoPos = make([]int32, s.nInst)
	for i := range s.topoPos {
		s.topoPos[i] = -1
	}
	for pos, v := range g.Topo {
		s.topoPos[v] = int32(pos)
	}
	return s
}

// Derive returns the Session of g, a graph rebuilt from s's design after
// a structural edit of its data network (a buffer insertion, a retiming
// slide), equal to NewSession(g) in every state it holds. It computes
// what such an edit can move (depths, boxes, topological positions) and
// takes over each of s's clock states whose inputs the edit provably
// left alone: the same flip-flop list and clock chains, and every chain
// buffer's cell, output load, wire delay and placement equal bit for bit
// in the design as it stands now. A shared state keeps its insertion
// delays and leaf-pair credit matrix, and g takes over the tree part of
// s's clock index; the conservative endpoint credit is re-derived,
// because it reads the launch-leaf reachability of the new data graph. A
// state whose inputs moved is rebuilt from scratch
// (engine.sessions.clock_rebuilt).
func (s *Session) Derive(g *graph.Graph) *Session {
	obsSessionsDerived.Inc()
	ns := NewSession(g)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.clocks) == 0 {
		return ns
	}
	sameTree := g.ShareClockTree(s.G)
	for key, cs := range s.clocks {
		if sameTree && cs.unchanged(g.D) {
			ns.clocks[key] = ns.shareClockState(cs)
			continue
		}
		obsClockRebuilt.Inc()
		ns.clocks[key] = ns.buildClockState(key)
	}
	return ns
}

// shareClockState takes over cs's insertion delays, credit matrix and
// recorded inputs, and re-derives the conservative endpoint credit from
// s's own launch-leaf reachability.
func (s *Session) shareClockState(cs *clockState) *clockState {
	ns := &clockState{
		clockLate:  cs.clockLate,
		clockEarly: cs.clockEarly,
		gbaCRPR:    make([]float64, s.nFF),
		credits:    cs.credits,
		bufs:       cs.bufs,
	}
	if ns.credits != nil {
		s.endpointCredits(ns)
	}
	return ns
}

// NumInstances returns the design's instance count when the Session was
// built: the length of every per-instance slice of its Results. Instance
// IDs at or above it are unknown to the Session.
func (s *Session) NumInstances() int { return s.nInst }

// NumFFs returns the design's flip-flop count when the Session was built:
// the length of every per-endpoint slice of its Results.
func (s *Session) NumFFs() int { return s.nFF }

// levelize groups the data instances by topological level. Within a level
// no instance feeds another (any data edge raises the sink's level), so a
// level's instances can be evaluated in any order — or in parallel. Run
// calls it through levelOnce: a session that only ever Rebases and
// Updates never needs it.
func (s *Session) levelize() {
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
	s.levelOff = make([]int, maxLevel+2)
	for _, v := range g.Topo {
		s.levelOff[level[v]+1]++
	}
	for l := 1; l < len(s.levelOff); l++ {
		s.levelOff[l] += s.levelOff[l-1]
	}
	s.levelOrder = make([]int32, len(g.Topo))
	fill := append([]int(nil), s.levelOff[:maxLevel+1]...)
	for _, v := range g.Topo {
		s.levelOrder[fill[level[v]]] = v
		fill[level[v]]++
	}
}

// clockState returns (building and caching on first use) the clock-derived
// state for the run configuration.
func (s *Session) clockState(cfg Config) *clockState {
	derates := cfg.Derates
	if derates == nil {
		derates = s.G.D.Derates
	}
	key := clockKey{derate: cfg.DerateClock, ideal: cfg.IdealClock, derates: derates}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.clocks[key]; ok {
		return cs
	}
	cs := s.buildClockState(key)
	s.clocks[key] = cs
	return cs
}

// buildClockState walks every FF's clock chain computing late and early
// insertion delays, then precomputes the exact CRPR credit of every clock
// leaf pair and the conservative per-endpoint credit GBA applies.
func (s *Session) buildClockState(key clockKey) *clockState {
	d := s.G.D
	nf := len(d.FFs)
	cs := &clockState{
		clockLate:  make([]float64, nf),
		clockEarly: make([]float64, nf),
		gbaCRPR:    make([]float64, nf),
	}
	if key.ideal {
		return cs // arrays stay zero
	}
	// Memoize per-buffer delay/slew: a buffer appears in many chains.
	type bufT struct {
		delay, slew float64
		done        bool
	}
	memo := make(map[int32]*bufT)
	var eval func(chain []int32, k int) *bufT
	eval = func(chain []int32, k int) *bufT {
		id := chain[k]
		if m, ok := memo[id]; ok && m.done {
			return m
		}
		in := d.Instances[id]
		var inSlew float64
		if k > 0 {
			inSlew = eval(chain, k-1).slew
		}
		b := readClockBuf(d, id)
		cs.bufs = append(cs.bufs, b)
		m := &bufT{
			delay: in.Cell.Delay(b.load, inSlew) + b.wire,
			slew:  in.Cell.OutputSlew(b.load, inSlew),
			done:  true,
		}
		memo[id] = m
		return m
	}
	for fi := range d.FFs {
		chain := s.G.ClockChain[fi]
		var late, early float64
		var root *netlist.Instance
		if len(chain) > 0 {
			root = d.Instances[chain[0]]
		}
		// AOCV depth semantics: every element of a path is derated at the
		// path's cell depth. A clock chain is a unique path of length
		// len(chain), so all its buffers share that depth — this is also
		// why clock paths carry no graph-vs-path depth pessimism.
		depth := float64(len(chain))
		for k, id := range chain {
			b := eval(chain, k)
			lateF, earlyF := 1.0, 1.0
			if key.derate {
				dist := 0.0
				if root != nil {
					dist = netlist.Distance(root, d.Instances[id])
				}
				lateF = key.derates.Late.Lookup(depth, dist)
				earlyF = key.derates.Early.Lookup(depth, dist)
			}
			late += b.delay * lateF
			early += b.delay * earlyF
		}
		cs.clockLate[fi] = late
		cs.clockEarly[fi] = early
	}
	if key.derate {
		s.buildCredits(cs, key.derates)
	}
	return cs
}

// buildCredits fills the leaf-pair CRPR credit matrix and the conservative
// per-endpoint credit. The credit between two clock leaves is the
// late-minus-early spread accumulated on their chains' shared prefix: the
// common buffers were derated late at the launch chain's depth and early
// at the capture chain's depth, and the credit undoes exactly that
// double-counted spread. A pair's credit depends on the capture leaf only
// through its chain length and the shared prefix length, so each launch
// leaf makes its late lookups once and keeps one running prefix sum per
// distinct capture-chain length; a pair's credit is then one read of that
// sum at the shared length, the same float operations in the same order
// as accumulating it pair by pair. Precomputing the full matrix here is
// what lets every later analysis — GBA endpoint credits, PBA per-pair
// retiming, the whole closure loop — look credits up for free.
func (s *Session) buildCredits(cs *clockState, derates *aocv.Set) {
	d := s.G.D
	ci := s.G.ClockIndex()
	nl := len(ci.Chains)
	// The distinct chain lengths, and each leaf's index among them.
	var lens []int
	lenIdx := make([]int, nl)
	maxLen := 0
	for leaf, chain := range ci.Chains {
		j := slices.Index(lens, len(chain))
		if j < 0 {
			j = len(lens)
			lens = append(lens, len(chain))
		}
		lenIdx[leaf] = j
		maxLen = max(maxLen, len(chain))
	}
	back := make([]float64, nl*nl)
	cs.credits = make([][]float64, nl)
	// Per-position delay, distance and late factor along the launch chain
	// are shared by every capture leaf; only the early-derate depth varies.
	delays := make([]float64, maxLen)
	dists := make([]float64, maxLen)
	lateF := make([]float64, maxLen)
	prefix := make([]float64, len(lens)*(maxLen+1))
	for leafL, chain := range ci.Chains {
		n := len(chain)
		var root *netlist.Instance
		if n > 0 {
			root = d.Instances[chain[0]]
		}
		lateDepth := float64(n)
		var inSlew float64
		for k, id := range chain {
			in := d.Instances[id]
			load := d.LoadCap(d.Nets[in.Output])
			delays[k] = in.Cell.Delay(load, inSlew) + d.Nets[in.Output].WireDelay
			inSlew = in.Cell.OutputSlew(load, inSlew)
			dists[k] = netlist.Distance(root, in)
			lateF[k] = derates.Late.Lookup(lateDepth, dists[k])
		}
		// prefix[j*(n+1)+k] is the credit of the first k buffers against a
		// capture chain of length lens[j]; no pair shares more than
		// min(n, lens[j]) of them.
		for j, e := range lens {
			p := prefix[j*(n+1) : (j+1)*(n+1)]
			earlyDepth := float64(e)
			p[0] = 0
			for k := 0; k < min(n, e); k++ {
				earlyF := derates.Early.Lookup(earlyDepth, dists[k])
				p[k+1] = p[k] + delays[k]*(lateF[k]-earlyF)
			}
		}
		row := back[leafL*nl : (leafL+1)*nl : (leafL+1)*nl]
		for leafC := range row {
			row[leafC] = prefix[lenIdx[leafC]*(n+1)+ci.CommonLen(leafL, leafC)]
		}
		cs.credits[leafL] = row
	}
	s.endpointCredits(cs)
}

// endpointCredits fills the conservative per-endpoint credit from the
// credit matrix: the smallest pair credit over every launch leaf that can
// reach the endpoint. This is what industrial GBA applies — safe for any
// path, pessimistic for paths whose true launch shares a deeper clock
// prefix.
func (s *Session) endpointCredits(cs *clockState) {
	ci := s.G.ClockIndex()
	for fi := range s.G.D.FFs {
		leaves := ci.LaunchLeaves[fi]
		if len(leaves) == 0 {
			continue
		}
		minCredit := math.Inf(1)
		for _, leaf := range leaves {
			if c := cs.credits[leaf][ci.LeafOfFF[fi]]; c < minCredit {
				minCredit = c
			}
		}
		cs.gbaCRPR[fi] = minCredit
	}
}

// scratch is one reusable set of per-run buffers. Instance-indexed slices
// share one backing array, FF-indexed slices another, so acquiring a fresh
// set costs two allocations and resetting one is two memclears.
type scratch struct {
	backInst []float64 // 8 instance-sized arrays
	backFF   []float64 // 4 FF-sized arrays

	nominalDelay, derate, cellDelay, wireDelay []float64
	slew, arrivalOut, requiredOut, minArrival  []float64
	dataAtD, minAtD, slack, holdSlack          []float64
}

func newScratch(n, nf int) *scratch {
	sc := &scratch{
		backInst: make([]float64, 8*n),
		backFF:   make([]float64, 4*nf),
	}
	cut := func(back []float64, i, size int) []float64 {
		return back[i*size : (i+1)*size : (i+1)*size]
	}
	sc.nominalDelay = cut(sc.backInst, 0, n)
	sc.derate = cut(sc.backInst, 1, n)
	sc.cellDelay = cut(sc.backInst, 2, n)
	sc.wireDelay = cut(sc.backInst, 3, n)
	sc.slew = cut(sc.backInst, 4, n)
	sc.arrivalOut = cut(sc.backInst, 5, n)
	sc.requiredOut = cut(sc.backInst, 6, n)
	sc.minArrival = cut(sc.backInst, 7, n)
	sc.dataAtD = cut(sc.backFF, 0, nf)
	sc.minAtD = cut(sc.backFF, 1, nf)
	sc.slack = cut(sc.backFF, 2, nf)
	sc.holdSlack = cut(sc.backFF, 3, nf)
	return sc
}

// reset zeroes every buffer so a recycled scratch is indistinguishable
// from a fresh allocation (instances off the data DAG — clock buffers —
// keep zero entries, exactly as a cold analysis produces).
func (sc *scratch) reset() {
	clear(sc.backInst)
	clear(sc.backFF)
}

// getScratch pops a released buffer set or allocates a new one. A plain
// free list (rather than sync.Pool) keeps reuse deterministic: in the
// steady state of a re-timing loop the same buffers cycle forever.
func (s *Session) getScratch() *scratch {
	s.scratchMu.Lock()
	if n := len(s.free); n > 0 {
		sc := s.free[n-1]
		s.free = s.free[:n-1]
		s.scratchMu.Unlock()
		sc.reset()
		return sc
	}
	s.scratchMu.Unlock()
	return newScratch(s.nInst, s.nFF)
}

// Run executes one full forward/backward analysis under cfg, drawing its
// per-run buffers from the session pool. Release the returned Result when
// it is no longer needed to make the next Run allocation-free.
func (s *Session) Run(cfg Config) *Result {
	tRun := obs.Clock()
	s.levelOnce.Do(s.levelize)
	r := s.newResult(cfg)
	tFwd := obs.Clock()
	r.forwardAll()
	obsForwardNS.ObserveSince(tFwd)
	tBwd := obs.Clock()
	r.backwardAll()
	obsBackwardNS.ObserveSince(tBwd)
	r.endpointSlacks()
	obsRuns.Inc()
	obsRunNS.ObserveSince(tRun)
	return r
}

// newResult binds a Result under cfg to the session's clock state for cfg
// and a zeroed scratch set from the pool.
func (s *Session) newResult(cfg Config) *Result {
	cs := s.clockState(cfg)
	sc := s.getScratch()
	return &Result{
		G:   s.G,
		Cfg: cfg,
		S:   s,

		Depths: s.Depths,
		Boxes:  s.Boxes,

		NominalDelay: sc.nominalDelay,
		Derate:       sc.derate,
		CellDelay:    sc.cellDelay,
		WireDelay:    sc.wireDelay,
		Slew:         sc.slew,
		ArrivalOut:   sc.arrivalOut,
		RequiredOut:  sc.requiredOut,
		MinArrival:   sc.minArrival,

		ClockLate:  cs.clockLate,
		ClockEarly: cs.clockEarly,
		GBACRPR:    cs.gbaCRPR,
		DataAtD:    sc.dataAtD,
		MinAtD:     sc.minAtD,
		Slack:      sc.slack,
		HoldSlack:  sc.holdSlack,

		cs:  cs,
		sc:  sc,
		par: workers(cfg.Parallelism),
	}
}
