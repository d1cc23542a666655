package engine

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
// insertion, retiming, cell moves): Derive the new Session from the stale
// one over the instances the edit touched, and Rebase the stale Results
// onto it. Gate resizing on the data path does not invalidate it — that
// is what Result.Update is for.
//
// The Session's geometry — its instance and flip-flop counts — is fixed
// when it is built: every per-run buffer it hands out keeps it, so
// Results of one Session always share one layout.
type Session struct {
	G      *graph.Graph
	Depths *graph.Depths
	Boxes  *graph.Boxes

	nInst, nFF int // geometry at build time: len(D.Instances), len(D.FFs)

	// id names the session; a Derived one records its parent's in parent
	// (0 for a built one), and what the derivation re-derived: rows, the
	// instances whose graph rows it rebuilt, and moved, those whose GBA
	// depth or distance changed. Rebase reads them.
	id, parent uint64
	rows       []int32
	moved      []int

	// Levelization of the data DAG, built by the first Run: level 0 holds
	// the flip-flops (path sources), level l>0 the combinational gates
	// whose deepest fanin sits at level l-1. levelOrder lists instances
	// grouped by level, by ascending instance ID within a level; level l
	// spans levelOrder[levelOff[l]:levelOff[l+1]].
	levelOnce  sync.Once
	levelOrder []int32
	levelOff   []int

	mu     sync.Mutex
	clocks map[clockKey]*clockState // per clock configuration

	pool *pool // released per-run buffers, shared with Derived sessions
}

// pool holds released per-run buffers. A Session shares its pool with the
// sessions Derived from it, which keep its flip-flop list: a buffer set
// fits any of them with at most as many instances as it was made for, so
// a structural trial runs on the buffers the previous trial released.
type pool struct {
	mu       sync.Mutex
	free     []*scratch     // released per-run buffer sets
	coneFree []*coneScratch // released cone-walk buffers
	arena    *graph.Arena   // a discarded trial's graph and DP storage
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

// sessionIDs hands out session ids.
var sessionIDs atomic.Uint64

// NewSession computes the design-derived immutable state: depth and
// bounding-box DPs and the scratch pool geometry. Clock state is derived
// lazily per clock configuration, and the levelization on the first Run.
func NewSession(g *graph.Graph) *Session {
	return newSession(g, g.ComputeDepths(), g.ComputeBoxes())
}

// newSession assembles a session of g over its DPs, with its own pool.
func newSession(g *graph.Graph, depths *graph.Depths, boxes *graph.Boxes) *Session {
	return &Session{
		G:      g,
		Depths: depths,
		Boxes:  boxes,
		clocks: make(map[clockKey]*clockState),
		nInst:  len(g.D.Instances),
		nFF:    len(g.D.FFs),
		id:     sessionIDs.Add(1),
		pool:   &pool{},
	}
}

// Derive returns the Session of s's design after a structural edit of
// its data network (a buffer insertion or removal, a retiming slide or
// its undo) that keeps the flip-flop list, equal to
// NewSession(graph.Build(d)) in every state it holds, at the cost of
// what the edit reached. edited lists the instances the edit touched
// directly (a structural Move's DirtySet; see graph.Derive). Derive patches s's graph over the edit (graph.Derive,
// which fails wherever graph.Build would), then carries s's depths and
// boxes over, re-deriving them forward and backward from the rebuilt
// rows and stopping where a value keeps its bits (graph.DeriveDP). It
// records the instances whose GBA depth or distance moved (Moved).
//
// It takes over each of s's clock states whose inputs the edit provably
// left alone: the same flip-flop list and clock chains, and every chain
// buffer's cell, output load, wire delay and placement equal bit for bit
// in the design as it stands now. A shared state keeps its insertion
// delays and leaf-pair credit matrix, and the derived graph takes over
// s's clock index, advancing its launch-leaf reachability over the
// edit's cone; the conservative endpoint credit is re-derived for the
// endpoints whose launch leaves moved. A state whose inputs moved is
// rebuilt from scratch (engine.sessions.clock_rebuilt).
func (s *Session) Derive(edited []int) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.mu.Lock()
	a := s.pool.arena
	s.pool.arena = nil
	s.pool.mu.Unlock()
	g, dl, err := s.G.Derive(edited, a)
	if err != nil {
		return nil, err
	}
	obsSessionsDerived.Inc()
	depths, boxes := g.DeriveDP(dl, s.Depths, s.Boxes)
	obsDeriveEvals.Add(int64(dl.Evals))
	ns := newSession(g, depths, boxes)
	ns.parent, ns.rows, ns.moved, ns.pool = s.id, dl.Rows, dl.Moved, s.pool
	for key, cs := range s.clocks {
		if dl.ClockTree && cs.unchanged(g.D) {
			ns.clocks[key] = ns.shareClockState(cs, dl.LaunchMoved)
			continue
		}
		obsClockRebuilt.Inc()
		ns.clocks[key] = ns.buildClockState(key)
	}
	return ns, nil
}

// Discard ends s, a session Derived for a structural trial its caller
// rejected: the storage of its graph and DPs goes to the pool s shares
// with its parent, for the next Derive to fill. s, its graph, and every
// Result and slice read from them must not be used afterwards. Discarding
// a session NewSession built does nothing.
func (s *Session) Discard() {
	a := s.G.Discard()
	if a == nil {
		return
	}
	s.pool.mu.Lock()
	s.pool.arena = a
	s.pool.mu.Unlock()
}

// Moved lists, ascending, the instances whose GBA depth or GBA distance
// Derive moved: the ones a structural edit retimes although nothing
// around them was edited (depth suffixes and box unions propagate
// against the data flow). Instances the edit created are not listed. nil
// for a session NewSession built. Shared storage; callers must not
// modify.
func (s *Session) Moved() []int { return s.moved }

// shareClockState takes over cs's insertion delays, credit matrix,
// recorded inputs and conservative endpoint credits, re-deriving the
// credit of every endpoint in launchMoved from s's own launch-leaf
// reachability.
func (s *Session) shareClockState(cs *clockState, launchMoved []int) *clockState {
	ns := *cs
	if ns.credits != nil && len(launchMoved) > 0 {
		ns.gbaCRPR = slices.Clone(cs.gbaCRPR)
		ci := s.G.ClockIndex()
		for _, fi := range launchMoved {
			ns.gbaCRPR[fi] = endpointCredit(&ns, ci, fi)
		}
	}
	return &ns
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
// level's instances can be evaluated in any order — or in parallel — with
// the same bits. The levels are computed in Topo order; each level's
// bucket is then filled by walking instance IDs upward (O(n), no sort),
// so a sweep of a level walks the netlist's objects forward through
// memory. Run calls it through levelOnce: a session that only ever
// Rebases and Updates never needs it.
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
	for v, p := range g.Pos {
		if p >= 0 {
			s.levelOrder[fill[level[v]]] = int32(v)
			fill[level[v]]++
		}
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
		cs.gbaCRPR[fi] = endpointCredit(cs, ci, fi)
	}
}

// endpointCredit is endpoint fi's conservative credit: the smallest pair
// credit over its launch leaves, 0 when none reaches it.
func endpointCredit(cs *clockState, ci *graph.ClockIndex, fi int) float64 {
	leaves := ci.LaunchLeaves[fi]
	if len(leaves) == 0 {
		return 0
	}
	minCredit := math.Inf(1)
	for _, leaf := range leaves {
		if c := cs.credits[leaf][ci.LeafOfFF[fi]]; c < minCredit {
			minCredit = c
		}
	}
	return minCredit
}

// scratch is one reusable set of per-run buffers. Instance-indexed slices
// share one backing array, FF-indexed slices another, so acquiring a fresh
// set costs two allocations and resetting one is two memclears. The
// instance arrays sit stride apart, the instance count the set was made
// for; a session with fewer instances takes it cut shorter.
type scratch struct {
	backInst []float64 // 8 instance-sized arrays, stride apart
	backFF   []float64 // 4 FF-sized arrays
	stride   int

	nominalDelay, derate, cellDelay, wireDelay []float64
	slew, arrivalOut, requiredOut, minArrival  []float64
	dataAtD, minAtD, slack, holdSlack          []float64

	sweep sweep // the par.Body of the Run holding the set
}

func newScratch(n, nf int) *scratch {
	sc := &scratch{
		backInst: make([]float64, 8*n),
		backFF:   make([]float64, 4*nf),
		stride:   n,
	}
	sc.cutInst(n)
	cut := func(i int) []float64 { return sc.backFF[i*nf : (i+1)*nf : (i+1)*nf] }
	sc.dataAtD, sc.minAtD, sc.slack, sc.holdSlack = cut(0), cut(1), cut(2), cut(3)
	return sc
}

// cutInst cuts the instance arrays to n instances.
func (sc *scratch) cutInst(n int) {
	cut := func(i int) []float64 { return sc.backInst[i*sc.stride : i*sc.stride+n : i*sc.stride+n] }
	sc.nominalDelay, sc.derate, sc.cellDelay, sc.wireDelay = cut(0), cut(1), cut(2), cut(3)
	sc.slew, sc.arrivalOut, sc.requiredOut, sc.minArrival = cut(4), cut(5), cut(6), cut(7)
}

// inst lists the instance arrays in a fixed order.
func (sc *scratch) inst() [8][]float64 {
	return [8][]float64{sc.nominalDelay, sc.derate, sc.cellDelay, sc.wireDelay,
		sc.slew, sc.arrivalOut, sc.requiredOut, sc.minArrival}
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
// steady state of a re-timing loop the same buffers cycle forever. A set
// too small for the session (released by a smaller session of the pool)
// is dropped.
func (s *Session) getScratch() *scratch {
	p := s.pool
	var sc *scratch
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sc = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if sc != nil && sc.stride >= s.nInst {
		sc.reset()
		sc.cutInst(s.nInst)
		return sc
	}
	return newScratch(s.nInst, s.nFF)
}

// Run executes one full forward/backward analysis under cfg, drawing its
// per-run buffers from the session pool. Release the returned Result when
// it is no longer needed: the next Run then reuses its buffers and
// allocates nothing but its *Result header, at any Parallelism.
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
