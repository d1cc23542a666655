// Package graph derives the timing graph of a design: data-edge adjacency,
// topological order, clock-tree chains, and the two worst-casing DPs that
// feed graph-based AOCV derating — minimum cell depth through each gate and
// the conservative launch/capture bounding boxes that bound the endpoint
// distance of any path through a gate.
//
// The graph is purely structural; delay numbers live in internal/sta and
// internal/pba, which both consume this package.
//
// Layout: adjacency is stored CSR-style — one flat edge arena per direction
// plus int32 offsets per instance — instead of a slice-of-slices, and every
// index field is an int32. At the 100k–1M-gate scale this halves the hot
// adjacency footprint and removes per-node allocations; the price is a hard
// 2^31-1 ceiling on instances, nets and edges, which Build enforces as a
// checked error (see DESIGN.md §11).
package graph

import (
	"fmt"
	"math"
	"slices"

	"mgba/internal/cells"
	"mgba/internal/netlist"
)

// Edge is one data arc from the output of instance From to input pin Pin of
// instance To, across net Net. Arcs into a flip-flop's D pin are the path
// endpoints; arcs out of a flip-flop's Q pin are the path startpoints.
type Edge struct {
	From, To, Net, Pin int32
}

// indexLimit is the largest count (instances, nets, edges) the int32 index
// contract admits. A package variable rather than a constant so tests can
// lower it to exercise the overflow error without building 2^31 objects.
var indexLimit = int64(math.MaxInt32)

// Graph is the structural timing graph of one design. It becomes stale when
// the design's connectivity changes (buffer insertion); rebuild it then.
// Gate resizing does not change the structure.
type Graph struct {
	D *netlist.Design

	Topo []int32 // data instances (FFs + combinational) in topological order

	// ClockChain[i] lists, for D.FFs[i], the clock-buffer instance IDs from
	// the clock root down to the FF's CK pin (root-most first). FFs on the
	// same clock leaf net share one backing slice.
	ClockChain [][]int32

	// CSR adjacency: the edges leaving (entering) instance v are
	// fanoutEdges[fanoutOff[v]:fanoutOff[v+1]] (resp. fanin), in the exact
	// order the historical per-node append produced them.
	fanoutEdges []Edge
	fanoutOff   []int32
	faninEdges  []Edge
	faninOff    []int32

	ffPos      []int32     // instance ID -> index into D.FFs, -1 for non-FFs
	isClock    []bool      // instance is part of the clock tree
	clockIndex *ClockIndex // lazy CRPR reachability index
}

// Fanout returns the data edges leaving instance v's output. Shared
// storage; callers must not modify.
func (g *Graph) Fanout(v int) []Edge { return g.fanoutEdges[g.fanoutOff[v]:g.fanoutOff[v+1]] }

// Fanin returns the data edges entering instance v's input pins. Shared
// storage; callers must not modify.
func (g *Graph) Fanin(v int) []Edge { return g.faninEdges[g.faninOff[v]:g.faninOff[v+1]] }

// NumEdges returns the data-arc count.
func (g *Graph) NumEdges() int { return len(g.fanoutEdges) }

// Build constructs the graph and validates the data DAG. The design should
// already pass netlist.Validate; Build re-detects combinational cycles via
// its topological sort and rejects clock buffers used as data drivers. It
// also enforces the int32 index contract: designs whose instance, net or
// edge count exceeds 2^31-1 are rejected with an error instead of silently
// corrupting indices.
func Build(d *netlist.Design) (*Graph, error) {
	if int64(len(d.Instances)) > indexLimit || int64(len(d.Nets)) > indexLimit {
		return nil, fmt.Errorf("graph: design exceeds int32 index ceiling (%d instances, %d nets, limit %d)",
			len(d.Instances), len(d.Nets), indexLimit)
	}
	n := len(d.Instances)
	g := &Graph{
		D:       d,
		ffPos:   make([]int32, n),
		isClock: make([]bool, n),
	}
	for i := range g.ffPos {
		g.ffPos[i] = -1
	}
	for i, ff := range d.FFs {
		g.ffPos[ff] = int32(i)
	}
	for _, in := range d.Instances {
		if !in.Dead && in.Cell.Kind == cells.ClkBuf {
			g.isClock[in.ID] = true
		}
	}
	// Data edges, two passes over the identical sink scan: the first counts
	// per-instance degrees, the second fills the CSR arenas through cursor
	// slices — so each node's edge order matches the historical per-node
	// append exactly.
	var nEdges int64
	emit := func(fill bool) error {
		for _, in := range d.Instances {
			if in.Dead || g.isClock[in.ID] || in.Output < 0 {
				continue
			}
			net := d.Nets[in.Output]
			for _, s := range net.Sinks {
				sink := d.Instances[s]
				if sink.Clock == net.ID && sink.IsFF() {
					continue // CK pin, not a data arc
				}
				if g.isClock[s] {
					return fmt.Errorf("graph: data net %d drives clock buffer %s", net.ID, sink.Name)
				}
				for pin, inNet := range sink.Inputs {
					if inNet == net.ID {
						if !fill {
							g.fanoutOff[in.ID+1]++
							g.faninOff[s+1]++
							nEdges++
							continue
						}
						e := Edge{From: int32(in.ID), To: int32(s), Net: int32(net.ID), Pin: int32(pin)}
						g.fanoutEdges[g.fanoutOff[in.ID]] = e
						g.fanoutOff[in.ID]++
						g.faninEdges[g.faninOff[s]] = e
						g.faninOff[s]++
					}
				}
			}
		}
		return nil
	}
	g.fanoutOff = make([]int32, n+1)
	g.faninOff = make([]int32, n+1)
	if err := emit(false); err != nil {
		return nil, err
	}
	if nEdges > indexLimit {
		return nil, fmt.Errorf("graph: design exceeds int32 index ceiling (%d data edges, limit %d)",
			nEdges, indexLimit)
	}
	for v := 0; v < n; v++ {
		g.fanoutOff[v+1] += g.fanoutOff[v]
		g.faninOff[v+1] += g.faninOff[v]
	}
	g.fanoutEdges = make([]Edge, nEdges)
	g.faninEdges = make([]Edge, nEdges)
	// The fill pass advances the offsets as cursors; shift them back after.
	if err := emit(true); err != nil {
		return nil, err
	}
	for v := n; v > 0; v-- {
		g.fanoutOff[v] = g.fanoutOff[v-1]
		g.faninOff[v] = g.faninOff[v-1]
	}
	g.fanoutOff[0], g.faninOff[0] = 0, 0
	// Reject clock buffers reading from data cells.
	for _, in := range d.Instances {
		if in.Dead || !g.isClock[in.ID] {
			continue
		}
		src := d.Nets[in.Inputs[0]]
		if src.Driver >= 0 && !g.isClock[src.Driver] {
			return nil, fmt.Errorf("graph: clock buffer %s driven by data cell", in.Name)
		}
	}
	if err := g.topoSort(); err != nil {
		return nil, err
	}
	if err := g.buildClockChains(); err != nil {
		return nil, err
	}
	return g, nil
}

// topoSort orders data instances with Kahn's algorithm. Edges into a
// flip-flop do not count toward its in-degree: registers are path breaks.
func (g *Graph) topoSort() error {
	d := g.D
	indeg := make([]int32, len(d.Instances))
	nData := 0
	for _, in := range d.Instances {
		if in.Dead || g.isClock[in.ID] {
			continue
		}
		nData++
		if in.IsFF() {
			continue // sources regardless of D-pin fanin
		}
		indeg[in.ID] = int32(len(g.Fanin(in.ID)))
	}
	queue := make([]int32, 0, nData)
	for _, in := range d.Instances {
		if !in.Dead && !g.isClock[in.ID] && indeg[in.ID] == 0 {
			queue = append(queue, int32(in.ID))
		}
	}
	g.Topo = g.Topo[:0]
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Topo = append(g.Topo, v)
		for _, e := range g.Fanout(int(v)) {
			if d.Instances[e.To].IsFF() {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(g.Topo) != nData {
		return fmt.Errorf("graph: combinational cycle (%d of %d ordered)", len(g.Topo), nData)
	}
	return nil
}

func (g *Graph) buildClockChains() error {
	d := g.D
	g.ClockChain = make([][]int32, len(d.FFs))
	// FFs sharing a clock leaf net share the entire chain; memoize per net
	// so a 100k-FF design stores one chain per leaf, not one per FF.
	byNet := make(map[int][]int32)
	for i, ffID := range d.FFs {
		net := d.Instances[ffID].Clock
		if chain, ok := byNet[net]; ok {
			g.ClockChain[i] = chain
			continue
		}
		var chain []int32
		cur := net
		for steps := 0; cur != d.ClockRoot; steps++ {
			if steps > len(d.Instances) {
				return fmt.Errorf("graph: clock cycle at FF %s", d.Instances[ffID].Name)
			}
			drv := d.Nets[cur].Driver
			if drv < 0 {
				return fmt.Errorf("graph: FF %s clock dangles at net %d", d.Instances[ffID].Name, cur)
			}
			chain = append(chain, int32(drv))
			cur = d.Instances[drv].Inputs[0]
		}
		// Reverse to root-first order.
		for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
			chain[l], chain[r] = chain[r], chain[l]
		}
		byNet[net] = chain
		g.ClockChain[i] = chain
	}
	return nil
}

// FFIndex returns the D.FFs position of an FF instance ID, or -1.
func (g *Graph) FFIndex(instID int) int {
	if instID < 0 || instID >= len(g.ffPos) {
		return -1
	}
	return int(g.ffPos[instID])
}

// IsClock reports whether the instance belongs to the clock tree.
func (g *Graph) IsClock(instID int) bool { return g.isClock[instID] }

// Endpoints returns the instance IDs of flip-flops whose D pin is driven by
// a data arc — the timing endpoints.
func (g *Graph) Endpoints() []int {
	var out []int
	for _, ff := range g.D.FFs {
		if len(g.Fanin(ff)) > 0 {
			out = append(out, ff)
		}
	}
	return out
}

// CommonClockDepth returns the number of shared clock buffers on the root
// prefix of the launch and capture FFs' clock chains — the quantity CRPR
// credits. Both arguments are positions into D.FFs.
func (g *Graph) CommonClockDepth(launchIdx, captureIdx int) int {
	a, b := g.ClockChain[launchIdx], g.ClockChain[captureIdx]
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// ClockIndex supports clock-reconvergence pessimism analysis: it groups
// flip-flops by clock leaf (the net feeding their CK pins — FFs on one
// leaf share the entire clock chain), knows the shared-prefix length of
// every leaf pair, and records which launch leaves reach each endpoint.
// GBA uses it to apply the industry-standard *conservative* CRPR credit:
// the smallest credit over every launch leaf that can reach the endpoint.
type ClockIndex struct {
	LeafOfFF []int32   // per D.FFs position: dense leaf id
	Chains   [][]int32 // per leaf id: clock-buffer chain, root first

	// common[a*nl+b] is the shared root-prefix length of leaf chains a and
	// b, stored flat as uint16 (chain depth is bounded far below 65535; the
	// builder enforces it). nl×nl entries at 2 bytes keeps the pair table
	// small even at thousands of leaves.
	common []uint16
	nl     int

	// LaunchLeaves[fi] lists the distinct leaf ids of launch FFs with a
	// data path into endpoint fi (a D.FFs position). The per-endpoint
	// slices share one backing arena.
	LaunchLeaves [][]int32
}

// CommonLen returns the shared root-prefix length of leaf chains a and b.
func (ci *ClockIndex) CommonLen(a, b int) int { return int(ci.common[a*ci.nl+b]) }

// NumLeaves returns the number of distinct clock leaves.
func (ci *ClockIndex) NumLeaves() int { return ci.nl }

// ClockIndex computes (and caches) the clock index; it depends only on
// structure, so one index serves any number of timing analyses.
func (g *Graph) ClockIndex() *ClockIndex {
	if g.clockIndex != nil {
		return g.clockIndex
	}
	d := g.D
	ci := &ClockIndex{LeafOfFF: make([]int32, len(d.FFs))}
	leafID := map[int]int32{} // clock net -> dense id
	for fi, ffID := range d.FFs {
		net := d.Instances[ffID].Clock
		id, ok := leafID[net]
		if !ok {
			id = int32(len(ci.Chains))
			leafID[net] = id
			ci.Chains = append(ci.Chains, g.ClockChain[fi])
		}
		ci.LeafOfFF[fi] = id
	}
	nl := len(ci.Chains)
	ci.nl = nl
	for _, chain := range ci.Chains {
		if len(chain) > math.MaxUint16 {
			panic(fmt.Sprintf("graph: clock chain depth %d exceeds uint16 prefix table", len(chain)))
		}
	}
	ci.common = make([]uint16, nl*nl)
	for a := 0; a < nl; a++ {
		for b := 0; b < nl; b++ {
			n := 0
			for n < len(ci.Chains[a]) && n < len(ci.Chains[b]) && ci.Chains[a][n] == ci.Chains[b][n] {
				n++
			}
			ci.common[a*nl+b] = uint16(n)
		}
	}
	g.launchLeaves(ci)
	g.clockIndex = ci
	return ci
}

// ShareClockTree reports whether g and prev, two graphs of one design with
// prev built before an edit, have the same clock tree: the same flip-flop
// list and the same clock chain at every flip-flop. That is the whole
// structural input of the clock index (equal chains end at equal leaf
// nets), so when it holds and prev has built its index, g takes over the
// index's tree part (leaf ids, chains, shared-prefix table) and computes
// only the launch-leaf reachability, which depends on the data graph.
func (g *Graph) ShareClockTree(prev *Graph) bool {
	if g.D != prev.D || len(g.ClockChain) != len(prev.ClockChain) {
		return false
	}
	for fi, ffID := range g.D.FFs {
		if ffID >= len(prev.ffPos) || prev.ffPos[ffID] != int32(fi) ||
			!slices.Equal(g.ClockChain[fi], prev.ClockChain[fi]) {
			return false
		}
	}
	if pci := prev.clockIndex; pci != nil && g.clockIndex == nil {
		ci := &ClockIndex{LeafOfFF: pci.LeafOfFF, Chains: pci.Chains, common: pci.common, nl: pci.nl}
		g.launchLeaves(ci)
		g.clockIndex = ci
	}
	return true
}

// launchLeaves fills ci.LaunchLeaves: the launch-leaf reachability over
// the data graph, as bitsets backed by one arena (O(V·nl/64) transient,
// freed when this function returns).
func (g *Graph) launchLeaves(ci *ClockIndex) {
	d := g.D
	nl := ci.nl
	words := (nl + 63) / 64
	arena := make([]uint64, len(d.Instances)*words)
	mask := func(v int32) []uint64 {
		return arena[int(v)*words : (int(v)+1)*words]
	}
	orInto := func(dst, src []uint64) {
		for w := range dst {
			dst[w] |= src[w]
		}
	}
	for _, v := range g.Topo {
		in := d.Instances[v]
		if in.IsFF() {
			leaf := ci.LeafOfFF[g.ffPos[v]]
			mask(v)[leaf/64] |= 1 << (uint(leaf) % 64)
			continue
		}
		mv := mask(v)
		for _, e := range g.Fanin(int(v)) {
			orInto(mv, mask(e.From))
		}
	}
	ci.LaunchLeaves = make([][]int32, len(d.FFs))
	acc := make([]uint64, words)
	var leafArena []int32
	counts := make([]int32, len(d.FFs))
	for pass := 0; pass < 2; pass++ {
		off := int32(0)
		for fi, ffID := range d.FFs {
			clear(acc)
			for _, e := range g.Fanin(ffID) {
				orInto(acc, mask(e.From))
			}
			n := int32(0)
			for leaf := 0; leaf < nl; leaf++ {
				if acc[leaf/64]&(1<<(uint(leaf)%64)) != 0 {
					if pass == 1 {
						leafArena[off+n] = int32(leaf)
					}
					n++
				}
			}
			if pass == 0 {
				counts[fi] = n
				off += n
			} else {
				ci.LaunchLeaves[fi] = leafArena[off : off+counts[fi] : off+counts[fi]]
				off += counts[fi]
			}
		}
		if pass == 0 {
			leafArena = make([]int32, off)
		}
	}
}

// Depths holds the worst-casing cell-depth DP results used by GBA AOCV
// lookups. All counts are over combinational data gates only.
type Depths struct {
	// MinPrefix[v]: fewest combinational gates on any launch-to-v path,
	// counting v itself (combinational v only; 0 for FFs).
	MinPrefix []int32
	// MinSuffix[v]: fewest combinational gates on any v-to-endpoint path,
	// counting v itself (0 for FFs).
	MinSuffix []int32
	// GBA[v]: the worst (minimum) cell depth GBA assumes for instance v:
	// MinPrefix+MinSuffix-1 for combinational gates; for a flip-flop, the
	// minimum depth among the paths its Q pin launches.
	GBA []int32
}

const unreachable = math.MaxInt32

// ComputeDepths runs the forward/backward minimum-depth DPs. Gates on no
// complete register-to-register path get GBA depth 1 (maximum derate),
// which is what a conservative timer assumes for unconstrained logic.
func (g *Graph) ComputeDepths() *Depths {
	d := g.D
	n := len(d.Instances)
	dp := &Depths{
		MinPrefix: make([]int32, n),
		MinSuffix: make([]int32, n),
		GBA:       make([]int32, n),
	}
	for i := range dp.MinPrefix {
		dp.MinPrefix[i] = unreachable
		dp.MinSuffix[i] = unreachable
	}
	// Forward: topological order guarantees fanins are final.
	for _, v := range g.Topo {
		in := d.Instances[v]
		if in.IsFF() {
			dp.MinPrefix[v] = 0
			continue
		}
		best := int32(unreachable)
		for _, e := range g.Fanin(int(v)) {
			var cand int32
			if d.Instances[e.From].IsFF() {
				cand = 1
			} else if dp.MinPrefix[e.From] != unreachable {
				cand = dp.MinPrefix[e.From] + 1
			} else {
				continue
			}
			if cand < best {
				best = cand
			}
		}
		dp.MinPrefix[v] = best
	}
	// Backward.
	for i := len(g.Topo) - 1; i >= 0; i-- {
		v := g.Topo[i]
		in := d.Instances[v]
		if in.IsFF() {
			dp.MinSuffix[v] = 0
			continue
		}
		best := int32(unreachable)
		for _, e := range g.Fanout(int(v)) {
			var cand int32
			if d.Instances[e.To].IsFF() {
				cand = 1
			} else if dp.MinSuffix[e.To] != unreachable {
				cand = dp.MinSuffix[e.To] + 1
			} else {
				continue
			}
			if cand < best {
				best = cand
			}
		}
		dp.MinSuffix[v] = best
	}
	for _, v := range g.Topo {
		in := d.Instances[v]
		if in.IsFF() {
			// Launch arc: worst depth among launched paths.
			best := int32(unreachable)
			for _, e := range g.Fanout(int(v)) {
				var cand int32
				if d.Instances[e.To].IsFF() {
					cand = 1 // direct FF-to-FF transfer: shallowest possible
				} else if dp.MinSuffix[e.To] != unreachable {
					cand = dp.MinSuffix[e.To]
				} else {
					continue
				}
				if cand < best {
					best = cand
				}
			}
			if best == unreachable {
				best = 1
			}
			dp.GBA[v] = best
			continue
		}
		pre, suf := dp.MinPrefix[v], dp.MinSuffix[v]
		if pre == unreachable || suf == unreachable {
			dp.GBA[v] = 1
		} else {
			dp.GBA[v] = pre + suf - 1
		}
	}
	return dp
}

// BBox is an axis-aligned placement bounding box; Empty boxes have not
// absorbed any point yet.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
	Empty                  bool
}

func emptyBox() BBox { return BBox{Empty: true} }

func (b *BBox) addPoint(x, y float64) {
	if b.Empty {
		b.MinX, b.MinY = x, y
		b.MaxX, b.MaxY = x, y
		b.Empty = false
		return
	}
	if x < b.MinX {
		b.MinX = x
	}
	if x > b.MaxX {
		b.MaxX = x
	}
	if y < b.MinY {
		b.MinY = y
	}
	if y > b.MaxY {
		b.MaxY = y
	}
}

func (b *BBox) union(o BBox) {
	if o.Empty {
		return
	}
	b.addPoint(o.MinX, o.MinY)
	b.addPoint(o.MaxX, o.MaxY)
}

// MaxDistance returns the largest possible distance between a point of a
// and a point of b — the conservative endpoint distance GBA feeds to the
// AOCV table. It returns 0 when either box is empty.
func MaxDistance(a, b BBox) float64 {
	if a.Empty || b.Empty {
		return 0
	}
	dx := math.Max(math.Abs(a.MaxX-b.MinX), math.Abs(b.MaxX-a.MinX))
	dy := math.Max(math.Abs(a.MaxY-b.MinY), math.Abs(b.MaxY-a.MinY))
	return math.Hypot(dx, dy)
}

// Boxes holds the conservative launch/capture bounding boxes per instance.
type Boxes struct {
	Launch  []BBox // placements of launch FFs that reach this instance
	Capture []BBox // placements of capture FFs this instance reaches
	// GBADistance[v] bounds the endpoint distance of any path through v.
	GBADistance []float64
}

// ComputeBoxes runs the forward/backward reachable-FF bounding-box DPs and
// derives the conservative per-gate AOCV distance.
func (g *Graph) ComputeBoxes() *Boxes {
	d := g.D
	n := len(d.Instances)
	bx := &Boxes{
		Launch:      make([]BBox, n),
		Capture:     make([]BBox, n),
		GBADistance: make([]float64, n),
	}
	for i := range bx.Launch {
		bx.Launch[i] = emptyBox()
		bx.Capture[i] = emptyBox()
	}
	for _, v := range g.Topo {
		in := d.Instances[v]
		if in.IsFF() {
			bx.Launch[v].addPoint(in.X, in.Y)
			continue
		}
		for _, e := range g.Fanin(int(v)) {
			bx.Launch[v].union(bx.Launch[e.From])
		}
	}
	// FFs are sources of the topological order, so a plain reverse sweep
	// would read their capture boxes before initialization: seed them
	// first, then sweep the combinational gates, then widen the launch
	// FFs' boxes over their (now final) fanout.
	for _, ffID := range d.FFs {
		in := d.Instances[ffID]
		bx.Capture[ffID].addPoint(in.X, in.Y)
	}
	for i := len(g.Topo) - 1; i >= 0; i-- {
		v := g.Topo[i]
		if d.Instances[v].IsFF() {
			continue
		}
		for _, e := range g.Fanout(int(v)) {
			bx.Capture[v].union(bx.Capture[e.To])
		}
	}
	for _, ffID := range d.FFs {
		for _, e := range g.Fanout(ffID) {
			bx.Capture[ffID].union(bx.Capture[e.To])
		}
	}
	for _, v := range g.Topo {
		bx.GBADistance[v] = MaxDistance(bx.Launch[v], bx.Capture[v])
	}
	return bx
}
