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
	"math/bits"
	"sync"

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
// the design's connectivity changes (buffer insertion, retiming); Derive
// the new one from it then, over the instances the edit touched. Gate
// resizing does not change the structure.
type Graph struct {
	D *netlist.Design

	Topo []int32 // data instances (FFs + combinational) in topological order
	Pos  []int32 // topological position per instance ID, -1 off the data DAG

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
	flags      []uint8     // per instance: clockCell, seqCell
	clockIndex *ClockIndex // lazy CRPR reachability index
	arena      *Arena      // a derived graph's storage, for Discard
}

// Instance flags, read in every sweep without touching the design.
const (
	clockCell uint8 = 1 << iota // part of the clock tree
	seqCell                     // a sequential cell: a path break
)

// cellFlags returns an instance's flags, read from its cell.
func cellFlags(in *netlist.Instance) uint8 {
	var f uint8
	if in.Cell.Kind == cells.ClkBuf {
		f |= clockCell
	}
	if in.IsFF() {
		f |= seqCell
	}
	return f
}

func (g *Graph) isClock(v int32) bool { return g.flags[v]&clockCell != 0 }
func (g *Graph) isSeq(v int32) bool   { return g.flags[v]&seqCell != 0 }

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
		D:     d,
		ffPos: make([]int32, n),
		flags: make([]uint8, n),
	}
	for i := range g.ffPos {
		g.ffPos[i] = -1
	}
	for i, ff := range d.FFs {
		g.ffPos[ff] = int32(i)
	}
	for _, in := range d.Instances {
		g.flags[in.ID] = cellFlags(in)
	}
	// Data edges, two passes over the identical arc scan: the first counts
	// per-instance degrees, the second fills the CSR arenas through cursor
	// slices — so each node's edge order matches the historical per-node
	// append exactly.
	var nEdges int64
	emit := func(fill bool) error {
		for _, in := range d.Instances {
			err := g.arcs(in, func(e Edge) {
				if !fill {
					g.fanoutOff[e.From+1]++
					g.faninOff[e.To+1]++
					nEdges++
					return
				}
				g.fanoutEdges[g.fanoutOff[e.From]] = e
				g.fanoutOff[e.From]++
				g.faninEdges[g.faninOff[e.To]] = e
				g.faninOff[e.To]++
			})
			if err != nil {
				return err
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
	for _, in := range d.Instances {
		if err := g.checkClockInput(in); err != nil {
			return nil, err
		}
	}
	if err := g.topoSort(nil, nil); err != nil {
		return nil, err
	}
	if err := g.buildClockChains(); err != nil {
		return nil, err
	}
	return g, nil
}

// arcs calls emit for every data arc out of instance in, in Build's order:
// the sinks of its output net in list order, each sink's pins in pin
// order. A clock buffer or an instance without an output drives no data
// arc; a CK pin is not one; a clock buffer among the sinks of a data net
// is an error.
func (g *Graph) arcs(in *netlist.Instance, emit func(Edge)) error {
	if g.isClock(int32(in.ID)) || in.Output < 0 {
		return nil
	}
	d := g.D
	net := d.Nets[in.Output]
	for _, s := range net.Sinks {
		sink := d.Instances[s]
		if sink.Clock == net.ID && g.isSeq(int32(s)) {
			continue // CK pin, not a data arc
		}
		if g.isClock(int32(s)) {
			return fmt.Errorf("graph: data net %d drives clock buffer %s", net.ID, sink.Name)
		}
		for pin, inNet := range sink.Inputs {
			if inNet == net.ID {
				emit(Edge{From: int32(in.ID), To: int32(s), Net: int32(net.ID), Pin: int32(pin)})
			}
		}
	}
	return nil
}

// checkClockInput rejects a clock buffer reading from a data cell.
func (g *Graph) checkClockInput(in *netlist.Instance) error {
	if !g.isClock(int32(in.ID)) {
		return nil
	}
	src := g.D.Nets[in.Inputs[0]]
	if src.Driver >= 0 && !g.isClock(int32(src.Driver)) {
		return fmt.Errorf("graph: clock buffer %s driven by data cell", in.Name)
	}
	return nil
}

// topoSort orders data instances with Kahn's algorithm and records each
// one's position, in the storage of pos and topo where it fits. Edges
// into a flip-flop do not count toward its in-degree: registers are path
// breaks.
func (g *Graph) topoSort(pos, topo []int32) error {
	n := len(g.flags)
	indeg := take(pos, n)
	// The FIFO queue, popped from the front, is the order itself; it
	// starts with the sources in ID order.
	queue := take(topo, n)[:0]
	nData := 0
	for v, f := range g.flags {
		indeg[v] = 0
		if f&clockCell != 0 {
			continue
		}
		nData++
		if f&seqCell == 0 {
			indeg[v] = g.faninOff[v+1] - g.faninOff[v] // registers are sources regardless
		}
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, e := range g.Fanout(int(queue[head])) {
			if g.isSeq(e.To) {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	g.Topo = queue
	if len(g.Topo) != nData {
		return fmt.Errorf("graph: combinational cycle (%d of %d ordered)", len(g.Topo), nData)
	}
	g.Pos = indeg // every in-degree is zero now: reuse the array
	for i := range g.Pos {
		g.Pos[i] = -1
	}
	for p, v := range g.Topo {
		g.Pos[v] = int32(p)
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
func (g *Graph) IsClock(instID int) bool { return g.isClock(int32(instID)) }

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
	// slices share one backing arena, or a parent index's.
	LaunchLeaves [][]int32

	// masks is the launch-leaf reachability per instance, words uint64s
	// each: the bitset LaunchLeaves is read from. Only Derive needs it, so
	// a built index computes it on its graph's first Derive (maskOnce) and
	// a derived one carries its own.
	masks    []uint64
	words    int
	maskOnce sync.Once
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
	ci.words = (nl + 63) / 64
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
	g.launchLeaves(ci, g.leafMasks(ci))
	g.clockIndex = ci
	return ci
}

// leafMasks computes the launch-leaf reachability of every instance over
// the data graph: a flip-flop launches its own leaf, a combinational gate
// everything its fanins launch.
func (g *Graph) leafMasks(ci *ClockIndex) []uint64 {
	masks := make([]uint64, len(g.D.Instances)*ci.words)
	for _, v := range g.Topo {
		g.maskAt(ci, masks, v, ci.mask(masks, v))
	}
	return masks
}

// mask returns instance v's reachability bitset within masks.
func (ci *ClockIndex) mask(masks []uint64, v int32) []uint64 {
	return masks[int(v)*ci.words : (int(v)+1)*ci.words]
}

// maskAt derives instance v's reachability bitset into dst from the masks
// of its fanins. It reads nothing of the design but the graph, so a
// parent graph's masks can be computed after the design moved on.
func (g *Graph) maskAt(ci *ClockIndex, masks []uint64, v int32, dst []uint64) {
	clear(dst)
	if fi := g.ffPos[v]; fi >= 0 {
		leaf := ci.LeafOfFF[fi]
		dst[leaf/64] |= 1 << (uint(leaf) % 64)
		return
	}
	for _, e := range g.Fanin(int(v)) {
		orInto(dst, ci.mask(masks, e.From))
	}
}

func orInto(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

// endpointMask ORs into acc (cleared first) the masks of endpoint ffID's
// D-pin drivers.
func (g *Graph) endpointMask(ci *ClockIndex, masks []uint64, ffID int, acc []uint64) {
	clear(acc)
	for _, e := range g.Fanin(ffID) {
		orInto(acc, ci.mask(masks, e.From))
	}
}

// leavesOf appends the leaf ids set in acc, ascending, to dst.
func leavesOf(dst []int32, acc []uint64) []int32 {
	for w, x := range acc {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// launchLeaves fills ci.LaunchLeaves from the reachability masks, every
// endpoint's list backed by one arena.
func (g *Graph) launchLeaves(ci *ClockIndex, masks []uint64) {
	d := g.D
	ci.LaunchLeaves = make([][]int32, len(d.FFs))
	acc := make([]uint64, ci.words)
	n := 0
	for _, ffID := range d.FFs {
		g.endpointMask(ci, masks, ffID, acc)
		for _, x := range acc {
			n += bits.OnesCount64(x)
		}
	}
	arena := make([]int32, 0, n)
	for fi, ffID := range d.FFs {
		g.endpointMask(ci, masks, ffID, acc)
		start := len(arena)
		arena = leavesOf(arena, acc)
		ci.LaunchLeaves[fi] = arena[start:len(arena):len(arena)]
	}
}

// ensureMasks computes the index's reachability masks over g, its graph,
// unless it has them.
func (ci *ClockIndex) ensureMasks(g *Graph) {
	ci.maskOnce.Do(func() {
		if ci.masks == nil {
			ci.masks = g.leafMasks(ci)
		}
	})
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
// Each value is one of the per-instance rules below applied in
// topological order; Derive re-applies the same rules over an edit's
// cones.
func (g *Graph) ComputeDepths() *Depths {
	n := len(g.D.Instances)
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
		dp.MinPrefix[v] = g.prefixAt(dp, v)
	}
	for i := len(g.Topo) - 1; i >= 0; i-- {
		v := g.Topo[i]
		dp.MinSuffix[v] = g.suffixAt(dp, v)
	}
	for _, v := range g.Topo {
		dp.GBA[v] = g.gbaAt(dp, v)
	}
	return dp
}

// prefixAt derives MinPrefix[v] from v's fanins: 0 for a flip-flop, else
// one more than the shallowest reachable fanin (a flip-flop fanin counts
// as depth 0).
func (g *Graph) prefixAt(dp *Depths, v int32) int32 {
	if g.isSeq(v) {
		return 0
	}
	best := int32(unreachable)
	for _, e := range g.Fanin(int(v)) {
		var cand int32
		if g.isSeq(e.From) {
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
	return best
}

// suffixAt derives MinSuffix[v] from v's fanouts, the mirror of prefixAt.
func (g *Graph) suffixAt(dp *Depths, v int32) int32 {
	if g.isSeq(v) {
		return 0
	}
	best := int32(unreachable)
	for _, e := range g.Fanout(int(v)) {
		var cand int32
		if g.isSeq(e.To) {
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
	return best
}

// gbaAt derives GBA[v]: MinPrefix+MinSuffix-1 for a combinational gate
// (1 off any complete path); for a flip-flop, the launch arc's worst
// depth, the shallowest path its Q pin launches (1 when it launches none).
func (g *Graph) gbaAt(dp *Depths, v int32) int32 {
	if !g.isSeq(v) {
		pre, suf := dp.MinPrefix[v], dp.MinSuffix[v]
		if pre == unreachable || suf == unreachable {
			return 1
		}
		return pre + suf - 1
	}
	best := int32(unreachable)
	for _, e := range g.Fanout(int(v)) {
		var cand int32
		if g.isSeq(e.To) {
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
	return best
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
// derives the conservative per-gate AOCV distance. A combinational gate's
// capture box sees a flip-flop sink as its placement alone; a flip-flop's
// own capture box is then widened over its fanout in D.FFs order.
func (g *Graph) ComputeBoxes() *Boxes {
	n := len(g.D.Instances)
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
		bx.Launch[v] = g.launchAt(bx, v)
	}
	for i := len(g.Topo) - 1; i >= 0; i-- {
		if v := g.Topo[i]; !g.isSeq(v) {
			bx.Capture[v] = g.captureAt(bx, v)
		}
	}
	for fi, ffID := range g.D.FFs {
		bx.Capture[ffID] = g.ffCaptureAt(bx, int32(ffID), fi)
	}
	for _, v := range g.Topo {
		bx.GBADistance[v] = MaxDistance(bx.Launch[v], bx.Capture[v])
	}
	return bx
}

// pointBox is the box of instance v's placement alone.
func (g *Graph) pointBox(v int32) BBox {
	b := emptyBox()
	in := g.D.Instances[v]
	b.addPoint(in.X, in.Y)
	return b
}

// launchAt derives Launch[v]: a flip-flop's own placement, else the union
// of its fanins' launch boxes in fanin order.
func (g *Graph) launchAt(bx *Boxes, v int32) BBox {
	if g.isSeq(v) {
		return g.pointBox(v)
	}
	b := emptyBox()
	for _, e := range g.Fanin(int(v)) {
		b.union(bx.Launch[e.From])
	}
	return b
}

// captureAt derives Capture[v] of a combinational gate: the union, in
// fanout order, of its combinational sinks' capture boxes and its
// flip-flop sinks' placements (a sequential cell outside D.FFs adds
// nothing).
func (g *Graph) captureAt(bx *Boxes, v int32) BBox {
	b := emptyBox()
	for _, e := range g.Fanout(int(v)) {
		switch {
		case g.ffPos[e.To] >= 0:
			b.union(g.pointBox(e.To))
		case !g.isSeq(e.To):
			b.union(bx.Capture[e.To])
		}
	}
	return b
}

// ffCaptureAt derives Capture[ff] of the flip-flop at D.FFs position fi:
// its placement widened, in fanout order, by each sink's capture box as
// the D.FFs-order widening finds it — final for a combinational sink and
// for a flip-flop widened before this one, the bare placement for one
// widened after it. A self-loop adds nothing.
func (g *Graph) ffCaptureAt(bx *Boxes, ff int32, fi int) BBox {
	b := g.pointBox(ff)
	for _, e := range g.Fanout(int(ff)) {
		switch j := g.ffPos[e.To]; {
		case e.To == ff:
		case int(j) > fi:
			b.union(g.pointBox(e.To))
		default:
			b.union(bx.Capture[e.To])
		}
	}
	return b
}
