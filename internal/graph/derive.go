package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mgba/internal/bitset"
)

// Delta records how a Derived graph differs from its parent: what the
// parent's DP state must be re-derived from.
type Delta struct {
	// Rows lists, ascending, the instances whose fanin or fanout row
	// Derive rebuilt, every instance the edit created among them.
	Rows []int32
	// Parent is the parent graph's instance count.
	Parent int
	// ClockTree reports that the parent's clock chains carried over
	// unchanged.
	ClockTree bool
	// LaunchMoved lists the D.FFs positions whose LaunchLeaves differ from
	// the parent's, ascending; set when the parent's clock index was
	// carried over (see Derive).
	LaunchMoved []int
	// Moved lists, ascending, the instances of both graphs whose GBA depth
	// or GBA distance differs from the parent's; set by DeriveDP.
	Moved []int
	// Evals counts the instances whose launch-leaf, depth or box state
	// Derive and DeriveDP re-derived.
	Evals int
}

// Arena is the storage of one derived graph and its DPs. Discard hands
// a derived graph's arena back, and Derive fills a given arena instead of
// allocating, so a caller that derives, discards and derives again (a
// rejected structural trial, then the next) reuses the arrays.
type Arena struct {
	flags                                 []uint8
	ffPos, fanoutOff, faninOff, topo, pos []int32
	fanoutEdges, faninEdges               []Edge
	masks                                 []uint64
	minPrefix, minSuffix, gba             []int32
	launch, capture                       []BBox
	dist                                  []float64
}

// Discard ends g, a graph Derive made, and the DPs DeriveDP made for it,
// returning their storage for a later Derive (nil for a graph Build
// made, or one already discarded). Neither g nor those DPs, nor any slice
// read from them, may be used afterwards.
func (g *Graph) Discard() *Arena {
	a := g.arena
	g.arena = nil
	return a
}

// take returns buf cut to n when it can hold n, else a new slice; the
// contents are the caller's to set.
func take[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// resized returns src cut or padded with fill to length n, in buf's
// storage when it can hold n.
func resized[T any](buf, src []T, n int, fill T) []T {
	out := take(buf, n)
	for i := copy(out, src); i < n; i++ {
		out[i] = fill
	}
	return out
}

// Derive returns the graph of g's design after an edit of its
// connectivity (a buffer insertion or removal, a retiming slide or its
// undo), equal to Build(g.D) field for field — every row's edge order,
// Topo in Build's Kahn order, Pos, ffPos, flags, ClockChain — and an
// error wherever Build would return one. edited lists the instances the
// edit touched directly: those whose fan-in, fan-out, output load or
// output net changed, and those it created or removed. The edit must
// keep the flip-flop list; Derive refuses one that does not.
//
// Derive rebuilds only the rows of the edited instances, of the instances
// the edit created or removed, and of their fan-in drivers and fan-out
// sinks before and after the edit (a backward slide re-pins its
// register's former Q sinks, which the retime move's edited list leaves
// out); every other row is copied. Topo is re-sorted over the patched rows, an integer pass, as
// an edit can shift Build's order far from itself. The clock chains are
// shared with g unless the edit touched a clock instance or a
// flip-flop's clock leaf. When they are and g has built its
// clock index, the derived graph takes the index over and advances the
// launch-leaf reachability over the edit's forward cone, stopping where
// a mask keeps its bits; the first Derive of a built index computes its
// masks once. The derived graph's arrays live in a, an arena a discarded
// graph returned, or a new one when a is nil.
func (g *Graph) Derive(edited []int, a *Arena) (*Graph, *Delta, error) {
	d := g.D
	n, np := len(d.Instances), len(g.ffPos)
	if int64(n) > indexLimit || int64(len(d.Nets)) > indexLimit {
		return nil, nil, fmt.Errorf("graph: design exceeds int32 index ceiling (%d instances, %d nets, limit %d)",
			n, len(d.Nets), indexLimit)
	}
	sameFFs := len(d.FFs) == len(g.ClockChain)
	for fi, ff := range d.FFs {
		sameFFs = sameFFs && ff < np && g.ffPos[ff] == int32(fi)
	}
	if !sameFFs {
		return nil, nil, fmt.Errorf("graph: Derive across a change of the flip-flop list")
	}
	if a == nil {
		a = &Arena{}
	}
	ng := &Graph{D: d, arena: a, flags: resized(a.flags, g.flags, n, 0), ffPos: resized(a.ffPos, g.ffPos, n, -1)}
	rows := g.touched(edited)
	for _, v := range rows {
		ng.flags[v] = cellFlags(d.Instances[v])
	}
	sameTree := g.keepsClockTree(ng, rows)

	out, outEnds, err := ng.fanoutRows(rows)
	if err != nil {
		return nil, nil, err
	}
	in, inEnds, err := ng.faninRows(rows)
	if err != nil {
		return nil, nil, err
	}
	nEdges := int64(len(g.fanoutEdges)) + int64(len(out))
	for _, v := range rows {
		if int(v) < np {
			nEdges -= int64(g.fanoutOff[v+1] - g.fanoutOff[v])
		}
	}
	for v := n; v < np; v++ {
		nEdges -= int64(g.fanoutOff[v+1] - g.fanoutOff[v])
	}
	if nEdges > indexLimit {
		return nil, nil, fmt.Errorf("graph: design exceeds int32 index ceiling (%d data edges, limit %d)",
			nEdges, indexLimit)
	}
	ng.fanoutEdges, ng.fanoutOff = patchCSR(a.fanoutEdges, a.fanoutOff, g.fanoutEdges, g.fanoutOff,
		n, int(nEdges), rows, out, outEnds)
	ng.faninEdges, ng.faninOff = patchCSR(a.faninEdges, a.faninOff, g.faninEdges, g.faninOff,
		n, int(nEdges), rows, in, inEnds)
	for _, v := range rows {
		if err := ng.checkClockInput(d.Instances[v]); err != nil {
			return nil, nil, err
		}
	}
	if err := ng.topoSort(a.pos, a.topo); err != nil {
		return nil, nil, err
	}
	a.flags, a.ffPos, a.topo, a.pos = ng.flags, ng.ffPos, ng.Topo, ng.Pos
	a.fanoutEdges, a.fanoutOff, a.faninEdges, a.faninOff = ng.fanoutEdges, ng.fanoutOff, ng.faninEdges, ng.faninOff
	dl := &Delta{Rows: rows, Parent: np, ClockTree: sameTree}
	if !sameTree {
		if err := ng.buildClockChains(); err != nil {
			return nil, nil, err
		}
		return ng, dl, nil
	}
	ng.ClockChain = g.ClockChain
	if pci := g.clockIndex; pci != nil {
		pci.ensureMasks(g)
		ng.deriveClockIndex(pci, dl)
	}
	return ng, dl, nil
}

// touched returns, ascending, the instances of the edited design whose
// rows Derive rebuilds: the edited ones and those created since g was
// built, and the fan-in drivers and fan-out sinks of those and of the
// removed ones, in g and in the design as it stands.
func (g *Graph) touched(edited []int) []int32 {
	d := g.D
	n, np := len(d.Instances), len(g.ffPos)
	var rows []int32
	add := func(v int) {
		if v >= 0 && v < n {
			rows = append(rows, int32(v))
		}
	}
	expand := func(v int) {
		add(v)
		if v < np {
			for _, e := range g.Fanin(v) {
				add(int(e.From))
			}
			for _, e := range g.Fanout(v) {
				add(int(e.To))
			}
		}
		if v < n {
			in := d.Instances[v]
			for _, net := range in.Inputs {
				add(d.Nets[net].Driver)
			}
			if in.Output >= 0 {
				for _, s := range d.Nets[in.Output].Sinks {
					add(s)
				}
			}
		}
	}
	for _, v := range edited {
		if v >= 0 {
			expand(v)
		}
	}
	for v := min(n, np); v < max(n, np); v++ {
		expand(v) // created or removed
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// keepsClockTree reports whether the clock chains of g hold for ng, which
// keeps g's flip-flop list: no rebuilt row and no removed instance is a
// clock instance in either graph, and every rebuilt flip-flop still hangs
// off its chain's last buffer (or the root).
func (g *Graph) keepsClockTree(ng *Graph, rows []int32) bool {
	d := g.D
	np := len(g.ffPos)
	for v := len(d.Instances); v < np; v++ {
		if g.isClock(int32(v)) {
			return false
		}
	}
	for _, v := range rows {
		if ng.isClock(v) || (int(v) < np && g.isClock(v)) {
			return false
		}
		fi := ng.ffPos[v]
		if fi < 0 {
			continue
		}
		leaf := d.Instances[v].Clock
		if chain := g.ClockChain[fi]; len(chain) == 0 {
			if leaf != d.ClockRoot {
				return false
			}
		} else if leaf < 0 || d.Nets[leaf].Driver != int(chain[len(chain)-1]) {
			return false
		}
	}
	return true
}

// fanoutRows builds the fanout rows of rows, concatenated in order;
// ends[i] is where row i ends.
func (g *Graph) fanoutRows(rows []int32) ([]Edge, []int, error) {
	var out []Edge
	ends := make([]int, len(rows))
	for i, v := range rows {
		if err := g.arcs(g.D.Instances[v], func(e Edge) { out = append(out, e) }); err != nil {
			return nil, nil, err
		}
		ends[i] = len(out)
	}
	return out, ends, nil
}

// faninRows builds the fanin rows of rows the way fanoutRows does. A
// row's edges come from the drivers of its input nets in ascending ID
// order, each driver's in its arc order — Build's global scan order — so
// each such driver's arcs are scanned once and sorted into the rows they
// reach, stably.
func (g *Graph) faninRows(rows []int32) ([]Edge, []int, error) {
	d := g.D
	var drivers []int
	for _, v := range rows {
		for _, net := range d.Instances[v].Inputs {
			if drv := d.Nets[net].Driver; drv >= 0 {
				drivers = append(drivers, drv)
			}
		}
	}
	slices.Sort(drivers)
	drivers = slices.Compact(drivers)
	type slot struct {
		row  int
		edge Edge
	}
	var hits []slot
	for _, drv := range drivers {
		err := g.arcs(d.Instances[drv], func(e Edge) {
			if i, ok := slices.BinarySearch(rows, e.To); ok {
				hits = append(hits, slot{i, e})
			}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].row < hits[b].row })
	in := make([]Edge, len(hits))
	ends := make([]int, len(rows))
	for k, h := range hits {
		in[k] = h.edge
		ends[h.row] = k + 1
	}
	for i := 1; i < len(ends); i++ {
		ends[i] = max(ends[i], ends[i-1])
	}
	return in, ends, nil
}

// patchCSR assembles one direction's CSR arrays of an n-instance graph
// with nEdges edges, in the storage of bufEdges and bufOff where it fits:
// the rows of rows from fresh (row i ends at ends[i]), every other row
// copied from the parent's edges and offsets. Every instance beyond the
// parent's count must be among rows.
func patchCSR(bufEdges []Edge, bufOff []int32, pe []Edge, poff []int32, n, nEdges int,
	rows []int32, fresh []Edge, ends []int) ([]Edge, []int32) {
	np := len(poff) - 1
	edges := take(bufEdges, nEdges)
	off := take(bufOff, n+1)
	off[0] = 0
	w, next, start := 0, 0, 0
	copyRows := func(a, b int) { // parent rows [a, b)
		if a >= b {
			return
		}
		shift := int32(w) - poff[a]
		w += copy(edges[w:], pe[poff[a]:poff[b]])
		for u := a; u < b; u++ {
			off[u+1] = poff[u+1] + shift
		}
	}
	for i, v := range rows {
		copyRows(next, min(int(v), np))
		w += copy(edges[w:], fresh[start:ends[i]])
		start = ends[i]
		off[v+1] = int32(w)
		next = int(v) + 1
	}
	copyRows(next, min(n, np))
	return edges, off
}

// deriveClockIndex takes over pci, the clock index of g's parent (whose
// clock tree g keeps), advancing its launch-leaf reachability over dl's
// rows: a forward sweep in topological order re-derives the mask of
// every rebuilt row and of every sink of a mask that changed, then the
// leaf list of every endpoint a rebuilt row or a changed mask feeds.
func (g *Graph) deriveClockIndex(pci *ClockIndex, dl *Delta) {
	d := g.D
	ci := &ClockIndex{
		LeafOfFF: pci.LeafOfFF, Chains: pci.Chains, common: pci.common, nl: pci.nl, words: pci.words,
		LaunchLeaves: pci.LaunchLeaves, // cloned on the first change
		masks:        resized(g.arena.masks, pci.masks, len(d.Instances)*pci.words, 0),
	}
	g.arena.masks = ci.masks

	fwd := make([]uint64, (len(g.Topo)+63)/64)
	hit := make([]uint64, (len(d.FFs)+63)/64)
	for _, v := range dl.Rows {
		if p := g.Pos[v]; p >= 0 {
			bitset.Mark(fwd, int(p))
		}
	}
	buf := make([]uint64, ci.words)
	cur := 0
	for p := bitset.PopLow(fwd, &cur); p >= 0; p = bitset.PopLow(fwd, &cur) {
		v := g.Topo[p]
		if fi := g.ffPos[v]; fi >= 0 {
			bitset.Mark(hit, int(fi)) // a rebuilt row: its D-pin fanin may have moved
			continue
		}
		dl.Evals++
		g.maskAt(ci, ci.masks, v, buf)
		m := ci.mask(ci.masks, v)
		if slices.Equal(buf, m) {
			continue
		}
		copy(m, buf)
		for _, e := range g.Fanout(int(v)) {
			if fi := g.ffPos[e.To]; fi >= 0 {
				bitset.Mark(hit, int(fi))
			} else if !g.isSeq(e.To) {
				bitset.Mark(fwd, int(g.Pos[e.To]))
			}
		}
	}
	cur = 0
	for fi := bitset.PopLow(hit, &cur); fi >= 0; fi = bitset.PopLow(hit, &cur) {
		dl.Evals++
		g.endpointMask(ci, ci.masks, d.FFs[fi], buf)
		leaves := leavesOf(nil, buf)
		if !slices.Equal(leaves, ci.LaunchLeaves[fi]) {
			if dl.LaunchMoved == nil {
				ci.LaunchLeaves = slices.Clone(ci.LaunchLeaves)
			}
			ci.LaunchLeaves[fi] = leaves
			dl.LaunchMoved = append(dl.LaunchMoved, fi)
		}
	}
	g.clockIndex = ci
}

// DeriveDP returns the depth and box DPs of g, a graph Derived with delta
// dl from the graph dp and bx were computed on, equal to ComputeDepths
// and ComputeBoxes of g bit for bit and stored in g's arena. It copies dp
// and bx and re-applies the per-instance rules from dl's rows: forward in
// topological order (prefix depth, launch box), backward (suffix depth,
// combinational capture box), then over the flip-flops in D.FFs order
// (widened capture box), each sweep going on past an instance only when
// one of its values changed bits; GBA depth and distance are then
// re-derived wherever an input moved. It records the instances whose GBA
// depth or distance moved in dl.Moved and adds the sweeps' instances to
// dl.Evals.
func (g *Graph) DeriveDP(dl *Delta, dp *Depths, bx *Boxes) (ndp *Depths, nbx *Boxes) {
	d := g.D
	n, np := len(d.Instances), dl.Parent
	m := min(n, np)
	a := g.arena
	ndp = &Depths{
		MinPrefix: resized(a.minPrefix, dp.MinPrefix, n, unreachable),
		MinSuffix: resized(a.minSuffix, dp.MinSuffix, n, unreachable),
		GBA:       resized(a.gba, dp.GBA, n, 0),
	}
	nbx = &Boxes{
		Launch:      resized(a.launch, bx.Launch, n, emptyBox()),
		Capture:     resized(a.capture, bx.Capture, n, emptyBox()),
		GBADistance: resized(a.dist, bx.GBADistance, n, 0),
	}
	a.minPrefix, a.minSuffix, a.gba = ndp.MinPrefix, ndp.MinSuffix, ndp.GBA
	a.launch, a.capture, a.dist = nbx.Launch, nbx.Capture, nbx.GBADistance

	words := (len(g.Topo) + 63) / 64
	fwd, bwd, pt := make([]uint64, words), make([]uint64, words), make([]uint64, words)
	ffs := make([]uint64, (len(d.FFs)+63)/64)
	for _, v := range dl.Rows {
		p := g.Pos[v]
		if p < 0 {
			// Off the data DAG (a clock instance): what Build leaves there.
			ndp.MinPrefix[v], ndp.MinSuffix[v], ndp.GBA[v] = unreachable, unreachable, 0
			nbx.Launch[v], nbx.Capture[v], nbx.GBADistance[v] = emptyBox(), emptyBox(), 0
			continue
		}
		bitset.Mark(fwd, int(p))
		bitset.Mark(pt, int(p))
		if fi := g.ffPos[v]; fi >= 0 {
			bitset.Mark(ffs, int(fi))
		} else if !g.isSeq(v) {
			bitset.Mark(bwd, int(p))
		}
	}

	cur := 0
	for p := bitset.PopLow(fwd, &cur); p >= 0; p = bitset.PopLow(fwd, &cur) {
		v := g.Topo[p]
		dl.Evals++
		pre, launch := g.prefixAt(ndp, v), g.launchAt(nbx, v)
		if pre == ndp.MinPrefix[v] && sameBox(launch, nbx.Launch[v]) {
			continue
		}
		ndp.MinPrefix[v], nbx.Launch[v] = pre, launch
		bitset.Mark(pt, p)
		for _, e := range g.Fanout(int(v)) {
			if !g.isSeq(e.To) {
				bitset.Mark(fwd, int(g.Pos[e.To]))
			}
		}
	}
	cur = words - 1
	for p := bitset.PopHigh(bwd, &cur); p >= 0; p = bitset.PopHigh(bwd, &cur) {
		v := g.Topo[p]
		dl.Evals++
		suf, capture := g.suffixAt(ndp, v), g.captureAt(nbx, v)
		if suf == ndp.MinSuffix[v] && sameBox(capture, nbx.Capture[v]) {
			continue
		}
		ndp.MinSuffix[v], nbx.Capture[v] = suf, capture
		bitset.Mark(pt, p)
		// A flip-flop driver's launch depth and widened box read v's.
		for _, e := range g.Fanin(int(v)) {
			switch {
			case !g.isSeq(e.From):
				bitset.Mark(bwd, int(g.Pos[e.From]))
			case g.ffPos[e.From] >= 0:
				bitset.Mark(ffs, int(g.ffPos[e.From]))
			default:
				bitset.Mark(pt, int(g.Pos[e.From]))
			}
		}
	}
	cur = 0
	for fi := bitset.PopLow(ffs, &cur); fi >= 0; fi = bitset.PopLow(ffs, &cur) {
		ff := int32(d.FFs[fi])
		dl.Evals++
		bitset.Mark(pt, int(g.Pos[ff]))
		capture := g.ffCaptureAt(nbx, ff, fi)
		if sameBox(capture, nbx.Capture[ff]) {
			continue
		}
		nbx.Capture[ff] = capture
		// A flip-flop widened later reads this one's widened box.
		for _, e := range g.Fanin(int(ff)) {
			if j := g.ffPos[e.From]; int(j) > fi {
				bitset.Mark(ffs, int(j))
			}
		}
	}
	note := func(v int32) {
		if int(v) < m && (ndp.GBA[v] != dp.GBA[v] ||
			math.Float64bits(nbx.GBADistance[v]) != math.Float64bits(bx.GBADistance[v])) {
			dl.Moved = append(dl.Moved, int(v))
		}
	}
	cur = 0
	for p := bitset.PopLow(pt, &cur); p >= 0; p = bitset.PopLow(pt, &cur) {
		v := g.Topo[p]
		ndp.GBA[v] = g.gbaAt(ndp, v)
		nbx.GBADistance[v] = MaxDistance(nbx.Launch[v], nbx.Capture[v])
		note(v)
	}
	for _, v := range dl.Rows {
		if g.Pos[v] < 0 {
			note(v)
		}
	}
	slices.Sort(dl.Moved)
	return ndp, nbx
}

// sameBox reports whether two boxes are equal bit for bit.
func sameBox(a, b BBox) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Empty == b.Empty && eq(a.MinX, b.MinX) && eq(a.MinY, b.MinY) && eq(a.MaxX, b.MaxX) && eq(a.MaxY, b.MaxY)
}
