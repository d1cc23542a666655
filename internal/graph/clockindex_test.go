package graph_test

import (
	"slices"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/gen"
	"mgba/internal/graph"
)

func coneGraph(t *testing.T) *graph.Graph {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 400, 60
	cfg.Name = "clockindex"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClockIndexLeafGrouping(t *testing.T) {
	g := coneGraph(t)
	ci := g.ClockIndex()
	if len(ci.LeafOfFF) != len(g.D.FFs) {
		t.Fatalf("LeafOfFF size %d, want %d", len(ci.LeafOfFF), len(g.D.FFs))
	}
	// FFs sharing a clock net must share a leaf id and hence a chain.
	byNet := map[int]int32{}
	for fi, ffID := range g.D.FFs {
		net := g.D.Instances[ffID].Clock
		if prev, ok := byNet[net]; ok {
			if ci.LeafOfFF[fi] != prev {
				t.Fatalf("FFs on net %d got leaves %d and %d", net, prev, ci.LeafOfFF[fi])
			}
		} else {
			byNet[net] = ci.LeafOfFF[fi]
		}
	}
	if len(ci.Chains) != len(byNet) {
		t.Fatalf("chains %d, distinct clock nets %d", len(ci.Chains), len(byNet))
	}
}

func TestClockIndexCommonSymmetricAndBounded(t *testing.T) {
	g := coneGraph(t)
	ci := g.ClockIndex()
	n := len(ci.Chains)
	for a := 0; a < n; a++ {
		if ci.CommonLen(a, a) != len(ci.Chains[a]) {
			t.Fatalf("self common %d != chain length %d", ci.CommonLen(a, a), len(ci.Chains[a]))
		}
		for b := 0; b < n; b++ {
			if ci.CommonLen(a, b) != ci.CommonLen(b, a) {
				t.Fatal("common prefix not symmetric")
			}
			if ci.CommonLen(a, b) > len(ci.Chains[a]) || ci.CommonLen(a, b) > len(ci.Chains[b]) {
				t.Fatal("common prefix exceeds a chain length")
			}
		}
	}
}

func TestClockIndexMatchesCommonClockDepth(t *testing.T) {
	g := coneGraph(t)
	ci := g.ClockIndex()
	for fi := range g.D.FFs {
		for fj := range g.D.FFs {
			if fi > 8 || fj > 8 {
				break // spot check a few pairs
			}
			want := g.CommonClockDepth(fi, fj)
			got := ci.CommonLen(int(ci.LeafOfFF[fi]), int(ci.LeafOfFF[fj]))
			if got != want {
				t.Fatalf("pair (%d,%d): index common %d, chain walk %d", fi, fj, got, want)
			}
		}
	}
}

func TestClockIndexLaunchLeavesSound(t *testing.T) {
	g := coneGraph(t)
	ci := g.ClockIndex()
	// Every endpoint with data fanin must have at least one launch leaf,
	// and every reported leaf id must be valid.
	for fi, ffID := range g.D.FFs {
		leaves := ci.LaunchLeaves[fi]
		if len(g.Fanin(ffID)) > 0 && len(leaves) == 0 {
			t.Fatalf("endpoint %d has fanin but no launch leaves", fi)
		}
		for _, leaf := range leaves {
			if leaf < 0 || int(leaf) >= len(ci.Chains) {
				t.Fatalf("endpoint %d: leaf id %d out of range", fi, leaf)
			}
		}
	}
}

func TestClockIndexCached(t *testing.T) {
	g := coneGraph(t)
	if g.ClockIndex() != g.ClockIndex() {
		t.Fatal("ClockIndex not memoized")
	}
}

// TestShareClockTree pins the clock-tree check behind derived graphs: a
// buffer on a data net keeps the tree, so the derived graph shares the
// chains and takes over the parent's clock index, which then equals one
// built from scratch; a buffer on a clock leaf net lengthens that leaf's
// chain, so the derived graph rebuilds its chains and leaves its index
// to be built.
func TestShareClockTree(t *testing.T) {
	g := coneGraph(t)
	d := g.D
	g.ClockIndex() // the parent has built its index
	buf := d.Lib.Variants(cells.Buf)[0]
	var net int
	for _, v := range g.Topo {
		if in := d.Instances[v]; !in.IsFF() && len(d.Nets[in.Output].Sinks) > 0 {
			net = in.Output
			break
		}
	}
	b, err := d.InsertBuffer(net, buf, "databuf")
	if err != nil {
		t.Fatal(err)
	}
	g2, dl, err := g.Derive([]int{b.ID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dl.ClockTree {
		t.Fatal("a buffer on a data net changed the clock tree")
	}
	fresh, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	got, want := g2.ClockIndex(), fresh.ClockIndex()
	if !slices.Equal(got.LeafOfFF, want.LeafOfFF) || got.NumLeaves() != want.NumLeaves() ||
		!slices.EqualFunc(got.Chains, want.Chains, slices.Equal) ||
		!slices.EqualFunc(got.LaunchLeaves, want.LaunchLeaves, slices.Equal) {
		t.Fatal("shared clock index differs from a fresh one")
	}
	for a := 0; a < want.NumLeaves(); a++ {
		for b := 0; b < want.NumLeaves(); b++ {
			if got.CommonLen(a, b) != want.CommonLen(a, b) {
				t.Fatalf("common prefix of leaves (%d,%d) = %d, want %d", a, b, got.CommonLen(a, b), want.CommonLen(a, b))
			}
		}
	}

	clkBuf := d.Lib.Variants(cells.ClkBuf)[0]
	cb, err := d.InsertBuffer(d.Instances[d.FFs[0]].Clock, clkBuf, "clkbuf")
	if err != nil {
		t.Fatal(err)
	}
	g3, dl, err := g2.Derive([]int{cb.ID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dl.ClockTree {
		t.Fatal("a buffer on a clock leaf net kept the clock tree")
	}
	if fresh, err = graph.Build(d); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(g3.ClockChain, fresh.ClockChain, slices.Equal) {
		t.Fatal("the derived graph's rebuilt clock chains differ from Build's")
	}
}
