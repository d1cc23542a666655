package engine_test

import (
	"fmt"
	"math"
	"testing"

	"mgba/internal/aocv"
	"mgba/internal/cells"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
)

// refCredits is the per-pair credit loop the session once ran, kept as
// the reference: for every launch/capture leaf pair, accumulate the
// late-minus-early spread over the shared clock prefix with one late and
// one early AOCV lookup per shared buffer.
func refCredits(g *graph.Graph, derates *aocv.Set) [][]float64 {
	d := g.D
	ci := g.ClockIndex()
	nl := len(ci.Chains)
	credits := make([][]float64, nl)
	for leafL := 0; leafL < nl; leafL++ {
		credits[leafL] = make([]float64, nl)
		chain := ci.Chains[leafL]
		var root *netlist.Instance
		if len(chain) > 0 {
			root = d.Instances[chain[0]]
		}
		lateDepth := float64(len(chain))
		delays := make([]float64, len(chain))
		dists := make([]float64, len(chain))
		var inSlew float64
		for k, id := range chain {
			in := d.Instances[id]
			load := d.LoadCap(d.Nets[in.Output])
			delays[k] = in.Cell.Delay(load, inSlew) + d.Nets[in.Output].WireDelay
			inSlew = in.Cell.OutputSlew(load, inSlew)
			dists[k] = netlist.Distance(root, in)
		}
		for leafC := 0; leafC < nl; leafC++ {
			common := ci.CommonLen(leafL, leafC)
			earlyDepth := float64(len(ci.Chains[leafC]))
			var credit float64
			for k := 0; k < common; k++ {
				lateF := derates.Late.Lookup(lateDepth, dists[k])
				earlyF := derates.Early.Lookup(earlyDepth, dists[k])
				credit += delays[k] * (lateF - earlyF)
			}
			credits[leafL][leafC] = credit
		}
	}
	return credits
}

// mixedDepthDesign generates a suite design and buffers three of its leaf
// clock nets, so the clock chains come in two lengths: every generated
// design's chains are of one length, which would leave the credit
// build's per-length indexing untested.
func mixedDepthDesign(t *testing.T, cfg gen.Config) *graph.Graph {
	t.Helper()
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := d.Lib.Variants(cells.ClkBuf)[0]
	done := map[int]bool{}
	for i := 0; i < len(d.FFs) && len(done) < 3; i += len(d.FFs)/3 + 1 {
		net := d.Instances[d.FFs[i]].Clock
		if done[net] {
			continue
		}
		done[net] = true
		if _, err := d.InsertBuffer(net, buf, fmt.Sprintf("clkdeep%d", len(done))); err != nil {
			t.Fatal(err)
		}
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCreditsMatchPairLoopOnMixedDepths checks the session's leaf-pair
// CRPR credits and conservative per-endpoint credits bit for bit against
// the per-pair reference loop, on designs with clock chains of two
// lengths, under the design's derates and a scaled corner set.
func TestCreditsMatchPairLoopOnMixedDepths(t *testing.T) {
	for _, idx := range []int{0, 2, 5} {
		g := mixedDepthDesign(t, gen.Suite()[idx])
		d := g.D
		ci := g.ClockIndex()
		depths := map[int]int{}
		for _, chain := range ci.Chains {
			depths[len(chain)]++
		}
		if len(depths) < 2 {
			t.Fatalf("%s: clock chain lengths %v, want at least two", d.Name, depths)
		}
		// One representative flip-flop per leaf.
		rep := make([]int, ci.NumLeaves())
		for i := range rep {
			rep[i] = -1
		}
		for fi, leaf := range ci.LeafOfFF {
			if rep[leaf] < 0 {
				rep[leaf] = fi
			}
		}
		slow, err := d.Derates.Scale(1.15)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.NewSession(g)
		for _, derates := range []*aocv.Set{nil, slow} {
			cfg := engine.DefaultConfig()
			cfg.Derates = derates
			if derates == nil {
				derates = d.Derates
			}
			want := refCredits(g, derates)
			r := s.Run(cfg)
			for a := range want {
				for b := range want[a] {
					if got := r.CRPRCredit(rep[a], rep[b]); !eq(got, want[a][b]) {
						t.Fatalf("%s: leaf pair (%d,%d) credit %v, want %v", d.Name, a, b, got, want[a][b])
					}
				}
			}
			for fi := range d.FFs {
				wantG := 0.0
				if leaves := ci.LaunchLeaves[fi]; len(leaves) > 0 {
					wantG = math.Inf(1)
					for _, leaf := range leaves {
						if c := want[leaf][ci.LeafOfFF[fi]]; c < wantG {
							wantG = c
						}
					}
				}
				if !eq(r.GBACRPR[fi], wantG) {
					t.Fatalf("%s: endpoint %d GBA credit %v, want %v", d.Name, fi, r.GBACRPR[fi], wantG)
				}
			}
			r.Release()
		}
		t.Logf("%s: %d leaves, chain lengths %v", d.Name, ci.NumLeaves(), depths)
	}
}
