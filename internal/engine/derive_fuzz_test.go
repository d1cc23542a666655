package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
)

// FuzzDeriveMatchesBuild chains structural edits of a small generated
// design through Session.Derive, each derived from the session before
// it, and requires after every edit that the derived graph, session and
// a view Rebased onto it equal a fresh graph.Build, NewSession and Run
// bit for bit. Each pick of two bytes names an edit and its target: a
// buffer insertion on a data net, a backward or a forward retime slide at
// a register (skipped where illegal), or the revert of the latest edit
// still standing (RemoveBuffer or UndoSlide, last in, first out). A flag
// in the first byte makes an edit a rejected trial, as the closure flow
// runs one: its session is checked, then discarded (the next Derive
// fills its storage) and the edit reverted.
func FuzzDeriveMatchesBuild(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 1, 0, 2, 1, 0, 9, 3, 0, 1, 4, 3, 0, 3, 0})
	f.Add(uint64(7), []byte{1, 2, 1, 5, 2, 3, 0, 11, 3, 0, 3, 0, 3, 0, 2, 6})
	f.Add(uint64(42), []byte{0, 17, 0, 17, 0, 18, 1, 1, 3, 0, 2, 2, 3, 0, 3, 0, 3, 0})
	f.Add(uint64(3), []byte{2, 0, 2, 1, 2, 2, 2, 3, 1, 0, 1, 1, 1, 2, 1, 3})
	f.Add(uint64(5), []byte{4, 3, 0, 3, 5, 1, 6, 2, 0, 7, 4, 9, 1, 0, 3, 0, 4, 12, 2, 2})

	f.Fuzz(func(t *testing.T, seed uint64, picks []byte) {
		gc := gen.Toy()
		gc.Name, gc.Seed, gc.Gates, gc.FFs = "derive", seed, 60, 8
		d, err := gen.Generate(gc)
		if err != nil {
			t.Skip(err)
		}
		cfg := engine.DefaultConfig()
		g, err := graph.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.NewSession(g)
		r := s.Run(cfg)
		buf, err := d.Lib.Pick(cells.Buf, 2)
		if err != nil {
			t.Fatal(err)
		}
		type standing struct {
			edited []int
			revert func() error
		}
		var stack []standing
		var derived [4]int // per edit kind
		rejected := 0
		for k := 0; k+2 <= len(picks) && k < 2*32; k += 2 {
			op, arg, reject := picks[k]%4, int(picks[k+1]), picks[k]&4 != 0
			var edited []int
			var label string
			switch op {
			case 0:
				var nets []int
				for _, v := range s.G.Topo {
					if in := d.Instances[v]; in.Output >= 0 && len(d.Nets[in.Output].Sinks) > 0 {
						nets = append(nets, in.Output)
					}
				}
				net := nets[arg%len(nets)]
				b, err := d.InsertBuffer(net, buf, "")
				if err != nil {
					continue
				}
				edited = append(slices.Clone(d.Nets[b.Output].Sinks), d.Nets[net].Driver, b.ID)
				stack = append(stack, standing{edited, func() error { return d.RemoveBuffer(b) }})
				label = fmt.Sprintf("buffer on net %d", net)
			case 1, 2:
				// The registers next to a single-input gate on the slide's
				// side; the netlist has the last word on legality.
				type pair struct{ ff, gate *netlist.Instance }
				var pairs []pair
				for _, id := range d.FFs {
					ff := d.Instances[id]
					gid := -1
					if op == 1 {
						gid = d.Nets[ff.Inputs[0]].Driver
					} else if sinks := d.Nets[ff.Output].Sinks; len(sinks) == 1 {
						gid = sinks[0]
					}
					if gid >= 0 && !d.Instances[gid].IsFF() && d.Instances[gid].Cell.Kind.Inputs() == 1 {
						pairs = append(pairs, pair{ff, d.Instances[gid]})
					}
				}
				if len(pairs) == 0 {
					continue
				}
				ff, gate := pairs[arg%len(pairs)].ff, pairs[arg%len(pairs)].gate
				slide := d.RetimeBackward
				if op == 2 {
					slide = d.RetimeForward
				}
				sl, err := slide(ff, gate)
				if err != nil {
					continue
				}
				// The retime transform's dirty set: the register, the gate
				// and the data drivers of their input nets.
				edited = []int{ff.ID, gate.ID}
				for _, in := range []*netlist.Instance{ff, gate} {
					if drv := d.Nets[in.Inputs[0]].Driver; drv >= 0 && !s.G.IsClock(drv) && !slices.Contains(edited, drv) {
						edited = append(edited, drv)
					}
				}
				stack = append(stack, standing{edited, func() error { return d.UndoSlide(sl) }})
				label = fmt.Sprintf("slide %s across %s (backward %v)", ff.Name, gate.Name, op == 1)
			case 3:
				if len(stack) == 0 {
					continue
				}
				last := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if err := last.revert(); err != nil {
					t.Fatalf("pick %d: revert: %v", k/2, err)
				}
				edited = last.edited
				label = "revert"
			}
			label = fmt.Sprintf("pick %d: %s", k/2, label)
			s2, err := s.Derive(edited)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			r2 := r.Rebase(s2, cfg, edited)
			gf, err := graph.Build(d)
			if err != nil {
				t.Fatalf("%s: Build: %v", label, err)
			}
			fresh := engine.NewSession(gf)
			want := fresh.Run(cfg)
			requireSameGraph(t, gf, s2.G, label)
			requireSameSession(t, fresh, s2, label)
			requireIdentical(t, want, r2, label)
			want.Release()
			derived[op]++
			if reject && op != 3 {
				r2.Release()
				s2.Discard()
				last := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if err := last.revert(); err != nil {
					t.Fatalf("%s: revert: %v", label, err)
				}
				rejected++
				continue
			}
			r.Release()
			s, r = s2, r2
		}
		t.Logf("derived: %d buffers, %d backward, %d forward slides, %d reverts; %d trials rejected",
			derived[0], derived[1], derived[2], derived[3], rejected)
		r.Release()
	})
}
