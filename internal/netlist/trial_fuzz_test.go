package netlist_test

import (
	"testing"

	"mgba/internal/cells"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/netlist"
)

// FuzzBufferTrialRevert drives the closure flow's buffer-trial protocol
// on a small generated design. Each pick of three bytes names a net, a
// buffer drive and two flags: keep the insertion, and first give the net
// parasitics that do not match its placement (as a design loaded from a
// checkpoint may carry). A pick not kept is removed at once. After every
// step the design must equal, field by field and floats bit for bit, a
// clone that received only the parasitics and the kept insertions, and it
// must validate.
func FuzzBufferTrialRevert(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 0, 1, 7, 1, 2, 9, 2, 3, 0, 3})
	f.Add(uint64(7), []byte{5, 1, 3, 5, 2, 0, 200, 0, 1, 5, 1, 2, 5, 1, 0})
	f.Add(uint64(42), []byte{17, 4, 2, 17, 4, 3, 17, 4, 2, 18, 0, 1, 19, 1, 0, 20, 2, 2})
	f.Add(uint64(3), []byte{})

	f.Fuzz(func(t *testing.T, seed uint64, picks []byte) {
		cfg := gen.Toy()
		cfg.Name, cfg.Seed, cfg.Gates, cfg.FFs = "trial", seed, 40, 6
		d, err := gen.Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		ref := d.Clone()
		for k := 0; k+3 <= len(picks) && k < 3*24; k += 3 {
			net, drive, flags := int(picks[k])%len(d.Nets), int(picks[k+1]), picks[k+2]
			keep, skew := flags&1 != 0, flags&2 != 0
			if skew {
				for _, x := range []*netlist.Design{d, ref} {
					n := x.Nets[net]
					n.WireCap, n.WireDelay = 0.5+float64(drive)/7, 1.25*float64(k+1)
				}
			}
			kind := cells.Buf
			if drv := d.Nets[net].Driver; net == d.ClockRoot || drv >= 0 && d.Instances[drv].Cell.Kind == cells.ClkBuf {
				kind = cells.ClkBuf
			}
			variants := d.Lib.Variants(kind)
			buf := variants[drive%len(variants)]
			b, err := d.InsertBuffer(net, buf, "")
			if err != nil {
				if diff := netlist.DiffDesign(d, ref); diff != "" {
					t.Fatalf("pick %d: a refused insertion changed the design: %s", k/3, diff)
				}
				continue
			}
			if keep {
				if _, err := ref.InsertBuffer(net, buf, ""); err != nil {
					t.Fatalf("pick %d: the clone refused an insertion the design took: %v", k/3, err)
				}
			} else if err := d.RemoveBuffer(b); err != nil {
				t.Fatalf("pick %d: %v", k/3, err)
			}
			if diff := netlist.DiffDesign(d, ref); diff != "" {
				t.Fatalf("pick %d: design differs from the clone with the kept insertions: %s", k/3, diff)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("pick %d: %v", k/3, err)
			}
		}
	})
}

// FuzzRetimeTrialRevert drives the closure flow's retime-trial protocol
// on the retime pipeline fixture. Each pick of two bytes names a
// register and three flags: slide backward (across the gate driving its
// D pin) or forward (across the sole consumer of its Q pin), keep the
// slide, and first give the nets around the register and the gate
// parasitics that do not match their placement (as a design loaded from
// a checkpoint may carry). A slide not kept is undone at once. After
// every step the design must equal, floats bit for bit, a clone that
// received only the parasitics and the kept slides, and it must validate.
func FuzzRetimeTrialRevert(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 1, 1, 1, 4, 1, 5, 2, 2, 2, 6})
	f.Add(uint8(1), []byte{4, 7, 4, 6, 4, 4, 4, 5, 3, 1, 3, 0, 0, 3})
	f.Add(uint8(3), []byte{1, 12, 4, 13, 7, 14, 10, 15, 1, 1, 4, 0, 7, 2, 10, 3})
	f.Add(uint8(2), []byte{})

	f.Fuzz(func(t *testing.T, lanes uint8, picks []byte) {
		d, err := fixtures.RetimePipeline(1 + int(lanes)%4)
		if err != nil {
			t.Fatal(err)
		}
		ref := d.Clone()
		for k := 0; k+2 <= len(picks) && k < 2*32; k += 2 {
			id, flags := d.FFs[int(picks[k])%len(d.FFs)], picks[k+1]
			backward, keep, skew := flags&1 != 0, flags&2 != 0, flags&4 != 0
			ff := d.Instances[id]
			gate := -1
			if backward {
				gate = d.Nets[ff.Inputs[0]].Driver
			} else if sinks := d.Nets[ff.Output].Sinks; len(sinks) == 1 {
				gate = sinks[0]
			}
			if gate < 0 {
				continue
			}
			if skew {
				g := d.Instances[gate]
				for _, x := range []*netlist.Design{d, ref} {
					for i, net := range []int{ff.Inputs[0], ff.Output, g.Inputs[0], g.Output} {
						n := x.Nets[net]
						n.WireCap, n.WireDelay = 0.5+float64(flags>>3)/7, 1.25*float64(k+i+1)
					}
				}
			}
			slide, refSlide := d.RetimeForward, ref.RetimeForward
			if backward {
				slide, refSlide = d.RetimeBackward, ref.RetimeBackward
			}
			sl, err := slide(ff, d.Instances[gate])
			if err != nil {
				if diff := netlist.DiffDesign(d, ref); diff != "" {
					t.Fatalf("pick %d: a refused slide changed the design: %s", k/2, diff)
				}
				continue
			}
			if keep {
				if _, err := refSlide(ref.Instances[id], ref.Instances[gate]); err != nil {
					t.Fatalf("pick %d: the clone refused a slide the design took: %v", k/2, err)
				}
			} else if err := d.UndoSlide(sl); err != nil {
				t.Fatalf("pick %d: %v", k/2, err)
			}
			if diff := netlist.DiffDesign(d, ref); diff != "" {
				t.Fatalf("pick %d: design differs from the clone with the kept slides: %s", k/2, diff)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("pick %d: %v", k/2, err)
			}
		}
	})
}
