package netlist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mgba/internal/cells"
)

// TestRemoveBufferRoundTrip: an insertion and its removal leave the design
// exactly as they found it — the instance and net counts, the split net's
// sinks and pin wiring, and its parasitics bit for bit, even when those do
// not match the placement (as on a design loaded from a checkpoint).
func TestRemoveBufferRoundTrip(t *testing.T) {
	d, ff0, inv, _ := tiny(t)
	q0 := ff0.Output
	d.Nets[q0].WireCap, d.Nets[q0].WireDelay = 3.25, 7.5
	nInst, nNets := len(d.Instances), len(d.Nets)
	origSinks := slices.Clone(d.Nets[q0].Sinks)
	origArea := d.Area()

	buf, _ := d.Lib.Pick(cells.Buf, 2)
	b, err := d.InsertBuffer(q0, buf, "tmp")
	if err != nil {
		t.Fatal(err)
	}
	if d.Nets[q0].WireCap == 3.25 {
		t.Fatal("insertion kept the split net's parasitics; the round trip proves nothing")
	}
	if err := d.RemoveBuffer(b); err != nil {
		t.Fatal(err)
	}
	if len(d.Instances) != nInst || len(d.Nets) != nNets {
		t.Fatalf("design has %d instances and %d nets after the round trip, want %d and %d",
			len(d.Instances), len(d.Nets), nInst, nNets)
	}
	if !slices.Equal(d.Nets[q0].Sinks, origSinks) {
		t.Fatalf("sinks not restored: %v vs %v", d.Nets[q0].Sinks, origSinks)
	}
	if inv.Inputs[0] != q0 {
		t.Fatalf("sink pin not rewired back: %d", inv.Inputs[0])
	}
	n := d.Nets[q0]
	if math.Float64bits(n.WireCap) != math.Float64bits(3.25) || math.Float64bits(n.WireDelay) != math.Float64bits(7.5) {
		t.Fatalf("parasitics not restored: %v fF / %v ps, want 3.25 fF / 7.5 ps", n.WireCap, n.WireDelay)
	}
	if d.Area() != origArea {
		t.Fatalf("area not restored: %v vs %v", d.Area(), origArea)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after removal: %v", err)
	}
}

func TestRemoveBufferErrors(t *testing.T) {
	d, _, inv, _ := tiny(t)
	if err := d.RemoveBuffer(inv); err == nil {
		t.Fatal("removed a non-buffer")
	}
	buf, _ := d.Lib.Pick(cells.Buf, 1)
	b, err := d.InsertBuffer(inv.Output, buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveBuffer(b); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveBuffer(b); err == nil {
		t.Fatal("removed a buffer twice")
	}
	// A buffer that took the popped buffer's ID is a different instance.
	b2, err := d.InsertBuffer(inv.Output, buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if b2.ID != b.ID {
		t.Fatalf("reinsertion got ID %d, want the popped %d", b2.ID, b.ID)
	}
	if err := d.RemoveBuffer(b); err == nil {
		t.Fatal("removed a popped buffer through its successor's slot")
	}
}

// TestRemoveBufferRefusesEarlierInsertion: only the last buffer inserted
// can be removed; asking for an earlier one fails and changes nothing.
func TestRemoveBufferRefusesEarlierInsertion(t *testing.T) {
	d, ff0, inv, _ := tiny(t)
	buf, _ := d.Lib.Pick(cells.Buf, 2)
	first, err := d.InsertBuffer(ff0.Output, buf, "first")
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.InsertBuffer(inv.Output, buf, "second")
	if err != nil {
		t.Fatal(err)
	}
	before := d.Clone()
	if err := d.RemoveBuffer(first); err == nil {
		t.Fatal("removed a buffer inserted before the last one")
	}
	if diff := DiffDesign(d, before); diff != "" {
		t.Fatalf("a refused removal changed the design: %s", diff)
	}
	// The design still unwinds in reverse insertion order.
	if err := d.RemoveBuffer(second); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveBuffer(first); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// DiffDesign names the first field in which two designs differ, floats
// compared bit for bit, or returns "" when they agree in every design,
// instance and net field and in the buffer insertions RemoveBuffer can
// unwind.
func DiffDesign(a, b *Design) string {
	bits := math.Float64bits
	if a.Name != b.Name || a.Node != b.Node || a.Lib != b.Lib || a.Derates != b.Derates ||
		bits(a.ClockPeriod) != bits(b.ClockPeriod) || a.ClockRoot != b.ClockRoot || !slices.Equal(a.FFs, b.FFs) {
		return "design header or FF list"
	}
	if len(a.Instances) != len(b.Instances) || len(a.Nets) != len(b.Nets) {
		return fmt.Sprintf("%d instances and %d nets vs %d and %d", len(a.Instances), len(a.Nets), len(b.Instances), len(b.Nets))
	}
	for i, x := range a.Instances {
		y := b.Instances[i]
		if x.ID != y.ID || x.Name != y.Name || x.Cell != y.Cell || bits(x.X) != bits(y.X) || bits(x.Y) != bits(y.Y) ||
			!slices.Equal(x.Inputs, y.Inputs) || x.Output != y.Output || x.Clock != y.Clock {
			return fmt.Sprintf("instance %d: %+v vs %+v", i, *x, *y)
		}
	}
	for i, x := range a.Nets {
		y := b.Nets[i]
		if x.ID != y.ID || x.Driver != y.Driver || !slices.Equal(x.Sinks, y.Sinks) ||
			bits(x.WireCap) != bits(y.WireCap) || bits(x.WireDelay) != bits(y.WireDelay) {
			return fmt.Sprintf("net %d: %+v vs %+v", i, *x, *y)
		}
	}
	if !slices.Equal(a.splits, b.splits) {
		return fmt.Sprintf("buffer insertions %+v vs %+v", a.splits, b.splits)
	}
	return ""
}

func TestRemovedBufferExcludedFromQoR(t *testing.T) {
	d, ff0, _, _ := tiny(t)
	buf, _ := d.Lib.Pick(cells.Buf, 4)
	area0, leak0 := d.Area(), d.Leakage()
	b, err := d.InsertBuffer(ff0.Output, buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.BufferCount() != 1 {
		t.Fatal("buffer not counted")
	}
	if err := d.RemoveBuffer(b); err != nil {
		t.Fatal(err)
	}
	if d.BufferCount() != 0 {
		t.Fatal("removed buffer still counted")
	}
	if d.Area() != area0 || d.Leakage() != leak0 {
		t.Fatal("removed buffer still contributes area/leakage")
	}
}
