package netlist_test

import (
	"fmt"
	"testing"

	"mgba/internal/fixtures"
	"mgba/internal/graph"
	"mgba/internal/netlist"
)

// fingerprint captures every connectivity and parasitic field a retime can
// touch, so an exact string compare proves a slide pair round-trips.
func fingerprint(d *netlist.Design) string {
	s := fmt.Sprintf("period=%v root=%d\n", d.ClockPeriod, d.ClockRoot)
	for _, in := range d.Instances {
		s += fmt.Sprintf("i%d %s in=%v out=%d clk=%d xy=%v,%v\n",
			in.ID, in.Cell.Name, in.Inputs, in.Output, in.Clock, in.X, in.Y)
	}
	for _, n := range d.Nets {
		s += fmt.Sprintf("n%d drv=%d sinks=%v cap=%v wd=%v\n",
			n.ID, n.Driver, n.Sinks, n.WireCap, n.WireDelay)
	}
	s += fmt.Sprintf("ffs=%v\n", d.FFs)
	return s
}

// laneParts locates, in the single-lane retime pipeline, the capture FF of
// the deep stage (B), the inverter driving its D pin, and the stage-2
// inverter consuming its Q pin.
func laneParts(t *testing.T, d *netlist.Design) (b, drv, cons *netlist.Instance) {
	t.Helper()
	for _, id := range d.FFs {
		ff := d.Instances[id]
		qSinks := d.Nets[ff.Output].Sinks
		if len(qSinks) != 1 {
			continue
		}
		sink := d.Instances[qSinks[0]]
		if sink.IsFF() {
			continue // A: its Q feeds the first chain inverter... also matches; disambiguate below
		}
		dDrv := d.Nets[ff.Inputs[0]].Driver
		if dDrv < 0 || d.Instances[dDrv].IsFF() {
			continue
		}
		return ff, d.Instances[dDrv], sink
	}
	t.Fatal("no retimable capture FF found in pipeline")
	return nil, nil, nil
}

func TestRetimeBackwardForwardRoundTrip(t *testing.T) {
	d, err := fixtures.RetimePipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	b, drv, _ := laneParts(t, d)
	before := fingerprint(d)

	if _, err := d.RetimeBackward(b, drv); err != nil {
		t.Fatalf("backward slide: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after backward slide: %v", err)
	}
	if _, err := graph.Build(d); err != nil {
		t.Fatalf("graph rejects retimed design: %v", err)
	}
	mid := fingerprint(d)
	if mid == before {
		t.Fatal("backward slide changed nothing")
	}
	// After the slide the gate consumes B's Q, so the same pair slides back.
	if _, err := d.RetimeForward(b, drv); err != nil {
		t.Fatalf("forward slide: %v", err)
	}
	if after := fingerprint(d); after != before {
		t.Errorf("round trip not bit-identical:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestRetimeForwardBackwardRoundTrip(t *testing.T) {
	d, err := fixtures.RetimePipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, cons := laneParts(t, d)
	before := fingerprint(d)

	if _, err := d.RetimeForward(b, cons); err != nil {
		t.Fatalf("forward slide: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after forward slide: %v", err)
	}
	if _, err := d.RetimeBackward(b, cons); err != nil {
		t.Fatalf("backward slide: %v", err)
	}
	if after := fingerprint(d); after != before {
		t.Errorf("round trip not bit-identical:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestRetimeLegality(t *testing.T) {
	d, err := fixtures.RetimePipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	b, drv, cons := laneParts(t, d)

	// The stage-2 inverter does not drive B's D pin.
	if _, err := d.RetimeBackward(b, cons); err == nil {
		t.Error("backward slide across a non-fanin gate accepted")
	}
	// The D-pin driver is not the consumer of B's Q pin.
	if _, err := d.RetimeForward(b, drv); err == nil {
		t.Error("forward slide across a non-fanout gate accepted")
	}
	// A combinational gate is not a register.
	if _, err := d.RetimeBackward(drv, cons); err == nil {
		t.Error("retime at a non-FF accepted")
	}
	// Registers cannot slide across other registers.
	var a *netlist.Instance
	for _, id := range d.FFs {
		if ff := d.Instances[id]; ff != b {
			a = ff
			break
		}
	}
	if _, err := d.RetimeBackward(b, a); err == nil {
		t.Error("retime across a sequential cell accepted")
	}
	// A chain inverter with its own fanout gate does not exclusively feed B.
	first := d.Instances[d.Nets[d.Instances[d.FFs[0]].Output].Sinks[0]]
	if !first.IsFF() {
		if _, err := d.RetimeBackward(b, first); err == nil {
			t.Error("backward slide across a non-adjacent gate accepted")
		}
	}
	// Legality failures must leave the design untouched.
	if err := d.Validate(); err != nil {
		t.Fatalf("rejected slides corrupted the design: %v", err)
	}
}
