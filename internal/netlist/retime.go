package netlist

import (
	"fmt"

	"mgba/internal/cells"
)

// Retiming slides a register across an adjacent single-input combinational
// gate (Inv or Buf), the classic lag-based register move: for such gates
// g(delay(x)) == delay(g(x)), so sliding preserves the sequential function
// while moving the gate's delay from one pipeline stage to the other. Both
// directions keep the instance and net counts — and, crucially, every
// instance ID and the D.FFs order — unchanged: only pin wiring and the
// parasitics of the three touched nets move, which is what lets the
// incremental calibrator rebind across the move instead of going cold.
//
// RetimeBackward and RetimeForward with the same (ff, g) pair are inverse
// rewirings, sink ordering included, but each recomputes the touched
// nets' parasitics from placement: the inverse slide restores them only
// on a design whose parasitics were derived from placement (AutoWire).
// UndoSlide reverts a slide exactly, parasitics bit for bit, from the
// Slide record the slide returned.

// Slide is the undo record of one register slide: the pair, its
// direction, and the three touched nets' parasitics as they stood before
// the slide.
type Slide struct {
	ff, g    *Instance
	backward bool
	wires    [3]savedWire
}

// savedWire is one net's parasitics as a slide found them.
type savedWire struct {
	net                int
	wireCap, wireDelay float64
}

// retimeGateOK screens the gate being slid across: a single-input
// combinational cell that is not part of the clock tree.
func retimeGateOK(g *Instance) error {
	switch {
	case g.Cell.Kind.IsSequential():
		return fmt.Errorf("netlist: retime across sequential cell %s", g.Name)
	case g.Cell.Kind == cells.ClkBuf:
		return fmt.Errorf("netlist: retime across clock buffer %s", g.Name)
	case g.Cell.Kind.Inputs() != 1:
		return fmt.Errorf("netlist: retime across %d-input gate %s", g.Cell.Kind.Inputs(), g.Name)
	case g.Output < 0:
		return fmt.Errorf("netlist: retime across outputless gate %s", g.Name)
	}
	return nil
}

// replaceSink swaps instance from for to in a net's sink list, preserving
// the position so downstream edge ordering stays deterministic.
func replaceSink(n *Net, from, to int) error {
	for i, s := range n.Sinks {
		if s == from {
			n.Sinks[i] = to
			return nil
		}
	}
	return fmt.Errorf("netlist: instance %d is not a sink of net %d", from, n.ID)
}

// slid finishes a slide of g across ff: it recomputes the three touched
// nets' parasitics from current placement and returns the slide's undo
// record, which keeps the previous ones.
func (d *Design) slid(ff, g *Instance, backward bool, nets [3]*Net) Slide {
	sl := Slide{ff: ff, g: g, backward: backward}
	for i, n := range nets {
		sl.wires[i] = savedWire{n.ID, n.WireCap, n.WireDelay}
	}
	for _, n := range nets {
		span := d.netSpan(n)
		n.WireCap = WireCapPerUm * span
		n.WireDelay = WireDelayPerUm * span
	}
	return sl
}

// UndoSlide reverts a slide: the inverse slide of the same pair, then the
// touched nets' recorded parasitics, so the design is bit for bit as the
// slide found it. It must come before any other edit of those nets.
func (d *Design) UndoSlide(sl Slide) error {
	var err error
	if sl.backward {
		_, err = d.RetimeForward(sl.ff, sl.g)
	} else {
		_, err = d.RetimeBackward(sl.ff, sl.g)
	}
	if err != nil {
		return err
	}
	for _, w := range sl.wires {
		n := d.Nets[w.net]
		n.WireCap, n.WireDelay = w.wireCap, w.wireDelay
	}
	return nil
}

// RetimeBackward slides gate g from the fanin of flip-flop ff to its
// fanout: before the move g must exclusively drive ff's D pin; after it,
// ff latches g's former input and g recomputes ff's former Q for all its
// previous consumers.
//
//	s -> g -> n -> ff -> q -> (sinks)      becomes
//	s -> ff -> q -> g -> n -> (sinks)
//
// Placements do not move; the parasitics of the three touched nets are
// recomputed from the unchanged positions. The returned Slide lets
// UndoSlide revert the move exactly.
func (d *Design) RetimeBackward(ff, g *Instance) (Slide, error) {
	if !ff.IsFF() {
		return Slide{}, fmt.Errorf("netlist: retime at non-FF %s", ff.Name)
	}
	if err := retimeGateOK(g); err != nil {
		return Slide{}, err
	}
	n := d.Nets[g.Output]
	if len(n.Sinks) != 1 || n.Sinks[0] != ff.ID {
		return Slide{}, fmt.Errorf("netlist: %s does not exclusively drive %s", g.Name, ff.Name)
	}
	if len(ff.Inputs) == 0 || ff.Inputs[0] != n.ID {
		return Slide{}, fmt.Errorf("netlist: %s D pin not fed by %s", ff.Name, g.Name)
	}
	if ff.Output < 0 {
		return Slide{}, fmt.Errorf("netlist: retime at outputless FF %s", ff.Name)
	}
	q := d.Nets[ff.Output]
	s := d.Nets[g.Inputs[0]]
	if s.ID == d.ClockRoot || s.Driver < 0 {
		return Slide{}, fmt.Errorf("netlist: retime would leave %s undriven", ff.Name)
	}
	if s.ID == q.ID {
		return Slide{}, fmt.Errorf("netlist: retime across self-loop at %s", ff.Name)
	}
	for _, sk := range q.Sinks {
		if d.Instances[sk].Clock == q.ID {
			return Slide{}, fmt.Errorf("netlist: net %d clocks instance %d", q.ID, sk)
		}
	}

	if err := replaceSink(s, g.ID, ff.ID); err != nil {
		return Slide{}, err
	}
	ff.Inputs[0] = s.ID
	moved := q.Sinks
	q.Sinks = []int{g.ID}
	g.Inputs[0] = q.ID
	n.Sinks = moved
	for _, sk := range moved {
		sink := d.Instances[sk]
		for i, inNet := range sink.Inputs {
			if inNet == q.ID {
				sink.Inputs[i] = n.ID
			}
		}
	}
	return d.slid(ff, g, true, [3]*Net{s, q, n}), nil
}

// RetimeForward slides gate g from the fanout of flip-flop ff to its
// fanin: before the move g must be the exclusive consumer of ff's Q pin;
// after it, g recomputes its function ahead of the register and ff latches
// the result.
//
//	w -> ff -> p -> g -> m -> (sinks)      becomes
//	w -> g -> m -> ff -> p -> (sinks)
//
// The inverse rewiring of RetimeBackward with the same pair.
func (d *Design) RetimeForward(ff, g *Instance) (Slide, error) {
	if !ff.IsFF() {
		return Slide{}, fmt.Errorf("netlist: retime at non-FF %s", ff.Name)
	}
	if err := retimeGateOK(g); err != nil {
		return Slide{}, err
	}
	if ff.Output < 0 {
		return Slide{}, fmt.Errorf("netlist: retime at outputless FF %s", ff.Name)
	}
	p := d.Nets[ff.Output]
	if len(p.Sinks) != 1 || p.Sinks[0] != g.ID {
		return Slide{}, fmt.Errorf("netlist: %s is not the exclusive consumer of %s", g.Name, ff.Name)
	}
	if g.Inputs[0] != p.ID {
		return Slide{}, fmt.Errorf("netlist: %s input not fed by %s", g.Name, ff.Name)
	}
	m := d.Nets[g.Output]
	if len(ff.Inputs) == 0 {
		return Slide{}, fmt.Errorf("netlist: retime at inputless FF %s", ff.Name)
	}
	w := d.Nets[ff.Inputs[0]]
	if w.ID == d.ClockRoot || w.Driver < 0 {
		return Slide{}, fmt.Errorf("netlist: retime would leave %s undriven", g.Name)
	}
	if w.ID == m.ID {
		return Slide{}, fmt.Errorf("netlist: retime across self-loop at %s", ff.Name)
	}
	for _, sk := range m.Sinks {
		if d.Instances[sk].Clock == m.ID {
			return Slide{}, fmt.Errorf("netlist: net %d clocks instance %d", m.ID, sk)
		}
	}

	if err := replaceSink(w, ff.ID, g.ID); err != nil {
		return Slide{}, err
	}
	g.Inputs[0] = w.ID
	moved := m.Sinks
	m.Sinks = []int{ff.ID}
	ff.Inputs[0] = m.ID
	p.Sinks = moved
	for _, sk := range moved {
		sink := d.Instances[sk]
		for i, inNet := range sink.Inputs {
			if inNet == m.ID {
				sink.Inputs[i] = p.ID
			}
		}
	}
	return d.slid(ff, g, false, [3]*Net{w, p, m}), nil
}
