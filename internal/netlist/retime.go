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
// RetimeBackward and RetimeForward with the same (ff, g) pair are exact
// inverses, including sink ordering, so a rejected trial restores the
// design bit-for-bit.

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

// refreshWire recomputes a net's parasitics from current placement.
func (d *Design) refreshWire(n *Net) {
	span := d.netSpan(n)
	n.WireCap = WireCapPerUm * span
	n.WireDelay = WireDelayPerUm * span
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
// recomputed from the unchanged positions.
func (d *Design) RetimeBackward(ff, g *Instance) error {
	if !ff.IsFF() {
		return fmt.Errorf("netlist: retime at non-FF %s", ff.Name)
	}
	if err := retimeGateOK(g); err != nil {
		return err
	}
	n := d.Nets[g.Output]
	if len(n.Sinks) != 1 || n.Sinks[0] != ff.ID {
		return fmt.Errorf("netlist: %s does not exclusively drive %s", g.Name, ff.Name)
	}
	if len(ff.Inputs) == 0 || ff.Inputs[0] != n.ID {
		return fmt.Errorf("netlist: %s D pin not fed by %s", ff.Name, g.Name)
	}
	if ff.Output < 0 {
		return fmt.Errorf("netlist: retime at outputless FF %s", ff.Name)
	}
	q := d.Nets[ff.Output]
	s := d.Nets[g.Inputs[0]]
	if s.ID == d.ClockRoot || s.Driver < 0 {
		return fmt.Errorf("netlist: retime would leave %s undriven", ff.Name)
	}
	if s.ID == q.ID {
		return fmt.Errorf("netlist: retime across self-loop at %s", ff.Name)
	}
	for _, sk := range q.Sinks {
		if d.Instances[sk].Clock == q.ID {
			return fmt.Errorf("netlist: net %d clocks instance %d", q.ID, sk)
		}
	}

	if err := replaceSink(s, g.ID, ff.ID); err != nil {
		return err
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
	d.refreshWire(s)
	d.refreshWire(q)
	d.refreshWire(n)
	return nil
}

// RetimeForward slides gate g from the fanout of flip-flop ff to its
// fanin: before the move g must be the exclusive consumer of ff's Q pin;
// after it, g recomputes its function ahead of the register and ff latches
// the result.
//
//	w -> ff -> p -> g -> m -> (sinks)      becomes
//	w -> g -> m -> ff -> p -> (sinks)
//
// The exact inverse of RetimeBackward with the same pair.
func (d *Design) RetimeForward(ff, g *Instance) error {
	if !ff.IsFF() {
		return fmt.Errorf("netlist: retime at non-FF %s", ff.Name)
	}
	if err := retimeGateOK(g); err != nil {
		return err
	}
	if ff.Output < 0 {
		return fmt.Errorf("netlist: retime at outputless FF %s", ff.Name)
	}
	p := d.Nets[ff.Output]
	if len(p.Sinks) != 1 || p.Sinks[0] != g.ID {
		return fmt.Errorf("netlist: %s is not the exclusive consumer of %s", g.Name, ff.Name)
	}
	if g.Inputs[0] != p.ID {
		return fmt.Errorf("netlist: %s input not fed by %s", g.Name, ff.Name)
	}
	m := d.Nets[g.Output]
	if len(ff.Inputs) == 0 {
		return fmt.Errorf("netlist: retime at inputless FF %s", ff.Name)
	}
	w := d.Nets[ff.Inputs[0]]
	if w.ID == d.ClockRoot || w.Driver < 0 {
		return fmt.Errorf("netlist: retime would leave %s undriven", g.Name)
	}
	if w.ID == m.ID {
		return fmt.Errorf("netlist: retime across self-loop at %s", ff.Name)
	}
	for _, sk := range m.Sinks {
		if d.Instances[sk].Clock == m.ID {
			return fmt.Errorf("netlist: net %d clocks instance %d", m.ID, sk)
		}
	}

	if err := replaceSink(w, ff.ID, g.ID); err != nil {
		return err
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
	d.refreshWire(w)
	d.refreshWire(p)
	d.refreshWire(m)
	return nil
}
