// Package netlist models a placed, gate-level synchronous design: library
// cell instances, the nets connecting them, a clock tree of clock buffers,
// and the clock constraint. It is the substrate shared by the GBA and PBA
// timing engines and mutated by the timing-closure transforms (gate
// resizing, buffer insertion).
//
// The design is deliberately register-to-register: every timing path starts
// at a flip-flop CK->Q arc and ends at a flip-flop D pin, which is the
// setting of the paper's Fig. 1. Wires carry a lumped capacitance and delay
// derived from placement distance.
package netlist

import (
	"fmt"
	"math"

	"mgba/internal/aocv"
	"mgba/internal/cells"
)

// Per-micrometre wire parasitics used by AutoWire. A design can override
// any net's parasitics explicitly afterwards.
const (
	WireCapPerUm   = 0.18 // fF/um
	WireDelayPerUm = 0.9  // ps/um (lumped)
)

// Instance is one placed cell instance. For a DFF, Inputs holds the single
// D-pin net and Clock holds the CK-pin net; combinational cells leave
// Clock == -1.
type Instance struct {
	ID   int
	Name string
	Cell *cells.Cell
	X, Y float64 // placement, um

	Inputs []int // input net IDs, in pin order
	Output int   // output net ID (-1 if none, e.g. a sink-only marker)
	Clock  int   // CK net ID for DFFs, -1 otherwise

	// Dead is never set: RemoveBuffer pops the instance it removes, so
	// every instance of a design is live. The field remains only because
	// the perfbench module still reads it.
	Dead bool
}

// IsFF reports whether the instance is a flip-flop.
func (in *Instance) IsFF() bool { return in.Cell.Kind.IsSequential() }

// Net is one signal net: a single driver instance and its fanout.
type Net struct {
	ID     int
	Driver int   // driving instance ID, or -1 for the clock source
	Sinks  []int // sink instance IDs (an instance appears once per pin it connects)

	WireCap   float64 // fF of wire capacitance seen by the driver
	WireDelay float64 // ps added from driver output to every sink
}

// Design is a complete placed netlist with its timing context.
type Design struct {
	Name        string
	Node        int // technology node, nm
	Lib         *cells.Library
	Derates     *aocv.Set
	ClockPeriod float64 // ps

	Instances []*Instance
	Nets      []*Net
	FFs       []int // instance IDs of all flip-flops, in creation order
	ClockRoot int   // net ID of the clock source net (-1 until set)

	// splits records every buffer InsertBuffer placed that is still in
	// the design, in insertion order, with what RemoveBuffer restores.
	splits []bufferSplit
}

// bufferSplit is the undo record of one InsertBuffer: the buffer and the
// parasitics of the net it split as they stood before the split.
type bufferSplit struct {
	buf                int
	wireCap, wireDelay float64
}

// New returns an empty design bound to a library and derate set.
func New(name string, node int, lib *cells.Library, derates *aocv.Set, clockPeriod float64) *Design {
	return &Design{
		Name:        name,
		Node:        node,
		Lib:         lib,
		Derates:     derates,
		ClockPeriod: clockPeriod,
		ClockRoot:   -1,
	}
}

// AddNet creates a new undriven net and returns its ID.
func (d *Design) AddNet() int {
	n := &Net{ID: len(d.Nets), Driver: -1}
	d.Nets = append(d.Nets, n)
	return n.ID
}

// AddGate places a combinational instance of cell at (x, y) reading the
// given input nets and driving output net out. It wires the connectivity on
// both sides and returns the instance.
func (d *Design) AddGate(cell *cells.Cell, x, y float64, inputs []int, out int) (*Instance, error) {
	if cell.Kind.IsSequential() {
		return nil, fmt.Errorf("netlist: AddGate with sequential cell %s; use AddFF", cell.Name)
	}
	if got, want := len(inputs), cell.Kind.Inputs(); got != want {
		return nil, fmt.Errorf("netlist: %s needs %d inputs, got %d", cell.Name, want, got)
	}
	return d.addInst(cell, x, y, inputs, out, -1)
}

// AddFF places a flip-flop reading D from dNet, clocked by clkNet, driving
// Q onto qNet.
func (d *Design) AddFF(cell *cells.Cell, x, y float64, dNet, qNet, clkNet int) (*Instance, error) {
	if !cell.Kind.IsSequential() {
		return nil, fmt.Errorf("netlist: AddFF with combinational cell %s", cell.Name)
	}
	in, err := d.addInst(cell, x, y, []int{dNet}, qNet, clkNet)
	if err != nil {
		return nil, err
	}
	d.FFs = append(d.FFs, in.ID)
	return in, nil
}

func (d *Design) addInst(cell *cells.Cell, x, y float64, inputs []int, out, clk int) (*Instance, error) {
	for _, n := range inputs {
		if n < 0 || n >= len(d.Nets) {
			return nil, fmt.Errorf("netlist: input net %d out of range", n)
		}
	}
	if out < 0 || out >= len(d.Nets) {
		return nil, fmt.Errorf("netlist: output net %d out of range", out)
	}
	if d.Nets[out].Driver != -1 {
		return nil, fmt.Errorf("netlist: net %d already driven by instance %d", out, d.Nets[out].Driver)
	}
	if clk >= len(d.Nets) {
		return nil, fmt.Errorf("netlist: clock net %d out of range", clk)
	}
	in := &Instance{
		ID:     len(d.Instances),
		Name:   fmt.Sprintf("U%d", len(d.Instances)),
		Cell:   cell,
		X:      x,
		Y:      y,
		Inputs: append([]int(nil), inputs...),
		Output: out,
		Clock:  clk,
	}
	d.Instances = append(d.Instances, in)
	d.Nets[out].Driver = in.ID
	for _, n := range inputs {
		d.Nets[n].Sinks = append(d.Nets[n].Sinks, in.ID)
	}
	if clk >= 0 {
		d.Nets[clk].Sinks = append(d.Nets[clk].Sinks, in.ID)
	}
	return in, nil
}

// SetClockRoot declares net as the clock source. The net must be undriven
// (the source is ideal) and is typically consumed by the clock-tree root
// buffer and/or FF CK pins.
func (d *Design) SetClockRoot(net int) error {
	if net < 0 || net >= len(d.Nets) {
		return fmt.Errorf("netlist: clock root net %d out of range", net)
	}
	if d.Nets[net].Driver != -1 {
		return fmt.Errorf("netlist: clock root net %d must be source-driven", net)
	}
	d.ClockRoot = net
	return nil
}

// Distance returns the Euclidean placement distance between two instances
// in micrometres.
func Distance(a, b *Instance) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Hypot(dx, dy)
}

// netSpan returns the largest driver-to-sink distance of a net, or 0 for
// degenerate nets.
func (d *Design) netSpan(n *Net) float64 {
	if n.Driver < 0 || len(n.Sinks) == 0 {
		return 0
	}
	drv := d.Instances[n.Driver]
	var span float64
	for _, s := range n.Sinks {
		if dist := Distance(drv, d.Instances[s]); dist > span {
			span = dist
		}
	}
	return span
}

// AutoWire derives every net's parasitics from placement: the wire length
// is approximated by the largest driver-to-sink distance.
func (d *Design) AutoWire() {
	for _, n := range d.Nets {
		span := d.netSpan(n)
		n.WireCap = WireCapPerUm * span
		n.WireDelay = WireDelayPerUm * span
	}
}

// LoadCap returns the total capacitance the driver of net n sees: wire cap
// plus every sink pin cap (CK pins use the clock cap).
func (d *Design) LoadCap(n *Net) float64 {
	c := n.WireCap
	for _, s := range n.Sinks {
		sink := d.Instances[s]
		if sink.Clock == n.ID && sink.IsFF() {
			c += sink.Cell.ClockCap
		} else {
			c += sink.Cell.InputCap
		}
	}
	return c
}

// Resize swaps an instance to a different variant of the same kind (the
// gate-sizing transform of the closure flow).
func (d *Design) Resize(inst *Instance, to *cells.Cell) error {
	if to.Kind != inst.Cell.Kind {
		return fmt.Errorf("netlist: resize %s across kinds (%v -> %v)", inst.Name, inst.Cell.Kind, to.Kind)
	}
	inst.Cell = to
	return nil
}

// InsertBuffer splits net at a buffer: the buffer becomes a sink of net and
// drives a fresh net that takes over all of net's previous sinks. The
// buffer is placed at the fanout centroid. It returns the new buffer
// instance, which is the design's last instance and drives its last net.
// Wire parasitics of both nets are recomputed from placement; the split
// net's previous ones are kept for RemoveBuffer.
//
// This is the buffer-insertion transform of the closure flow; it reduces
// the load (and therefore delay and output slew) of the original driver.
func (d *Design) InsertBuffer(net int, buf *cells.Cell, name string) (*Instance, error) {
	if buf.Kind != cells.Buf && buf.Kind != cells.ClkBuf {
		return nil, fmt.Errorf("netlist: InsertBuffer with non-buffer cell %s", buf.Name)
	}
	if net < 0 || net >= len(d.Nets) {
		return nil, fmt.Errorf("netlist: net %d out of range", net)
	}
	n := d.Nets[net]
	if len(n.Sinks) == 0 {
		return nil, fmt.Errorf("netlist: net %d has no sinks to buffer", net)
	}
	// Place midway between the driver and the fanout centroid, splitting
	// the wire (and its delay) roughly in half.
	var cx, cy float64
	for _, s := range n.Sinks {
		cx += d.Instances[s].X
		cy += d.Instances[s].Y
	}
	cx /= float64(len(n.Sinks))
	cy /= float64(len(n.Sinks))
	if n.Driver >= 0 {
		drv := d.Instances[n.Driver]
		cx = (cx + drv.X) / 2
		cy = (cy + drv.Y) / 2
	}

	newNet := d.AddNet()
	nn := d.Nets[newNet]
	// Move the sinks: rewrite each sink pin reference from net to newNet.
	nn.Sinks = n.Sinks
	n.Sinks = nil
	for _, s := range nn.Sinks {
		sink := d.Instances[s]
		for i, inNet := range sink.Inputs {
			if inNet == net {
				sink.Inputs[i] = newNet
			}
		}
		if sink.Clock == net {
			sink.Clock = newNet
		}
	}
	in, err := d.addInst(buf, cx, cy, []int{net}, newNet, -1)
	if err != nil {
		return nil, err
	}
	if name != "" {
		in.Name = name
	}
	d.splits = append(d.splits, bufferSplit{in.ID, n.WireCap, n.WireDelay})
	// Refresh parasitics of the split nets.
	n.WireCap = WireCapPerUm * d.netSpan(n)
	n.WireDelay = WireDelayPerUm * d.netSpan(n)
	nn.WireCap = WireCapPerUm * d.netSpan(nn)
	nn.WireDelay = WireDelayPerUm * d.netSpan(nn)
	return in, nil
}

// RemoveBuffer unwinds the last InsertBuffer still standing: the
// buffer's output-net sinks are rewired back onto its input net, that
// net's parasitics are restored bit for bit, and the buffer and its
// output net, the design's last instance and last net, are popped. The
// design is then exactly as the insertion found it. Any other instance,
// a buffer inserted before the last one included, is refused with an
// error and the design left unchanged.
func (d *Design) RemoveBuffer(b *Instance) error {
	last := len(d.splits) - 1
	if last < 0 || d.splits[last].buf != b.ID || b.ID != len(d.Instances)-1 ||
		d.Instances[b.ID] != b || b.Output != len(d.Nets)-1 {
		return fmt.Errorf("netlist: %s is not the last buffer inserted", b.Name)
	}
	split := d.splits[last]
	src := b.Inputs[0]
	out := b.Output
	nn := d.Nets[out]
	n := d.Nets[src]
	// Detach the buffer from its input net.
	for k, s := range n.Sinks {
		if s == b.ID {
			n.Sinks = append(n.Sinks[:k], n.Sinks[k+1:]...)
			break
		}
	}
	// Rewire the downstream sinks back.
	for _, s := range nn.Sinks {
		sink := d.Instances[s]
		for i, inNet := range sink.Inputs {
			if inNet == out {
				sink.Inputs[i] = src
			}
		}
		if sink.Clock == out {
			sink.Clock = src
		}
		n.Sinks = append(n.Sinks, s)
	}
	n.WireCap, n.WireDelay = split.wireCap, split.wireDelay
	d.Instances[b.ID], d.Nets[out] = nil, nil
	d.Instances, d.Nets, d.splits = d.Instances[:b.ID], d.Nets[:out], d.splits[:last]
	return nil
}

// Clone returns a deep copy of the design's mutable state — instances,
// nets, the FF list, the buffer insertions RemoveBuffer can unwind —
// sharing the immutable library, derate tables and cell definitions (a
// resize swaps a cell pointer, never mutates one). Edits to either
// design are invisible to the other; the cross-stage view pair uses this
// to keep a perturbed "routed" twin alongside the pre-route design.
func (d *Design) Clone() *Design {
	nd := &Design{
		Name:        d.Name,
		Node:        d.Node,
		Lib:         d.Lib,
		Derates:     d.Derates,
		ClockPeriod: d.ClockPeriod,
		ClockRoot:   d.ClockRoot,
	}
	nd.Instances = make([]*Instance, len(d.Instances))
	for i, in := range d.Instances {
		ci := *in
		ci.Inputs = append([]int(nil), in.Inputs...)
		nd.Instances[i] = &ci
	}
	nd.Nets = make([]*Net, len(d.Nets))
	for i, n := range d.Nets {
		cn := *n
		cn.Sinks = append([]int(nil), n.Sinks...)
		nd.Nets[i] = &cn
	}
	nd.FFs = append([]int(nil), d.FFs...)
	nd.splits = append([]bufferSplit(nil), d.splits...)
	return nd
}

// Area returns the total placed cell area of the design.
func (d *Design) Area() float64 {
	var a float64
	for _, in := range d.Instances {
		a += in.Cell.Area
	}
	return a
}

// Leakage returns the total leakage power of the design.
func (d *Design) Leakage() float64 {
	var l float64
	for _, in := range d.Instances {
		l += in.Cell.Leakage
	}
	return l
}

// BufferCount returns the number of data buffers (cells of kind Buf);
// clock-tree buffers are excluded, matching the paper's "buffer inserted"
// QoR column which counts optimization-inserted buffers.
func (d *Design) BufferCount() int {
	n := 0
	for _, in := range d.Instances {
		if in.Cell.Kind == cells.Buf {
			n++
		}
	}
	return n
}

// Validate checks structural sanity: pin arity, driver presence, clock
// reachability of every FF, and acyclicity of the combinational graph.
func (d *Design) Validate() error {
	if d.ClockRoot < 0 {
		return fmt.Errorf("netlist: no clock root set")
	}
	if d.ClockPeriod <= 0 {
		return fmt.Errorf("netlist: non-positive clock period %v", d.ClockPeriod)
	}
	if len(d.FFs) == 0 {
		return fmt.Errorf("netlist: no flip-flops")
	}
	for _, in := range d.Instances {
		if got, want := len(in.Inputs), in.Cell.Kind.Inputs(); got != want {
			return fmt.Errorf("netlist: %s has %d inputs, cell %s wants %d", in.Name, got, in.Cell.Name, want)
		}
		if in.IsFF() && in.Clock < 0 {
			return fmt.Errorf("netlist: FF %s has no clock", in.Name)
		}
		for _, nid := range in.Inputs {
			if d.Nets[nid].Driver < 0 && nid != d.ClockRoot {
				return fmt.Errorf("netlist: %s input net %d undriven", in.Name, nid)
			}
		}
	}
	// Every FF clock pin must trace back to the clock root through buffers.
	for _, ff := range d.FFs {
		if err := d.traceClock(d.Instances[ff]); err != nil {
			return err
		}
	}
	return d.checkAcyclic()
}

func (d *Design) traceClock(ff *Instance) error {
	net := ff.Clock
	for steps := 0; steps < len(d.Instances)+1; steps++ {
		if net == d.ClockRoot {
			return nil
		}
		drv := d.Nets[net].Driver
		if drv < 0 {
			return fmt.Errorf("netlist: FF %s clock traces to undriven net %d (not the root)", ff.Name, net)
		}
		in := d.Instances[drv]
		if in.Cell.Kind != cells.ClkBuf {
			return fmt.Errorf("netlist: FF %s clock driven through non-clock cell %s", ff.Name, in.Cell.Name)
		}
		net = in.Inputs[0]
	}
	return fmt.Errorf("netlist: FF %s clock tree has a cycle", ff.Name)
}

// checkAcyclic runs a DFS over data edges (gate output -> sink gate),
// treating FFs as path breaks, and reports the first combinational loop.
func (d *Design) checkAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int8, len(d.Instances))
	// Iterative DFS to survive deep designs.
	var stack []int
	for start := range d.Instances {
		if color[start] != white || d.Instances[start].IsFF() {
			continue
		}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if color[v] == white {
				color[v] = grey
				out := d.Instances[v].Output
				if out >= 0 {
					for _, s := range d.Nets[out].Sinks {
						if d.Instances[s].IsFF() {
							continue // path legally terminates at a register
						}
						switch color[s] {
						case grey:
							return fmt.Errorf("netlist: combinational loop through %s", d.Instances[s].Name)
						case white:
							stack = append(stack, s)
						}
					}
				}
			} else {
				color[v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// Stats summarizes a design for logs and reports.
type Stats struct {
	Instances, Nets, FFs, Buffers int
	Area, Leakage                 float64
}

// Stats returns the current design statistics.
func (d *Design) Stats() Stats {
	return Stats{
		Instances: len(d.Instances),
		Nets:      len(d.Nets),
		FFs:       len(d.FFs),
		Buffers:   d.BufferCount(),
		Area:      d.Area(),
		Leakage:   d.Leakage(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("insts=%d nets=%d ffs=%d bufs=%d area=%.1f leak=%.1f",
		s.Instances, s.Nets, s.FFs, s.Buffers, s.Area, s.Leakage)
}
