package transform

import (
	"encoding/json"
	"fmt"

	"mgba/internal/netlist"
)

// Retime operation discriminators (Candidate.Op).
const (
	// OpBackward slides the gate driving the endpoint's D pin across the
	// capture register, into its fanout: the gate's delay leaves the
	// violating stage for the (slack-rich) next one.
	OpBackward = iota
	// OpForward slides the first path gate across the launch register,
	// into its fanin: the gate's delay leaves the violating stage for the
	// previous one.
	OpForward
)

// Retime is the structural repair transform: lag-based movement of a
// register across an adjacent single-input combinational gate (netlist
// RetimeBackward/RetimeForward). Connectivity changes but the instance
// set does not; like a buffer insertion, an accepted slide rebinds the
// calibration session and recalibrates incrementally.
//
// The transform tracks a per-register lag (net backward slides) and caps
// its magnitude, bounding how far any register can drift from its placed
// position and preventing back-and-forth oscillation across rounds.
type Retime struct {
	// MaxLag caps |lag| per register.
	MaxLag int
	lags   map[int]int // FF instance ID -> net backward slides
}

// NewRetime returns the retiming transform.
func NewRetime(maxLag int) *Retime {
	return &Retime{MaxLag: maxLag, lags: make(map[int]int)}
}

// Kind implements Transform.
func (*Retime) Kind() string { return "retime" }

// ConnectivityChanging implements Transform: a slide rewires three nets.
func (*Retime) ConnectivityChanging() bool { return true }

// Propose implements Transform: a backward slide at the capture register
// first (it acts on the gate contributing the path's final delay), then a
// forward slide at the launch register. Full legality is the netlist's
// call at Apply time; Propose screens the cheap structural and lag-cap
// conditions so hopeless candidates never reach a trial.
func (t *Retime) Propose(a *Analysis, fi int, path []int) []Candidate {
	if fi < 0 || len(path) == 0 {
		return nil
	}
	var out []Candidate
	d := a.D
	capFF := d.Instances[d.FFs[fi]]
	if g := t.slideGate(d, capFF, OpBackward); g >= 0 && t.lagOK(capFF.ID, +1) {
		out = append(out, Candidate{Target: capFF.ID, Aux: g, Op: OpBackward})
	}
	if launch := d.Instances[path[0]]; launch.IsFF() {
		if g := t.slideGate(d, launch, OpForward); g >= 0 && t.lagOK(launch.ID, -1) {
			out = append(out, Candidate{Target: launch.ID, Aux: g, Op: OpForward})
		}
	}
	return out
}

// slideGate returns the gate a slide of the given direction at ff would
// move, or -1 when the adjacency the slide needs is not there.
func (t *Retime) slideGate(d *netlist.Design, ff *netlist.Instance, op int) int {
	var gid int
	if op == OpBackward {
		if len(ff.Inputs) == 0 {
			return -1
		}
		gid = d.Nets[ff.Inputs[0]].Driver
	} else {
		if ff.Output < 0 {
			return -1
		}
		sinks := d.Nets[ff.Output].Sinks
		if len(sinks) != 1 {
			return -1
		}
		gid = sinks[0]
	}
	if gid < 0 {
		return -1
	}
	g := d.Instances[gid]
	if g.Cell.Kind.IsSequential() || g.Cell.Kind.Inputs() != 1 {
		return -1
	}
	return gid
}

func (t *Retime) lagOK(ff, delta int) bool {
	if t.MaxLag <= 0 {
		return true
	}
	next := t.lags[ff] + delta
	return next >= -t.MaxLag && next <= t.MaxLag
}

// Apply implements Transform. The netlist rejecting the slide (multi-sink
// adjacency, clock entanglement, degenerate loop) makes the candidate
// inapplicable, not a fault.
func (t *Retime) Apply(a *Analysis, c Candidate) (Move, error) {
	ff := a.D.Instances[c.Target]
	g := a.D.Instances[c.Aux]
	slide, delta := a.D.RetimeBackward, +1
	if c.Op == OpForward {
		slide, delta = a.D.RetimeForward, -1
	}
	sl, err := slide(ff, g)
	if err != nil {
		return nil, nil
	}
	t.lags[ff.ID] += delta
	return &retimeMove{t: t, ff: ff, delta: delta, slide: sl, dirty: t.dirtyBase(a, ff, g)}, nil
}

// dirtyBase is the structural core of a slide's dirty set: the register,
// the gate, and the driver feeding the register's new D net. The flow
// widens it with the instances whose graph-derived depth or bounding-box
// state moved (which a slide can shift outside the local neighborhood).
func (t *Retime) dirtyBase(a *Analysis, ff, g *netlist.Instance) []int {
	dirty := []int{ff.ID, g.ID}
	seen := map[int]bool{ff.ID: true, g.ID: true}
	for _, in := range []*netlist.Instance{ff, g} {
		for _, nid := range in.Inputs {
			if drv := a.D.Nets[nid].Driver; drv >= 0 && !seen[drv] && !a.G.IsClock(drv) {
				seen[drv] = true
				dirty = append(dirty, drv)
			}
		}
	}
	return dirty
}

// Accept implements Transform: the target endpoint must improve without
// degrading total negative slack — a slide exports delay to an adjacent
// stage, and the TNS guard rejects exports the receiving stage cannot
// afford.
func (*Retime) Accept(before, after Snapshot) bool {
	return after.Slack > before.Slack+Eps && after.TNS >= before.TNS-Eps
}

// retimeState is the Stateful blob checkpointed per run: without the lag
// map a resumed run would forget how far registers have drifted and the
// cap would stop binding.
type retimeState struct {
	Lags map[int]int `json:"lags"`
}

// StateBlob implements Stateful.
func (t *Retime) StateBlob() (json.RawMessage, error) {
	return json.Marshal(retimeState{Lags: t.lags})
}

// Restore implements Stateful.
func (t *Retime) Restore(blob json.RawMessage) error {
	var st retimeState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("transform: bad retime state: %w", err)
	}
	t.lags = st.Lags
	if t.lags == nil {
		t.lags = make(map[int]int)
	}
	return nil
}

type retimeMove struct {
	t     *Retime
	ff    *netlist.Instance
	delta int // the slide's lag step: +1 backward, -1 forward
	slide netlist.Slide
	dirty []int
}

func (m *retimeMove) Kind() string { return "retime" }

// Revert implements Move: the slide is undone exactly, the touched nets'
// parasitics included, and the register's lag steps back.
func (m *retimeMove) Revert(a *Analysis) error {
	if err := a.D.UndoSlide(m.slide); err != nil {
		return err
	}
	m.t.lags[m.ff.ID] -= m.delta
	return nil
}

// DirtySet implements Move: the moved register, the gate it crossed and
// the drivers of their input nets; the calibrator absorbs the slide
// incrementally after a session rebind.
func (m *retimeMove) DirtySet() []int { return m.dirty }
