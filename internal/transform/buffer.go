package transform

import (
	"mgba/internal/cells"
	"mgba/internal/netlist"
)

// Buffer is the second-choice repair transform: insert a midpoint buffer
// on the path net with the largest wire delay, unloading its driver.
// Under the span-charged wire-delay model splitting a net never shortens
// the wire itself, so the insertion only wins by relieving a weak driver —
// which is exactly when upsizing that driver was vetoed by the WNS guard.
type Buffer struct {
	// MinWireDelay is the wire-delay floor (ps) below which a net is not
	// worth buffering.
	MinWireDelay float64
	// Drive selects the inserted buffer's strength.
	Drive int
}

// NewBuffer returns the buffer-insertion transform.
func NewBuffer(minWireDelay float64, drive int) *Buffer {
	return &Buffer{MinWireDelay: minWireDelay, Drive: drive}
}

// Kind implements Transform.
func (*Buffer) Kind() string { return "buffer" }

// ConnectivityChanging implements Transform: an insertion adds an instance
// and a net, invalidating the graph and the session.
func (*Buffer) ConnectivityChanging() bool { return true }

// Propose implements Transform: the single path net with the largest wire
// delay at or above the floor (later path position wins ties).
func (t *Buffer) Propose(a *Analysis, fi int, path []int) []Candidate {
	bestNet, bestWD := -1, t.MinWireDelay
	for _, v := range path {
		out := a.D.Instances[v].Output
		if out < 0 {
			continue
		}
		if wd := a.D.Nets[out].WireDelay; wd >= bestWD {
			bestNet, bestWD = out, wd
		}
	}
	if bestNet < 0 {
		return nil
	}
	return []Candidate{{Target: bestNet}}
}

// Apply implements Transform. A net the netlist refuses to buffer is not
// an error, just no move; a library without a buffer cell is fatal.
func (t *Buffer) Apply(a *Analysis, c Candidate) (Move, error) {
	buf, err := a.D.Lib.Pick(cells.Buf, t.Drive)
	if err != nil {
		return nil, err
	}
	b, err := a.D.InsertBuffer(c.Target, buf, "")
	if err != nil {
		return nil, nil
	}
	dirty := append([]int(nil), a.D.Nets[b.Output].Sinks...)
	if drv := a.D.Nets[c.Target].Driver; drv >= 0 {
		dirty = append(dirty, drv)
	}
	return &bufferMove{buf: b, dirty: append(dirty, b.ID)}, nil
}

// Accept implements Transform: the target endpoint must improve without
// degrading total negative slack (an inserted buffer loads nothing it
// should not, so a TNS regression means the insertion backfired).
func (*Buffer) Accept(before, after Snapshot) bool {
	return after.Slack > before.Slack+Eps && after.TNS >= before.TNS-Eps
}

type bufferMove struct {
	buf   *netlist.Instance
	dirty []int
}

func (m *bufferMove) Kind() string { return "buffer" }

func (m *bufferMove) Revert(a *Analysis) error {
	return a.D.RemoveBuffer(m.buf)
}

// DirtySet implements Move: the split net's sinks (their input net
// changed), its driver (its load changed) and the new buffer. Instances
// whose graph-derived depth or bounding box the insertion moved further
// away are the caller's to add, from the derived session.
func (m *bufferMove) DirtySet() []int { return m.dirty }
