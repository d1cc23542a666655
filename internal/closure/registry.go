package closure

import (
	"fmt"
	"math"

	"mgba/internal/transform"
)

// BufferDrive is the drive strength of inserted buffers (the historical
// hard-coded choice).
const BufferDrive = 4

// retimeBudget caps accepted retimes: each slide rebuilds the timing
// session, so an unbounded structural budget could dominate the run the
// way MaxBuffers bounds buffer insertions.
const retimeBudget = 40

// retimeMaxLag caps how far any register may drift (in slides) from its
// original position.
const retimeMaxLag = 2

// buildRegistry materializes Options.Transforms into a transform
// registry. The default (nil) list is the historical pair — upsize then
// buffer; recovery always runs the downsize transform. Unknown or
// duplicated transform names are configuration errors.
func buildRegistry(opt Options) (*transform.Registry, error) {
	names := opt.Transforms
	if names == nil {
		names = []string{"upsize", "buffer"}
	}
	reg := &transform.Registry{}
	for _, name := range names {
		if reg.ByKind(name) != nil {
			return nil, fmt.Errorf("closure: duplicate transform %q", name)
		}
		var tr transform.Transform
		switch name {
		case "upsize":
			tr = transform.NewUpsize()
		case "buffer":
			tr = transform.NewBuffer(opt.WireDelayForBuf, BufferDrive)
		case "retime":
			tr = transform.NewRetime(retimeMaxLag)
		default:
			return nil, fmt.Errorf("closure: unknown transform %q", name)
		}
		reg.Repair = append(reg.Repair, tr)
	}
	reg.Recovery = []transform.Transform{transform.NewDownsize()}
	return reg, nil
}

// budget caps the accepted moves of one kind: MaxBuffers for buffer
// insertion, retimeBudget for retiming, no cap for sizing (MaxTransforms
// still bounds the total).
func (f *flow) budget(kind string) int {
	switch kind {
	case "buffer":
		return f.opt.MaxBuffers
	case "retime":
		return retimeBudget
	}
	return math.MaxInt
}
