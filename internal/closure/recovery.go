package closure

import (
	"math"
)

// recoveryMargin is the endpoint slack (ps) downsizing keeps in reserve:
// only gates with at least this much slack are offered to recovery.
const recoveryMargin = 5

// recoverArea downsizes gates whose paths have slack to spare — the phase
// where a less pessimistic timer directly buys area and leakage. Gates
// are walked in topological order and offered to the registry's recovery
// transforms; the slack gate lives here (transforms only see instances
// worth shrinking). The walk position survives in checkpoints (the
// topological order is a pure function of the design, and recovery never
// edits connectivity), so a resumed run continues exactly where the
// interrupted one stopped.
func (f *flow) recoverArea() error {
	for ; f.recoveryPos < len(f.g.Topo); f.recoveryPos++ {
		if f.stopped() {
			return nil
		}
		if f.res.Transforms >= f.opt.MaxTransforms {
			break
		}
		v := int(f.g.Topo[f.recoveryPos])
		inst := f.d.Instances[v]
		if inst.IsFF() || f.g.IsClock(v) {
			continue
		}
		slack := f.sel().InstanceSlack(v)
		if math.IsInf(slack, 1) || slack < recoveryMargin {
			continue
		}
		if err := f.recoverInstance(v); err != nil {
			return err
		}
	}
	return nil
}

// recoverInstance offers one slack-rich gate to the recovery transforms
// in registry order; the first accepted move wins.
func (f *flow) recoverInstance(v int) error {
	for _, tr := range f.reg.Recovery {
		kind := tr.Kind()
		if f.res.Kinds[kind] >= f.budget(kind) {
			continue
		}
		for _, c := range tr.Propose(f.analysis(), -1, []int{v}) {
			ok, err := f.tryCandidate(tr, -1, c)
			if err != nil {
				return err
			}
			if ok {
				f.noteKind(kind)
				f.noteTransform()
				return f.maybeRecalibrate()
			}
		}
	}
	return nil
}
