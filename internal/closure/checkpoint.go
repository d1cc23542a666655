package closure

import (
	"encoding/json"
	"fmt"
	"sort"

	"mgba/internal/netio"
	"mgba/internal/obs"
	"mgba/internal/transform"
)

// ckptState is the flow-progress blob embedded in a netio checkpoint. The
// design and weights live in the checkpoint envelope; this records where
// to pick the flow back up and the counters accumulated so far.
type ckptState struct {
	Timer           int  `json:"timer"`
	Phase           int  `json:"phase"`
	Round           int  `json:"round"`
	RecoveryPos     int  `json:"recovery_pos"`
	SinceCalib      int  `json:"since_calib"`
	FinalCalibrated bool `json:"final_calibrated,omitempty"`

	Transforms   int            `json:"transforms"`
	Kinds        map[string]int `json:"kinds,omitempty"`
	Calibrations int            `json:"calibrations"`
	Validations  int            `json:"validations"`
	Degraded     int            `json:"degraded_calibrations"`
	Checkpoints  int            `json:"checkpoints"`
	Faults       []string       `json:"faults,omitempty"`

	// CornerWeights holds each extra corner's fitted weights in a
	// multi-corner run, in corner order; the envelope carries the
	// selection corner's.
	CornerWeights [][]float64 `json:"corner_weights,omitempty"`
	// Skipped lists, ascending, the endpoints the repair pass in progress
	// gave up on.
	Skipped []int `json:"skipped,omitempty"`
}

// fitState is the calibration state a checkpoint records: every view's
// weights in corner order (the selection corner's go in the envelope, the
// rest in CornerWeights), the transforms since that calibration, and
// whether the final phase's calibration has run.
type fitState struct {
	weights         [][]float64
	sinceCalib      int
	finalCalibrated bool
}

// split parts the weights as a checkpoint stores them: the selection
// corner's for the envelope, the extra corners' for CornerWeights.
func (fs fitState) split() (sel []float64, extra [][]float64) {
	if len(fs.weights) > 0 {
		sel, extra = fs.weights[0], fs.weights[1:]
	}
	return sel, extra
}

// liveFit is the flow's current calibration state.
func (f *flow) liveFit() fitState {
	return fitState{f.weights(), f.transforms, f.finalCalibrated}
}

// checkpointFit is the calibration state a checkpoint records: the state
// an owed calibration started from, else the live one.
func (f *flow) checkpointFit() fitState {
	if f.owed != nil {
		return *f.owed
	}
	return f.liveFit()
}

// restore loads checkpointed flow state and counters into a fresh flow:
// a checkpointed fit becomes one untimed view per corner, which
// buildTiming times. The historical trio on Result is derived from Kinds,
// which noteKind keeps in lockstep with it.
func (f *flow) restore(st *ckptState, weights []float64) {
	if weights != nil {
		for i, w := range append([][]float64{weights}, st.CornerWeights...) {
			v := &cornerView{weights: w}
			if i < len(f.opt.Core.Corners) {
				v.name = f.opt.Core.Corners[i].Name
			}
			f.views = append(f.views, v)
		}
	}
	if len(st.Skipped) > 0 {
		f.skip = make(map[int]bool, len(st.Skipped))
		for _, fi := range st.Skipped {
			f.skip[fi] = true
		}
	}
	f.transforms = st.SinceCalib
	f.recoveryPos = st.RecoveryPos
	f.finalCalibrated = st.FinalCalibrated
	r := f.res
	r.Resumed = true
	r.Transforms = st.Transforms
	r.Calibrations = st.Calibrations
	r.Validations = st.Validations
	r.DegradedCalibrations = st.Degraded
	r.Checkpoints = st.Checkpoints
	r.Faults = append([]string(nil), st.Faults...)
	if st.Kinds != nil {
		r.Kinds = make(map[string]int, len(st.Kinds))
		for k, n := range st.Kinds {
			r.Kinds[k] = n
		}
	}
	r.Upsized, r.Downsized, r.BuffersAdded = r.Kinds["upsize"], r.Kinds["downsize"], r.Kinds["buffer"]
}

// restoreKinds hands checkpointed per-transform state blobs back to the
// stateful transforms of this run's registry. A blob for a kind the run
// does not enable is ignored (the design it describes is still the one
// being resumed); a corrupt blob for an enabled transform is a clean
// resume error, never a panic.
func (f *flow) restoreKinds(kinds map[string]json.RawMessage) error {
	for kind, blob := range kinds {
		tr := f.reg.ByKind(kind)
		if tr == nil {
			continue
		}
		st, ok := tr.(transform.Stateful)
		if !ok {
			continue
		}
		if err := st.Restore(blob); err != nil {
			return fmt.Errorf("closure: checkpoint %s state: %w", kind, err)
		}
	}
	return nil
}

// snapshot builds the serializable flow-progress state of a checkpoint
// over the given calibration state. Faults is copied defensively:
// f.res.Faults keeps growing after the snapshot is taken (a failed
// checkpoint appends to it itself), so the state to be marshalled must
// not alias the live slice.
func (f *flow) snapshot(fit fitState) ckptState {
	var skipped []int
	for fi := range f.skip {
		skipped = append(skipped, fi)
	}
	sort.Ints(skipped)
	var kinds map[string]int
	if len(f.res.Kinds) > 0 {
		kinds = make(map[string]int, len(f.res.Kinds))
		for k, n := range f.res.Kinds {
			kinds[k] = n
		}
	}
	_, extra := fit.split()
	return ckptState{
		Timer:           int(f.opt.Timer),
		Phase:           int(f.curPhase),
		Round:           f.curRound,
		RecoveryPos:     f.recoveryPos,
		SinceCalib:      fit.sinceCalib,
		FinalCalibrated: fit.finalCalibrated,
		Transforms:      f.res.Transforms,
		Kinds:           kinds,
		Calibrations:    f.res.Calibrations,
		Validations:     f.res.Validations,
		Degraded:        f.res.DegradedCalibrations,
		Checkpoints:     f.res.Checkpoints + 1,
		Faults:          append([]string(nil), f.res.Faults...),
		CornerWeights:   extra,
		Skipped:         skipped,
	}
}

// kindBlobs collects the per-transform state blobs of the registry's
// stateful transforms for the checkpoint envelope. A transform that fails
// to serialize is recorded as a fault and skipped — its state starts
// fresh on resume, which degrades move scheduling but never the design.
func (f *flow) kindBlobs() map[string]json.RawMessage {
	var kinds map[string]json.RawMessage
	for _, k := range f.reg.Kinds() {
		st, ok := f.reg.ByKind(k).(transform.Stateful)
		if !ok {
			continue
		}
		blob, err := st.StateBlob()
		if err != nil {
			f.res.Faults = append(f.res.Faults, fmt.Sprintf("checkpoint %s state: %v", k, err))
			continue
		}
		if kinds == nil {
			kinds = make(map[string]json.RawMessage)
		}
		kinds[k] = blob
	}
	return kinds
}

// checkpoint atomically writes the current design, weights and flow state
// to Options.CheckpointPath. Failures are recorded as faults, not errors:
// losing a checkpoint must never lose the run.
func (f *flow) checkpoint() {
	f.sinceCkpt = 0
	if f.opt.CheckpointPath == "" {
		return
	}
	fit := f.checkpointFit()
	st := f.snapshot(fit)
	blob, err := json.Marshal(&st)
	if err == nil {
		sel, _ := fit.split()
		err = netio.SaveCheckpointFile(f.opt.CheckpointPath, &netio.Checkpoint{
			Design:  f.d,
			Weights: sel,
			State:   blob,
			Kinds:   f.kindBlobs(),
		})
	}
	if err != nil {
		obsCheckpointsFail.Inc()
		obs.Event("checkpoint_failed", "err", err.Error())
		f.res.Faults = append(f.res.Faults, fmt.Sprintf("checkpoint: %v", err))
		return
	}
	obsCheckpointsOK.Inc()
	f.res.Checkpoints++
	if f.opt.OnCheckpoint != nil {
		f.opt.OnCheckpoint(f.opt.CheckpointPath)
	}
}

// noteTransform accounts one accepted transform and writes a periodic
// checkpoint when the cadence says so.
func (f *flow) noteTransform() {
	obsTransforms.Inc()
	f.res.Transforms++
	f.transforms++
	f.sinceCkpt++
	if f.opt.CheckpointEvery > 0 && f.sinceCkpt >= f.opt.CheckpointEvery {
		f.checkpoint()
	}
}

// noteKind accounts one accepted transform of the given kind: the Kinds
// map, the historical derived trio, and the per-kind observability.
func (f *flow) noteKind(kind string) {
	if f.res.Kinds == nil {
		f.res.Kinds = make(map[string]int)
	}
	f.res.Kinds[kind]++
	switch kind {
	case "upsize":
		f.res.Upsized++
	case "downsize":
		f.res.Downsized++
	case "buffer":
		f.res.BuffersAdded++
	}
	if m, ok := f.kindObs[kind]; ok {
		m.accepted.Inc()
	}
	obs.Event("transform_accepted", "kind", kind)
}

// noteReject accounts one applied-but-rejected transform trial.
func (f *flow) noteReject(kind string) {
	if m, ok := f.kindObs[kind]; ok {
		m.rejected.Inc()
	}
	obs.Event("transform_rejected", "kind", kind)
}
