// Package closure implements the post-route timing-closure optimization
// framework of the paper's §3.4 (the left half of Fig. 5): a scheduler
// picks violating endpoints and repairs their worst paths with moves from
// a pluggable transform registry (internal/transform), followed by an
// area/leakage recovery pass that downsizes gates with slack to spare.
//
// The default registry reproduces the historical hard-coded loop exactly
// — gate upsizing first, buffer insertion second, greedy
// worst-endpoint-first scheduling — and Options.Transforms extends it
// with register retiming. Both structural moves (buffer insertion and
// retiming) are timed on a throwaway session; an accepted one's dirty
// set drives the calibrator's incremental recalibration across a session
// rebind.
//
// The framework is timer-agnostic: it runs against original GBA or
// against mGBA (GBA with calibrated per-gate weighting factors,
// recalibrated whenever the netlist structure changes). Because mGBA sees
// less pessimism, the mGBA-embedded flow stops fixing earlier, fixes
// fewer endpoints, recovers more area, and finishes faster — the effects
// reported in Tables 2 and 5.
//
// The flow is built to survive long runs on real infrastructure: it
// honors context cancellation at transform granularity (an interrupted
// run still returns a valid, non-optimistic Result), it records
// calibration degradations and faults instead of aborting, and it can
// periodically write atomic checkpoints (format v2: per-transform state
// blobs ride along) from which Resume continues an interrupted run to the
// same closure state an uninterrupted run reaches.
package closure

import (
	"time"

	"mgba/internal/core"
	"mgba/internal/sta"
)

// TimerKind selects the timing engine embedded in the flow.
type TimerKind int

// The two flow variants compared by Tables 2 and 5.
const (
	TimerGBA  TimerKind = iota // original graph-based analysis
	TimerMGBA                  // modified GBA with calibrated weights
)

func (k TimerKind) String() string {
	if k == TimerMGBA {
		return "mGBA"
	}
	return "GBA"
}

// Options controls one optimization run.
type Options struct {
	Timer TimerKind
	STA   sta.Config   // base analysis features (weights are managed here)
	Core  core.Options // mGBA calibration settings (TimerMGBA only)

	MaxTransforms    int     // total accepted-transform budget
	MaxBuffers       int     // buffer insertions allowed (graph rebuilds)
	WireDelayForBuf  float64 // buffer nets with at least this wire delay, ps
	RecalibrateEvery int     // mGBA: recalibrate after this many transforms

	// Transforms selects and orders the repair transforms tried on each
	// violating endpoint: "upsize", "buffer", "retime". nil selects the
	// default registry — upsize then buffer, the historical loop.
	Transforms []string

	// ColdRecalibrate disables the incremental calibrator and performs
	// every mid-flow recalibration from scratch. Ablation switch: the two
	// settings produce bit-identical results; the incremental path is just
	// faster (see BenchmarkRecalibrateIncremental).
	ColdRecalibrate bool

	// CheckpointPath, when non-empty, makes the flow periodically write a
	// resumable checkpoint (design + weights + flow state) to this path.
	// Writes are atomic: a crash mid-write leaves the previous checkpoint
	// intact. Checkpoint failures are recorded in Result.Faults, never
	// fatal.
	CheckpointPath string
	// CheckpointEvery is the number of accepted transforms between
	// periodic checkpoints. Zero checkpoints only at phase boundaries.
	CheckpointEvery int
	// OnCheckpoint, when set, is called after every successful checkpoint
	// write with the checkpoint path. Used by tests and progress monitors.
	OnCheckpoint func(path string)
}

// DefaultOptions returns a balanced configuration for the experiment suite.
// The embedded calibration uses a faster solver profile than a standalone
// fit: it starts the row-sampling schedule higher and accepts a slightly
// looser tolerance, because it will be refreshed several times anyway.
func DefaultOptions(timer TimerKind) Options {
	coreOpt := core.DefaultOptions()
	coreOpt.Solver.MinRows = 512
	coreOpt.Solver.MaxIters = 1500
	return Options{
		Timer:            timer,
		STA:              sta.DefaultConfig(),
		Core:             coreOpt,
		MaxTransforms:    4000,
		MaxBuffers:       60,
		WireDelayForBuf:  15,
		RecalibrateEvery: 150,
	}
}

// Result summarizes one optimization run.
type Result struct {
	Timer TimerKind

	// Final QoR, measured both by the embedded timer and by PBA sign-off.
	TimerWNS, TimerTNS     float64
	SignoffWNS, SignoffTNS float64
	ViolatedEndpoints      int // by the embedded timer

	Area    float64
	Leakage float64
	Buffers int

	// Kinds counts accepted transforms per transform kind. The named
	// trio below is the historical derived view of the same counts
	// (retimes appear only in Kinds).
	Kinds map[string]int

	Upsized, Downsized, BuffersAdded int
	Transforms                       int // accepted transforms in total
	Calibrations                     int
	Validations                      int // GBA flow: PBA validation passes

	Elapsed         time.Duration // whole flow
	CalibElapsed    time.Duration // time inside mGBA calibration (Table 5 split)
	ValidateElapsed time.Duration // GBA flow: PBA validation of violators

	// Robustness record.

	Weights []float64 // final mGBA weights (nil for the GBA flow)
	// Corners reports each extra corner's final timing in a multi-corner
	// run (Options.Core.Corners, N>=2); nil otherwise. The selection
	// corner is TimerWNS/TimerTNS above.
	Corners []CornerQoR
	// Interrupted is true when the run was stopped by context cancellation
	// or deadline; the Result is still a valid (partial) outcome.
	Interrupted bool
	// StopReason is "completed", or the context error that stopped the run.
	StopReason string
	// Resumed is true when the run continued from a checkpoint.
	Resumed bool
	// Checkpoints counts successful checkpoint writes (cumulative across
	// resumes).
	Checkpoints int
	// DegradedCalibrations counts calibrations that fell down the solver
	// degradation ladder or were cut short by cancellation.
	DegradedCalibrations int
	// Faults records non-fatal failures absorbed by the flow: calibration
	// fallbacks to identity weights and checkpoint write errors.
	Faults []string
}

// Retimed returns the accepted register-retiming count — the structural
// analogue of the Upsized/Downsized/BuffersAdded trio.
func (r *Result) Retimed() int { return r.Kinds["retime"] }
