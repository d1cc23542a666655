package engine

import "mgba/internal/obs"

// Engine metrics: full analysis runs, incremental updates and their cone
// sizes, and the two level-parallel sweep timings. All hooks are
// observation-only — they never change sweep order or worker assignment
// (inertness contract in package obs).
var (
	obsRuns    = obs.NewCounter("engine.runs")
	obsUpdates = obs.NewCounter("engine.updates")

	// Sessions Derived from another after a structural edit, and clock
	// states a Derive could not share because the edit moved their inputs.
	obsSessionsDerived = obs.NewCounter("engine.sessions.derived")
	obsClockRebuilt    = obs.NewCounter("engine.sessions.clock_rebuilt")

	// Per Derive, added once: instances whose depth, box or launch-leaf
	// state the derivation's cone sweeps re-derived.
	obsDeriveEvals = obs.NewCounter("engine.derive_evals")

	// Per Update, added once: instances the forward cone re-evaluated,
	// and required times the backward sweep re-derived.
	obsUpdateEvals     = obs.NewCounter("engine.update_evals")
	obsUpdateRederived = obs.NewCounter("engine.update_rederived")

	obsRunNS      = obs.NewHistogram("engine.run_ns", obs.DurationBuckets)
	obsForwardNS  = obs.NewHistogram("engine.forward_ns", obs.DurationBuckets)
	obsBackwardNS = obs.NewHistogram("engine.backward_ns", obs.DurationBuckets)
	obsUpdateNS   = obs.NewHistogram("engine.update_ns", obs.DurationBuckets)
)
