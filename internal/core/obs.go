package core

import "mgba/internal/obs"

// Calibration metrics: pipeline outcomes, warm-start reuse, and the
// solver degradation ladder. Phase timings live in the span histograms
// (span.calibrate.cold.*, span.calibrate.recalibrate.*) emitted by the
// Calibrator. Observation-only per the obs inertness contract.
var (
	obsCalibCold        = obs.NewCounter("core.calibrations.cold")
	obsCalibIncremental = obs.NewCounter("core.calibrations.incremental")
	obsCalibRebinds     = obs.NewCounter("core.calibrations.rebinds")
	obsCalibDegraded    = obs.NewCounter("core.calibrations.degraded")
	obsCalibAbandoned   = obs.NewCounter("core.calibrations.abandoned")
	obsWarmStartHits    = obs.NewCounter("core.warm_start.hits")
	obsLadderAttempts   = obs.NewCounter("core.ladder.attempts")
	obsLadderRejected   = obs.NewCounter("core.ladder.rejected")
	obsEndpointsReenum  = obs.NewCounter("core.endpoints.reenumerated")

	// Recalibrate calls that fell back to a cold calibration, one counter
	// per reason: no incremental cache (the first call, a streamed
	// calibrator, or after Invalidate); a clock cell or an instance the
	// session does not time in the dirty set; a golden mirror that could
	// not follow the dirty set.
	obsColdNoCache     = obs.NewCounter("core.recalibrate.cold.no_cache")
	obsColdDirtyClock  = obs.NewCounter("core.recalibrate.cold.dirty_clock")
	obsColdMirrorFault = obs.NewCounter("core.recalibrate.cold.mirror_failed")
)
