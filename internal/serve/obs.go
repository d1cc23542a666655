package serve

import "mgba/internal/obs"

// Serving-layer metrics. Gauges track the live envelope the backpressure
// contract is stated in (sessions resident, requests admitted); counters
// record every admission decision and lifecycle transition so a scrape of
// /debug/vars explains *why* clients saw 429s or resumed sessions.
var (
	obsSessions = obs.NewGauge("serve.sessions")
	obsInFlight = obs.NewGauge("serve.inflight")
	obsParBusy  = obs.NewGauge("serve.par_active")

	obsRequests         = obs.NewCounter("serve.requests")
	obsRejectSaturated  = obs.NewCounter("serve.rejected.saturated")
	obsRejectQueue      = obs.NewCounter("serve.rejected.queue")
	obsRejectDraining   = obs.NewCounter("serve.rejected.draining")
	obsRejectAdmitFault = obs.NewCounter("serve.rejected.admit_fault")

	obsBatches          = obs.NewCounter("serve.batches")
	obsOpsApplied       = obs.NewCounter("serve.ops.applied")
	obsDeadlineDegraded = obs.NewCounter("serve.deadline.degraded")

	obsEvictLRU    = obs.NewCounter("serve.evictions.lru")
	obsEvictIdle   = obs.NewCounter("serve.evictions.idle")
	obsSnapshotOK  = obs.NewCounter("serve.snapshots.ok")
	obsSnapshotErr = obs.NewCounter("serve.snapshots.fail")

	obsJournalAppends     = obs.NewCounter("serve.journal.appends")
	obsJournalCompactions = obs.NewCounter("serve.journal.compactions")
	obsJournalTail        = obs.NewCounter("serve.journal.tail_dropped")
	obsPersistBytes       = obs.NewCounter("serve.persist.bytes")

	obsResumed     = obs.NewCounter("serve.sessions.resumed")
	obsQuarantined = obs.NewCounter("serve.sessions.quarantined")
	obsResurrected = obs.NewCounter("serve.sessions.resurrected")

	obsRecalNS = obs.NewHistogram("serve.recalibrate_ns", obs.DurationBuckets)
)
