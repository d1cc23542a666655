package pba

import "mgba/internal/obs"

// PBA metrics: exact-path enumeration and retiming volume. kWorst and
// Retime run inside parallel workers, so the counters lean on their
// atomic, allocation-free increments; they record totals only and never
// influence enumeration order (obs inertness contract).
// pba.search.states over pba.endpoints.swept is the search effort per
// endpoint: states pushed onto the best-first heap.
var (
	obsPathsEnumerated = obs.NewCounter("pba.paths.enumerated")
	obsEndpointsSwept  = obs.NewCounter("pba.endpoints.swept")
	obsSearchStates    = obs.NewCounter("pba.search.states")
	obsRetimes         = obs.NewCounter("pba.retimes")
	obsFanoutGauge     = obs.NewGauge("pba.last.endpoint_fanout")
)
