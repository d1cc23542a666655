package engine

import "mgba/internal/par"

// grain is the smallest range worth handing to its own worker: below it,
// scheduling overhead costs more than the work.
const grain = 64

// pass names one of Run's slot-writing passes.
type pass uint8

const (
	passStage         pass = iota // stage the instances of an ID range
	passForward                   // evaluate a level's instances
	passEndpoints                 // collect the endpoints' D-pin windows
	passResetRequired             // reset RequiredOut to +Inf
	passBackward                  // derive a level's required times
)

// sweep is the par.Body of Run's passes. Each scratch set keeps one, so a
// pass handed to the worker pool allocates nothing. off is the first
// levelOrder index of the level a level pass sweeps.
type sweep struct {
	r    *Result
	pass pass
	off  int
}

// Chunk runs the pass over [lo, hi) of its range. Every pass writes only
// the slots its range owns.
func (sw *sweep) Chunk(_, lo, hi int) {
	r := sw.r
	switch sw.pass {
	case passStage:
		pos := r.G.Pos
		for v := lo; v < hi; v++ {
			if pos[v] >= 0 {
				r.stage(v)
			}
		}
	case passForward:
		for _, v := range r.S.levelOrder[sw.off+lo : sw.off+hi] {
			r.evalInstance(int(v))
		}
	case passEndpoints:
		for fi := lo; fi < hi; fi++ {
			r.collectEndpoint(fi)
		}
	case passResetRequired:
		for i := lo; i < hi; i++ {
			r.RequiredOut[i] = unconstrained
		}
	case passBackward:
		for _, v := range r.S.levelOrder[sw.off+lo : sw.off+hi] {
			r.RequiredOut[v] = r.requiredAt(int(v))
		}
	}
}

// parallelFor runs pass p over [0, n) in grain-sized blocks on the shared
// internal/par pool, using up to r.par workers, through the sweep kept in
// r's scratch. Under the passes' contract (each block writes only the
// slots of its own range) the schedule is free of data races and the
// output is bitwise identical to the sequential order.
func (r *Result) parallelFor(p pass, off, n int) {
	sw := &r.sc.sweep
	*sw = sweep{r: r, pass: p, off: off}
	if r.par <= 1 || n <= grain {
		sw.Chunk(0, 0, n)
	} else {
		par.ForBody(r.par, n, grain, sw)
	}
	*sw = sweep{} // a released scratch must not keep the Result alive
}
