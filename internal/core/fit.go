package core

import (
	"context"
	"fmt"
	"math"

	"mgba/internal/num"
	"mgba/internal/obs"
	"mgba/internal/rng"
	"mgba/internal/solver"
)

// fallbackChain returns the degradation ladder for a requested method:
// each subsequent entry trades accuracy or speed for numerical safety.
// GD is the terminal rung — full gradients with a monotone Armijo line
// search cannot diverge.
func fallbackChain(m Method) []Method {
	switch m {
	case MethodSCGRS:
		return []Method{MethodSCGRS, MethodSCG, MethodGD}
	case MethodSCG:
		return []Method{MethodSCG, MethodGD}
	case MethodFull:
		return []Method{MethodFull, MethodGD}
	default:
		return []Method{MethodGD}
	}
}

// runSolver executes one rung of the ladder. Each rung gets a fresh rng
// seeded identically, so a retry is deterministic and independent of how
// many iterations the rejected attempt consumed.
func (m *Model) runSolver(ctx context.Context, meth Method) ([]float64, solver.Stats, error) {
	r := rng.New(m.Opt.Seed)
	switch meth {
	case MethodGD:
		return solver.GD(ctx, m.Problem, m.Opt.Solver)
	case MethodSCG:
		return solver.SCG(ctx, m.Problem, m.Opt.Solver, r)
	case MethodSCGRS:
		return solver.SCGRS(ctx, m.Problem, m.Opt.Solver, r)
	case MethodFull:
		return solver.FullSolve(ctx, m.Problem, 12, 500, 1e-10)
	default:
		return nil, solver.Stats{}, fmt.Errorf("core: unknown method %v", meth)
	}
}

// healthCheck decides whether a solver result is trustworthy enough to
// apply to the timing graph. identityF is the objective at x = 0 (unit
// weights): any accepted fit must do at least as well as doing nothing.
func (m *Model) healthCheck(x []float64, st solver.Stats, identityF float64) string {
	if !num.AllFinite(x) {
		return "non-finite solution"
	}
	if st.Reason == solver.StopDiverged {
		return "diverged"
	}
	if st.NumericalEvents > 0 {
		return fmt.Sprintf("%d numerical events", st.NumericalEvents)
	}
	if st.Reverts > 0 && !st.Improved {
		return "safeguard reverts without net improvement"
	}
	// Judge the fit as applied: clamped weights, not the raw iterate.
	f := m.Problem.Objective(m.clampedDx(x))
	if math.IsNaN(f) || f > identityF*(1+1e-9)+1e-12 {
		return fmt.Sprintf("objective %.6g worse than identity %.6g", f, identityF)
	}
	return ""
}

// clampedDx maps a raw correction through the weight clamp and back.
func (m *Model) clampedDx(x []float64) []float64 {
	dx := make([]float64, len(x))
	for k := range x {
		w := 1 + x[k]
		if w < m.Opt.MinWeight {
			w = m.Opt.MinWeight
		}
		if w > m.Opt.MaxWeight {
			w = m.Opt.MaxWeight
		}
		dx[k] = w - 1
	}
	return dx
}

// solve runs the degradation ladder: try the requested method, reject
// numerically unhealthy results, retry with the next-safer method, and on
// total failure keep identity weights (x = 0) — never an error, because
// identity weights reproduce the plain cheap analysis, which is
// pessimism-safe whenever the cheap view is conservative.
func (m *Model) solve(ctx context.Context) error {
	if m.Opt.Method < MethodGD || m.Opt.Method > MethodFull {
		return fmt.Errorf("core: unknown method %v", m.Opt.Method)
	}
	if m.Opt.WarmWeights != nil {
		obsWarmStartHits.Inc()
		x0 := make([]float64, len(m.Columns))
		for k, c := range m.Columns {
			if c < len(m.Opt.WarmWeights) && m.Opt.WarmWeights[c] > 0 {
				x0[k] = m.Opt.WarmWeights[c] - 1
			}
		}
		m.Opt.Solver.X0 = x0
	}
	identityF := m.Problem.ObjectiveAtZero()
	for rung, meth := range fallbackChain(m.Opt.Method) {
		x, st, err := m.runSolver(ctx, meth)
		att := Attempt{Method: meth, Stats: st}
		if err == nil {
			att.Rejected = m.healthCheck(x, st, identityF)
		} else {
			att.Rejected = err.Error()
		}
		m.Attempts = append(m.Attempts, att)
		obsLadderAttempts.Inc()
		if att.Rejected != "" {
			obsLadderRejected.Inc()
			obs.Event("ladder_reject", "method", meth.String(), "reason", att.Rejected)
		}
		if err == nil && att.Rejected == "" {
			if rung > 0 {
				obsCalibDegraded.Inc()
			}
			m.Correction = x
			m.Stats = st
			m.Degraded = rung > 0
			m.Partial = st.Reason == solver.StopCancelled
			m.applyWeights(m.Correction)
			if m.Opt.StrictSafety || m.Degraded || m.Partial {
				m.enforceSafety()
			}
			return nil
		}
		if err == nil && st.Reason == solver.StopCancelled {
			// Cancelled *and* unhealthy: no budget left to retry safer
			// methods; identity weights are the only safe answer.
			break
		}
	}
	// Total failure: identity weights (mGBA == cheap on every path).
	obsCalibDegraded.Inc()
	m.Correction = make([]float64, len(m.Columns))
	m.Weights = identity(len(m.G.D.Instances))
	m.Stats = solver.Stats{}
	m.Degraded = true
	m.SafetyScale = 0
	m.Fault = "all solver attempts rejected; using identity weights"
	if cancelled(ctx) {
		m.Partial = true
	}
	return nil
}

// applyWeights clamps the correction into the physical weight band and
// scatters it onto the per-instance weight vector.
func (m *Model) applyWeights(x []float64) {
	for k, c := range m.Columns {
		w := 1 + x[k]
		if w < m.Opt.MinWeight {
			w = m.Opt.MinWeight
		}
		if w > m.Opt.MaxWeight {
			w = m.Opt.MaxWeight
		}
		m.Weights[c] = w
	}
}

// enforceSafety projects the fitted correction back inside the Eq. (5)
// feasible region on the training selection. The modelled delay shift of
// row i is (A dx)_i and its floor is B_i - Guard_i. When the cheap view
// is conservative on a path (the default pair always is: GBA never
// under-times a path PBA would lengthen), both are non-positive — the
// target shift is a delay *reduction* — and scaling dx by t in [0,1]
// moves the row's shift linearly between 0 (identity, feasible) and its
// fitted value, so the largest safe t is the minimum over violating rows
// of floor_i / (A dx)_i — one linear pass, no re-solve. A cross-stage
// pair can put a path's floor above zero (the cheap view was optimistic:
// the routed wires got longer); no scale-back toward identity can lift
// such a row, so after scaling, liftOptimism pushes the correction *up*
// on whatever positive-floor rows the fit left short.
func (m *Model) enforceSafety() {
	dx := m.clampedCorrection()
	ax := m.Problem.A.MulVec(nil, dx)
	t := 1.0
	for i, axi := range ax {
		floor := m.Problem.B[i] - m.Problem.GuardAt(i)
		if floor <= 0 && axi < floor-1e-12 && axi < 0 {
			if ti := floor / axi; ti < t {
				t = ti
			}
		}
	}
	if t < 0 {
		t = 0
	}
	if t < 1 {
		for k := range dx {
			dx[k] *= t
		}
		m.applyWeights(dx)
	}
	m.SafetyScale = t
	m.liftOptimism(dx)
}

// liftOptimism is the scale-back's dual, for rows whose Eq. (5) floor is
// positive — paths where the *cheap* view is optimistic against golden,
// which only a cross-stage pair produces. A row short of its floor gets
// its deficit distributed over its columns as the minimum-norm update
// (delta_j proportional to a_ij), which raises the row's modelled delay
// to exactly the floor. Entries a_ij are non-negative delays, so a lift
// only ever adds pessimism to other rows — it can repair but never
// create a violation — and every pass shrinks the total deficit
// monotonically; iteration stops at feasibility, at the MaxWeight clamp
// (a saturated column caps how much delay a gate can absorb), or at the
// pass cap. Floors at or below zero never lift, so default-pair fits are
// untouched bit-for-bit.
func (m *Model) liftOptimism(dx []float64) {
	const passes = 64
	lifted := false
	for pass := 0; pass < passes; pass++ {
		progressed := false
		for i := 0; i < m.Problem.A.Rows(); i++ {
			floor := m.Problem.B[i] - m.Problem.GuardAt(i)
			if floor <= 0 {
				continue
			}
			// Live dot product: lifts applied earlier in this pass already
			// count, so rows sharing columns never stack the same deficit.
			axi := m.Problem.A.RowDot(i, dx)
			if axi >= floor-1e-12 {
				continue
			}
			idx, val := m.Problem.A.Row(i)
			var norm2 float64
			for _, v := range val {
				norm2 += v * v
			}
			if norm2 == 0 {
				continue
			}
			scale := (floor - axi) / norm2
			for k, j := range idx {
				nd := dx[j] + scale*val[k]
				if max := m.Opt.MaxWeight - 1; nd > max {
					nd = max
				}
				if nd > dx[j] {
					dx[j] = nd
					progressed = true
					lifted = true
				}
			}
		}
		if !progressed {
			break
		}
	}
	if lifted {
		m.applyWeights(dx)
	}
}
