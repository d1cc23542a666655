package core

import (
	"context"
	"errors"

	"mgba/internal/solver"
	"mgba/internal/sparse"
	"mgba/internal/sta"
)

// Multi-corner (MCMM) calibration: one path enumeration on the selection
// corner (Corners[0]) feeds N per-corner Eq. (9) systems. Every corner
// re-times the same selected paths under its own derate tables and clock
// uncertainty (per-corner golden targets and guards), and the fits are
// solved either independently per corner or as one stacked joint system
// sharing the sparsity pattern (Options.JointFit). StrictSafety is forced
// in multi-corner mode, so no fitted corner is ever optimistic past its
// Eq. (5) guard. The enumeration — the dominant cost the framework exists
// to amortize — runs exactly once.

// CornerFit is the per-corner outcome of a multi-corner calibration.
// Corners[0] of a Model mirrors the model's own selection-corner fit; the
// rest are the extra corners in set order.
type CornerFit struct {
	Spec CornerSpec
	Cfg  sta.Config // the corner's analysis config (Weights == nil)

	Weights     []float64 // per instance ID: 1 + dx (shared across corners under JointFit)
	Correction  []float64 // solved dx per column (Model.Columns order)
	Stats       solver.Stats
	Degraded    bool
	Partial     bool
	Fault       string
	SafetyScale float64

	// Problem is the corner's Eq. (9) system over the shared selection
	// (shared column order with Model.Columns). GoldenSlack, CheapSlack
	// and ModelSlack are the per-path slacks under this corner: golden
	// view, unweighted cheap view, and the fitted model. Row order is the
	// shared selection order.
	Problem     *solver.Problem
	GoldenSlack []float64
	CheapSlack  []float64
	ModelSlack  []float64

	// MGBA is the cheap re-analysis of this corner under the fitted
	// weights — the per-corner slack view the merged worst-corner view is
	// built from.
	MGBA *sta.Result
}

// Evaluate computes the paper's accuracy metrics for this corner's fit
// ("cheap" or "mgba") against the corner's golden slacks.
func (cf *CornerFit) Evaluate(kind string, epsilon float64) (Metrics, error) {
	switch kind {
	case "cheap":
		return Compare(cf.CheapSlack, cf.GoldenSlack, epsilon), nil
	case "mgba":
		return Compare(cf.ModelSlack, cf.GoldenSlack, epsilon), nil
	}
	return Metrics{}, errors.New("core: unknown slack kind " + kind)
}

// jointFit stacks every corner's system corner-major into one tall
// problem over the shared columns, solves it once from the selection
// corner's warm start, and adopts the result as every corner's fit. Every
// corner's Eq. (5) guard rows sit in the stacked system, so the forced
// strict enforcement covers all corners with one scale-back/lift pass.
func (c *Calibrator) jointFit(ctx context.Context, fits []*Model) error {
	m := fits[0]
	b := sparse.NewBuilder(len(m.Columns))
	var targets, guards []float64
	for _, fm := range fits {
		p := fm.Problem
		for i := 0; i < p.A.Rows(); i++ {
			idx, val := p.A.Row(i)
			if err := b.AddRow(idx, val); err != nil {
				return err
			}
		}
		targets = append(targets, p.B...)
		guards = append(guards, p.Guard...)
	}
	jm := c.newModel(c.corners[0])
	jm.Columns = m.Columns
	p, err := c.problem(b, targets, guards)
	if err != nil {
		return err
	}
	jm.Problem = p
	if err := jm.solve(ctx); err != nil {
		return err
	}
	m.Attempts = append(m.Attempts, jm.Attempts...)
	for i, fm := range fits {
		fm.Correction, fm.Weights, fm.Stats = jm.Correction, jm.Weights, jm.Stats
		fm.Degraded, fm.Partial, fm.Fault, fm.SafetyScale = jm.Degraded, jm.Partial, jm.Fault, jm.SafetyScale
		c.corners[i].warm = jm.Weights
	}
	return nil
}

// mergeWorst records every corner's fit on m — Corners[0] mirrors m's
// own — and builds the merged worst-corner slack view: per endpoint, the
// minimum mGBA slack over every corner.
func (c *Calibrator) mergeWorst(m *Model, fits []*Model, a *assembler) {
	m.Corners = make([]*CornerFit, len(fits))
	worst := append([]float64(nil), m.MGBA.Slack...)
	for i, fm := range fits {
		k := c.corners[i]
		cf := &CornerFit{
			Spec: k.spec, Cfg: k.cfg,
			Weights: fm.Weights, Correction: fm.Correction,
			Stats: fm.Stats, Degraded: fm.Degraded, Partial: fm.Partial,
			Fault: fm.Fault, SafetyScale: fm.SafetyScale,
			Problem: fm.Problem, MGBA: fm.MGBA,
		}
		if fm.Problem != nil {
			cf.GoldenSlack = a.sys[i].golden
			var cheap []float64
			if i == 0 {
				// The selection corner's cheap slacks are the enumerated
				// paths' own.
				cheap, _ = m.PathSlacks("cheap")
			}
			cf.fillSlacks(m.Columns, cheap)
		}
		m.Corners[i] = cf
		for e, s := range fm.MGBA.Slack {
			if s < worst[e] {
				worst[e] = s
			}
		}
	}
	m.WorstSlack = worst
	m.WorstWNS, m.WorstTNS = 0, 0
	for _, s := range worst {
		if s < 0 {
			m.WorstTNS += s
			if s < m.WorstWNS {
				m.WorstWNS = s
			}
		}
	}
}

// fillSlacks derives the corner's per-path cheap and fitted slacks from
// its system. cheap nil derives the cheap slacks from the rows: the row
// target is exactly the cheap-minus-golden delay gap, so cheap = golden +
// target. The fitted model shifts cheap by the row's correction dot
// product.
func (cf *CornerFit) fillSlacks(columns []int, cheap []float64) {
	if cheap == nil {
		cheap = make([]float64, len(cf.GoldenSlack))
		for i := range cheap {
			cheap[i] = cf.GoldenSlack[i] + cf.Problem.B[i]
		}
	}
	cf.CheapSlack = cheap
	dx := make([]float64, len(columns))
	for k, id := range columns {
		dx[k] = cf.Weights[id] - 1
	}
	ax := cf.Problem.A.MulVec(nil, dx)
	cf.ModelSlack = make([]float64, len(cheap))
	for i := range cf.ModelSlack {
		cf.ModelSlack[i] = cheap[i] - ax[i]
	}
}
