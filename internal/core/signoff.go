package core

import (
	"fmt"
	"math"

	"mgba/internal/num"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// PathSlacks returns, for every calibration path in row order, the slack
// under the given model: "cheap" (unit weights), "mgba" (fitted weights)
// or "golden" (the pair's golden view).
func (m *Model) PathSlacks(kind string) ([]float64, error) {
	out := make([]float64, len(m.GoldenSlack))
	switch kind {
	case "golden":
		copy(out, m.GoldenSlack)
		return out, nil
	case "cheap", "mgba":
	default:
		return nil, fmt.Errorf("core: unknown slack kind %q", kind)
	}
	for i := range out {
		if m.Bank != nil {
			out[i] = m.Bank.Store.GBASlack(i)
		} else {
			out[i] = m.Selection.Paths[i].GBASlack
		}
	}
	if kind == "mgba" {
		if m.Problem == nil {
			return nil, fmt.Errorf("core: no fitted problem")
		}
		// s_mgba(p) = s_cheap(p) - (A dx)_p: the correction shifts the path
		// delay, and delay shifts map one-to-one onto slack shifts.
		ax := m.Problem.A.MulVec(nil, m.clampedCorrection())
		for i := range out {
			out[i] -= ax[i]
		}
	}
	return out, nil
}

// clampedCorrection returns the correction vector consistent with the
// clamped weights actually applied to the graph.
func (m *Model) clampedCorrection() []float64 {
	dx := make([]float64, len(m.Columns))
	for k, c := range m.Columns {
		dx[k] = m.Weights[c] - 1
	}
	return dx
}

// Metrics bundles the accuracy measures the paper reports.
type Metrics struct {
	Paths     int
	MSE       float64 // Eq. (12): ||s_model - s_golden||^2 / ||s_golden||^2
	Phi       float64 // Eq. (10): ||s_model - s_golden|| / ||s_golden||
	PassRatio float64 // Table 3 criterion: within 5% relative or 5 ps absolute
	Optimism  int     // paths whose model slack exceeds s_golden + eps*|s_golden|
}

// PassTolerances of Table 3: a path passes when its slack error is within
// 5 % relative or 5 ps absolute of the golden view.
const (
	PassRelTol = 0.05
	PassAbsTol = 5.0
)

// Evaluate computes the accuracy metrics of a model slack vector against
// the pair's golden slacks over the selected paths. kind is "cheap" or
// "mgba".
func (m *Model) Evaluate(kind string) (Metrics, error) {
	model, err := m.PathSlacks(kind)
	if err != nil {
		return Metrics{}, err
	}
	golden, err := m.PathSlacks("golden")
	if err != nil {
		return Metrics{}, err
	}
	return Compare(model, golden, m.Opt.Epsilon), nil
}

// Compare computes the paper's accuracy metrics between a model slack
// vector and the golden slacks of whichever view pair produced them.
func Compare(model, golden []float64, epsilon float64) Metrics {
	if len(model) != len(golden) {
		panic("core: slack vector length mismatch")
	}
	mt := Metrics{Paths: len(model)}
	if len(model) == 0 {
		return mt
	}
	diff := make([]float64, len(model))
	num.Sub(diff, model, golden)
	gn := num.Norm2(golden)
	dn := num.Norm2(diff)
	if gn > 0 {
		mt.Phi = dn / gn
		mt.MSE = (dn * dn) / (gn * gn)
	}
	pass := 0
	for i := range model {
		e := math.Abs(model[i] - golden[i])
		if e <= PassAbsTol || e <= PassRelTol*math.Abs(golden[i]) {
			pass++
		}
		if model[i] > golden[i]+epsilon*math.Abs(golden[i])+1e-9 {
			mt.Optimism++
		}
	}
	mt.PassRatio = float64(pass) / float64(len(model))
	return mt
}

// PathSlackWithWeights evaluates the mGBA slack of an arbitrary path under
// a per-instance weight vector, against the baseline (unit-weight) cheap
// analysis r. Used to judge a fit on paths outside its training selection,
// as the §3.2 study does ("the measurement is always with 8444 violated
// timing paths").
func PathSlackWithWeights(r *sta.Result, an *pba.Analyzer, p *pba.Path, weights []float64) float64 {
	var sum, wires float64
	for _, c := range p.Cells {
		w := 1.0
		if weights != nil {
			w = weights[c]
		}
		sum += r.CellDelay[c] * w
		wires += r.WireDelay[c]
	}
	launchIdx := r.G.FFIndex(p.Launch)
	captureIdx := r.G.FFIndex(p.Capture)
	return an.Budget(captureIdx) + r.GBACRPR[captureIdx] - (r.ClockLate[launchIdx] + sum + wires)
}

// FullCorrection returns the correction of every data instance (launch
// arcs and combinational gates; clock buffers excluded): the x* vector of
// the paper, with exact zeros for gates off every selected path. This is
// the population Fig. 3 bins.
func (m *Model) FullCorrection() []float64 {
	var out []float64
	for _, in := range m.G.D.Instances {
		if m.G.IsClock(in.ID) {
			continue
		}
		out = append(out, m.Weights[in.ID]-1)
	}
	return out
}

// CorrectionHistogram bins the fitted corrections for Fig. 3 (the sparsity
// plot): the fraction of entries inside [-width, width] is its headline.
func (m *Model) CorrectionHistogram(width float64, bins int) *num.Histogram {
	return num.NewHistogram(m.FullCorrection(), -width, width, bins)
}

// SparsityFraction returns the fraction of corrections within [-tol, tol],
// the "95.9% of entries near zero" statistic of Fig. 3.
func (m *Model) SparsityFraction(tol float64) float64 {
	return num.FractionWithin(m.FullCorrection(), -tol, tol)
}
