package core

import (
	"math"

	"mgba/internal/engine"
	"mgba/internal/faultinject"
	"mgba/internal/graph"
	"mgba/internal/pba"
	"mgba/internal/solver"
	"mgba/internal/sparse"
	"mgba/internal/sta"
)

// assembler is the row assembler of the Eq. (9) systems. It takes the
// selected paths in row order — a cold calibration's shards as they
// stream, or an incremental call's cached groups — maps columns by first
// occurrence over rows, and appends every path's row to each corner's
// system, so the N corner systems are row-aligned over the shared columns.
type assembler struct {
	c     *Calibrator
	colOf map[int]int
	cols  []int    // column -> instance ID
	sys   []system // per corner
	// recal marks rows rebuilt by an incremental call; each passes through
	// the faultinject.RecalibrateRow hook.
	recal bool
}

// system is one corner's Eq. (9) system under assembly: the sparse rows,
// the correction targets, the Eq. (5) guards and the golden slack of
// every row's path.
type system struct {
	b                       *sparse.Builder
	targets, guards, golden []float64
}

func newAssembler(c *Calibrator, recal bool) *assembler {
	a := &assembler{c: c, colOf: map[int]int{}, sys: make([]system, len(c.corners)), recal: recal}
	for i := range a.sys {
		a.sys[i].b = sparse.NewBuilder(0)
	}
	return a
}

// rows returns the number of rows assembled so far.
func (a *assembler) rows() int { return len(a.sys[0].targets) }

// add appends the rows of every path of groups, in order, to each
// corner's system; tg[k][gi][j] is path groups[gi][j]'s golden timing
// under corner k.
func (a *assembler) add(groups [][]*pba.Path, tg [][][]*pba.Timing) error {
	g, epsilon := a.c.sess.G, a.c.opt.Epsilon
	for gi, paths := range groups {
		for j, p := range paths {
			for _, cell := range p.Cells {
				if _, ok := a.colOf[cell]; !ok {
					a.colOf[cell] = len(a.cols)
					a.cols = append(a.cols, cell)
				}
			}
			for k, kc := range a.c.corners {
				s := &a.sys[k]
				tm := tg[k][gi][j]
				idx, val, target, guard := pathRow(kc.gba, g, epsilon, a.colOf, p, tm)
				if a.recal {
					faultinject.Slice(faultinject.RecalibrateRow, val)
				}
				s.b.EnsureCols(len(a.cols))
				if err := s.b.AddRow(idx, val); err != nil {
					return err
				}
				s.targets = append(s.targets, target)
				s.guards = append(s.guards, guard)
				s.golden = append(s.golden, tm.Slack)
			}
		}
	}
	return nil
}

// problem finalizes assembled rows into the solver's Eq. (9) problem.
func (c *Calibrator) problem(b *sparse.Builder, targets, guards []float64) (*solver.Problem, error) {
	a := b.Build()
	// One Parallelism knob drives every stage: the same setting that sizes
	// level-parallel propagation and PBA enumeration configures the solver
	// kernels (whose results are bitwise identical at every worker count).
	a.SetParallelism(engine.Workers(c.corners[0].cfg.Parallelism))
	p := &solver.Problem{A: a, B: targets, Guard: guards, Penalty: c.opt.Penalty}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// pathRow builds one row of the Eq. (9) system: entries a_pj =
// CellDelay_j (the cheap derated delay of every cell on the path), target
// b_p fitting the *delay correction* — the mGBA path delay should move by
// exactly the pessimism gap: the cheap cell sum minus the golden cell
// sum, minus whatever CRPR credit the golden replay grants beyond the
// conservative credit the cheap analysis already applied at this
// endpoint, plus the golden-vs-cheap wire gap when the pair times the
// path over different parasitics — and guard eps*|s_golden| (Eq. 5's
// tolerance).
func pathRow(gba *sta.Result, g *graph.Graph, epsilon float64, cols map[int]int, p *pba.Path, tm *pba.Timing) (idx []int, val []float64, target, guard float64) {
	idx = make([]int, len(p.Cells))
	val = make([]float64, len(p.Cells))
	var gbaSum, wireSum float64
	for k, c := range p.Cells {
		idx[k] = cols[c]
		val[k] = gba.CellDelay[c]
		gbaSum += val[k]
		wireSum += gba.WireDelay[c]
	}
	crprExtra := tm.CRPR - gba.GBACRPR[g.FFIndex(p.Capture)]
	target = (tm.CellSum - crprExtra) - gbaSum
	// Same-stage pairs replay the path over the very wire-delay array the
	// cheap analysis used — the sums cancel term by term and the gap is an
	// exact 0.0, leaving the historical target bit-for-bit. Cross-stage
	// pairs time the path over different parasitics; the wire gap is part
	// of the pessimism the fitted cell corrections must absorb.
	if wa := tm.WireSum - wireSum; wa != 0 {
		target += wa
	}
	guard = epsilon * math.Abs(tm.Slack)
	return idx, val, target, guard
}
