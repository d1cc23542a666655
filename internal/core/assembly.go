package core

import (
	"math"
	"slices"

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
	c *Calibrator
	// colOf maps an instance ID to its column plus one (0: no column yet).
	// It is dense over the session's instances and lives as long as one
	// assembly.
	colOf []int32
	ncols int
	sys   []system // per corner
	// idx and val hold one row under construction, reused row to row.
	idx []int
	val []float64
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
	a := &assembler{c: c, colOf: make([]int32, c.sess.NumInstances()), sys: make([]system, len(c.corners)), recal: recal}
	for i := range a.sys {
		a.sys[i].b = sparse.NewBuilder(0)
	}
	return a
}

// rows returns the number of rows assembled so far.
func (a *assembler) rows() int { return len(a.sys[0].targets) }

// columns returns the instance ID of every column, in column order (nil
// before the first column).
func (a *assembler) columns() []int {
	if a.ncols == 0 {
		return nil
	}
	cols := make([]int, a.ncols)
	for id, c := range a.colOf {
		if c > 0 {
			cols[c-1] = id
		}
	}
	return cols
}

// add appends the rows of every path of groups, in order, to each
// corner's system; tg[k][gi][j] is path groups[gi][j]'s golden timing
// under corner k. The storage first grows by the row and cell counts of
// groups: once, at its exact size, for an incremental call's whole
// population, and amortized shard by shard on a cold stream.
func (a *assembler) add(groups [][]*pba.Path, tg [][][]*pba.Timing) error {
	rows, cells, longest := populationSize(groups)
	for k := range a.sys {
		s := &a.sys[k]
		s.b.Grow(rows, cells)
		s.targets = slices.Grow(s.targets, rows)
		s.guards = slices.Grow(s.guards, rows)
		s.golden = slices.Grow(s.golden, rows)
	}
	if cap(a.idx) < longest {
		a.idx, a.val = make([]int, 0, longest), make([]float64, 0, longest)
	}
	g, epsilon := a.c.sess.G, a.c.opt.Epsilon
	for gi, paths := range groups {
		for j, p := range paths {
			for _, cell := range p.Cells {
				if a.colOf[cell] == 0 {
					a.ncols++
					a.colOf[cell] = int32(a.ncols)
				}
			}
			for k, kc := range a.c.corners {
				s := &a.sys[k]
				tm := tg[k][gi][j]
				var target, guard float64
				a.idx, a.val, target, guard = pathRow(kc.gba, g, epsilon, a.colOf, p, tm, a.idx, a.val)
				if a.recal {
					faultinject.Slice(faultinject.RecalibrateRow, a.val)
				}
				s.b.EnsureCols(a.ncols)
				if err := s.b.AddRow(a.idx, a.val); err != nil {
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

// populationSize returns the row count of groups, their total cell count
// (the entry count of their rows before duplicate columns merge) and the
// cell count of the longest path.
func populationSize(groups [][]*pba.Path) (rows, cells, longest int) {
	for _, g := range groups {
		rows += len(g)
		for _, p := range g {
			cells += len(p.Cells)
			longest = max(longest, len(p.Cells))
		}
	}
	return rows, cells, longest
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
// tolerance). The row is written into idx and val, reused from the
// previous row.
func pathRow(gba *sta.Result, g *graph.Graph, epsilon float64, colOf []int32, p *pba.Path, tm *pba.Timing, idx []int, val []float64) (rowIdx []int, rowVal []float64, target, guard float64) {
	idx, val = idx[:0], val[:0]
	var gbaSum, wireSum float64
	for _, c := range p.Cells {
		d := gba.CellDelay[c]
		idx = append(idx, int(colOf[c])-1)
		val = append(val, d)
		gbaSum += d
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
