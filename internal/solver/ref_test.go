package solver

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"mgba/internal/faultinject"
	"mgba/internal/num"
	"mgba/internal/rng"
	"mgba/internal/sparse"
)

// The reference below is SCG and SCGRS as they stood before their vector
// sweeps were fused and their minibatch became one pass, on kernels of
// its own: every row loop ranges over Row(i) in index order, the Eq. (11)
// draw searches its own prefix sum, and Algorithm 1's sample copies its
// rows into a fresh system. It shares no row kernel, sampler, evaluation
// kernel or sub-problem builder with the solvers it checks, so a change
// to any of those must reproduce these loops bit for bit.

// refRowDot returns <a_i, x>, summed in column order.
func refRowDot(a *sparse.Matrix, i int, x []float64) float64 {
	cols, vals := a.Row(i)
	var s float64
	for k := range cols {
		s += vals[k] * x[cols[k]]
	}
	return s
}

// refAddScaledRow performs dst += alpha * a_i in column order.
func refAddScaledRow(a *sparse.Matrix, dst []float64, i int, alpha float64) {
	cols, vals := a.Row(i)
	for k := range cols {
		dst[cols[k]] += alpha * vals[k]
	}
}

// refRowNormsSq returns ||a_i||^2 for every row, each summed in column
// order.
func refRowNormsSq(a *sparse.Matrix) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		_, vals := a.Row(i)
		for _, v := range vals {
			out[i] += v * v
		}
	}
	return out
}

// refTerm returns row i's residual and penalty shortfall at ax = <a_i, x>.
func refTerm(p *Problem, i int, ax float64) (resid, short float64) {
	resid = ax - p.B[i]
	if p.Penalty > 0 {
		floor := p.B[i]
		if p.Guard != nil {
			floor -= p.Guard[i]
		}
		if ax < floor {
			short = floor - ax
		}
	}
	return resid, short
}

// refObjective evaluates Eq. (6) at x: row terms summed per row block,
// block sums added in block order. The blocks are the evaluation
// kernels' fixed shape-only decomposition: one block below evalCutoffNNZ
// stored entries or evalBlocks rows, else evalBlocks blocks of equal
// grain.
func refObjective(p *Problem, x []float64) float64 {
	m := p.A.Rows()
	grain := m
	if p.A.NNZ() >= evalCutoffNNZ && m >= evalBlocks {
		grain = (m + evalBlocks - 1) / evalBlocks
	}
	var f float64
	for lo := 0; lo < m; lo += grain {
		var part float64
		for i := lo; i < min(lo+grain, m); i++ {
			r, s := refTerm(p, i, refRowDot(p.A, i, x))
			part += r*r + p.Penalty*s*s
		}
		f += part
	}
	return f
}

// refSampler draws Eq. (11)'s rows by a full binary search of the weights'
// prefix sum for the first value exceeding u*total.
type refSampler struct {
	cum   []float64
	total float64
}

func newRefSampler(weights []float64) refSampler {
	s := refSampler{cum: make([]float64, len(weights))}
	for i, w := range weights {
		s.total += w
		s.cum[i] = s.total
	}
	return s
}

func (s refSampler) sample(r *rng.Rand) int {
	u := r.Float64() * s.total
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refSubProblem copies the sampled rows, targets and guards into a fresh
// system row by row, keeping the parent's kernel worker count.
func refSubProblem(p *Problem, rows []int) *Problem {
	b := sparse.NewBuilder(p.A.Cols())
	sub := &Problem{B: make([]float64, len(rows)), Penalty: p.Penalty}
	if p.Guard != nil {
		sub.Guard = make([]float64, len(rows))
	}
	for k, i := range rows {
		cols, vals := p.A.Row(i)
		if err := b.AddRow(append([]int(nil), cols...), append([]float64(nil), vals...)); err != nil {
			panic(err)
		}
		sub.B[k] = p.B[i]
		if sub.Guard != nil {
			sub.Guard[k] = p.Guard[i]
		}
	}
	sub.A = b.Build()
	sub.A.SetParallelism(p.A.Parallelism())
	return sub
}

// refSCG is the reference Algorithm 2: stochastic conjugate gradient. Each
// step samples k” rows with probability proportional to their squared
// Euclidean norm (Eq. 11), evaluates the penalized gradient on those rows
// only, normalizes it, combines it with the previous direction through
// the Polak-Ribière parameter, and moves by the dynamic step alpha =
// s/||d||.
func refSCG(ctx context.Context, p *Problem, opt Options, r *rng.Rand) ([]float64, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := faultinject.Err(faultinject.SolverStart); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	m, n := p.A.Rows(), p.A.Cols()
	st := Stats{RowsUsed: m}
	x := make([]float64, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, st, fmt.Errorf("solver: X0 has %d entries, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	}
	if m == 0 {
		st.Reason = StopZeroGrad
		st.Converged = true
		return x, st, nil
	}
	weightsVec := refRowNormsSq(p.A)
	st.RowWork += m
	// A corrupted matrix row yields a non-finite norm. Excluding such rows
	// from sampling keeps the solve alive; the full-objective divergence
	// check still sees them, so a poisoned system ends in a diverged
	// (never optimistic) result.
	for i, w := range weightsVec {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			weightsVec[i] = 0
			st.NumericalEvents++
		}
	}
	if opt.UniformRowSampling {
		for i := range weightsVec {
			if weightsVec[i] > 0 {
				weightsVec[i] = 1
			}
		}
	}
	sampler := newRefSampler(weightsVec)
	if sampler.total == 0 {
		// Degenerate all-zero matrix: nothing to fit.
		st.Reason = StopZeroGrad
		st.Converged = true
		st.Elapsed = time.Since(start)
		return x, st, nil
	}
	k := int(opt.KFrac * float64(m))
	if k < opt.KMin {
		k = opt.KMin
	}
	if k < 1 {
		k = 1
	}
	if k > m {
		k = m
	}

	g := make([]float64, n)
	gPrev := make([]float64, n)
	d := make([]float64, n)
	diff := make([]float64, n)
	rows := make([]int, k)
	coeffs := make([]float64, k)
	active := make([]bool, k)

	// Divergence safeguard: stochastic exact steps on tiny minibatches can
	// occasionally compound into a blow-up, so the full objective is
	// checked periodically; the method reverts to the best iterate (with a
	// momentum reset) whenever it has drifted clearly above it, and the
	// best iterate is what is ultimately returned.
	const checkEvery = 25
	// A solve that keeps tripping the non-finite detector is hopeless;
	// give up deterministically instead of burning the iteration budget.
	const maxNumericalEvents = 50
	best := num.Copy(x)
	bestF := refObjective(p, x)
	st.RowWork += m
	if math.IsNaN(bestF) || math.IsInf(bestF, 0) {
		// A non-finite warm start is unusable; restart from zero, the
		// always-valid identity point of the correction space.
		st.NumericalEvents++
		num.Fill(x, 0)
		copy(best, x)
		bestF = refObjective(p, x)
		st.RowWork += m
		if math.IsNaN(bestF) || math.IsInf(bestF, 0) {
			st.Reason = StopDiverged
			st.Objective = bestF
			st.Elapsed = time.Since(start)
			return x, st, nil
		}
	}
	f0 := bestF
	lastImprove := 0
	// Smoothed relative solution change: single stochastic steps are far
	// too noisy for the paper's line-2 test to fire reliably.
	ema := math.Inf(1)
	st.Reason = StopMaxIters

	for st.Iters = 1; st.Iters <= opt.MaxIters; st.Iters++ {
		obsIterSCG.Inc()
		if cancelled(ctx) {
			st.Reason = StopCancelled
			break
		}
		if st.NumericalEvents >= maxNumericalEvents {
			st.Reason = StopDiverged
			break
		}
		// Lines 3-5: sample k'' rows by Eq. (11), then every sampled row's
		// term at x, then the gradient on those rows only, scattered in
		// sample order.
		for t := 0; t < k; t++ {
			rows[t] = sampler.sample(r)
		}
		for t := 0; t < k; t++ {
			resid, short := refTerm(p, rows[t], refRowDot(p.A, rows[t], x))
			coeffs[t] = resid - p.Penalty*short
			active[t] = short > 0
		}
		num.Fill(g, 0)
		for t := 0; t < k; t++ {
			refAddScaledRow(p.A, g, rows[t], 2*coeffs[t])
		}
		st.RowWork += 2 * k
		faultinject.Slice(faultinject.SolverGradient, g)
		gn := num.Norm2(g)
		if math.IsNaN(gn) || math.IsInf(gn, 0) {
			// Corrupt minibatch gradient: drop the step, restore the best
			// iterate and restart the conjugate direction.
			st.NumericalEvents++
			copy(x, best)
			num.Fill(d, 0)
			num.Fill(gPrev, 0)
			continue
		}
		if gn == 0 {
			st.Reason = StopZeroGrad
			break // sampled rows are all satisfied exactly
		}
		// Line 6: normalize.
		num.Scale(1/gn, g)
		// Line 7: Polak-Ribière parameter (g_{k-1} is already normalized,
		// so its squared norm is 1 after the first iteration).
		var beta float64
		// Skip the PR parameter right after a momentum reset (gPrev == 0):
		// dividing by ||g_{k-1}||^2 = 0 would produce an Inf beta that
		// poisons the conjugate direction with NaNs.
		if g2 := num.Norm2Sq(gPrev); st.Iters > 1 && g2 > 0 {
			num.Sub(diff, g, gPrev)
			beta = num.Dot(g, diff) / g2
			if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
				beta = 0 // PR+ restart, standard practice
			}
		}
		// Line 8: conjugate direction.
		for j := range d {
			d[j] = -g[j] + beta*d[j]
		}
		dn := num.Norm2(d)
		if dn == 0 {
			st.Reason = StopZeroGrad
			break
		}
		// Line 9: dynamic step size. The step alpha* that exactly
		// minimizes the sampled quadratic along d converges far faster
		// than a fixed displacement; the paper's s/||d|| rule serves as
		// fallback when the minibatch curvature vanishes, and a trust
		// region bounds the displacement against minibatch noise. The
		// reduction sums fixed miniGrain-sized sample blocks, then the
		// block sums in block order.
		st.RowWork += k
		var numer, denom float64
		for lo := 0; lo < k; lo += miniGrain {
			var nPart, dPart float64
			for t := lo; t < min(lo+miniGrain, k); t++ {
				ad := refRowDot(p.A, rows[t], d)
				w := 1.0
				if active[t] {
					w += p.Penalty // penalty-active rows carry extra curvature
				}
				nPart += coeffs[t] * ad
				dPart += w * ad * ad
			}
			numer += nPart
			denom += dPart
		}
		var alpha float64
		if denom > 0 {
			alpha = -numer / denom
			// Robbins-Monro damping: the stochastic noise floor scales
			// with the step size, so shrinking the exact minibatch step
			// over time keeps lowering the attainable full objective.
			alpha /= 1 + float64(st.Iters)/300
		} else {
			s := opt.Step
			if opt.StepDecay {
				s = opt.Step / math.Sqrt(float64(st.Iters))
			}
			alpha = s / dn
		}
		xn := num.Norm2(x)
		if maxDisp := 0.5 * (1 + xn); math.Abs(alpha)*dn > maxDisp {
			alpha = math.Copysign(maxDisp/dn, alpha)
		}
		alpha = faultinject.Float64(faultinject.SolverStep, alpha)
		obsStep.Set(alpha)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			st.NumericalEvents++
			copy(x, best)
			num.Fill(d, 0)
			num.Fill(gPrev, 0)
			continue
		}
		// Line 10: update.
		num.Axpy(alpha, d, x)
		copy(gPrev, g)
		if st.Iters%checkEvery == 0 {
			f := refObjective(p, x)
			st.RowWork += m
			obsObjective.Set(f)
			switch {
			case f < bestF*(1-1e-6):
				bestF = f
				copy(best, x)
				lastImprove = st.Iters
			case f > 5*bestF+1e-12 || math.IsNaN(f) || math.IsInf(f, 1):
				if math.IsNaN(f) || math.IsInf(f, 1) {
					st.NumericalEvents++
				}
				st.Reverts++
				copy(x, best)
				num.Fill(d, 0)
				num.Fill(gPrev, 0)
			}
			// Stagnation stop: the stochastic iteration has reached its
			// noise floor when the full objective stops improving.
			if st.Iters-lastImprove >= 8*checkEvery {
				st.Reason = StopStalled
				break
			}
		}
		// Line 2: relative-change convergence test on a smoothed (EMA)
		// change, because single stochastic steps are noisy. The step
		// displacement is |alpha|*||d|| by construction, so the relative
		// change needs no extra vector pass. Skip the first steps where
		// ||x|| is still ~0.
		rel := math.Abs(alpha) * dn
		if xn > 0 {
			rel /= xn
		}
		if math.IsInf(ema, 1) {
			ema = rel
		} else {
			ema = 0.97*ema + 0.03*rel
		}
		if st.Iters > 100 && ema <= opt.Tol {
			st.Reason = StopConverged
			break
		}
	}
	if f := refObjective(p, x); f < bestF {
		bestF = f
		copy(best, x)
	}
	st.RowWork += m
	copy(x, best)
	st.Converged = st.Reason.terminal()
	st.Objective = bestF
	st.Improved = bestF < f0
	st.Elapsed = time.Since(start)
	observeSolve(obsSolvesSCG, &st)
	return x, st, nil
}

// refSCGRS is the reference Algorithm 1 stacked on refSCG (SCG + RS in
// Table 4): uniformly sample a tiny fraction of the rows, solve the
// reduced problem, and double the sampling ratio until the solution
// stabilizes within eps_u.
func refSCGRS(ctx context.Context, p *Problem, opt Options, r *rng.Rand) ([]float64, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := faultinject.Err(faultinject.SolverStart); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	m := p.A.Rows()
	st := Stats{}
	x := make([]float64, p.A.Cols())
	if opt.X0 != nil {
		if len(opt.X0) != len(x) {
			return nil, st, fmt.Errorf("solver: X0 has %d entries, want %d", len(opt.X0), len(x))
		}
		copy(x, opt.X0)
	}
	if m == 0 {
		st.Reason = StopZeroGrad
		st.Converged = true
		return x, st, nil
	}
	f0 := refObjective(p, x)
	st.RowWork += m
	// Algorithm 1 doubles the sampling ratio each round; the row count is
	// floored at MinRows, and at one row, so the doubling acts on the
	// actual system size from the first round on.
	rows := int(opt.R0 * float64(m))
	if rows < opt.MinRows {
		rows = opt.MinRows
	}
	if rows < 1 {
		rows = 1
	}
	if rows > m {
		rows = m
	}
	var xPrev []float64
	inner := opt
	st.Reason = StopMaxIters
	for st.Outer = 1; st.Outer <= opt.MaxOuter; st.Outer++ {
		obsOuterSCGRS.Inc()
		if cancelled(ctx) {
			st.Reason = StopCancelled
			break
		}
		sel := r.SampleWithoutReplacement(m, rows)
		sub := refSubProblem(p, sel)
		st.RowWork += rows
		var innerStats Stats
		var err error
		// Warm-start each round from the previous round's solution: the
		// sampled systems approximate the same problem, so the previous
		// optimum is an excellent initial point.
		inner.X0 = x
		x, innerStats, err = refSCG(ctx, sub, inner, r)
		if err != nil {
			return nil, st, err
		}
		st.Iters += innerStats.Iters
		st.RowWork += innerStats.RowWork
		st.RowsUsed = rows
		st.NumericalEvents += innerStats.NumericalEvents
		st.Reverts += innerStats.Reverts
		if innerStats.Reason == StopCancelled || innerStats.Reason == StopDiverged {
			// Propagate hard stops: the outer doubling cannot fix either.
			st.Reason = innerStats.Reason
			break
		}
		if xPrev != nil && num.RelDiff(x, xPrev) <= opt.TolU {
			st.Reason = StopConverged
			break
		}
		if rows == m {
			// Already solving the full system: the inner solve's verdict
			// is the final one.
			st.Reason = innerStats.Reason
			break
		}
		xPrev = num.Copy(x)
		rows *= 2
		if rows > m {
			rows = m
		}
	}
	st.Converged = st.Reason.terminal()
	st.Objective = refObjective(p, x)
	st.RowWork += m
	st.Improved = st.Objective < f0
	st.Elapsed = time.Since(start)
	observeSolve(obsSolvesSCGRS, &st)
	return x, st, nil
}

// refCase is one seeded problem and solve configuration of the reference
// suite.
type refCase struct {
	seed       uint64
	rows, cols int
	perRow     int     // most entries per row (each row draws 1..perRow)
	amp        float64 // amplitude of the fitted correction (0: 0.3)
	penalty    float64 // 0 or 10
	guard      bool    // random guards, else nil
	x0         int     // 0: nil, 1: random, 2: non-finite
	uniform    bool    // UniformRowSampling
	kMin       int     // 0 keeps the default
	maxIters   int
	workers    int
	fault      int // 0: none, 1: NaN gradients, 2: non-finite steps, 3: divergent steps
}

func (c refCase) String() string {
	return fmt.Sprintf("seed%d_%dx%d_nz%d_amp%g_pen%g_guard%v_x0%d_uni%v_kmin%d_it%d_w%d_fault%d",
		c.seed, c.rows, c.cols, c.perRow, c.amp, c.penalty, c.guard, c.x0, c.uniform, c.kMin, c.maxIters, c.workers, c.fault)
}

// refCaseFromSeed draws a case from seed, sized between 8x3 and 5000x1600.
func refCaseFromSeed(seed uint64) refCase {
	r := rng.New(seed)
	c := refCase{seed: seed}
	c.rows = 8 + r.Intn(5000-8+1)
	c.cols = 3 + r.Intn(1600-3+1)
	c.perRow = 1 + r.Intn(min(120, c.cols))
	if r.Intn(2) == 0 {
		c.amp = 5
	}
	if r.Intn(2) == 0 {
		c.penalty = 10
	}
	c.guard = r.Intn(2) == 0
	c.x0 = r.Intn(3)
	c.uniform = r.Intn(4) == 0
	if r.Intn(4) == 0 {
		c.kMin = 256 + r.Intn(200)
	}
	c.maxIters = 20 + r.Intn(400)
	c.workers = 1 + r.Intn(2)
	c.fault = r.Intn(4)
	return c
}

// problem builds the case's system: positive entries like derated
// delays, targets fitted by a sparse correction plus noise.
func (c refCase) problem() *Problem {
	r := rng.New(c.seed ^ 0x9e3779b97f4a7c15)
	b := sparse.NewBuilder(c.cols)
	for i := 0; i < c.rows; i++ {
		n := 1 + r.Intn(c.perRow)
		idx := make([]int, n)
		val := make([]float64, n)
		for k := range idx {
			idx[k] = r.Intn(c.cols) // repeats merge, as on reconvergent paths
			val[k] = 0.1 + r.Float64()
		}
		if err := b.AddRow(idx, val); err != nil {
			panic(err)
		}
	}
	a := b.Build()
	a.SetParallelism(c.workers)
	amp := c.amp
	if amp == 0 {
		amp = 0.3
	}
	xTrue := make([]float64, c.cols)
	for j := range xTrue {
		if r.Intn(8) == 0 {
			xTrue[j] = amp * (2*r.Float64() - 1)
		}
	}
	rhs := a.MulVec(nil, xTrue)
	for i := range rhs {
		rhs[i] += 0.05 * r.NormFloat64()
	}
	p := &Problem{A: a, B: rhs, Penalty: c.penalty}
	if c.guard {
		p.Guard = make([]float64, c.rows)
		for i := range p.Guard {
			p.Guard[i] = 0.2 * r.Float64()
		}
	}
	return p
}

// options returns the case's solver options.
func (c refCase) options() Options {
	opt := DefaultOptions()
	opt.MaxIters = c.maxIters
	opt.UniformRowSampling = c.uniform
	if c.kMin > 0 {
		opt.KMin = c.kMin
	}
	opt.MinRows = 64
	opt.MaxOuter = 5
	r := rng.New(c.seed + 7)
	switch c.x0 {
	case 1:
		opt.X0 = make([]float64, c.cols)
		for j := range opt.X0 {
			opt.X0[j] = 0.2 * r.NormFloat64()
		}
	case 2:
		opt.X0 = make([]float64, c.cols)
		opt.X0[r.Intn(c.cols)] = math.Inf(1)
	}
	return opt
}

// injectFaults arms the case's fault schedule, counting calls from zero:
// NaN gradients on every 7th sampled gradient, infinite steps on every
// 11th step, or a step blown up by 1e6 at every second objective check,
// which that check reverts; the checks between record new best iterates,
// and the steps after a revert start from the best iterate's norm.
func (c refCase) injectFaults() {
	faultinject.Reset()
	calls := 0
	switch c.fault {
	case 1:
		faultinject.SetSlice(faultinject.SolverGradient, func(g []float64) {
			if calls++; calls%7 == 0 {
				g[calls%len(g)] = math.NaN()
			}
		})
	case 2:
		faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 {
			if calls++; calls%11 == 0 {
				return math.Inf(1)
			}
			return v
		})
	case 3:
		faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 {
			if calls++; calls%50 == 25 {
				return v * 1e6
			}
			return v
		})
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameStats compares every Stats field but Elapsed, the objective by bits.
func sameStats(a, b Stats) bool {
	a.Elapsed, b.Elapsed = 0, 0
	oa, ob := a.Objective, b.Objective
	a.Objective, b.Objective = 0, 0
	return a == b && math.Float64bits(oa) == math.Float64bits(ob)
}

// checkMatchesReference solves the case with SCG and SCGRS and with their
// references, under the same fault schedule and seed, and requires x and
// every Stats field but Elapsed to match bit for bit. It returns the
// reference SCG and SCGRS stats.
func checkMatchesReference(t *testing.T, c refCase) (scgStats, scgrsStats Stats) {
	t.Helper()
	defer faultinject.Reset()
	p := c.problem()
	opt := c.options()
	type solve func(context.Context, *Problem, Options, *rng.Rand) ([]float64, Stats, error)
	for _, s := range []struct {
		name      string
		got, want solve
		stats     *Stats
	}{
		{"SCG", SCG, refSCG, &scgStats},
		{"SCGRS", SCGRS, refSCGRS, &scgrsStats},
	} {
		c.injectFaults()
		wantX, wantSt, wantErr := s.want(context.Background(), p, opt, rng.New(c.seed))
		c.injectFaults()
		gotX, gotSt, gotErr := s.got(context.Background(), p, opt, rng.New(c.seed))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%v %s: error %v, reference %v", c, s.name, gotErr, wantErr)
		}
		if !sameBits(gotX, wantX) {
			t.Fatalf("%v %s: x differs from the reference", c, s.name)
		}
		if !sameStats(gotSt, wantSt) {
			t.Fatalf("%v %s: stats %+v, reference %+v", c, s.name, gotSt, wantSt)
		}
		*s.stats = wantSt
	}
	return scgStats, scgrsStats
}

// TestSCGMatchesReference: SCG and SCGRS equal the independent reference
// bit for bit, over seeded problems from 8x3 to 5000x1600, both
// penalties, nil and random guards, nil, random and non-finite warm
// starts, both row samplers, minibatches past miniGrain (a multi-block
// step reduction), and fault schedules that reach the NaN-gradient reset,
// the non-finite-step branch and the divergence revert.
func TestSCGMatchesReference(t *testing.T) {
	cases := []refCase{
		{seed: 1, rows: 8, cols: 3, perRow: 3, maxIters: 300, workers: 1},
		{seed: 2, rows: 5000, cols: 1600, perRow: 120, penalty: 10, guard: true, x0: 1, maxIters: 150, workers: 2},
		{seed: 3, rows: 900, cols: 200, perRow: 40, penalty: 10, guard: true, maxIters: 600, workers: 1},
		{seed: 4, rows: 900, cols: 200, perRow: 40, x0: 2, uniform: true, maxIters: 400, workers: 2},
		{seed: 5, rows: 3000, cols: 400, perRow: 30, penalty: 10, kMin: 300, maxIters: 300, workers: 2},
		{seed: 6, rows: 600, cols: 150, perRow: 20, penalty: 10, guard: true, maxIters: 400, workers: 1, fault: 1},
		{seed: 7, rows: 600, cols: 150, perRow: 20, penalty: 10, maxIters: 400, workers: 1, fault: 2},
		{seed: 8, rows: 600, cols: 150, perRow: 20, penalty: 10, guard: true, x0: 1, maxIters: 400, workers: 2, fault: 3},
		{seed: 9, rows: 800, cols: 120, perRow: 15, amp: 5, maxIters: 500, workers: 1, fault: 3},
		{seed: 10, rows: 800, cols: 120, perRow: 15, amp: 5, penalty: 10, guard: true, x0: 1, maxIters: 500, workers: 2, fault: 3},
	}
	seeded := uint64(24)
	if raceEnabled {
		// The race detector slows these serial-bookkeeping solves tenfold;
		// the fixed cases already run both worker counts and every branch.
		seeded = 0
	}
	for s := uint64(100); s < 100+seeded; s++ {
		cases = append(cases, refCaseFromSeed(s))
	}
	var nanResets, stepResets, reverts, blocked int
	for _, c := range cases {
		st, rs := checkMatchesReference(t, c)
		switch c.fault {
		case 1:
			nanResets += st.NumericalEvents + rs.NumericalEvents
		case 2:
			stepResets += st.NumericalEvents + rs.NumericalEvents
		case 3:
			reverts += st.Reverts + rs.Reverts
		}
		if c.kMin > miniGrain && c.rows > miniGrain {
			blocked++
		}
	}
	if nanResets == 0 || stepResets == 0 || reverts == 0 || blocked == 0 {
		t.Fatalf("a branch went unexercised: %d NaN-gradient resets, %d non-finite-step resets, %d reverts, %d blocked step-reduction cases",
			nanResets, stepResets, reverts, blocked)
	}
}

// FuzzSCGMatchesReference is TestSCGMatchesReference's body over fuzzed
// seeds.
func FuzzSCGMatchesReference(f *testing.F) {
	for _, s := range []uint64{1, 2, 3, 42} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkMatchesReference(t, refCaseFromSeed(seed))
	})
}

// TestSCGAllocsIndependentOfIters: an SCG solve allocates its working set
// once, so ten times the iterations cost no extra allocation.
func TestSCGAllocsIndependentOfIters(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	p, _ := randProblem(31, 2000, 300, 10, 30, 10)
	allocs := func(iters int) (float64, int) {
		opt := DefaultOptions()
		opt.MaxIters = iters
		opt.Tol = 0 // never converged: run until the budget or a stall
		var st Stats
		a := testing.AllocsPerRun(10, func() {
			_, st, _ = SCG(context.Background(), p, opt, rng.New(5))
		})
		return a, st.Iters
	}
	short, shortIters := allocs(100)
	long, longIters := allocs(1000)
	if longIters <= 2*shortIters {
		t.Fatalf("the long solve ran %d iterations against %d; the fixture does not test iteration growth", longIters, shortIters)
	}
	if short != long {
		t.Fatalf("SCG allocates %.0f times at %d iterations and %.0f at %d", short, shortIters, long, longIters)
	}
}
