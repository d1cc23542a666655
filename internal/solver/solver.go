// Package solver implements the optimization machinery of §3.3: the
// penalized least-squares formulation of Eq. (6), a conventional
// full-gradient-descent baseline, the stochastic conjugate gradient method
// of Algorithm 2 (randomized-Kaczmarz row sampling with Polak-Ribière
// directions and dynamic step size), and the uniform row-sampling outer
// loop of Algorithm 1.
//
// All solvers work in *correction space*: the variable x is the deviation
// of the per-gate weights from their GBA value 1, so the initial solution
// is the zero vector and the optimum is extremely sparse (Fig. 3 of the
// paper). internal/core performs the 1+x translation.
//
// One deliberate deviation from the paper's Algorithm 2 is documented in
// Options.StepDecay: the paper's constant dynamic step alpha = s/||d||
// gives every iterate the same displacement s, which cannot satisfy a
// relative-change stopping rule from a zero start; a 1/sqrt(k) decay (the
// standard randomized-Kaczmarz schedule from the paper's own reference
// [15]) restores convergence without changing the per-step geometry.
package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"mgba/internal/faultinject"
	"mgba/internal/num"
	"mgba/internal/par"
	"mgba/internal/rng"
	"mgba/internal/sparse"
)

// Problem is the penalized least-squares problem of Eq. (6) in correction
// space:
//
//	minimize ||A x - B||^2  +  Penalty * sum_i max(0, (B_i - Guard_i) - (A x)_i)^2
//
// The first term fits the mGBA path delays to the PBA targets; the second
// punishes rows whose modelled delay drops below the PBA delay by more
// than the guard band (the epsilon-scaled pessimism constraint of Eq. 5,
// translated to delays: an under-estimated delay is an optimistic slack).
type Problem struct {
	A       *sparse.Matrix
	B       []float64 // per-row target (length A.Rows())
	Guard   []float64 // per-row allowed shortfall, >= 0 (nil means zero)
	Penalty float64   // w of Eq. (6); 0 disables the constraint term

	// scratch holds the reusable evaluation buffers; see EnsureScratch.
	scratch *Scratch
}

// Validate reports the first shape inconsistency.
func (p *Problem) Validate() error {
	if p.A == nil {
		return fmt.Errorf("solver: nil matrix")
	}
	if len(p.B) != p.A.Rows() {
		return fmt.Errorf("solver: %d targets for %d rows", len(p.B), p.A.Rows())
	}
	if p.Guard != nil && len(p.Guard) != p.A.Rows() {
		return fmt.Errorf("solver: %d guards for %d rows", len(p.Guard), p.A.Rows())
	}
	if p.Penalty < 0 {
		return fmt.Errorf("solver: negative penalty")
	}
	for i, g := range p.Guard {
		if g < 0 {
			return fmt.Errorf("solver: negative guard at row %d", i)
		}
	}
	return nil
}

func (p *Problem) guard(i int) float64 {
	if p.Guard == nil {
		return 0
	}
	return p.Guard[i]
}

// GuardAt returns row i's guard band, treating a nil Guard as zero.
func (p *Problem) GuardAt(i int) float64 { return p.guard(i) }

// rowTerm returns the residual and penalty shortfall of row i at Ax_i.
func (p *Problem) rowTerm(i int, axi float64) (resid, shortfall float64) {
	resid = axi - p.B[i]
	if p.Penalty > 0 {
		if floor := p.B[i] - p.guard(i); axi < floor {
			shortfall = floor - axi
		}
	}
	return resid, shortfall
}

// evalCutoffNNZ is the system size below which the evaluation kernels
// run as a single block; above it they use evalBlocks fixed row blocks.
// Both constants depend only on the problem shape — never on the worker
// count — so every Parallelism setting produces bit-identical values.
const evalCutoffNNZ = 1 << 15

// evalBlocks is the fixed block count of the blocked evaluation kernels:
// each block owns an objective partial and (for gradients) a column-sized
// accumulator, combined in ascending block order.
const evalBlocks = 8

// evalMergeGrain is the column grain of the (slot-writing) gradient
// accumulator merge.
const evalMergeGrain = 2048

// miniGrain is the sample-block grain of SCG's step reduction.
const miniGrain = 256

// evalGeometry returns the fixed row-block decomposition of the
// evaluation kernels: a function of the matrix shape alone.
func (p *Problem) evalGeometry() (grain, blocks int) {
	rows := p.A.Rows()
	if rows == 0 {
		return 1, 0
	}
	if p.A.NNZ() < evalCutoffNNZ || rows < evalBlocks {
		return rows, 1
	}
	grain = (rows + evalBlocks - 1) / evalBlocks
	return grain, par.Blocks(rows, grain)
}

// Scratch holds every reusable buffer of the Problem evaluation kernels,
// so steady-state solver iterations run without heap allocation. It is
// attached lazily by EnsureScratch (the solvers do this on entry); a
// Problem with scratch attached must not be evaluated concurrently with
// itself — distinct Problems (SubProblem never shares scratch) remain
// independent.
type Scratch struct {
	partials []float64   // per-block objective/violation partials
	acc      [][]float64 // per-block gradient accumulators
	alphaN   []float64   // per-block SCG step numerator partials
	alphaD   []float64   // per-block SCG step denominator partials

	eval  evalBody  // reusable blocked evaluation body
	merge mergeBody // reusable accumulator-merge body
	alpha alphaBody // reusable SCG step-reduction body
}

func (sc *Scratch) ensurePartials(blocks int) []float64 {
	if cap(sc.partials) < blocks {
		sc.partials = make([]float64, blocks)
	}
	sc.partials = sc.partials[:blocks]
	return sc.partials
}

// ensureAcc returns blocks column-sized gradient accumulators. Contents
// are stale; evalBody zeroes each block before scattering.
func (sc *Scratch) ensureAcc(blocks, cols int) [][]float64 {
	for len(sc.acc) < blocks {
		sc.acc = append(sc.acc, nil)
	}
	for b := 0; b < blocks; b++ {
		if cap(sc.acc[b]) < cols {
			sc.acc[b] = make([]float64, cols)
		}
		sc.acc[b] = sc.acc[b][:cols]
	}
	return sc.acc[:blocks]
}

// EnsureScratch attaches (and returns) the problem's reusable evaluation
// scratch. Idempotent; called automatically by the solvers.
func (p *Problem) EnsureScratch() *Scratch {
	if p.scratch == nil {
		p.scratch = &Scratch{}
	}
	return p.scratch
}

// evalBody is one row block of the fused evaluation kernel: a single
// sweep computes <a_i, x>, the penalized row terms, the block's objective
// partial and — when grad is set — scatters the gradient coefficients
// into the block's private accumulator (or straight into dst when the
// kernel runs as a single block).
type evalBody struct {
	p        *Problem
	x        []float64 // nil means the zero vector
	grad     bool
	count    bool // count guard-floor violations instead of the objective
	partials []float64
	acc      [][]float64 // per-block accumulators; nil when single-block
	dst      []float64   // direct gradient target when acc is nil
}

func (e *evalBody) Chunk(b, lo, hi int) {
	p := e.p
	var g []float64
	if e.grad {
		if e.acc != nil {
			g = e.acc[b]
		} else {
			g = e.dst
		}
		for j := range g {
			g[j] = 0
		}
	}
	var f float64
	for i := lo; i < hi; i++ {
		var axi float64
		if e.x != nil {
			axi = p.A.RowDot(i, e.x)
		}
		if e.count {
			if axi < p.B[i]-p.guard(i)-1e-12 {
				f++
			}
			continue
		}
		r, s := p.rowTerm(i, axi)
		f += r*r + p.Penalty*s*s
		if e.grad {
			p.A.AddScaledRow(g, i, 2*(r-p.Penalty*s))
		}
	}
	e.partials[b] = f
}

// mergeBody combines the per-block gradient accumulators in ascending
// block order, one dst slot per column — deterministic at every worker
// count.
type mergeBody struct {
	dst []float64
	acc [][]float64
}

func (b *mergeBody) Chunk(_, lo, hi int) {
	for j := lo; j < hi; j++ {
		s := b.acc[0][j]
		for t := 1; t < len(b.acc); t++ {
			s += b.acc[t][j]
		}
		b.dst[j] = s
	}
}

// alphaBody is the blocked reduction behind SCG's exact minibatch step:
// per-block numerator/denominator partials over fixed miniGrain-sized
// sample blocks, combined in block order by the caller.
type alphaBody struct {
	p            *Problem
	d            []float64
	rows         []int
	coeffs       []float64
	active       []bool
	numer, denom []float64 // per-block partials
}

func (ab *alphaBody) Chunk(b, lo, hi int) {
	p := ab.p
	var nPart, dPart float64
	for t := lo; t < hi; t++ {
		ad := p.A.RowDot(ab.rows[t], ab.d)
		w := 1.0
		if ab.active[t] {
			w += p.Penalty // penalty-active rows carry extra curvature
		}
		nPart += ab.coeffs[t] * ad
		dPart += w * ad * ad
	}
	ab.numer[b] = nPart
	ab.denom[b] = dPart
}

// ensureAlpha returns the per-block partial buffers of the SCG step
// reduction.
func (sc *Scratch) ensureAlpha(blocks int) ([]float64, []float64) {
	if cap(sc.alphaN) < blocks {
		sc.alphaN = make([]float64, blocks)
		sc.alphaD = make([]float64, blocks)
	}
	sc.alphaN, sc.alphaD = sc.alphaN[:blocks], sc.alphaD[:blocks]
	return sc.alphaN, sc.alphaD
}

// objGrad is the shared one-pass kernel behind Objective, Gradient and
// ObjectiveGradient: blocked over rows with fixed boundaries, per-block
// partials combined in block order. x == nil evaluates at the zero vector
// without touching the matrix values' dot products.
func (p *Problem) objGrad(dst, x []float64, grad, count bool) float64 {
	if x != nil && len(x) != p.A.Cols() {
		panic(fmt.Sprintf("solver: evaluation point has %d entries, want %d", len(x), p.A.Cols()))
	}
	rows := p.A.Rows()
	if rows == 0 {
		if grad {
			num.Fill(dst, 0)
		}
		return 0
	}
	sc := p.EnsureScratch()
	grain, blocks := p.evalGeometry()
	partials := sc.ensurePartials(blocks)
	w := p.A.Parallelism()
	e := &sc.eval
	e.p, e.x, e.grad, e.count, e.partials = p, x, grad, count, partials
	if grad && blocks > 1 {
		e.acc, e.dst = sc.ensureAcc(blocks, p.A.Cols()), nil
	} else {
		e.acc, e.dst = nil, dst
	}
	par.ForBody(w, rows, grain, e)
	var f float64
	for b := 0; b < blocks; b++ {
		f += partials[b]
	}
	if grad && blocks > 1 {
		mg := &sc.merge
		mg.dst, mg.acc = dst, sc.acc[:blocks]
		par.ForBody(w, p.A.Cols(), evalMergeGrain, mg)
		mg.dst, mg.acc = nil, nil
	}
	e.p, e.x, e.partials, e.acc, e.dst = nil, nil, nil, nil, nil
	return f
}

// Objective evaluates Eq. (6) at x.
func (p *Problem) Objective(x []float64) float64 {
	return p.objGrad(nil, x, false, false)
}

// ObjectiveAtZero evaluates Eq. (6) at the zero vector — ||B||^2 plus the
// penalty terms — without any matrix-vector product. It is bit-identical
// to Objective on an all-zero x (same blocked summation), which the
// health checks comparing a fit against the identity correction rely on.
func (p *Problem) ObjectiveAtZero() float64 {
	return p.objGrad(nil, nil, false, false)
}

// Gradient writes the full gradient of the objective into dst (allocating
// when nil) and returns it.
func (p *Problem) Gradient(dst, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, p.A.Cols())
	}
	p.objGrad(dst, x, true, false)
	return dst
}

// ObjectiveGradient fuses Objective and Gradient into one pass over the
// matrix: per row block the dot product, the penalized row terms and the
// gradient scatter happen in a single sweep, which roughly halves the
// memory traffic of a GD iteration. The returned value and gradient are
// bit-identical to separate Objective and Gradient calls.
func (p *Problem) ObjectiveGradient(dst, x []float64) (float64, []float64) {
	if dst == nil {
		dst = make([]float64, p.A.Cols())
	}
	f := p.objGrad(dst, x, true, false)
	return f, dst
}

// ViolationCount returns the number of rows whose modelled delay is below
// the guard floor at x — the "violated path set" size of Eq. (6).
func (p *Problem) ViolationCount(x []float64) int {
	return int(p.objGrad(nil, x, false, true))
}

// SubProblem returns the problem restricted to the given rows (Algorithm
// 1's sampled system). Row indices may repeat.
func (p *Problem) SubProblem(rows []int) *Problem {
	b := make([]float64, len(rows))
	var g []float64
	if p.Guard != nil {
		g = make([]float64, len(rows))
	}
	for k, i := range rows {
		b[k] = p.B[i]
		if g != nil {
			g[k] = p.Guard[i]
		}
	}
	return &Problem{A: p.A.SelectRows(rows), B: b, Guard: g, Penalty: p.Penalty}
}

// StopReason records why a solver terminated. It separates genuine
// convergence from budget exhaustion, cancellation and numerical failure,
// which the degradation ladder in internal/core needs to tell apart.
type StopReason int

const (
	// StopNone means the solver has not run (zero value).
	StopNone StopReason = iota
	// StopConverged means the relative-change tolerance was met.
	StopConverged
	// StopZeroGrad means an exact stationary point was reached (zero
	// gradient or degenerate empty system).
	StopZeroGrad
	// StopStalled means the method hit its attainable accuracy floor:
	// machine precision for GD's line search, the stochastic noise floor
	// for SCG. The solution is as good as the method can make it.
	StopStalled
	// StopMaxIters means the iteration budget ran out before the
	// tolerance was met.
	StopMaxIters
	// StopCancelled means the context was cancelled; the returned x is
	// the best iterate found so far and remains a valid (partial) answer.
	StopCancelled
	// StopDiverged means repeated non-finite values made further
	// progress impossible.
	StopDiverged
)

// String returns a short human-readable label for the reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopConverged:
		return "converged"
	case StopZeroGrad:
		return "zero-gradient"
	case StopStalled:
		return "stalled"
	case StopMaxIters:
		return "max-iters"
	case StopCancelled:
		return "cancelled"
	case StopDiverged:
		return "diverged"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// terminal reports whether the reason counts as reaching the method's
// attainable accuracy (as opposed to running out of budget or failing).
func (r StopReason) terminal() bool {
	return r == StopConverged || r == StopZeroGrad || r == StopStalled
}

// Stats describes one solver run.
type Stats struct {
	Iters     int           // inner iterations performed
	Outer     int           // outer loop rounds (row-sampling solvers)
	RowsUsed  int           // rows of the final (sub)system
	Objective float64       // objective on the *full* problem at the result
	Elapsed   time.Duration // wall-clock time of the solve

	// RowWork counts the matrix rows the solve read: a deterministic
	// measure of its work, where Elapsed is a noisy one. Each full pass
	// (objective, gradient, sampling norms) adds the system's row count;
	// each minibatch kernel (row terms, gradient scatter, step reduction)
	// adds its sample count; building a sampled sub-problem adds the rows
	// it copies, and its inner solve adds that solve's own RowWork. GD,
	// SCG and SCGRS count it; the FullSolve reference leaves it zero.
	RowWork int

	// Converged is true when the solver stopped because it reached its
	// attainable accuracy (tolerance met, exact stationary point, or
	// noise/precision floor) rather than exhausting its budget, being
	// cancelled, or diverging.
	Converged bool
	// Reason records the precise termination cause.
	Reason StopReason
	// NumericalEvents counts non-finite values (NaN/Inf gradients, steps
	// or objectives) encountered and recovered from during the run. Any
	// non-zero count marks the solve numerically unhealthy.
	NumericalEvents int
	// Reverts counts best-iterate restorations performed by SCG's
	// divergence safeguard.
	Reverts int
	// Improved is true when the final objective is strictly below the
	// objective at the starting point.
	Improved bool
}

// cancelled reports whether ctx is done. A nil context never cancels.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Options bundles every tunable of the three solvers. Every field is
// taken as given, zeros included: start from DefaultOptions for the
// paper's parameter set. Whatever KFrac, KMin, R0 and MinRows say, SCG
// samples at least one row per step and Algorithm 1 at least one row in
// its first round.
type Options struct {
	// Shared.
	Tol      float64 // eps_c: relative solution change to stop at (1e-3)
	MaxIters int     // inner iteration cap (safety valve)

	// SCG (Algorithm 2).
	KFrac     float64 // k'': fraction of rows sampled per step (0.02)
	KMin      int     // lower bound on sampled rows per step (32)
	Step      float64 // s: dynamic step scale (0.02)
	StepDecay bool    // s_k = Step/sqrt(k): guarantees termination

	// Row sampling (Algorithm 1).
	R0       float64 // initial row-sampling ratio (1e-5)
	MinRows  int     // lower bound on sampled rows per round (512)
	TolU     float64 // eps_u: outer relative change to stop at (0.1)
	MaxOuter int     // outer doubling rounds cap (safety valve)

	// GD.
	GDStep float64 // initial step for backtracking line search (1.0)

	// X0 warm-starts the solve from a previous solution (nil means the
	// zero vector). All three solvers honor it: Algorithm 1 uses it to
	// carry the solution of one sampling round into the next, and the
	// incremental Calibrator seeds each re-solve from the previous fit. A
	// non-finite warm-start objective resets to the zero vector and counts
	// a numerical event, so a corrupt X0 is surfaced to the health check
	// rather than silently trusted.
	X0 []float64

	// UniformRowSampling replaces Eq. (11)'s norm-proportional minibatch
	// sampling with uniform sampling inside SCG. Exists for the ablation
	// benchmark only; the paper's method keeps it false.
	UniformRowSampling bool
}

// DefaultOptions returns the parameter set used throughout the paper's
// experiments: eps_c = 1e-3, k” = 2%, s = 0.02, r0 = 1e-5, eps_u = 0.1.
func DefaultOptions() Options {
	return Options{
		Tol:       1e-3,
		MaxIters:  4000,
		KFrac:     0.02,
		KMin:      32,
		Step:      0.02,
		StepDecay: true,
		R0:        1e-5,
		MinRows:   512,
		TolU:      0.1,
		MaxOuter:  16,
		GDStep:    1.0,
	}
}

// GD is the conventional full-gradient-descent baseline (GD + w/o RS in
// Table 4): exact gradients over every row, Armijo backtracking line
// search, relative-change stopping. A cancelled ctx stops the descent at
// the current iterate, which is always a valid (monotonically improved)
// solution; the error return is reserved for invalid problems.
func GD(ctx context.Context, p *Problem, opt Options) ([]float64, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := faultinject.Err(faultinject.SolverStart); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	n := p.A.Cols()
	x := make([]float64, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, Stats{}, fmt.Errorf("solver: X0 has %d entries, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	}
	prev := make([]float64, n)
	g := make([]float64, n)
	gNext := make([]float64, n)
	diff := make([]float64, n)
	m := p.A.Rows()
	st := Stats{RowsUsed: m, Reason: StopMaxIters}
	f := p.Objective(x)
	st.RowWork += m
	f0 := f
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// A non-finite warm start is unusable; restart from zero, the
		// always-valid identity point of the correction space.
		st.NumericalEvents++
		num.Fill(x, 0)
		f = p.Objective(x)
		st.RowWork += m
		f0 = f
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// The problem data itself is non-finite; x = 0 is the only
			// safe answer.
			st.Reason = StopDiverged
			st.Objective = f
			st.Elapsed = time.Since(start)
			return x, st, nil
		}
	}
	step := opt.GDStep
	// The fused ObjectiveGradient kernel makes every accepted line-search
	// trial also produce the gradient at the new iterate, so the explicit
	// per-iteration gradient pass is only needed on the first iteration
	// (and the trial values stay bit-identical to separate Objective
	// calls, because both run the same blocked kernel).
	haveGrad := false
	for st.Iters = 1; st.Iters <= opt.MaxIters; st.Iters++ {
		obsIterGD.Inc()
		if cancelled(ctx) {
			st.Reason = StopCancelled
			break
		}
		if !haveGrad {
			p.Gradient(g, x)
			st.RowWork += m
		}
		faultinject.Slice(faultinject.SolverGradient, g)
		if !num.AllFinite(g) {
			// A non-finite gradient leaves no usable descent direction;
			// the current iterate is still the best finite point seen.
			st.NumericalEvents++
			st.Reason = StopDiverged
			break
		}
		gn2 := num.Norm2Sq(g)
		if gn2 == 0 {
			st.Reason = StopZeroGrad
			break
		}
		copy(prev, x)
		// Backtracking Armijo search on f(x - t g).
		t := faultinject.Float64(faultinject.SolverStep, step)
		accepted := false
		for ls := 0; ls < 40; ls++ {
			for j := range x {
				x[j] = prev[j] - t*g[j]
			}
			fNew, _ := p.ObjectiveGradient(gNext, x)
			st.RowWork += m
			if math.IsNaN(fNew) || math.IsInf(fNew, 0) {
				st.NumericalEvents++
				t /= 2
				continue
			}
			if fNew <= f-1e-4*t*gn2 {
				f = fNew
				accepted = true
				// Gentle growth so the next search starts near the
				// accepted scale.
				step = t * 2
				// The accepted trial's gradient is next iteration's g.
				g, gNext = gNext, g
				haveGrad = true
				obsObjective.Set(f)
				obsStep.Set(t)
				break
			}
			t /= 2
		}
		if !accepted {
			copy(x, prev)
			st.Reason = StopStalled
			break // no descent direction at machine precision
		}
		if num.RelDiffInto(diff, x, prev) <= opt.Tol {
			st.Reason = StopConverged
			break
		}
	}
	st.Converged = st.Reason.terminal()
	// f tracks the objective at x on every exit path (x only moves on an
	// accepted trial, whose fused evaluation set f), so no final pass is
	// needed and the value is bit-identical to re-evaluating.
	st.Objective = f
	st.Improved = st.Objective < f0
	st.Elapsed = time.Since(start)
	observeSolve(obsSolvesGD, &st)
	return x, st, nil
}

// SCG is Algorithm 2: stochastic conjugate gradient. Each step samples
// k” rows with probability proportional to their squared Euclidean norm
// (Eq. 11), evaluates the penalized gradient on those rows only,
// normalizes it, combines it with the previous direction through the
// Polak-Ribière parameter, and moves by the dynamic step alpha = s/||d||.
func SCG(ctx context.Context, p *Problem, opt Options, r *rng.Rand) ([]float64, Stats, error) {
	return scg(ctx, p, opt, r, new(scgWork))
}

// scgWork is the working set of SCG solves. SCGRS hands one set to every
// round of Algorithm 1, so the rounds share one set of solver vectors and
// one evaluation scratch: every round's sample spans the same columns, so
// what was sized for one round fits the next.
type scgWork struct {
	x, best, g, gPrev, d []float64 // per column
	rows                 []int     // per minibatch sample
	coeffs               []float64
	active               []bool
	scratch              *Scratch  // SCGRS's sampled systems' evaluation scratch
	xPrev, diff          []float64 // SCGRS's outer convergence test
}

// resize returns buf with length n, reusing its storage when it is large
// enough. The contents are stale.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// scg is SCG on the working set w; the returned x is w's. Every step sweeps
// the column vectors in three fused passes:
//   - normalize g, summing ||g||^2 (the next step's Polak-Ribière
//     denominator) and <g, g - gPrev> (this step's numerator);
//   - form d, folding its norm;
//   - step x, folding the norm the next step's trust region reads.
//
// Each pass computes every output with exactly the floating-point
// operations, in the same order, of a separate scale, dot, direction, axpy
// or num.Norm2 pass, so the fit is bit-identical to one made that way. g
// and gPrev swap roles instead of copying. Every branch that moves x back
// to the best iterate resets the carried norms with it: ||gPrev||^2 to 0,
// as a zeroed gPrev would read, and ||x|| to the best iterate's.
func scg(ctx context.Context, p *Problem, opt Options, r *rng.Rand, w *scgWork) ([]float64, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := faultinject.Err(faultinject.SolverStart); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	m, n := p.A.Rows(), p.A.Cols()
	st := Stats{RowsUsed: m}
	if opt.X0 != nil && len(opt.X0) != n {
		return nil, st, fmt.Errorf("solver: X0 has %d entries, want %d", len(opt.X0), n)
	}
	w.x = resize(w.x, n)
	x := w.x
	if opt.X0 != nil {
		copy(x, opt.X0)
	} else {
		num.Fill(x, 0)
	}
	if m == 0 {
		st.Reason = StopZeroGrad
		st.Converged = true
		return x, st, nil
	}
	weightsVec := p.A.RowNormsSq()
	st.RowWork += m
	// A corrupted matrix row yields a non-finite norm, which the weighted
	// sampler rejects by panicking. Excluding such rows from sampling keeps
	// the solve alive; the full-objective divergence check still sees them,
	// so a poisoned system ends in a diverged (never optimistic) result.
	for i, wt := range weightsVec {
		if math.IsNaN(wt) || math.IsInf(wt, 0) {
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
	sampler := rng.NewWeightedSampler(weightsVec)
	if sampler.Total() == 0 {
		// Degenerate all-zero matrix: nothing to fit.
		st.Reason = StopZeroGrad
		st.Converged = true
		st.Elapsed = time.Since(start)
		return x, st, nil
	}
	// An empty minibatch would leave g at zero and stop at once on a false
	// zero gradient, so a step samples at least one row.
	k := min(max(int(opt.KFrac*float64(m)), opt.KMin, 1), m)

	w.g, w.gPrev, w.d = resize(w.g, n), resize(w.gPrev, n), resize(w.d, n)
	g, gPrev, d := w.g, w.gPrev, w.d
	num.Fill(d, 0)
	w.rows, w.coeffs, w.active = resize(w.rows, k), resize(w.coeffs, k), resize(w.active, k)
	rows, coeffs, active := w.rows, w.coeffs, w.active

	// The step reduction runs blocked. d is updated in place throughout the
	// loop, so its body is wired up once here.
	sc := p.EnsureScratch()
	kWorkers := p.A.Parallelism()
	kBlocks := par.Blocks(k, miniGrain)
	alphaN, alphaD := sc.ensureAlpha(kBlocks)
	ab := &sc.alpha
	ab.p, ab.d, ab.rows, ab.coeffs, ab.active = p, d, rows, coeffs, active
	ab.numer, ab.denom = alphaN, alphaD

	// Divergence safeguard: stochastic exact steps on tiny minibatches can
	// occasionally compound into a blow-up, so the full objective is
	// checked periodically; the method reverts to the best iterate (with a
	// momentum reset) whenever it has drifted clearly above it, and the
	// best iterate is what is ultimately returned.
	const checkEvery = 25
	// A solve that keeps tripping the non-finite detector is hopeless;
	// give up deterministically instead of burning the iteration budget.
	const maxNumericalEvents = 50
	w.best = resize(w.best, n)
	best := w.best
	copy(best, x)
	bestF := p.Objective(x)
	st.RowWork += m
	if math.IsNaN(bestF) || math.IsInf(bestF, 0) {
		// A non-finite warm start is unusable; restart from zero, the
		// always-valid identity point of the correction space.
		st.NumericalEvents++
		num.Fill(x, 0)
		copy(best, x)
		bestF = p.Objective(x)
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
	// The carried norms: ||x|| and the best iterate's, and ||gPrev||^2 (0
	// until a step completes).
	xn := num.Norm2(x)
	bestN := xn
	var gPrevSq float64

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
		// Lines 3-5: sample k'' rows by Eq. (11), gradient on them only, in
		// one serial pass in sample order: draw the row (one RNG stream),
		// compute its term at x and scatter it into g. x stays fixed and
		// the scatters write only g, in sample order, so this is
		// bit-identical to drawing all rows, then computing all terms,
		// then scattering all of them.
		num.Fill(g, 0)
		for t := range rows {
			i := sampler.Sample(r)
			resid, short := p.rowTerm(i, p.A.RowDot(i, x))
			c := resid - p.Penalty*short
			rows[t], coeffs[t], active[t] = i, c, short > 0
			p.A.AddScaledRow(g, i, 2*c)
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
			gPrevSq, xn = 0, bestN
			continue
		}
		if gn == 0 {
			st.Reason = StopZeroGrad
			break // sampled rows are all satisfied exactly
		}
		// Line 6: normalize, summing ||g||^2 and <g, g - gPrev> on the way.
		inv := 1 / gn
		var gSq, gDot float64
		for j := range g {
			gj := g[j] * inv
			g[j] = gj
			gSq += gj * gj
			gDot += gj * (gj - gPrev[j])
		}
		// Line 7: Polak-Ribière parameter (g_{k-1} is already normalized,
		// so its squared norm is 1 after the first iteration).
		var beta float64
		// Skip the PR parameter right after a momentum reset (||g_{k-1}||
		// = 0): dividing by it would produce an Inf beta that poisons the
		// conjugate direction with NaNs.
		if st.Iters > 1 && gPrevSq > 0 {
			beta = gDot / gPrevSq
			if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
				beta = 0 // PR+ restart, standard practice
			}
		}
		// Line 8: conjugate direction, folding ||d||.
		var dScale, dSsq float64 = 0, 1
		for j := range d {
			dj := -g[j] + beta*d[j]
			d[j] = dj
			dScale, dSsq = num.Norm2Step(dScale, dSsq, dj)
		}
		dn := dScale * math.Sqrt(dSsq)
		if dn == 0 {
			st.Reason = StopZeroGrad
			break
		}
		// Line 9: dynamic step size. The step alpha* that exactly
		// minimizes the sampled quadratic along d (a Kaczmarz-style
		// projection of the minibatch) converges far faster than a fixed
		// displacement; the paper's s/||d|| rule serves as fallback when
		// the minibatch curvature vanishes, and a trust region bounds the
		// displacement against minibatch noise.
		par.ForBody(kWorkers, k, miniGrain, ab)
		st.RowWork += k
		var numer, denom float64
		for b := 0; b < kBlocks; b++ {
			numer += alphaN[b]
			denom += alphaD[b]
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
		if maxDisp := 0.5 * (1 + xn); math.Abs(alpha)*dn > maxDisp {
			alpha = math.Copysign(maxDisp/dn, alpha)
		}
		alpha = faultinject.Float64(faultinject.SolverStep, alpha)
		obsStep.Set(alpha)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			st.NumericalEvents++
			copy(x, best)
			num.Fill(d, 0)
			gPrevSq, xn = 0, bestN
			continue
		}
		// Line 10: update, folding the next step's ||x||.
		var xScale, xSsq float64 = 0, 1
		for j := range x {
			xj := x[j] + alpha*d[j]
			x[j] = xj
			xScale, xSsq = num.Norm2Step(xScale, xSsq, xj)
		}
		xnNext := xScale * math.Sqrt(xSsq)
		g, gPrev, gPrevSq = gPrev, g, gSq
		if st.Iters%checkEvery == 0 {
			f := p.Objective(x)
			st.RowWork += m
			obsObjective.Set(f)
			switch {
			case f < bestF*(1-1e-6):
				bestF = f
				copy(best, x)
				bestN = xnNext
				lastImprove = st.Iters
			case f > 5*bestF+1e-12 || math.IsNaN(f) || math.IsInf(f, 1):
				if math.IsNaN(f) || math.IsInf(f, 1) {
					st.NumericalEvents++
				}
				st.Reverts++
				copy(x, best)
				num.Fill(d, 0)
				gPrevSq, xnNext = 0, bestN
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
		xn = xnNext
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
	if f := p.Objective(x); f < bestF {
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

// SCGRS is Algorithm 1 stacked on Algorithm 2 (SCG + RS in Table 4):
// uniformly sample a tiny fraction of the rows, solve the reduced problem
// with SCG, and double the sampling ratio until the solution stabilizes
// within eps_u. The rounds share one SCG working set.
func SCGRS(ctx context.Context, p *Problem, opt Options, r *rng.Rand) ([]float64, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := faultinject.Err(faultinject.SolverStart); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	m, n := p.A.Rows(), p.A.Cols()
	st := Stats{}
	if opt.X0 != nil && len(opt.X0) != n {
		return nil, st, fmt.Errorf("solver: X0 has %d entries, want %d", len(opt.X0), n)
	}
	w := &scgWork{x: make([]float64, n), scratch: new(Scratch)}
	x := w.x
	if opt.X0 != nil {
		copy(x, opt.X0)
	}
	if m == 0 {
		st.Reason = StopZeroGrad
		st.Converged = true
		return x, st, nil
	}
	f0 := p.Objective(x)
	st.RowWork += m
	// Algorithm 1 doubles the sampling ratio each round; the row count is
	// floored at MinRows, and at one row, so the doubling acts on the
	// actual system size from the first round on.
	rows := min(max(int(opt.R0*float64(m)), opt.MinRows, 1), m)
	havePrev := false
	inner := opt
	st.Reason = StopMaxIters
	for st.Outer = 1; st.Outer <= opt.MaxOuter; st.Outer++ {
		obsOuterSCGRS.Inc()
		if cancelled(ctx) {
			st.Reason = StopCancelled
			break
		}
		sel := r.SampleWithoutReplacement(m, rows)
		sub := p.SubProblem(sel)
		sub.scratch = w.scratch
		st.RowWork += rows
		var innerStats Stats
		var err error
		// Warm-start each round from the previous round's solution: the
		// sampled systems approximate the same problem, so the previous
		// optimum is an excellent initial point.
		inner.X0 = x
		x, innerStats, err = scg(ctx, sub, inner, r, w)
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
		if havePrev && num.RelDiffInto(w.diff, x, w.xPrev) <= opt.TolU {
			st.Reason = StopConverged
			break
		}
		if rows == m {
			// Already solving the full system: the inner solve's verdict
			// is the final one.
			st.Reason = innerStats.Reason
			break
		}
		w.xPrev = append(w.xPrev[:0], x...)
		w.diff = resize(w.diff, n)
		havePrev = true
		rows *= 2
		if rows > m {
			rows = m
		}
	}
	st.Converged = st.Reason.terminal()
	st.Objective = p.Objective(x)
	st.RowWork += m
	st.Improved = st.Objective < f0
	st.Elapsed = time.Since(start)
	observeSolve(obsSolvesSCGRS, &st)
	return x, st, nil
}

// FullSolve computes a high-accuracy reference solution via an active-set
// sequence of conjugate-gradient normal-equation solves: with the set of
// penalty-active rows frozen, the objective is quadratic and CGNR solves
// it exactly; the active set is then refreshed and the process repeats
// until it stops changing. Used to obtain the "optimal x*" of Fig. 3 and
// as the accuracy yardstick in tests.
func FullSolve(ctx context.Context, p *Problem, maxOuter, cgIters int, tol float64) ([]float64, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := faultinject.Err(faultinject.SolverStart); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	m, n := p.A.Rows(), p.A.Cols()
	st := Stats{RowsUsed: m, Reason: StopMaxIters}
	x := make([]float64, n)
	prev := make([]float64, n)
	active := make([]bool, m)
	// Every buffer of the outer loop (including CG's workspace) is
	// allocated once per solve, so the iterations themselves are
	// allocation-free.
	av := make([]float64, m)
	rhsRows := make([]float64, m)
	rhs := make([]float64, n)
	cgR := make([]float64, n)
	cgAp := make([]float64, n)
	cgP := make([]float64, n)
	// (A^T W A) v, where active rows carry extra weight Penalty. The
	// conditional form skips the no-op *= 1.0 of inactive rows, which is a
	// bitwise identity.
	matvec := func(dst, v []float64) {
		p.A.MulVec(av, v)
		for i := range av {
			if active[i] {
				av[i] *= 1 + p.Penalty
			}
		}
		p.A.MulTVec(dst, av)
	}
	for outer := 0; outer < maxOuter; outer++ {
		if cancelled(ctx) {
			st.Reason = StopCancelled
			break
		}
		st.Outer++
		obsOuterFull.Inc()
		// Refresh the active set at the current x.
		p.A.MulVec(av, x)
		changed := false
		for i, axi := range av {
			a := p.Penalty > 0 && axi < p.B[i]-p.guard(i)
			if a != active[i] {
				active[i] = a
				changed = true
			}
		}
		if outer > 0 && !changed {
			st.Reason = StopConverged
			break
		}
		// Solve (A^T W A) x = A^T W b' by CG, where active rows get extra
		// weight Penalty and a target at their guard floor.
		for i := 0; i < m; i++ {
			rhsRows[i] = p.B[i]
			if active[i] {
				// Weighted target: 1*b + Penalty*floor.
				rhsRows[i] += p.Penalty * (p.B[i] - p.guard(i))
			}
		}
		p.A.MulTVec(rhs, rhsRows)
		copy(prev, x)
		cg(matvec, rhs, x, cgIters, tol, cgR, cgAp, cgP)
		st.Iters += cgIters
		if !num.AllFinite(x) {
			// CG blew up (ill-conditioned or corrupt data): keep the last
			// finite iterate and stop.
			st.NumericalEvents++
			st.Reason = StopDiverged
			copy(x, prev)
			break
		}
	}
	st.Converged = st.Reason.terminal()
	st.Objective = p.Objective(x)
	st.Improved = st.Objective < p.ObjectiveAtZero()
	st.Elapsed = time.Since(start)
	observeSolve(obsSolvesFull, &st)
	return x, st, nil
}

// cg runs conjugate gradient on the SPD system matvec(x)=rhs, warm-started
// from x, stopping at relative residual tol. r, ap and pdir are
// caller-supplied n-vectors of workspace.
func cg(matvec func(dst, v []float64), rhs, x []float64, iters int, tol float64, r, ap, pdir []float64) {
	matvec(ap, x)
	num.Sub(r, rhs, ap)
	copy(pdir, r)
	rs := num.Norm2Sq(r)
	rhsN := num.Norm2(rhs)
	if rhsN == 0 {
		num.Fill(x, 0)
		return
	}
	for it := 0; it < iters && math.Sqrt(rs) > tol*rhsN; it++ {
		matvec(ap, pdir)
		den := num.Dot(pdir, ap)
		if den <= 0 {
			break
		}
		alpha := rs / den
		num.Axpy(alpha, pdir, x)
		num.Axpy(-alpha, ap, r)
		rsNew := num.Norm2Sq(r)
		beta := rsNew / rs
		rs = rsNew
		for j := range pdir {
			pdir[j] = r[j] + beta*pdir[j]
		}
	}
}
