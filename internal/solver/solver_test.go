package solver

import (
	"context"
	"math"
	"testing"

	"mgba/internal/faultinject"
	"mgba/internal/num"
	"mgba/internal/rng"
	"mgba/internal/sparse"
)

// bg is the context used by tests that never cancel.
var bg = context.Background()

// randProblem builds a consistent system A x* = b with a sparse x*.
func randProblem(seed uint64, rows, cols, perRow, nnzX int, penalty float64) (*Problem, []float64) {
	r := rng.New(seed)
	b := sparse.NewBuilder(cols)
	for i := 0; i < rows; i++ {
		idx := r.SampleWithoutReplacement(cols, perRow)
		val := make([]float64, perRow)
		for k := range val {
			val[k] = 0.5 + r.Float64() // positive, like derated delays
		}
		if err := b.AddRow(idx, val); err != nil {
			panic(err)
		}
	}
	m := b.Build()
	xTrue := make([]float64, cols)
	for _, j := range r.SampleWithoutReplacement(cols, nnzX) {
		xTrue[j] = -0.2 + 0.4*r.Float64() // small sparse corrections
	}
	rhs := m.MulVec(nil, xTrue)
	guard := make([]float64, rows)
	for i := range guard {
		guard[i] = 0.05
	}
	return &Problem{A: m, B: rhs, Guard: guard, Penalty: penalty}, xTrue
}

func TestValidate(t *testing.T) {
	p, _ := randProblem(1, 10, 5, 3, 2, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.B = bad.B[:5]
	if bad.Validate() == nil {
		t.Fatal("short B accepted")
	}
	bad = *p
	bad.Guard = []float64{1}
	if bad.Validate() == nil {
		t.Fatal("short guard accepted")
	}
	bad = *p
	bad.Penalty = -1
	if bad.Validate() == nil {
		t.Fatal("negative penalty accepted")
	}
	bad = *p
	bad.Guard = num.Copy(p.Guard)
	bad.Guard[0] = -0.1
	if bad.Validate() == nil {
		t.Fatal("negative guard accepted")
	}
	if (&Problem{}).Validate() == nil {
		t.Fatal("nil matrix accepted")
	}
}

func TestObjectiveAtSolutionIsZero(t *testing.T) {
	p, xTrue := randProblem(2, 50, 20, 5, 4, 10)
	if f := p.Objective(xTrue); f > 1e-18 {
		t.Fatalf("objective at exact solution = %v", f)
	}
	if v := p.ViolationCount(xTrue); v != 0 {
		t.Fatalf("violations at exact solution = %d", v)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	p, _ := randProblem(3, 30, 12, 4, 3, 5)
	r := rng.New(99)
	x := make([]float64, 12)
	for i := range x {
		x[i] = r.NormFloat64() * 0.3
	}
	g := p.Gradient(nil, x)
	const h = 1e-6
	for j := range x {
		xp := num.Copy(x)
		xm := num.Copy(x)
		xp[j] += h
		xm[j] -= h
		fd := (p.Objective(xp) - p.Objective(xm)) / (2 * h)
		if math.Abs(fd-g[j]) > 1e-3*(1+math.Abs(fd)) {
			t.Fatalf("gradient[%d] = %v, finite difference %v", j, g[j], fd)
		}
	}
}

func TestViolationCountAndPenaltyDirection(t *testing.T) {
	// One row, one column: a=1, b=1, guard=0.1. At x=0.5 the model delay
	// is below the floor 0.9 -> one violation, and the penalized gradient
	// must push x upward harder than the unpenalized one.
	b := sparse.NewBuilder(1)
	b.AddRow([]int{0}, []float64{1})
	m := b.Build()
	noPen := &Problem{A: m, B: []float64{1}, Guard: []float64{0.1}, Penalty: 0}
	pen := &Problem{A: m, B: []float64{1}, Guard: []float64{0.1}, Penalty: 100}
	x := []float64{0.5}
	// ViolationCount is a constraint diagnostic: it reports the shortfall
	// whether or not the penalty term is enabled.
	if noPen.ViolationCount(x) != 1 || pen.ViolationCount(x) != 1 {
		t.Fatal("violation not counted")
	}
	g0 := noPen.Gradient(nil, x)[0]
	g1 := pen.Gradient(nil, x)[0]
	if g1 >= g0 {
		t.Fatalf("penalty does not strengthen the pull upward: %v vs %v", g1, g0)
	}
}

func TestSubProblem(t *testing.T) {
	p, _ := randProblem(4, 20, 8, 3, 2, 7)
	sub := p.SubProblem([]int{3, 3, 17})
	if sub.A.Rows() != 3 || len(sub.B) != 3 || len(sub.Guard) != 3 {
		t.Fatalf("sub shapes: %d rows, %d B, %d guard", sub.A.Rows(), len(sub.B), len(sub.Guard))
	}
	if sub.B[0] != p.B[3] || sub.B[2] != p.B[17] {
		t.Fatal("targets not carried over")
	}
	if sub.Penalty != p.Penalty {
		t.Fatal("penalty not carried over")
	}
}

func TestGDSolvesConsistentSystem(t *testing.T) {
	p, _ := randProblem(5, 120, 40, 6, 6, 10)
	x, st, err := GD(bg, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Sqrt(p.Objective(x)) / num.Norm2(p.B)
	if rel > 0.02 {
		t.Fatalf("GD relative residual = %v (iters %d)", rel, st.Iters)
	}
	if st.Iters == 0 || st.Elapsed <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if !st.Converged || !st.Improved {
		t.Fatalf("healthy GD solve not marked converged+improved: %+v", st)
	}
	if st.NumericalEvents != 0 {
		t.Fatalf("clean solve recorded numerical events: %+v", st)
	}
}

func TestGDZeroRHS(t *testing.T) {
	p, _ := randProblem(6, 30, 10, 3, 0, 5)
	// x* = 0 -> b = 0 -> GD should stay at 0 and stop immediately.
	x, st, err := GD(bg, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if num.Norm2(x) > 1e-12 {
		t.Fatalf("GD moved away from exact solution: %v", x)
	}
	if st.Iters > 2 {
		t.Fatalf("GD wasted %d iterations on a solved problem", st.Iters)
	}
	if !st.Converged || st.Reason != StopZeroGrad {
		t.Fatalf("exact solution not reported as zero-gradient: %+v", st)
	}
}

func TestSCGReducesObjective(t *testing.T) {
	p, _ := randProblem(7, 400, 80, 8, 10, 10)
	f0 := p.Objective(make([]float64, 80))
	x, st, err := SCG(bg, p, DefaultOptions(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Objective(x)
	if f >= f0*0.2 {
		t.Fatalf("SCG objective %v not well below start %v (iters %d)", f, f0, st.Iters)
	}
}

func TestSCGDeterministicGivenSeed(t *testing.T) {
	p, _ := randProblem(8, 200, 50, 6, 6, 10)
	x1, _, _ := SCG(bg, p, DefaultOptions(), rng.New(42))
	x2, _, _ := SCG(bg, p, DefaultOptions(), rng.New(42))
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("SCG not deterministic for fixed seed")
		}
	}
}

func TestSCGEmptyProblem(t *testing.T) {
	b := sparse.NewBuilder(5)
	m := b.Build()
	p := &Problem{A: m, B: nil}
	x, _, err := SCG(bg, p, DefaultOptions(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 5 || num.Norm2(x) != 0 {
		t.Fatalf("empty problem solution = %v", x)
	}
}

func TestSCGAllZeroMatrix(t *testing.T) {
	b := sparse.NewBuilder(3)
	b.AddRow(nil, nil)
	b.AddRow(nil, nil)
	p := &Problem{A: b.Build(), B: []float64{0, 0}}
	x, _, err := SCG(bg, p, DefaultOptions(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if num.Norm2(x) != 0 {
		t.Fatalf("zero matrix moved x: %v", x)
	}
}

// TestSCGSamplesAtLeastOneRow: with KFrac, KMin, R0 and MinRows at zero,
// SCG's minibatch and Algorithm 1's first round still hold one row. An
// empty minibatch leaves the sampled gradient at zero, so SCG would stop
// at its start on a zero gradient the system does not have (x = 0,
// objective 25, converged), and every SCGRS round would solve an empty
// sample. A nonempty minibatch whose sampled gradient or conjugate
// direction vanishes away from the optimum still stops SCG with
// StopZeroGrad; the committed bufcase fit stops that way, so this test
// pins the empty minibatch alone.
func TestSCGSamplesAtLeastOneRow(t *testing.T) {
	b := sparse.NewBuilder(2)
	b.AddRow([]int{0}, []float64{1})
	b.AddRow([]int{1}, []float64{1})
	p := &Problem{A: b.Build(), B: []float64{3, 4}}
	opt := DefaultOptions()
	opt.KFrac, opt.KMin, opt.R0, opt.MinRows = 0, 0, 0, 0
	for _, s := range []struct {
		name  string
		solve func(context.Context, *Problem, Options, *rng.Rand) ([]float64, Stats, error)
	}{{"SCG", SCG}, {"SCGRS", SCGRS}} {
		x, st, err := s.solve(bg, p, opt, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if st.RowsUsed < 1 || st.Iters < 1 || !st.Improved || st.Objective >= p.ObjectiveAtZero() {
			t.Fatalf("%s took no step: %d rows, %d iterations, %v, objective %v at x = %v (%v at the start)",
				s.name, st.RowsUsed, st.Iters, st.Reason, st.Objective, x, p.ObjectiveAtZero())
		}
	}
}

func TestSCGRSConvergesAndUsesFewRows(t *testing.T) {
	p, _ := randProblem(9, 3000, 60, 6, 8, 10)
	opt := DefaultOptions()
	x, st, err := SCGRS(bg, p, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Sqrt(p.Objective(x)) / num.Norm2(p.B)
	if rel > 0.05 {
		t.Fatalf("SCGRS relative residual = %v", rel)
	}
	if st.RowsUsed >= p.A.Rows() {
		t.Fatalf("row sampling used the whole system (%d rows)", st.RowsUsed)
	}
	if st.Outer < 1 {
		t.Fatal("no outer rounds recorded")
	}
	if !st.Converged {
		t.Fatalf("successful SCGRS run not marked converged: %+v", st)
	}
}

func TestFullSolveExactOnConsistentSystem(t *testing.T) {
	p, xTrue := randProblem(10, 300, 60, 6, 8, 10)
	x, st, err := FullSolve(bg, p, 8, 400, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if st.Objective > 1e-12 {
		t.Fatalf("FullSolve objective = %v", st.Objective)
	}
	// The system is consistent and overdetermined (300 rows, 60 cols), so
	// the least-squares solution is x* itself.
	if num.RelDiff(x, xTrue) > 1e-5 {
		t.Fatalf("FullSolve missed x*: reldiff %v", num.RelDiff(x, xTrue))
	}
}

func TestPenaltyEnforcesPessimism(t *testing.T) {
	// An inconsistent system: two rows through the same column with
	// conflicting targets. The unconstrained optimum violates the lower
	// row's floor; a large penalty must pull the solution above it.
	b := sparse.NewBuilder(1)
	b.AddRow([]int{0}, []float64{1})
	b.AddRow([]int{0}, []float64{1})
	m := b.Build()
	// Row 0 wants Ax=0, row 1 wants Ax=1 with guard 0.2 (floor 0.8).
	// Unconstrained LS optimum: x=0.5 -> row 1 violated.
	free := &Problem{A: m, B: []float64{0, 1}, Guard: []float64{1e9, 0.2}, Penalty: 0}
	xFree, _, err := FullSolve(bg, free, 4, 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(xFree[0]-0.5) > 1e-6 {
		t.Fatalf("unconstrained optimum = %v, want 0.5", xFree[0])
	}
	hard := &Problem{A: m, B: []float64{0, 1}, Guard: []float64{1e9, 0.2}, Penalty: 1e4}
	xHard, _, err := FullSolve(bg, hard, 10, 200, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// A quadratic penalty approaches the floor from below; the shortfall
	// must shrink to O(1/Penalty), not to exact zero.
	if xHard[0] < 0.8-1e-3 {
		t.Fatalf("penalized solution %v still below floor 0.8", xHard[0])
	}
}

func TestSCGRSMatchesGDAccuracy(t *testing.T) {
	// The Table 4 claim: the accelerated solver keeps similar accuracy.
	p, _ := randProblem(11, 2000, 50, 6, 6, 10)
	xGD, _, err := GD(bg, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	xRS, _, err := SCGRS(bg, p, DefaultOptions(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	fGD := p.Objective(xGD)
	fRS := p.Objective(xRS)
	norm := num.Norm2Sq(p.B)
	if (fRS-fGD)/norm > 0.01 {
		t.Fatalf("SCGRS much less accurate: %v vs %v (rel %v)", fRS, fGD, (fRS-fGD)/norm)
	}
}

func TestOptionsMaxItersRespected(t *testing.T) {
	p, _ := randProblem(12, 500, 40, 5, 5, 10)
	opt := DefaultOptions()
	opt.MaxIters = 3
	_, st, err := SCG(bg, p, opt, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Iters > 4 {
		t.Fatalf("MaxIters ignored: %d", st.Iters)
	}
	// Exhausting the budget is not convergence, and Stats must say so.
	if st.Converged || st.Reason != StopMaxIters {
		t.Fatalf("budget exhaustion reported as convergence: %+v", st)
	}
}

func TestFullSolveConvergedFlag(t *testing.T) {
	p, _ := randProblem(13, 200, 40, 5, 5, 10)
	_, st, err := FullSolve(bg, p, 8, 300, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Reason != StopConverged {
		t.Fatalf("stable active set not reported as converged: %+v", st)
	}
}

func TestSolversCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, _ := randProblem(14, 500, 40, 5, 5, 10)
	type run struct {
		name string
		call func() ([]float64, Stats, error)
	}
	runs := []run{
		{"GD", func() ([]float64, Stats, error) { return GD(ctx, p, DefaultOptions()) }},
		{"SCG", func() ([]float64, Stats, error) { return SCG(ctx, p, DefaultOptions(), rng.New(1)) }},
		{"SCGRS", func() ([]float64, Stats, error) { return SCGRS(ctx, p, DefaultOptions(), rng.New(1)) }},
		{"FullSolve", func() ([]float64, Stats, error) { return FullSolve(ctx, p, 8, 300, 1e-10) }},
	}
	for _, r := range runs {
		x, st, err := r.call()
		if err != nil {
			t.Fatalf("%s: cancelled solve returned error %v, want valid partial result", r.name, err)
		}
		if st.Reason != StopCancelled || st.Converged {
			t.Fatalf("%s: cancelled solve stats %+v", r.name, st)
		}
		if len(x) != p.A.Cols() || !num.AllFinite(x) {
			t.Fatalf("%s: cancelled solve returned unusable x: %v", r.name, x)
		}
		// With zero budget consumed, the partial answer is the start point.
		if num.Norm2(x) != 0 {
			t.Fatalf("%s: pre-cancelled solve moved x: %v", r.name, x)
		}
	}
}

func TestSCGMidRunCancellation(t *testing.T) {
	defer faultinject.Reset()
	p, _ := randProblem(15, 2000, 60, 6, 8, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the solve, deterministically, after 10 steps.
	steps := 0
	faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 {
		if steps++; steps == 10 {
			cancel()
		}
		return v
	})
	x, st, err := SCG(ctx, p, DefaultOptions(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != StopCancelled {
		t.Fatalf("reason = %v (iters %d), want cancelled", st.Reason, st.Iters)
	}
	if st.Iters > 12 {
		t.Fatalf("solver ran %d iterations past the cancellation", st.Iters)
	}
	if !num.AllFinite(x) {
		t.Fatalf("partial result not finite: %v", x)
	}
	if f := p.Objective(x); f > p.Objective(make([]float64, p.A.Cols()))*(1+1e-9) {
		t.Fatalf("partial result worse than start: %v", f)
	}
}

func TestGDInjectedNaNGradient(t *testing.T) {
	defer faultinject.Reset()
	p, _ := randProblem(16, 200, 40, 5, 5, 10)
	calls := 0
	faultinject.SetSlice(faultinject.SolverGradient, func(g []float64) {
		if calls++; calls >= 3 {
			for i := range g {
				g[i] = math.NaN()
			}
		}
	})
	x, st, err := GD(bg, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != StopDiverged || st.NumericalEvents == 0 {
		t.Fatalf("NaN gradient not detected: %+v", st)
	}
	if !num.AllFinite(x) {
		t.Fatalf("GD returned non-finite x under NaN injection: %v", x)
	}
}

func TestSCGInjectedNaNGradientStaysFinite(t *testing.T) {
	defer faultinject.Reset()
	p, _ := randProblem(17, 400, 60, 6, 8, 10)
	faultinject.SetSlice(faultinject.SolverGradient, func(g []float64) {
		for i := range g {
			g[i] = math.NaN()
		}
	})
	x, st, err := SCG(bg, p, DefaultOptions(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != StopDiverged || st.NumericalEvents == 0 {
		t.Fatalf("persistent NaN gradients not reported as divergence: %+v", st)
	}
	if !num.AllFinite(x) {
		t.Fatalf("SCG returned non-finite x under NaN injection: %v", x)
	}
}

func TestSCGInjectedDivergentStep(t *testing.T) {
	defer faultinject.Reset()
	p, _ := randProblem(18, 400, 60, 6, 8, 10)
	faultinject.SetFloat(faultinject.SolverStep, func(v float64) float64 { return v * 1e12 })
	x, st, err := SCG(bg, p, DefaultOptions(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !num.AllFinite(x) {
		t.Fatalf("SCG returned non-finite x under divergent steps: %v", x)
	}
	// The safeguard must have either reverted (and reported it) or the
	// detector flagged the blow-up; a silent "healthy" run is the bug.
	if st.Reverts == 0 && st.NumericalEvents == 0 && st.Improved {
		t.Fatalf("divergent steps went unnoticed: %+v", st)
	}
	if f := p.Objective(x); f > p.Objective(make([]float64, p.A.Cols()))*(1+1e-9) {
		t.Fatalf("returned x worse than start under injection: %v", f)
	}
}
