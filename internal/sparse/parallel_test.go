package sparse

import (
	"math"
	"runtime"
	"testing"

	"mgba/internal/rng"
)

// bigRandMatrix builds a matrix comfortably above parCutoffNNZ so the
// kernels take the blocked path.
func bigRandMatrix(t testing.TB, seed uint64, rows, cols, perRow int) *Matrix {
	t.Helper()
	r := rng.New(seed)
	b := NewBuilder(cols)
	idx := make([]int, perRow)
	val := make([]float64, perRow)
	for i := 0; i < rows; i++ {
		for k := range idx {
			idx[k] = r.Intn(cols)
			val[k] = r.Float64()*2 - 1
		}
		if err := b.AddRow(idx, val); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func randVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	return v
}

// TestKernelsBitIdenticalAcrossWorkers is the determinism contract for
// the sparse kernels: MulVec, MulTVec and RowNormsSq must produce
// bit-identical output at every Parallelism setting (run under -race in
// CI, which also proves the blocked paths are race-free).
func TestKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	m := bigRandMatrix(t, 7, 6000, 900, 8) // 48000 nnz > cutoff
	if m.NNZ() < parCutoffNNZ {
		t.Fatalf("fixture too small: %d nnz", m.NNZ())
	}
	r := rng.New(99)
	x := randVec(r, m.Cols())
	y := randVec(r, m.Rows())

	m.SetParallelism(1)
	refAx := m.MulVec(nil, x)
	refAty := m.MulTVec(nil, y)
	refNorms := m.RowNormsSq()

	for _, w := range []int{2, 3, 8} {
		m.SetParallelism(w)
		ax := m.MulVec(nil, x)
		aty := m.MulTVec(nil, y)
		norms := m.RowNormsSq()
		for i := range refAx {
			if ax[i] != refAx[i] {
				t.Fatalf("workers=%d: MulVec[%d] = %v, want %v", w, i, ax[i], refAx[i])
			}
		}
		for j := range refAty {
			if aty[j] != refAty[j] {
				t.Fatalf("workers=%d: MulTVec[%d] = %v, want %v", w, j, aty[j], refAty[j])
			}
		}
		for i := range refNorms {
			if norms[i] != refNorms[i] {
				t.Fatalf("workers=%d: RowNormsSq[%d] = %v, want %v", w, i, norms[i], refNorms[i])
			}
		}
	}
}

// TestBlockedMulTVecMatchesDense checks the blocked transpose product
// against the naive dense reference within floating-point reassociation
// tolerance (the blocked summation tree legitimately differs from the
// row-serial one in the last bits).
func TestBlockedMulTVecMatchesDense(t *testing.T) {
	m := bigRandMatrix(t, 11, 5000, 300, 8)
	r := rng.New(5)
	y := randVec(r, m.Rows())
	m.SetParallelism(3)
	got := m.MulTVec(nil, y)
	dense := m.Dense()
	for j := 0; j < m.Cols(); j++ {
		var want float64
		for i := 0; i < m.Rows(); i++ {
			want += dense[i][j] * y[i]
		}
		if d := math.Abs(got[j] - want); d > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("MulTVec[%d] = %v, dense reference %v (diff %g)", j, got[j], want, d)
		}
	}
}

// TestSelectRowsPropagatesParallelism: submatrices inherit the knob so
// Algorithm 1's sampled systems keep the configured kernels.
func TestSelectRowsPropagatesParallelism(t *testing.T) {
	m := bigRandMatrix(t, 1, 100, 50, 4)
	m.SetParallelism(8)
	sub := m.SelectRows([]int{3, 1, 4, 1, 5})
	if sub.Parallelism() != 8 {
		t.Fatalf("SelectRows dropped parallelism: got %d", sub.Parallelism())
	}
}

// TestKernelSteadyStateAllocs: the bulk kernels must not allocate once
// the pooled scratch is warm, serial and parallel alike. A GC during the
// measurement can evict the sync.Pool scratch and show up as a couple of
// refill allocations, so the bound tolerates that noise while still
// catching a per-call make or closure (which would cost 8+).
func TestKernelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	m := bigRandMatrix(t, 3, 6000, 500, 8)
	r := rng.New(1)
	x := randVec(r, m.Cols())
	y := randVec(r, m.Rows())
	ax := make([]float64, m.Rows())
	aty := make([]float64, m.Cols())
	for _, w := range []int{1, 4} {
		m.SetParallelism(w)
		m.MulVec(ax, x)
		m.MulTVec(aty, y)
		runtime.GC()
		if a := testing.AllocsPerRun(20, func() { m.MulVec(ax, x) }); a > 2 {
			t.Errorf("workers=%d: MulVec allocates %.1f/op", w, a)
		}
		if a := testing.AllocsPerRun(20, func() { m.MulTVec(aty, y) }); a > 2 {
			t.Errorf("workers=%d: MulTVec allocates %.1f/op", w, a)
		}
	}
}

// fuzzMatrix builds a rows x cols matrix whose rows hold 0..perRow
// entries (repeated columns merge), so empty rows occur.
func fuzzMatrix(t testing.TB, r *rng.Rand, rows, cols, perRow int) *Matrix {
	t.Helper()
	b := NewBuilder(cols)
	for i := 0; i < rows; i++ {
		n := r.Intn(perRow + 1)
		idx := make([]int, n)
		val := make([]float64, n)
		for k := range idx {
			idx[k] = r.Intn(cols)
			val[k] = r.Float64()*2 - 1
		}
		if err := b.AddRow(idx, val); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// checkRowKernels requires RowDot, AddScaledRow, RowNormsSq and MulVec to
// equal plain index-order loops over Row(i) bit for bit, row by row.
func checkRowKernels(t *testing.T, name string, m *Matrix, r *rng.Rand) {
	t.Helper()
	x := randVec(r, m.Cols())
	ax := m.MulVec(nil, x)
	norms := m.RowNormsSq()
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.Row(i)
		var want float64
		for k := 0; k < len(cols); k++ {
			want += vals[k] * x[cols[k]]
		}
		if got := m.RowDot(i, x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: RowDot(%d) = %v, loop %v", name, i, got, want)
		}
		if math.Float64bits(ax[i]) != math.Float64bits(want) {
			t.Fatalf("%s: MulVec[%d] = %v, loop %v", name, i, ax[i], want)
		}
		var nsq float64
		for k := 0; k < len(vals); k++ {
			nsq += vals[k] * vals[k]
		}
		if math.Float64bits(norms[i]) != math.Float64bits(nsq) {
			t.Fatalf("%s: RowNormsSq[%d] = %v, loop %v", name, i, norms[i], nsq)
		}
		alpha := r.NormFloat64()
		got := randVec(r, m.Cols())
		wantDst := append([]float64(nil), got...)
		m.AddScaledRow(got, i, alpha)
		for k := 0; k < len(cols); k++ {
			wantDst[cols[k]] += alpha * vals[k]
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(wantDst[j]) {
				t.Fatalf("%s: AddScaledRow(row %d, %v)[%d] = %v, loop %v", name, i, alpha, j, got[j], wantDst[j])
			}
		}
	}
}

// FuzzMulVec cross-checks the (possibly parallel) CSR product against a
// naive dense reference on randomized shapes, then requires the row
// kernels to equal index-order loops over Row(i) bit for bit on two
// matrices: the fuzzed one, empty rows included, and a SelectRows sample
// that repeats and permutes its rows, grown past the parallel cutoff
// when the fuzzed worker count is odd.
func FuzzMulVec(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint16(20), uint8(4), uint8(3))
	f.Add(uint64(42), uint16(1), uint16(1), uint8(1), uint8(1))
	f.Add(uint64(7), uint16(300), uint16(5), uint8(5), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, rows16, cols16 uint16, perRow8, workers8 uint8) {
		rows := int(rows16)%512 + 1
		cols := int(cols16)%128 + 1
		perRow := int(perRow8)%8 + 1
		workers := int(workers8) % 9
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		m := fuzzMatrix(t, rng.New(seed), rows, cols, perRow)
		m.SetParallelism(workers)
		x := randVec(r, cols)
		got := m.MulVec(nil, x)
		dense := m.Dense()
		for i := range got {
			var want float64
			for j, v := range dense[i] {
				if v != 0 {
					want += v * x[j]
				}
			}
			if d := math.Abs(got[i] - want); d > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("rows=%d cols=%d perRow=%d workers=%d: MulVec[%d]=%v, dense %v",
					rows, cols, perRow, workers, i, got[i], want)
			}
		}
		checkRowKernels(t, "fuzzed", m, r)

		sel := make([]int, rows+r.Intn(rows))
		for k := range sel {
			sel[k] = r.Intn(rows)
		}
		sel = append(sel, sel[0]) // at least one repeat
		if workers%2 == 1 && m.NNZ() > 0 {
			for nnz := m.SelectRows(sel).NNZ(); nnz < parCutoffNNZ; {
				i := r.Intn(rows)
				cols, _ := m.Row(i)
				sel, nnz = append(sel, i), nnz+len(cols)
			}
		}
		checkRowKernels(t, "sample", m.SelectRows(sel), r)
	})
}
