// Package sparse implements the compressed-sparse-row matrix used to
// represent the path/gate incidence system A of Eq. (9): one row per
// selected timing path, one column per gate, entry a_ij = d_j * lambda_j
// when gate j lies on path i.
//
// The solvers need exactly four operations — y = A x, g = A^T r, per-row
// Euclidean norms (Eq. 11 sampling probabilities), and row subsetting
// (Algorithm 1's uniform sampling) — so that is most of the API.
package sparse

import (
	"fmt"
	"slices"
	"sync"

	"mgba/internal/par"
)

// Matrix is a CSR matrix. Its entries never change once built.
type Matrix struct {
	rows, cols int
	rowPtr     []int     // len rows+1
	colIdx     []int     // len nnz
	val        []float64 // len nnz
	par        int       // worker count for the bulk kernels (<=1: serial)
}

// shellGaps is the Ciura gap sequence; rows are path cells, so their
// length is bounded by path depth and shellsort is comfortably fast.
var shellGaps = [...]int{701, 301, 132, 57, 23, 10, 4, 1}

// sortPairs sorts the parallel index/value slices by index using an
// in-place shellsort: no allocation, no closure, and a deterministic
// order for any input.
func sortPairs(idx []int, val []float64) {
	n := len(idx)
	for _, gap := range shellGaps {
		if gap >= n {
			continue
		}
		for i := gap; i < n; i++ {
			j, v := idx[i], val[i]
			k := i
			for ; k >= gap && idx[k-gap] > j; k -= gap {
				idx[k], val[k] = idx[k-gap], val[k-gap]
			}
			idx[k], val[k] = j, v
		}
	}
}

// checkRow validates one row's parallel index/value slices against the
// column count.
func checkRow(cols int, indices []int, values []float64) error {
	if len(indices) != len(values) {
		return fmt.Errorf("sparse: %d indices for %d values", len(indices), len(values))
	}
	for _, j := range indices {
		if j < 0 || j >= cols {
			return fmt.Errorf("sparse: column %d out of range [0,%d)", j, cols)
		}
	}
	return nil
}

// canonicalize leaves one row's parallel index/value slices in canonical
// CSR form in place — column-sorted with duplicate columns summed (a gate
// appearing twice on a reconvergent path contributes twice) — and returns
// the row's canonical length.
func canonicalize(idx []int, val []float64) int {
	sortPairs(idx, val)
	w := 0
	for k := 0; k < len(idx); k++ {
		if w > 0 && idx[k] == idx[w-1] {
			val[w-1] += val[k]
			continue
		}
		idx[w], val[w] = idx[k], val[k]
		w++
	}
	return w
}

// Builder accumulates rows for a Matrix. Rows are appended in order; the
// column count is fixed up front.
type Builder struct {
	cols   int
	rowPtr []int
	colIdx []int
	val    []float64
}

// NewBuilder returns a builder for matrices with the given column count.
// It panics if cols is negative.
func NewBuilder(cols int) *Builder {
	if cols < 0 {
		panic("sparse: negative column count")
	}
	return &Builder{cols: cols, rowPtr: []int{0}}
}

// EnsureCols widens the builder's column space to at least cols; existing
// rows are untouched. Streaming assembly discovers columns shard by shard,
// so the final count is not known when the builder is created. Shrinking
// is a silent no-op.
func (b *Builder) EnsureCols(cols int) {
	if cols > b.cols {
		b.cols = cols
	}
}

// Grow reserves room for rows more rows holding nnz more entries (an
// upper bound: duplicate columns merge), so a caller that knows its
// system's size up front fills the builder without regrowing it.
// Repeated calls grow the storage amortized, like append.
func (b *Builder) Grow(rows, nnz int) {
	b.rowPtr = slices.Grow(b.rowPtr, rows)
	b.colIdx = slices.Grow(b.colIdx, nnz)
	b.val = slices.Grow(b.val, nnz)
}

// AddRow appends one row given parallel index/value slices. Indices may be
// unordered and may repeat; repeated indices are summed (a gate appearing
// twice on a reconvergent path contributes twice). It returns an error for
// out-of-range indices or mismatched slice lengths. The row is sorted and
// merged in place at the tail of the builder's own storage, so adding a
// row allocates nothing once the storage has room.
func (b *Builder) AddRow(indices []int, values []float64) error {
	if err := checkRow(b.cols, indices, values); err != nil {
		return err
	}
	lo := len(b.colIdx)
	b.colIdx = append(b.colIdx, indices...)
	b.val = append(b.val, values...)
	n := canonicalize(b.colIdx[lo:], b.val[lo:])
	b.colIdx, b.val = b.colIdx[:lo+n], b.val[:lo+n]
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
	return nil
}

// Build finalizes the accumulated rows into an immutable Matrix. The
// builder must not be used afterwards.
func (b *Builder) Build() *Matrix {
	m := &Matrix{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		rowPtr: b.rowPtr,
		colIdx: b.colIdx,
		val:    b.val,
	}
	b.rowPtr, b.colIdx, b.val = nil, nil, nil
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.val) }

// Row returns the column indices and values of row i as shared slices of
// equal length; the caller must not modify them. Every row loop of the
// package ranges over this pair: the compiler then knows each values[k]
// is in range, so the only bounds check left per stored entry is the
// gather or scatter through a column index.
func (m *Matrix) Row(i int) (indices []int, values []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	indices = m.colIdx[lo:hi]
	return indices, m.val[lo:hi][:len(indices)]
}

// SetParallelism sets the worker count used by the bulk kernels (MulVec,
// MulTVec, RowNormsSq). The value is a resolved worker count (as returned
// by par.Workers); 0 and 1 both keep the kernels on the calling
// goroutine. The setting never changes results: whenever the matrix is
// large enough to use the blocked decomposition, the decomposition is a
// function of the matrix shape alone, so every worker count — including
// sequential execution of the same blocks — produces bit-identical
// output. SelectRows propagates the setting to submatrices.
func (m *Matrix) SetParallelism(workers int) { m.par = workers }

// Parallelism returns the worker count set by SetParallelism.
func (m *Matrix) Parallelism() int { return m.par }

// parCutoffNNZ is the stored-entry count below which the bulk kernels
// stay on the plain sequential path: under it, block bookkeeping costs
// more than the work. Like the block grain, the cutoff depends only on
// the matrix shape, never on the worker count.
const parCutoffNNZ = 1 << 15

// accBlocks is the fixed number of row blocks used by the blocked
// transpose product: each block scatters into its own column-sized
// accumulator and the accumulators are merged in ascending block order.
// Fixed (rather than per-worker) accumulators are what keep the result
// bit-identical at every worker count; 8 bounds both the merge cost and
// the useful parallelism of MulTVec.
const accBlocks = 8

// mergeGrain is the column-block grain of the (slot-writing, hence
// trivially deterministic) accumulator merge.
const mergeGrain = 2048

// rowGrain is the row-block grain of the row-partitioned kernels, sized
// so one block carries roughly 4096 stored entries.
func (m *Matrix) rowGrain() int {
	nnz := len(m.val)
	if m.rows == 0 || nnz == 0 {
		return 1
	}
	g := m.rows * 4096 / nnz
	if g < 1 {
		g = 1
	}
	return g
}

// mulBody is the row-partitioned A*x kernel: each dst slot is written by
// exactly one block, so the parallel result is bitwise the serial one.
type mulBody struct {
	m   *Matrix
	x   []float64
	dst []float64
}

func (b *mulBody) Chunk(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.dst[i] = b.m.RowDot(i, b.x)
	}
}

// mulTBody is one row block of the blocked transpose product: scatter
// into this block's private column accumulator.
type mulTBody struct {
	m   *Matrix
	y   []float64
	acc [][]float64
}

func (b *mulTBody) Chunk(blk, lo, hi int) {
	a := b.acc[blk]
	for j := range a {
		a[j] = 0
	}
	for i := lo; i < hi; i++ {
		if yi := b.y[i]; yi != 0 {
			b.m.AddScaledRow(a, i, yi)
		}
	}
}

// mergeBody combines the per-block accumulators in ascending block order,
// one dst slot per column — deterministic at any worker count.
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

// normsBody is the row-partitioned squared-norm kernel.
type normsBody struct {
	m   *Matrix
	dst []float64
}

func (b *normsBody) Chunk(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.dst[i] = b.m.rowNormSq(i)
	}
}

// kernelScratch pools the reusable bodies and accumulators of the bulk
// kernels so their steady state allocates nothing.
type kernelScratch struct {
	mul   mulBody
	mulT  mulTBody
	merge mergeBody
	norms normsBody
	acc   [][]float64
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// accumulators returns blocks column-sized accumulators, reusing the
// scratch storage. Contents are stale; mulTBody zeroes each block before
// scattering.
func (sc *kernelScratch) accumulators(blocks, cols int) [][]float64 {
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

// MulVec writes A*x into dst and returns dst; dst is allocated when nil.
func (m *Matrix) MulVec(dst, x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec x has %d entries, want %d", len(x), m.cols))
	}
	if dst == nil {
		dst = make([]float64, m.rows)
	} else if len(dst) != m.rows {
		panic("sparse: MulVec dst length mismatch")
	}
	// Row-partitioned output slots make the parallel path bitwise equal to
	// the serial loop, so this one may gate on the worker count.
	if m.par > 1 && len(m.val) >= parCutoffNNZ {
		sc := kernelPool.Get().(*kernelScratch)
		sc.mul = mulBody{m: m, x: x, dst: dst}
		par.ForBody(m.par, m.rows, m.rowGrain(), &sc.mul)
		sc.mul = mulBody{}
		kernelPool.Put(sc)
		return dst
	}
	for i := range dst {
		dst[i] = m.RowDot(i, x)
	}
	return dst
}

// MulTVec writes A^T*y into dst and returns dst; dst is allocated when
// nil. Above the nnz cutoff it always uses the blocked decomposition —
// per-block column accumulators merged in ascending block order — even
// sequentially, so the result is bit-identical at every worker count.
func (m *Matrix) MulTVec(dst, y []float64) []float64 {
	if len(y) != m.rows {
		panic(fmt.Sprintf("sparse: MulTVec y has %d entries, want %d", len(y), m.rows))
	}
	if dst == nil {
		dst = make([]float64, m.cols)
	} else if len(dst) != m.cols {
		panic("sparse: MulTVec dst length mismatch")
	}
	if len(m.val) >= parCutoffNNZ && m.rows >= accBlocks {
		grain := (m.rows + accBlocks - 1) / accBlocks
		blocks := par.Blocks(m.rows, grain)
		sc := kernelPool.Get().(*kernelScratch)
		acc := sc.accumulators(blocks, m.cols)
		sc.mulT = mulTBody{m: m, y: y, acc: acc}
		par.ForBody(m.par, m.rows, grain, &sc.mulT)
		sc.merge = mergeBody{dst: dst, acc: acc}
		par.ForBody(m.par, m.cols, mergeGrain, &sc.merge)
		sc.mulT = mulTBody{}
		sc.merge = mergeBody{}
		kernelPool.Put(sc)
		return dst
	}
	for j := range dst {
		dst[j] = 0
	}
	// AddScaledRow's products yi·a_ij are the a_ij·yi of a transpose loop
	// bit for bit: IEEE multiplication commutes.
	for i, yi := range y {
		if yi != 0 {
			m.AddScaledRow(dst, i, yi)
		}
	}
	return dst
}

// RowDot returns <a_i, x>, the product of row i with x, summed in column
// order.
func (m *Matrix) RowDot(i int, x []float64) float64 {
	cols, vals := m.Row(i)
	var s float64
	for k, c := range cols {
		s += vals[k] * x[c]
	}
	return s
}

// AddScaledRow performs dst += alpha * a_i for the sparse row i.
func (m *Matrix) AddScaledRow(dst []float64, i int, alpha float64) {
	cols, vals := m.Row(i)
	for k, c := range cols {
		dst[c] += alpha * vals[k]
	}
}

// rowNormSq returns ||a_i||^2, summed in column order.
func (m *Matrix) rowNormSq(i int) float64 {
	_, vals := m.Row(i)
	var s float64
	for _, v := range vals {
		s += v * v
	}
	return s
}

// RowNormsSq returns ||a_i||^2 for every row — the sampling weights of
// Eq. (11). Slot-written per row, so parallel and serial agree bitwise.
func (m *Matrix) RowNormsSq() []float64 {
	out := make([]float64, m.rows)
	if m.par > 1 && len(m.val) >= parCutoffNNZ {
		sc := kernelPool.Get().(*kernelScratch)
		sc.norms = normsBody{m: m, dst: out}
		par.ForBody(m.par, m.rows, m.rowGrain(), &sc.norms)
		sc.norms = normsBody{}
		kernelPool.Put(sc)
		return out
	}
	for i := range out {
		out[i] = m.rowNormSq(i)
	}
	return out
}

// ColumnCoverage returns the number of columns touched by at least one row.
// The path-selection study of §3.2 reports this as "gate coverage".
func (m *Matrix) ColumnCoverage() int {
	seen := make([]bool, m.cols)
	n := 0
	for _, j := range m.colIdx {
		if !seen[j] {
			seen[j] = true
			n++
		}
	}
	return n
}

// SelectRows builds a new matrix containing the given rows of m, in order.
// Row indices may repeat. It panics on out-of-range indices.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	rp := make([]int, 1, len(rows)+1)
	nnz := 0
	for _, i := range rows {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("sparse: SelectRows index %d out of range", i))
		}
		nnz += m.rowPtr[i+1] - m.rowPtr[i]
		rp = append(rp, nnz)
	}
	ci := make([]int, 0, nnz)
	vv := make([]float64, 0, nnz)
	for _, i := range rows {
		cols, vals := m.Row(i)
		ci = append(ci, cols...)
		vv = append(vv, vals...)
	}
	return &Matrix{rows: len(rows), cols: m.cols, rowPtr: rp, colIdx: ci, val: vv, par: m.par}
}

// Dense expands the matrix to row-major dense form; intended for tests and
// tiny examples only.
func (m *Matrix) Dense() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = make([]float64, m.cols)
		cols, vals := m.Row(i)
		for k, c := range cols {
			out[i][c] = vals[k]
		}
	}
	return out
}
