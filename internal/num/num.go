// Package num provides the small dense numeric kernels shared by the
// timing engines and the optimization solvers: vector arithmetic, norms,
// summary statistics, and histogram construction.
//
// Everything operates on plain []float64 slices. Functions that combine two
// vectors panic when the lengths differ; length mismatches here are always
// programming errors, never data errors.
package num

import (
	"fmt"
	"math"
	"sort"
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	checkLen(len(a), len(b))
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow for large magnitudes; path delays
	// and slacks are small, but solver residuals can transiently be huge.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		scale, ssq = Norm2Step(scale, ssq, x)
	}
	return scale * math.Sqrt(ssq)
}

// Norm2Step folds x into Norm2's running scaled sum of squares: a sweep
// that starts at (scale, ssq) = (0, 1) and folds every entry of v in order
// ends at scale*math.Sqrt(ssq) == Norm2(v), bit for bit. A loop that
// writes a vector anyway folds its norm into the same pass.
func Norm2Step(scale, ssq, x float64) (float64, float64) {
	if x == 0 {
		return scale, ssq
	}
	ax := math.Abs(x)
	if scale < ax {
		r := scale / ax
		return ax, 1 + ssq*r*r
	}
	r := ax / scale
	return scale, ssq + r*r
}

// Norm2Sq returns the squared Euclidean norm of v.
func Norm2Sq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// NormInf returns the maximum absolute entry of v, or 0 for an empty vector.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	checkLen(len(x), len(y))
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every entry of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sub writes a-b into dst and returns dst. dst may alias a or b.
func Sub(dst, a, b []float64) []float64 {
	checkLen(len(a), len(b))
	checkLen(len(dst), len(a))
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Add writes a+b into dst and returns dst. dst may alias a or b.
func Add(dst, a, b []float64) []float64 {
	checkLen(len(a), len(b))
	checkLen(len(dst), len(a))
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// AllFinite reports whether every entry of v is neither NaN nor infinite.
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Copy returns a freshly allocated copy of v.
func Copy(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Fill sets every entry of v to x.
func Fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

// RelDiff returns ||a-b|| / ||b||, the relative difference used by the
// convergence tests of Algorithms 1 and 2. When ||b|| is zero it returns
// ||a-b|| so that convergence from the all-zero initial point is still
// detected (a common situation on the first solver iteration).
func RelDiff(a, b []float64) float64 {
	return RelDiffInto(make([]float64, len(a)), a, b)
}

// RelDiffInto is RelDiff with a caller-supplied difference buffer, for
// per-iteration convergence tests that must not allocate.
func RelDiffInto(d, a, b []float64) float64 {
	checkLen(len(a), len(b))
	Sub(d, a, b)
	nb := Norm2(b)
	nd := Norm2(d)
	if nb == 0 {
		return nd
	}
	return nd / nb
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Min returns the smallest entry of v. It panics on an empty vector.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("num: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest entry of v. It panics on an empty vector.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("num: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of all entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of v using linear
// interpolation between order statistics. It panics on an empty vector or
// a q outside [0,1].
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		panic("num: Quantile of empty vector")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("num: Quantile q=%v outside [0,1]", q))
	}
	s := Copy(v)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// FractionWithin returns the fraction of entries of v that lie in the
// closed interval [lo, hi]. It returns 0 for an empty vector.
func FractionWithin(v []float64, lo, hi float64) float64 {
	if len(v) == 0 {
		return 0
	}
	n := 0
	for _, x := range v {
		if x >= lo && x <= hi {
			n++
		}
	}
	return float64(n) / float64(len(v))
}

// Histogram is a fixed-width binning of a sample, used to reproduce the
// sparsity plot of Fig. 3.
type Histogram struct {
	Lo, Hi float64 // range covered by the bins
	Counts []int   // Counts[i] covers [Lo + i*w, Lo + (i+1)*w)
	Under  int     // samples below Lo
	Over   int     // samples at or above Hi
}

// NewHistogram bins v into bins equal-width buckets over [lo, hi).
// Samples outside the range are tallied in Under/Over rather than dropped,
// so Total always equals len(v).
func NewHistogram(v []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("num: NewHistogram needs bins > 0")
	}
	if !(hi > lo) {
		panic("num: NewHistogram needs hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range v {
		switch {
		case x < lo:
			h.Under++
		case x >= hi:
			h.Over++
		default:
			i := int((x - lo) / w)
			if i >= bins { // guard against float rounding at the upper edge
				i = bins - 1
			}
			h.Counts[i]++
		}
	}
	return h
}

// Total returns the number of samples tallied, including out-of-range ones.
func (h *Histogram) Total() int {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// BinCenter returns the center coordinate of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := h.BinWidth()
	return h.Lo + (float64(i)+0.5)*w
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("num: length mismatch %d != %d", a, b))
	}
}
