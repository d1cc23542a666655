package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	v := r.Uint64()
	if v == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck all-zero stream")
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(7)
	f := r.Fork()
	// The fork and the parent should produce different streams.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork correlates with parent: %d matches", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var s float64
	const n = 100000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	mean := s / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("Intn biased: digit %d count %d", d, c)
		}
	}
}

func TestIntnOne(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Intn(1) != 0 {
			t.Fatal("Intn(1) != 0")
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(21)
	const n = 200000
	var s, s2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		s += v
		s2 += v * v
	}
	mean := s / n
	variance := s2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%100 + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	s := New(2).SampleWithoutReplacement(10, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
}

func TestSampleWithoutReplacementZero(t *testing.T) {
	if s := New(2).SampleWithoutReplacement(10, 0); len(s) != 0 {
		t.Fatalf("len = %d, want 0", len(s))
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestSampleUniformity(t *testing.T) {
	// Small-k path (Floyd) must still be uniform over indices.
	r := New(17)
	counts := make([]int, 20)
	const trials = 40000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(20, 2) {
			counts[v]++
		}
	}
	want := float64(trials*2) / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("index %d count %d, want ~%v", i, c, want)
		}
	}
}

func TestWeightedSamplerProportional(t *testing.T) {
	ws := NewWeightedSampler([]float64{1, 0, 3})
	r := New(23)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[ws.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.15 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedSamplerTotal(t *testing.T) {
	ws := NewWeightedSampler([]float64{2, 3})
	if ws.Total() != 5 {
		t.Fatalf("Total = %v", ws.Total())
	}
}

func TestWeightedSamplerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWeightedSampler([]float64{1, -1})
}

func TestWeightedSamplerZeroTotalPanics(t *testing.T) {
	ws := NewWeightedSampler([]float64{0, 0})
	if ws.Total() != 0 {
		t.Fatalf("Total = %v", ws.Total())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ws.Sample(New(1))
}

func TestWeightedSamplerSingle(t *testing.T) {
	ws := NewWeightedSampler([]float64{0.5})
	r := New(4)
	for i := 0; i < 100; i++ {
		if ws.Sample(r) != 0 {
			t.Fatal("single-weight sampler returned nonzero index")
		}
	}
}

// binarySearch is the sampler's search without the cutpoint table: the
// first index of cum whose value exceeds u, or the last index.
func binarySearch(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rowNormWeights returns n weights shaped like the squared row norms
// SCG samples by: many light rows, a few heavy ones (a long path through
// strongly derated cells), and zero rows mixed in.
func rowNormWeights(r *Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		k := r.Intn(20)
		if k == 0 {
			continue // a zero row
		}
		for c := 1 + r.Intn(14); c > 0; c-- {
			v := 0.1 + r.Float64()
			w[i] += v * v
		}
		if k == 1 {
			w[i] *= 20 + 200*r.Float64()
		}
	}
	return w
}

// TestWeightedSamplerMatchesBinarySearch: with its cutpoint table the
// sampler returns the index of a binary search over the whole cumulative
// distribution for every draw. Weight vectors mix zero, subnormal, tiny,
// ordinary, tied and huge weights (huge sums overflow to +Inf, subnormal
// totals give an infinite bucket scale; both keep the plain search), or
// are shaped like row norms; n = 1 included. Draws come from Sample's own
// stream and are also placed on and beside every edge of the guide table
// and every cumulative value.
func TestWeightedSamplerMatchesBinarySearch(t *testing.T) {
	r := New(99)
	kinds := []func() float64{
		func() float64 { return 0 },
		func() float64 { return 5e-324 * float64(1+r.Intn(8)) },
		func() float64 { return 1e-300 * r.Float64() },
		func() float64 { return r.Float64() },
		func() float64 { return float64(1 + r.Intn(3)) },
		func() float64 { return 1e300 * r.Float64() },
		func() float64 { return math.MaxFloat64 },
	}
	check := func(ws *WeightedSampler, u float64) {
		t.Helper()
		if u < 0 || u >= ws.total {
			return
		}
		if got, want := ws.search(u), binarySearch(ws.cum, u); got != want {
			t.Fatalf("n=%d total=%v: draw %v gives index %d, binary search %d", len(ws.cum), ws.total, u, got, want)
		}
	}
	var guided, plain, shaped int
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(40)
		switch trial % 20 {
		case 0:
			n = 1
		case 1:
			n = 1 + r.Intn(3000)
		case 2:
			n = 100 + r.Intn(400)
		}
		var w []float64
		if trial%4 == 2 {
			w = rowNormWeights(r, n)
			shaped++
		} else {
			var use []func() float64
			for len(use) == 0 {
				for _, k := range kinds {
					if r.Intn(3) == 0 {
						use = append(use, k)
					}
				}
			}
			w = make([]float64, n)
			for i := range w {
				w[i] = use[r.Intn(len(use))]()
			}
		}
		ws := NewWeightedSampler(w)
		if ws.Total() <= 0 {
			continue
		}
		if ws.guide != nil {
			guided++
		} else {
			plain++
		}
		a, b := New(uint64(trial)), New(uint64(trial))
		for k := 0; k < 200; k++ {
			got := ws.Sample(a)
			if want := binarySearch(ws.cum, b.Float64()*ws.total); got != want {
				t.Fatalf("trial %d draw %d: Sample = %d, binary search %d", trial, k, got, want)
			}
		}
		if ws.guide != nil {
			for bk := 0; bk < len(ws.guide); bk++ {
				e := float64(bk) / ws.scale
				check(ws, e)
				check(ws, math.Nextafter(e, 0))
				check(ws, math.Nextafter(e, math.Inf(1)))
			}
		}
		check(ws, 0)
		for _, c := range ws.cum {
			check(ws, c)
			check(ws, math.Nextafter(c, 0))
			check(ws, math.Nextafter(c, math.Inf(1)))
		}
	}
	if guided == 0 || plain == 0 || shaped == 0 {
		t.Fatalf("%d vectors searched through the cutpoint table, %d without, %d row-norm-shaped; want all three", guided, plain, shaped)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkWeightedSample times one Eq. (11) draw: over 100,000 uniform
// weights, and over 350 row-norm-shaped ones, the size of D3's
// calibration system.
func BenchmarkWeightedSample(b *testing.B) {
	r := New(1)
	uniform := make([]float64, 100000)
	for i := range uniform {
		uniform[i] = r.Float64()
	}
	for _, c := range []struct {
		name string
		w    []float64
	}{
		{"uniform-100000", uniform},
		{"rownorm-350", rowNormWeights(r, 350)},
	} {
		b.Run(c.name, func(b *testing.B) {
			ws := NewWeightedSampler(c.w)
			r := New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sampleSink += ws.Sample(r)
			}
		})
	}
}

// sampleSink keeps the benchmarked draws live.
var sampleSink int
