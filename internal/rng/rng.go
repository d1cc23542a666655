// Package rng implements a small, fast, deterministic pseudo-random number
// generator (xoshiro256**) seeded through splitmix64.
//
// All stochastic components of the framework — the synthetic design
// generator, the uniform row sampler of Algorithm 1, and the norm-weighted
// row sampler of Algorithm 2 — draw from this package so that every
// experiment is exactly reproducible from its seed. math/rand would also
// work, but owning the generator keeps the stream stable across Go releases
// and lets us fork independent substreams cheaply.
package rng

import "math"

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, which guarantees
// a well-mixed nonzero internal state for any seed value, including 0.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork returns a new generator whose stream is independent of r's future
// output. It consumes four values from r.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64() ^ r.Uint64()<<1 ^ r.Uint64()<<2 ^ r.Uint64()<<3)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n), in no particular order. It panics if k > n or k < 0.
//
// For small k relative to n it uses Floyd's algorithm (O(k) expected work,
// O(k) memory); otherwise it shuffles a full index slice.
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleWithoutReplacement k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*4 > n {
		p := r.Perm(n)
		return p[:k]
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// WeightedSampler draws indices with probability proportional to fixed
// nonnegative weights, as Eq. (11) requires for the stochastic CG solver.
// It is built once per weight vector (O(n)) and draws by searching the
// cumulative distribution for the first value exceeding u·Total().
//
// A cutpoint (guide) table narrows that search to expected O(1) for every
// draw. The range [0, Total()) is cut into bucketsPerWeight·n buckets and
// a cumulative value c falls in bucket int(c·bucketsPerWeight·n/Total());
// guide[b] is the first index whose value falls in bucket b or later.
// Bucketing is monotone in c, so the index the search wants lies between
// guide[b] and guide[b+1] for the draw's bucket b, and searching only
// there returns exactly the index a binary search over the whole
// distribution returns.
type WeightedSampler struct {
	cum   []float64
	total float64
	scale float64 // bucketsPerWeight·n / total, the bucket scale
	guide []int32 // len bucketsPerWeight·n+2; nil when the total or the scale is not finite
}

// bucketsPerWeight is the guide table's bucket count per weight. Row-norm
// weights are skewed (a few heavy rows over many light ones), so a heavy
// row spans several buckets and a light one shares its bucket with fewer
// neighbours: four buckets per weight leave a draw's search a handful of
// entries for 16 bytes of table per weight.
const bucketsPerWeight = 4

// NewWeightedSampler builds a sampler over weights. Negative weights panic;
// an all-zero or empty weight vector yields a sampler whose Sample panics,
// detectable via Total() == 0.
func NewWeightedSampler(weights []float64) *WeightedSampler {
	n := len(weights)
	ws := &WeightedSampler{cum: make([]float64, n)}
	var c float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN weight")
		}
		c += w
		ws.cum[i] = c
	}
	ws.total = c
	buckets := bucketsPerWeight * n
	scale := float64(buckets) / c
	if c > 0 && !math.IsInf(c, 0) && !math.IsInf(scale, 0) && n < math.MaxInt32 {
		ws.scale = scale
		ws.guide = make([]int32, buckets+2)
		i := 0
		for b := range ws.guide {
			for i < n && ws.bucket(ws.cum[i]) < b {
				i++
			}
			ws.guide[b] = int32(i)
		}
	}
	return ws
}

// bucket maps a value in [0, total] to its bucket, bucketsPerWeight·n at
// most.
func (ws *WeightedSampler) bucket(c float64) int {
	return min(int(c*ws.scale), len(ws.guide)-2)
}

// Total returns the sum of all weights.
func (ws *WeightedSampler) Total() float64 { return ws.total }

// Sample returns one index drawn with probability weight[i]/Total().
func (ws *WeightedSampler) Sample(r *Rand) int {
	if ws.total <= 0 {
		panic("rng: WeightedSampler with zero total weight")
	}
	return ws.search(r.Float64() * ws.total)
}

// search returns the first index whose cumulative weight exceeds u, or
// the last index if none does.
func (ws *WeightedSampler) search(u float64) int {
	lo, hi := 0, len(ws.cum)-1
	if ws.guide != nil {
		b := ws.bucket(u)
		lo, hi = min(int(ws.guide[b]), hi), min(int(ws.guide[b+1]), hi)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ws.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
