package pba_test

import (
	"fmt"
	"runtime"
	"testing"

	"mgba/internal/gen"
	"mgba/internal/pba"
)

var benchPaths [][]*pba.Path

// BenchmarkKWorst times whole-design enumeration — every constrained
// endpoint, fanned across GOMAXPROCS workers — at the calibration shape
// (k 20, stop at slack 0) and at a deep k of 2000 with the same stop, on a
// cone design (D3), the reconvergent sea-of-gates D8 and the scale
// layer's gen.Large(30000).
func BenchmarkKWorst(b *testing.B) {
	zero := 0.0
	for _, cfg := range []gen.Config{gen.Suite()[2], gen.Suite()[7], gen.Large(30000)} {
		var a *pba.Analyzer
		for _, k := range []int{20, 2000} {
			b.Run(fmt.Sprintf("%s/k=%d", cfg.Name, k), func(b *testing.B) {
				if a == nil {
					a = generatedAnalyzer(b, cfg)
				}
				eps := a.EndpointIndices()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchPaths = a.KWorstAll(eps, k, &zero, runtime.GOMAXPROCS(0))
				}
			})
		}
	}
}
