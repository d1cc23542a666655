package transform_test

import (
	"math"
	"testing"

	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/graph"
	"mgba/internal/sta"
	"mgba/internal/transform"
)

// TestRetimeRevertRestoresParasitics: a reverted slide leaves every net's
// parasitics bit for bit as it found them, also where they are not the
// ones placement gives (a design loaded from a checkpoint may carry any).
// Every net of the pipeline is set to 3.25 fF / 7.5 ps, then every slide
// Propose offers on any endpoint's worst path is applied and reverted.
func TestRetimeRevertRestoresParasitics(t *testing.T) {
	const wireCap, wireDelay = 3.25, 7.5
	d, err := fixtures.RetimePipeline(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nets {
		n.WireCap, n.WireDelay = wireCap, wireDelay
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	a := &transform.Analysis{D: d, G: g, R: engine.NewSession(g).Run(sta.DefaultConfig())}
	tr := transform.NewRetime(0)
	trials, changed := 0, 0
	for fi := range d.FFs {
		for _, c := range tr.Propose(a, fi, transform.WorstPath(a, fi)) {
			mv, err := tr.Apply(a, c)
			if err != nil {
				t.Fatal(err)
			}
			if mv == nil {
				continue
			}
			trials++
			if err := mv.Revert(a); err != nil {
				t.Fatal(err)
			}
			left := false
			for _, n := range d.Nets {
				if math.Float64bits(n.WireCap) != math.Float64bits(wireCap) ||
					math.Float64bits(n.WireDelay) != math.Float64bits(wireDelay) {
					left = true
					n.WireCap, n.WireDelay = wireCap, wireDelay
				}
			}
			if left {
				changed++
			}
		}
	}
	if trials == 0 {
		t.Fatal("no slide was applied; the check proves nothing")
	}
	if changed > 0 {
		t.Errorf("%d of %d reverted slides left nets with other parasitics", changed, trials)
	}
}
