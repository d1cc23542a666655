package closure

import (
	"math"
	"testing"

	"mgba/internal/engine"
)

// TestWorstEndpoint pins the repair loop's endpoint pick: the most
// negative slack outside the skip set, the lowest index among equals, and
// -1 once nothing outside the skip set violates.
func TestWorstEndpoint(t *testing.T) {
	cases := []struct {
		name  string
		slack []float64
		skip  map[int]bool
		want  int
	}{
		{"most negative wins", []float64{-1, -5, 2, -3}, nil, 1},
		{"lowest index among equals", []float64{0, -4, -4, -4}, nil, 1},
		{"negative infinity", []float64{-1, math.Inf(-1), -1e300}, nil, 1},
		{"skipped worst passed over", []float64{-1, -5, 2, -3}, map[int]bool{1: true}, 3},
		{"equal tie after skip", []float64{-4, -4, -4}, map[int]bool{0: true}, 1},
		{"every violator skipped", []float64{-1, 3, -2}, map[int]bool{0: true, 2: true}, -1},
		{"zero slack does not violate", []float64{0, 0, 1}, nil, -1},
		{"all non-negative", []float64{3, 1, 7}, nil, -1},
		{"positive infinity", []float64{math.Inf(1)}, nil, -1},
		{"empty", []float64{}, nil, -1},
		{"nil", nil, map[int]bool{0: true}, -1},
	}
	for _, c := range cases {
		if got := worstEndpoint(c.slack, c.skip); got != c.want {
			t.Errorf("%s: worstEndpoint(%v, %v) = %d, want %d", c.name, c.slack, c.skip, got, c.want)
		}
	}
}

// TestWorstEndpointMergesCorners: in a two-corner flow the pick runs on
// the merged worst-corner slack, so an endpoint that violates only in the
// extra corner is still repaired, and the selection corner's passing
// slack does not hide it.
func TestWorstEndpointMergesCorners(t *testing.T) {
	f := &flow{views: []*cornerView{
		{name: "typ", r: &engine.Result{Slack: []float64{5, 3, 1, 2}}},
		{name: "slow", r: &engine.Result{Slack: []float64{2, -4, 0, -6}}},
	}}
	if got := worstEndpoint(f.views[0].r.Slack, nil); got != -1 {
		t.Fatalf("selection corner alone picks %d, want -1 (it passes everywhere)", got)
	}
	if got := worstEndpoint(f.mergedSlack(), nil); got != 3 {
		t.Fatalf("merged pick = %d, want 3 (the extra corner's worst)", got)
	}
	if got := worstEndpoint(f.mergedSlack(), map[int]bool{3: true}); got != 1 {
		t.Fatalf("merged pick with 3 skipped = %d, want 1", got)
	}
	if got := f.violatedCount(); got != 2 {
		t.Fatalf("violatedCount = %d, want 2", got)
	}
}
