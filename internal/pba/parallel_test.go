package pba_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

func toyAnalyzer(t *testing.T) *pba.Analyzer {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 900, 110
	cfg.Name = "pba-parallel-test"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return pba.NewAnalyzer(sta.Analyze(g, sta.DefaultConfig()))
}

func samePaths(t *testing.T, a, b [][]*pba.Path, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d endpoint groups vs %d", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: endpoint %d has %d paths vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			p, q := a[i][j], b[i][j]
			if p.Launch != q.Launch || p.Capture != q.Capture ||
				math.Float64bits(p.GBAArrival) != math.Float64bits(q.GBAArrival) ||
				math.Float64bits(p.GBASlack) != math.Float64bits(q.GBASlack) {
				t.Fatalf("%s: endpoint %d path %d differs: %+v vs %+v", label, i, j, p, q)
			}
			if len(p.Cells) != len(q.Cells) {
				t.Fatalf("%s: endpoint %d path %d cell counts differ", label, i, j)
			}
			for k := range p.Cells {
				if p.Cells[k] != q.Cells[k] {
					t.Fatalf("%s: endpoint %d path %d cell %d differs", label, i, j, k)
				}
			}
		}
	}
}

// TestKWorstAllParallelDeterministic is the parallel fan-out's contract:
// the merged result is identical — same paths, same order, same floats —
// at every Parallelism setting. Run under -race in CI, it also proves the
// worker pool shares no mutable state.
func TestKWorstAllParallelDeterministic(t *testing.T) {
	a := toyAnalyzer(t)
	eps := a.EndpointIndices()
	if len(eps) == 0 {
		t.Fatal("fixture has no constrained endpoints")
	}
	zero := 0.0
	serial := a.KWorstAll(eps, 20, &zero, 1)
	nonEmpty := 0
	for _, g := range serial {
		if len(g) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("fixture enumerated no violated paths")
	}
	for _, par := range []int{2, runtime.NumCPU(), 0} {
		got := a.KWorstAll(eps, 20, &zero, par)
		samePaths(t, serial, got, fmt.Sprintf("parallelism %d", par))
	}
}

// TestKWorstAllMatchesKWorst: the fan-out must return exactly what
// per-endpoint KWorst calls return, for any subset and order of endpoints.
func TestKWorstAllMatchesKWorst(t *testing.T) {
	a := toyAnalyzer(t)
	eps := a.EndpointIndices()
	// A deliberately scrambled, partial subset.
	subset := make([]int, 0, len(eps)/2)
	for i := len(eps) - 1; i >= 0; i -= 2 {
		subset = append(subset, eps[i])
	}
	zero := 0.0
	got := a.KWorstAll(subset, 7, &zero, 4)
	want := make([][]*pba.Path, len(subset))
	for i, fi := range subset {
		want[i] = a.KWorst(fi, 7, &zero)
	}
	samePaths(t, want, got, "subset")
}

// TestKWorstReusedScratch: repeated enumerations through the pooled
// scratch must not corrupt earlier results (paths own their storage).
func TestKWorstReusedScratch(t *testing.T) {
	a := toyAnalyzer(t)
	eps := a.EndpointIndices()
	zero := 0.0
	first := a.KWorstAll(eps, 10, &zero, 2)
	snapshot := make([][]int, 0)
	for _, g := range first {
		for _, p := range g {
			snapshot = append(snapshot, append([]int(nil), p.Cells...))
		}
	}
	// Churn the pool with more enumerations.
	for i := 0; i < 3; i++ {
		a.KWorstAll(eps, 10, &zero, 2)
	}
	k := 0
	for _, g := range first {
		for _, p := range g {
			for c := range p.Cells {
				if p.Cells[c] != snapshot[k][c] {
					t.Fatal("pooled scratch reuse corrupted previously returned paths")
				}
			}
			k++
		}
	}
}
