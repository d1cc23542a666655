package pba_test

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"testing"

	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

func fig2(t *testing.T) (*graph.Graph, *fixtures.Fig2Info, *sta.Result, *pba.Analyzer) {
	t.Helper()
	d, info, cfg, err := fixtures.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, cfg)
	return g, info, r, pba.NewAnalyzer(r)
}

// Eq. (2) of the paper: PBA prices the FF1->FF4 path at 690 ps while GBA
// says 740 ps — a 50 ps pessimism gap.
func TestFig2WorkedExample(t *testing.T) {
	g, info, _, a := fig2(t)
	fi4 := g.FFIndex(info.FF4)
	p := a.WorstPath(fi4)
	if p == nil {
		t.Fatal("no path at FF4")
	}
	if p.Launch != info.FF1 || p.Capture != info.FF4 {
		t.Fatalf("worst path %d->%d, want FF1->FF4", p.Launch, p.Capture)
	}
	if p.NumGates() != 6 {
		t.Fatalf("depth = %d, want 6", p.NumGates())
	}
	if math.Abs(p.GBAArrival-740) > 1e-9 {
		t.Fatalf("GBA arrival = %v, want 740 (Eq. 3)", p.GBAArrival)
	}
	tm := a.Retime(p)
	if math.Abs(tm.Arrival-690) > 1e-9 {
		t.Fatalf("PBA arrival = %v, want 690 (Eq. 2)", tm.Arrival)
	}
	if math.Abs(tm.LateDerate-1.15) > 1e-12 {
		t.Fatalf("path derate = %v, want 1.15", tm.LateDerate)
	}
	if tm.Depth != 6 || math.Abs(tm.Distance-0.5) > 1e-12 {
		t.Fatalf("depth/dist = %d/%v", tm.Depth, tm.Distance)
	}
	// The pessimism gap: 50 ps of slack recovered by PBA.
	if gap := tm.Slack - p.GBASlack; math.Abs(gap-50) > 1e-9 {
		t.Fatalf("slack gap = %v, want 50", gap)
	}
}

func TestFig2PathOrdering(t *testing.T) {
	g, info, _, a := fig2(t)
	fi4 := g.FFIndex(info.FF4)
	ps := a.KWorst(fi4, 10, nil)
	if len(ps) != 2 {
		t.Fatalf("paths at FF4 = %d, want 2", len(ps))
	}
	// Worst first: FF1 path (740) then FF2 path (510).
	if math.Abs(ps[0].GBAArrival-740) > 1e-9 {
		t.Fatalf("first arrival = %v", ps[0].GBAArrival)
	}
	if ps[1].Launch != info.FF2 {
		t.Fatalf("second path launches at %d, want FF2", ps[1].Launch)
	}
	if math.Abs(ps[1].GBAArrival-510) > 1e-9 {
		t.Fatalf("second arrival = %v, want 510 (1.30+1.30+1.25+1.25)*100", ps[1].GBAArrival)
	}
}

func TestFig2FF3Paths(t *testing.T) {
	g, info, _, a := fig2(t)
	fi3 := g.FFIndex(info.FF3)
	ps := a.KWorst(fi3, 10, nil)
	if len(ps) != 2 {
		t.Fatalf("paths at FF3 = %d, want 2", len(ps))
	}
	// FF1->FF3: five gates (g1..g4, k) each at GBA derates 1.20x3, 1.30,
	// then k at depth... k: prefix 3 (via FF2-h-g4? prefix of k = pre(g4)+1
	// = 3), suffix 1, so depth 3 -> 1.30. Total 100*(1.2*3+1.3+1.3) = 620.
	if math.Abs(ps[0].GBAArrival-620) > 1e-9 {
		t.Fatalf("FF1->FF3 GBA arrival = %v, want 620", ps[0].GBAArrival)
	}
	tm := a.Retime(ps[0])
	// PBA: depth 5 at 0.5um -> 1.20; 5 gates * 100 * 1.20 = 600.
	if math.Abs(tm.Arrival-600) > 1e-9 {
		t.Fatalf("FF1->FF3 PBA arrival = %v, want 600", tm.Arrival)
	}
	// FF2->FF3 path: h, g4, k -> depths 3,3,3 GBA: 100*(1.3*3)=390.
	if math.Abs(ps[1].GBAArrival-390) > 1e-9 {
		t.Fatalf("FF2->FF3 GBA arrival = %v, want 390", ps[1].GBAArrival)
	}
	tm2 := a.Retime(ps[1])
	// PBA: depth 3, dist 0.5 -> 1.30: 390. No pessimism on this path.
	if math.Abs(tm2.Arrival-390) > 1e-9 {
		t.Fatalf("FF2->FF3 PBA arrival = %v, want 390", tm2.Arrival)
	}
}

func TestKWorstRespectsK(t *testing.T) {
	g, _, _, a := fig2(t)
	for fi := range g.D.FFs {
		ps := a.KWorst(fi, 1, nil)
		if len(ps) > 1 {
			t.Fatalf("k=1 returned %d paths", len(ps))
		}
	}
}

func TestKWorstDescendingOrder(t *testing.T) {
	d, err := gen.Generate(genSmall())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	a := pba.NewAnalyzer(r)
	for fi := range d.FFs {
		ps := a.KWorst(fi, 25, nil)
		for i := 1; i < len(ps); i++ {
			if ps[i].GBAArrival > ps[i-1].GBAArrival+1e-9 {
				t.Fatalf("endpoint %d: path %d arrival %v above predecessor %v",
					fi, i, ps[i].GBAArrival, ps[i-1].GBAArrival)
			}
		}
	}
}

func genSmall() gen.Config {
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 400, 60
	cfg.Name = "pba-small"
	return cfg
}

// The fundamental soundness property of the whole framework: PBA slack is
// never worse than GBA slack, path by path, because every worst-casing GBA
// applies (depth, distance, slew, CRPR) is relaxed exactly in PBA.
func TestPBANeverMorePessimisticThanGBA(t *testing.T) {
	d, err := gen.Generate(genSmall())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	a := pba.NewAnalyzer(r)
	checked := 0
	for fi := range d.FFs {
		for _, p := range a.KWorst(fi, 10, nil) {
			tm := a.Retime(p)
			if tm.Slack < p.GBASlack-1e-6 {
				t.Fatalf("endpoint %d: PBA slack %v below GBA slack %v", fi, tm.Slack, p.GBASlack)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d paths checked; fixture too small", checked)
	}
}

// The worst GBA path arrival found by enumeration must match the graph
// arrival at the endpoint (they are the same maximization).
func TestWorstPathMatchesGraphArrival(t *testing.T) {
	d, err := gen.Generate(genSmall())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	a := pba.NewAnalyzer(r)
	for fi, ffID := range d.FFs {
		if len(g.Fanin(ffID)) == 0 {
			continue
		}
		p := a.WorstPath(fi)
		if p == nil {
			t.Fatalf("endpoint %d: no path", fi)
		}
		if math.Abs(p.GBAArrival-r.DataAtD[fi]) > 1e-6 {
			t.Fatalf("endpoint %d: enumerated worst %v vs graph %v", fi, p.GBAArrival, r.DataAtD[fi])
		}
		if math.Abs(p.GBASlack-r.Slack[fi]) > 1e-6 {
			t.Fatalf("endpoint %d: slack mismatch %v vs %v", fi, p.GBASlack, r.Slack[fi])
		}
	}
}

func TestAllViolatedOnlyNegative(t *testing.T) {
	d, err := gen.Generate(genSmall())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	a := pba.NewAnalyzer(r)
	ps := a.AllViolated(200)
	if len(ps) == 0 {
		t.Fatal("no violated paths on a heavily violating design")
	}
	for _, p := range ps {
		if p.GBASlack >= 0 {
			t.Fatalf("non-violated path returned: slack %v", p.GBASlack)
		}
	}
}

func TestPathsAreContiguous(t *testing.T) {
	// Every consecutive cell pair on a path must be a real graph edge.
	d, err := gen.Generate(genSmall())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	a := pba.NewAnalyzer(r)
	for fi := range d.FFs {
		for _, p := range a.KWorst(fi, 5, nil) {
			if !d.Instances[p.Cells[0]].IsFF() {
				t.Fatal("path does not start at an FF")
			}
			for i := 1; i < len(p.Cells); i++ {
				found := false
				for _, e := range g.Fanout(p.Cells[i-1]) {
					if int(e.To) == p.Cells[i] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("cells %d->%d not connected", p.Cells[i-1], p.Cells[i])
				}
			}
			// Last cell must feed the capture FF.
			found := false
			for _, e := range g.Fanout(p.Cells[len(p.Cells)-1]) {
				if int(e.To) == p.Capture {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("path tail does not reach the capture FF")
			}
		}
	}
}

func TestStopAtSlack(t *testing.T) {
	g, _, _, a := fig2(t)
	// With a huge stop threshold nothing is collected.
	lo := -1e18
	for fi := range g.D.FFs {
		ps := a.KWorst(fi, 100, &lo)
		if len(ps) != 0 {
			t.Fatalf("low stopAtSlack returned %d paths", len(ps))
		}
	}
}

func TestBudgetMatchesSlackDefinition(t *testing.T) {
	g, info, r, a := fig2(t)
	fi4 := g.FFIndex(info.FF4)
	p := a.WorstPath(fi4)
	if math.Abs((a.Budget(fi4)+r.GBACRPR[fi4]-p.GBAArrival)-r.Slack[fi4]) > 1e-9 {
		t.Fatal("budget + credit - arrival != endpoint slack")
	}
}

// seedState, seedHeap and seedKWorst are the bound-keyed search the
// enumerator used before its sidetrack key, kept as the reference the
// shipped search must reproduce: best-first on ArrivalOut[inst] + tail
// through container/heap with no tie order. Along a critical chain that
// bound drifts by float64 rounding, so the search sweeps breadth-first
// through equal-arrival prefixes; the output is what the shipped search
// must match, the cost is what it must not.
type seedState struct {
	inst   int
	tail   float64
	parent *seedState // towards the endpoint
	bound  float64    // ArrivalOut[inst] + tail
}

type seedHeap []*seedState

func (h seedHeap) Len() int           { return len(h) }
func (h seedHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h seedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seedHeap) Push(x any)        { *h = append(*h, x.(*seedState)) }
func (h *seedHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func seedKWorst(a *pba.Analyzer, captureIdx, k int, stopAtSlack *float64) []*pba.Path {
	r := a.R
	d := r.G.D
	ffID := d.FFs[captureIdx]
	budget := a.Budget(captureIdx)

	h := &seedHeap{}
	for _, e := range r.G.Fanin(ffID) {
		s := &seedState{
			inst: int(e.From),
			tail: r.WireDelay[e.From],
		}
		s.bound = r.ArrivalOut[e.From] + s.tail
		heap.Push(h, s)
	}
	gbaCredit := r.GBACRPR[captureIdx]
	var out []*pba.Path
	for h.Len() > 0 && len(out) < k {
		s := heap.Pop(h).(*seedState)
		in := d.Instances[s.inst]
		if in.IsFF() {
			arrival := s.bound
			slack := budget + gbaCredit - arrival
			if stopAtSlack != nil && slack >= *stopAtSlack {
				break
			}
			cells := []int{s.inst}
			for st := s.parent; st != nil; st = st.parent {
				cells = append(cells, st.inst)
			}
			out = append(out, &pba.Path{
				Launch:     s.inst,
				Capture:    ffID,
				Cells:      cells,
				GBAArrival: arrival,
				GBASlack:   slack,
			})
			continue
		}
		for _, e := range r.G.Fanin(s.inst) {
			ns := &seedState{
				inst:   int(e.From),
				tail:   s.tail + r.CellDelay[s.inst] + r.WireDelay[e.From],
				parent: s,
			}
			ns.bound = r.ArrivalOut[e.From] + ns.tail
			heap.Push(h, ns)
		}
	}
	return out
}

func analyzeDesign(t testing.TB, d *netlist.Design) *pba.Analyzer {
	t.Helper()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return pba.NewAnalyzer(sta.Analyze(g, sta.DefaultConfig()))
}

func generatedAnalyzer(t testing.TB, cfg gen.Config) *pba.Analyzer {
	t.Helper()
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return analyzeDesign(t, d)
}

var large30k struct {
	once sync.Once
	a    *pba.Analyzer
}

// large30kAnalyzer returns the GBA analysis of gen.Large(30000), built once
// per test binary: the design on which the bound-keyed search blew up.
func large30kAnalyzer(t testing.TB) *pba.Analyzer {
	t.Helper()
	large30k.once.Do(func() { large30k.a = generatedAnalyzer(t, gen.Large(30000)) })
	if large30k.a == nil {
		t.Fatal("gen.Large(30000) analysis failed in an earlier test")
	}
	return large30k.a
}

// TestKWorstMatchesSeedSearch: the sidetrack-keyed search returns, endpoint
// by endpoint, exactly what the bound-keyed seed search returns at every
// call-site shape — k 1 with no stop (WorstPath), 10 with no stop (closure
// sign-off and validation), 20 stopping at slack 0 (calibration) and 200
// stopping at 0 — on the suite, the toy, both closure fixtures and, at the
// calibration shape, gen.Large(30000).
func TestKWorstMatchesSeedSearch(t *testing.T) {
	zero := 0.0
	type shape struct {
		k    int
		stop *float64
	}
	shapes := []shape{{1, nil}, {10, nil}, {20, &zero}, {200, &zero}}
	check := func(t *testing.T, a *pba.Analyzer, shapes []shape) {
		eps := a.EndpointIndices()
		checked := 0
		for _, sh := range shapes {
			got := make([][]*pba.Path, len(eps))
			want := make([][]*pba.Path, len(eps))
			for i, fi := range eps {
				got[i] = a.KWorst(fi, sh.k, sh.stop)
				want[i] = seedKWorst(a, fi, sh.k, sh.stop)
				checked += len(got[i])
			}
			samePaths(t, want, got, fmt.Sprintf("k %d stop %v", sh.k, sh.stop != nil))
		}
		if checked == 0 {
			t.Fatal("no paths compared")
		}
	}

	for _, cfg := range append(gen.Suite(), gen.Toy()) {
		t.Run(cfg.Name, func(t *testing.T) { check(t, generatedAnalyzer(t, cfg), shapes) })
	}
	fixtureCases := []struct {
		name  string
		build func() (*netlist.Design, error)
	}{
		{"bufcase", fixtures.BufferCase},
		{"retimetoy", func() (*netlist.Design, error) { return fixtures.RetimePipeline(4) }},
	}
	for _, fc := range fixtureCases {
		t.Run(fc.name, func(t *testing.T) {
			d, err := fc.build()
			if err != nil {
				t.Fatal(err)
			}
			check(t, analyzeDesign(t, d), shapes)
		})
	}
	t.Run("large-30k", func(t *testing.T) {
		check(t, large30kAnalyzer(t), []shape{{20, &zero}})
	})
}

// TestKWorstSearchStaysLinear pins the mechanism behind the sidetrack key.
// On gen.Large(30000) the bound-keyed search pushed 1,211,413 states for a
// single endpoint (3,182,096 over the design) to emit at most 20 paths per
// endpoint, sweeping equal-arrival prefixes whose bounds drifted apart by
// rounding; the sidetrack-keyed search needs a few hundred per endpoint.
// No endpoint may push more than 5,000.
func TestKWorstSearchStaysLinear(t *testing.T) {
	a := large30kAnalyzer(t)
	zero := 0.0
	worst, worstFI, total := 0, -1, 0
	for _, fi := range a.EndpointIndices() {
		n := a.SearchPushes(fi, 20, &zero)
		total += n
		if n > worst {
			worst, worstFI = n, fi
		}
	}
	t.Logf("max %d states pushed (endpoint %d), %d in total", worst, worstFI, total)
	if worst > 5000 {
		t.Fatalf("endpoint %d pushed %d states for k=20; want at most 5000", worstFI, worst)
	}
}

// TestKWorstCellsExact: a path's cells are one allocation of exactly its
// length, so a cached population carries no append slack.
func TestKWorstCellsExact(t *testing.T) {
	zero := 0.0
	for _, cfg := range gen.Suite()[:3] {
		a := generatedAnalyzer(t, cfg)
		n := 0
		for _, paths := range a.KWorstAll(a.EndpointIndices(), 200, &zero, 2) {
			for _, p := range paths {
				if cap(p.Cells) != len(p.Cells) {
					t.Fatalf("%s: path %d->%d has %d cells in a %d-cell slice", cfg.Name, p.Launch, p.Capture, len(p.Cells), cap(p.Cells))
				}
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no paths enumerated", cfg.Name)
		}
	}
}
