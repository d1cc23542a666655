package engine_test

import (
	"slices"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
)

func benchDesign(b *testing.B, cfg gen.Config) (*netlist.Design, *graph.Graph) {
	b.Helper()
	d, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		b.Fatal(err)
	}
	return d, g
}

// BenchmarkSessionReuseVsColdAnalyze measures one closure-loop iteration's
// timing cost — a weighted mGBA re-timing of a mid-size design — first the
// old way (cold Analyze: rebuild depths, boxes, clock tree, credits and
// every buffer per call) and then through a reused session (one Run +
// Release, allocation-free in the steady state). The session variant is
// the acceptance target: >= 1.5x faster per iteration.
func BenchmarkSessionReuseVsColdAnalyze(b *testing.B) {
	d, g := benchDesign(b, gen.Suite()[2]) // D3: 3000-gate cone design
	cfg := engine.DefaultConfig()
	cfg.Weights = make([]float64, len(d.Instances))
	for i := range cfg.Weights {
		cfg.Weights[i] = 1
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := engine.Analyze(g, cfg)
			_ = r.WNS
			r.Release()
		}
	})
	b.Run("session", func(b *testing.B) {
		s := engine.NewSession(g)
		s.Run(cfg).Release() // warm the clock cache and the scratch pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := s.Run(cfg)
			_ = r.WNS
			r.Release()
		}
	})
}

// BenchmarkLevelParallelPropagation compares sequential and level-parallel
// propagation on the largest generator preset (D2, 6000 gates). Both
// settings share one warmed session, so the measured delta is purely the
// forward/backward sweep schedule. On a single-CPU host Parallelism 0
// resolves to one worker and the two cases coincide — the comparison is
// only meaningful on multicore hardware.
func BenchmarkLevelParallelPropagation(b *testing.B) {
	_, g := benchDesign(b, gen.Suite()[1]) // D2: largest preset
	s := engine.NewSession(g)
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := engine.DefaultConfig()
			cfg.Parallelism = bc.par
			s.Run(cfg).Release() // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := s.Run(cfg)
				_ = r.WNS
				r.Release()
			}
		})
	}
}

// BenchmarkCRPRCreditReuse measures exact per-pair CRPR credit queries —
// the PBA retiming hot spot — against a cold analysis per batch versus a
// session whose leaf-pair credit matrix is built once. This is the
// regression guard for hoisting the per-result credit memo into the
// session.
func BenchmarkCRPRCreditReuse(b *testing.B) {
	_, g := benchDesign(b, gen.Suite()[5]) // D6: deep clock tree, heavy joins
	cfg := engine.DefaultConfig()
	nf := len(g.D.FFs)

	queryAll := func(r *engine.Result) float64 {
		var sum float64
		for launch := 0; launch < nf; launch++ {
			for capture := 0; capture < nf; capture += 7 {
				sum += r.CRPRCredit(launch, capture)
			}
		}
		return sum
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := engine.Analyze(g, cfg)
			_ = queryAll(r)
			r.Release()
		}
	})
	b.Run("session", func(b *testing.B) {
		s := engine.NewSession(g)
		s.Run(cfg).Release() // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := s.Run(cfg)
			_ = queryAll(r)
			r.Release()
		}
	})
}

// BenchmarkFreshSession measures what a structural trial (buffer
// insertion, retiming) pays before it can judge its move: build the
// timing graph, build a session, and run the first analysis — which
// derives the clock state and the leaf-pair CRPR credit matrix — on D8.
func BenchmarkFreshSession(b *testing.B) {
	d, _ := benchDesign(b, gen.Suite()[7]) // D8: sea of gates
	cfg := engine.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.Build(d)
		if err != nil {
			b.Fatal(err)
		}
		r := engine.NewSession(g).Run(cfg)
		_ = r.WNS
	}
}

// BenchmarkStructuralTrial times one rejected buffer trial of the closure
// flow on D3, the way the flow runs it: insert a buffer on a data net,
// rebuild the graph, Derive the trial session from the flow's (sharing
// its clock state), Rebase the flow's view onto it, then drop the view
// and revert the insertion. Each revert leaves a dead instance slot, so
// the design is regenerated, off the clock, every 64 trials.
func BenchmarkStructuralTrial(b *testing.B) {
	cfg := engine.DefaultConfig()
	var (
		d   *netlist.Design
		s   *engine.Session
		r   *engine.Result
		net int
		buf *cells.Cell
	)
	fresh := func() {
		var g *graph.Graph
		d, g = benchDesign(b, gen.Suite()[2]) // D3
		s = engine.NewSession(g)
		r = s.Run(cfg)
		// The output net of the middle combinational gate in topological
		// order: a data net deep inside the logic cone.
		var gates []int32
		for _, v := range g.Topo {
			if !d.Instances[v].IsFF() {
				gates = append(gates, v)
			}
		}
		net = d.Instances[gates[len(gates)/2]].Output
		var err error
		if buf, err = d.Lib.Pick(cells.Buf, 2); err != nil {
			b.Fatal(err)
		}
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		bi, err := d.InsertBuffer(net, buf, "")
		if err != nil {
			b.Fatal(err)
		}
		g2, err := graph.Build(d)
		if err != nil {
			b.Fatal(err)
		}
		edited := append(slices.Clone(d.Nets[bi.Output].Sinks), d.Nets[net].Driver, bi.ID)
		r2 := r.Rebase(s.Derive(g2), cfg, edited)
		_ = r2.WNS
		r2.Release()
		if err := d.RemoveBuffer(bi); err != nil {
			b.Fatal(err)
		}
	}
}
