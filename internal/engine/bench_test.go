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
// Release, which in the steady state allocates only the *Result header).
// The session variant is the acceptance target: >= 1.5x faster per
// iteration.
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

// BenchmarkLevelParallelPropagation times one steady-state Run and its
// Release, sequential and level-parallel (Parallelism 0), on D8 (the
// suite's 5,200-gate sea of gates) and on gen.Large(30000) (the design
// of perfbench's scale-30k workload). A design's two settings share one
// warmed session, so the delta between them is purely the forward and
// backward sweep schedule. On a single-CPU host Parallelism 0 resolves
// to one worker and the two cases coincide — the comparison is only
// meaningful on multicore hardware.
func BenchmarkLevelParallelPropagation(b *testing.B) {
	for _, dcfg := range []gen.Config{gen.Suite()[7], gen.Large(30000)} {
		_, g := benchDesign(b, dcfg)
		s := engine.NewSession(g)
		for _, bc := range []struct {
			name string
			par  int
		}{
			{"sequential", 1},
			{"parallel", 0},
		} {
			b.Run(dcfg.Name+"/"+bc.name, func(b *testing.B) {
				cfg := engine.DefaultConfig()
				cfg.Parallelism = bc.par
				s.Run(cfg).Release() // warm
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := s.Run(cfg)
					_ = r.WNS
					r.Release()
				}
			})
		}
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

// BenchmarkFreshSession measures a cold start on D8: build the timing
// graph, build a session, and run the first analysis, which derives the
// clock state and the leaf-pair CRPR credit matrix. A structural trial
// pays none of it (BenchmarkStructuralTrial).
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

// BenchmarkStructuralTrial times one rejected structural trial of the
// closure flow on D3, the way the flow runs it: apply the move, Derive
// the trial session from the flow's over the move's edited instances
// (patching its graph, sharing its clock state), Rebase the flow's view
// onto it, then drop the view, discard the trial session (its storage
// serves the next trial) and revert the move, so every trial runs on the
// same design. buffer inserts a buffer on a data net deep inside
// the logic cone and pops it again; retime makes a legal backward slide
// and its UndoSlide. The first Derive of the flow's session computes its
// launch-leaf masks once, before the timer starts.
func BenchmarkStructuralTrial(b *testing.B) {
	cfg := engine.DefaultConfig()
	d, g := benchDesign(b, gen.Suite()[2]) // D3
	s := engine.NewSession(g)
	r := s.Run(cfg)
	nInst := len(d.Instances)
	run := func(b *testing.B, apply func() []int, revert func()) {
		trial := func() {
			edited := apply()
			s2, err := s.Derive(edited)
			if err != nil {
				b.Fatal(err)
			}
			r2 := r.Rebase(s2, cfg, edited)
			_ = r2.WNS
			r2.Release()
			s2.Discard()
			revert()
		}
		trial()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trial()
		}
		b.StopTimer()
		if len(d.Instances) != nInst {
			b.Fatalf("design grew from %d to %d instances over %d trials", nInst, len(d.Instances), b.N)
		}
	}

	b.Run("buffer", func(b *testing.B) {
		// The output net of the middle combinational gate in topological
		// order: a data net deep inside the logic cone.
		var gates []int32
		for _, v := range g.Topo {
			if !d.Instances[v].IsFF() {
				gates = append(gates, v)
			}
		}
		net := d.Instances[gates[len(gates)/2]].Output
		buf, err := d.Lib.Pick(cells.Buf, 2)
		if err != nil {
			b.Fatal(err)
		}
		var bi *netlist.Instance
		run(b, func() []int {
			if bi, err = d.InsertBuffer(net, buf, ""); err != nil {
				b.Fatal(err)
			}
			return append(slices.Clone(d.Nets[bi.Output].Sinks), d.Nets[net].Driver, bi.ID)
		}, func() {
			if err := d.RemoveBuffer(bi); err != nil {
				b.Fatal(err)
			}
		})
	})

	b.Run("retime", func(b *testing.B) {
		// The first register whose D-pin driver slides backward across it.
		var ff, gate *netlist.Instance
		for _, id := range d.FFs {
			f := d.Instances[id]
			if drv := d.Nets[f.Inputs[0]].Driver; drv >= 0 && !g.IsClock(drv) {
				if sl, err := d.RetimeBackward(f, d.Instances[drv]); err == nil {
					if err := d.UndoSlide(sl); err != nil {
						b.Fatal(err)
					}
					ff, gate = f, d.Instances[drv]
					break
				}
			}
		}
		if ff == nil {
			b.Fatal("no legal backward slide on D3")
		}
		var sl netlist.Slide
		run(b, func() []int {
			var err error
			if sl, err = d.RetimeBackward(ff, gate); err != nil {
				b.Fatal(err)
			}
			// The retime transform's dirty set: the register, the gate
			// and the data drivers of their input nets.
			edited := []int{ff.ID, gate.ID}
			for _, in := range []*netlist.Instance{ff, gate} {
				if drv := d.Nets[in.Inputs[0]].Driver; drv >= 0 && !g.IsClock(drv) && !slices.Contains(edited, drv) {
					edited = append(edited, drv)
				}
			}
			return edited
		}, func() {
			if err := d.UndoSlide(sl); err != nil {
				b.Fatal(err)
			}
		})
	})
}
