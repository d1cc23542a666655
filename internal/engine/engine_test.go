package engine_test

import (
	"math"
	"sync"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/rng"
)

// buildDesign generates a design preset and its timing graph.
func buildDesign(t *testing.T, cfg gen.Config) (*netlist.Design, *graph.Graph) {
	t.Helper()
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

// seaOfGates is a shrunken D8-style preset: reconvergent sea-of-gates
// logic, deep levels, advanced node. Small enough for -race test runs.
func seaOfGates() gen.Config {
	cfg := gen.Suite()[7]
	cfg.Name = "sea-test"
	cfg.Gates = 2000
	cfg.FFs = 220
	cfg.MaxLevel = 24
	return cfg
}

// eq is bitwise equality: the engine's outputs are deterministic down to
// the sign of a zero and the payload of a NaN.
func eq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireIdentical asserts exact (bitwise) equality of two analyses of the
// same design: every per-instance and per-endpoint slice, WNS and TNS. The
// parallel schedule writes each slot from already-final inputs, and an
// incremental Update re-derives exactly what a Run would, so equality
// must be exact, not tolerance-based.
func requireIdentical(t *testing.T, want, got *engine.Result, label string) {
	t.Helper()
	fields := []struct {
		name      string
		want, got []float64
	}{
		{"nominal delay", want.NominalDelay, got.NominalDelay},
		{"derate", want.Derate, got.Derate},
		{"cell delay", want.CellDelay, got.CellDelay},
		{"wire delay", want.WireDelay, got.WireDelay},
		{"slew", want.Slew, got.Slew},
		{"arrival", want.ArrivalOut, got.ArrivalOut},
		{"required", want.RequiredOut, got.RequiredOut},
		{"min arrival", want.MinArrival, got.MinArrival},
		{"clock late", want.ClockLate, got.ClockLate},
		{"clock early", want.ClockEarly, got.ClockEarly},
		{"GBA CRPR", want.GBACRPR, got.GBACRPR},
		{"data at D", want.DataAtD, got.DataAtD},
		{"min at D", want.MinAtD, got.MinAtD},
		{"slack", want.Slack, got.Slack},
		{"hold slack", want.HoldSlack, got.HoldSlack},
	}
	for _, sl := range fields {
		if len(sl.got) != len(sl.want) {
			t.Fatalf("%s: %s has %d entries, want %d", label, sl.name, len(sl.got), len(sl.want))
		}
		for i := range sl.want {
			if !eq(sl.want[i], sl.got[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, sl.name, i, sl.got[i], sl.want[i])
			}
		}
	}
	if !eq(want.WNS, got.WNS) || !eq(want.TNS, got.TNS) {
		t.Fatalf("%s: WNS/TNS %v/%v != %v/%v", label, got.WNS, got.TNS, want.WNS, want.TNS)
	}
}

// TestParallelEquivalence checks the tentpole determinism contract: every
// Parallelism setting — and a cold one-shot Analyze — produces bitwise
// identical results on both a cone design and a reconvergent sea design.
func TestParallelEquivalence(t *testing.T) {
	for _, dcfg := range []gen.Config{gen.Toy(), seaOfGates()} {
		_, g := buildDesign(t, dcfg)
		s := engine.NewSession(g)

		cfg := engine.DefaultConfig()
		cfg.Parallelism = 1
		base := s.Run(cfg)
		defer base.Release()

		for _, p := range []int{0, 2, 4} {
			pcfg := cfg
			pcfg.Parallelism = p
			r := s.Run(pcfg)
			requireIdentical(t, base, r, dcfg.Name)
			r.Release()
		}

		cold := engine.Analyze(g, cfg)
		requireIdentical(t, base, cold, dcfg.Name+"/cold")
		cold.Release()
	}
}

// TestParallelEquivalenceWeighted repeats the check with an mGBA weight
// vector, exercising the weighted delay basis under the parallel schedule.
func TestParallelEquivalenceWeighted(t *testing.T) {
	d, g := buildDesign(t, gen.Toy())
	s := engine.NewSession(g)

	cfg := engine.DefaultConfig()
	cfg.Weights = make([]float64, len(d.Instances))
	r := rng.New(7)
	for i := range cfg.Weights {
		cfg.Weights[i] = 0.8 + 0.2*r.Float64()
	}

	cfg.Parallelism = 1
	seq := s.Run(cfg)
	defer seq.Release()
	cfg.Parallelism = 0
	par := s.Run(cfg)
	defer par.Release()
	requireIdentical(t, seq, par, "weighted")
}

// TestIncrementalVsFullSession drives the incremental Update path through
// the session API: repeated rng-drawn gate resizes, each incrementally
// updated and compared (exactly) against a fresh full Run of the same
// session.
func TestIncrementalVsFullSession(t *testing.T) {
	d, g := buildDesign(t, gen.Toy())
	s := engine.NewSession(g)
	cfg := engine.DefaultConfig()
	r := s.Run(cfg)
	defer r.Release()

	rnd := rng.New(99)
	resized := 0
	for iter := 0; iter < 40 && resized < 20; iter++ {
		v := int(g.Topo[rnd.Intn(len(g.Topo))])
		in := d.Instances[v]
		if in.IsFF() {
			continue
		}
		to := d.Lib.Upsize(in.Cell)
		if iter%2 == 1 || to == nil {
			if down := d.Lib.Downsize(in.Cell); down != nil {
				to = down
			}
		}
		if to == nil {
			continue
		}
		if err := d.Resize(in, to); err != nil {
			t.Fatal(err)
		}
		resized++

		// The resized gate changed its own delay and, via its input pin
		// cap, the load of every driver feeding it.
		modified := []int{v}
		for _, net := range in.Inputs {
			if drv := d.Nets[net].Driver; drv >= 0 {
				modified = append(modified, drv)
			}
		}
		r.Update(modified)

		full := s.Run(cfg)
		requireIdentical(t, full, r, "incremental")
		full.Release()
	}
	if resized < 10 {
		t.Fatalf("only %d resizes exercised", resized)
	}
}

// TestBufferInsertionRebuild checks the documented staleness rule: after a
// connectivity change the graph and session are rebuilt, and the rebuilt
// session matches a cold analysis of the new design.
func TestBufferInsertionRebuild(t *testing.T) {
	d, g := buildDesign(t, gen.Toy())
	cfg := engine.DefaultConfig()
	s := engine.NewSession(g)
	s.Run(cfg).Release()

	bufs := d.Lib.Variants(cells.Buf)
	if len(bufs) == 0 {
		t.Fatal("library has no buffers")
	}
	inserted := 0
	for _, v := range g.Topo {
		in := d.Instances[v]
		if in.IsFF() || in.Output < 0 || len(d.Nets[in.Output].Sinks) < 2 {
			continue
		}
		if _, err := d.InsertBuffer(in.Output, bufs[len(bufs)-1], "rebuf"); err != nil {
			t.Fatal(err)
		}
		inserted++
		if inserted == 3 {
			break
		}
	}
	if inserted == 0 {
		t.Fatal("no net suitable for buffering")
	}

	g2, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	s2 := engine.NewSession(g2)
	r2 := s2.Run(cfg)
	defer r2.Release()
	cold := engine.Analyze(g2, cfg)
	defer cold.Release()
	requireIdentical(t, cold, r2, "rebuilt")
}

// TestCloneAfterDesignGrowth pins the session geometry: a buffer inserted
// under a live session grows the design past it, and the session (built
// before the insertion) does not time the new instance. Results the
// session hands out afterwards must keep its original layout: a clone of
// an earlier Result equals it bit for bit, and a fresh Run and its clone
// are as long as the session, not the design.
func TestCloneAfterDesignGrowth(t *testing.T) {
	d, g := buildDesign(t, gen.Toy())
	cfg := engine.DefaultConfig()
	s := engine.NewSession(g)
	r := s.Run(cfg)
	defer r.Release()

	bufs := d.Lib.Variants(cells.Buf)
	grown := false
	for _, v := range g.Topo {
		in := d.Instances[v]
		if in.IsFF() || in.Output < 0 || len(d.Nets[in.Output].Sinks) < 2 {
			continue
		}
		if _, err := d.InsertBuffer(in.Output, bufs[len(bufs)-1], "grow"); err != nil {
			t.Fatal(err)
		}
		grown = true
		break
	}
	if !grown {
		t.Fatal("no net suitable for buffering")
	}
	if len(d.Instances) != s.NumInstances()+1 {
		t.Fatalf("design has %d instances, want the session's %d plus the buffer",
			len(d.Instances), s.NumInstances())
	}

	cl := r.Clone()
	defer cl.Release()
	requireIdentical(t, r, cl, "clone")
	fresh := s.Run(cfg)
	defer fresh.Release()
	if n := len(fresh.ArrivalOut); n != s.NumInstances() {
		t.Fatalf("a Run after the growth has %d instance slots, want the session's %d", n, s.NumInstances())
	}
	fcl := fresh.Clone()
	defer fcl.Release()
	requireIdentical(t, fresh, fcl, "clone of a run after the growth")
}

// TestClockStateCachedAcrossRuns checks that the clock insertion delays and
// CRPR credits are computed once per clock configuration and shared by
// every Run: same backing arrays, one cache entry per distinct clockKey.
func TestClockStateCachedAcrossRuns(t *testing.T) {
	_, g := buildDesign(t, gen.Toy())
	s := engine.NewSession(g)
	cfg := engine.DefaultConfig()

	r1 := s.Run(cfg)
	p1 := &r1.ClockLate[0]
	r1.Release()
	r2 := s.Run(cfg)
	if &r2.ClockLate[0] != p1 {
		t.Fatal("clock state rebuilt on second run of the same configuration")
	}
	r2.Release()
	if n := s.NumClockStates(); n != 1 {
		t.Fatalf("expected 1 cached clock state, got %d", n)
	}

	// Weights and data derating do not key the clock cache...
	wcfg := cfg
	wcfg.DerateData = false
	wcfg.Weights = make([]float64, len(g.D.Instances))
	s.Run(wcfg).Release()
	if n := s.NumClockStates(); n != 1 {
		t.Fatalf("data-side config change grew the clock cache to %d", n)
	}

	// ...but the clock configuration does.
	icfg := cfg
	icfg.IdealClock = true
	ri := s.Run(icfg)
	for fi := range ri.ClockLate {
		if ri.ClockLate[fi] != 0 || ri.GBACRPR[fi] != 0 {
			t.Fatal("ideal clock state not zero")
		}
	}
	ri.Release()
	if n := s.NumClockStates(); n != 2 {
		t.Fatalf("expected 2 cached clock states, got %d", n)
	}
}

// TestReleaseRecyclesScratch checks the allocation-free steady state: a
// released Result's buffers are handed, deterministically, to the next Run,
// and double-release is a harmless no-op.
func TestReleaseRecyclesScratch(t *testing.T) {
	_, g := buildDesign(t, gen.Toy())
	s := engine.NewSession(g)
	cfg := engine.DefaultConfig()

	r1 := s.Run(cfg)
	p1 := &r1.ArrivalOut[0]
	r1.Release()
	if n := s.FreeScratch(); n != 1 {
		t.Fatalf("free list holds %d sets after release, want 1", n)
	}

	r2 := s.Run(cfg)
	if &r2.ArrivalOut[0] != p1 {
		t.Fatal("second run did not recycle the released buffers")
	}
	if n := s.FreeScratch(); n != 0 {
		t.Fatalf("free list holds %d sets while a run is live, want 0", n)
	}

	r1.Release() // double release: already transferred, must not re-enter
	if n := s.FreeScratch(); n != 0 {
		t.Fatal("double release re-entered the pool")
	}
	r2.Release()
	if n := s.FreeScratch(); n != 1 {
		t.Fatal("release after double-release miscounted the pool")
	}
}

// TestConcurrentRuns hammers one session from several goroutines with
// distinct clock configurations — the shared clockState cache, the scratch
// pool and the credit matrices must all be race-free (run under -race).
func TestConcurrentRuns(t *testing.T) {
	_, g := buildDesign(t, gen.Toy())
	s := engine.NewSession(g)
	base := engine.DefaultConfig()

	configs := []engine.Config{base, base, base, base}
	configs[1].IdealClock = true
	configs[2].DerateClock = false
	configs[3].DerateData = false

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				r := s.Run(configs[(w+i)%len(configs)])
				_ = r.ViolatingEndpoints()
				r.Release()
			}
		}(w)
	}
	wg.Wait()
}
