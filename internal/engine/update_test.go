package engine_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/rng"
)

// resizeDirty resizes inst one step (up when possible and up is set, down
// otherwise) and returns the dirty set the closure flow passes for it: the
// instance and the drivers of its input nets, whose load changed. It
// returns nil when the cell has no variant in either direction.
func resizeDirty(t *testing.T, d *netlist.Design, inst *netlist.Instance, up bool) []int {
	t.Helper()
	to := d.Lib.Upsize(inst.Cell)
	if !up || to == nil {
		if down := d.Lib.Downsize(inst.Cell); down != nil {
			to = down
		}
	}
	if to == nil {
		return nil
	}
	if err := d.Resize(inst, to); err != nil {
		t.Fatal(err)
	}
	dirty := []int{inst.ID}
	for _, net := range inst.Inputs {
		if drv := d.Nets[net].Driver; drv >= 0 {
			dirty = append(dirty, drv)
		}
	}
	return dirty
}

// TestUpdateChainMatchesRun chains Updates with no Run between them and
// requires every intermediate Result to equal a fresh Run of the same
// session bit for bit. Each Update carries one to three changes of three
// kinds: gate resizes with their input-net drivers (as the closure flow
// passes them), flip-flop resizes (CK->Q delay and D-pin cap move), and
// weight changes on a weighted config — a new Weights slice, updated over
// the changed IDs, as the calibrator's weighted re-analysis does.
func TestUpdateChainMatchesRun(t *testing.T) {
	for di, dcfg := range gen.Suite()[:3] {
		d, g := buildDesign(t, dcfg)
		s := engine.NewSession(g)
		cfg := engine.DefaultConfig()
		cfg.Weights = make([]float64, len(d.Instances))
		for i := range cfg.Weights {
			cfg.Weights[i] = 1
		}
		r := s.Run(cfg)
		rnd := rng.New(uint64(17 + di))
		var gates []int
		for _, v := range g.Topo {
			if !d.Instances[v].IsFF() {
				gates = append(gates, int(v))
			}
		}
		var kinds [3]int
		for step := 0; step < 60; step++ {
			var modified []int
			for n := 1 + rnd.Intn(3); n > 0; n-- {
				kind := rnd.Intn(3)
				var dirty []int
				switch kind {
				case 0:
					inst := d.Instances[gates[rnd.Intn(len(gates))]]
					dirty = resizeDirty(t, d, inst, rnd.Intn(2) == 0)
				case 1:
					inst := d.Instances[d.FFs[rnd.Intn(len(d.FFs))]]
					dirty = resizeDirty(t, d, inst, rnd.Intn(2) == 0)
				case 2:
					w := slices.Clone(r.Cfg.Weights)
					for k := 1 + rnd.Intn(4); k > 0; k-- {
						v := int(g.Topo[rnd.Intn(len(g.Topo))])
						w[v] = 0.7 + 0.6*rnd.Float64()
						dirty = append(dirty, v)
					}
					r.Cfg.Weights = w
				}
				if dirty != nil {
					kinds[kind]++
				}
				modified = append(modified, dirty...)
			}
			r.Update(modified)
			full := s.Run(r.Cfg)
			requireIdentical(t, full, r, fmt.Sprintf("%s step %d", dcfg.Name, step))
			full.Release()
		}
		r.Release()
		for kind, n := range kinds {
			if n < 10 {
				t.Fatalf("%s: change kind %d exercised %d times, want >= 10", dcfg.Name, kind, n)
			}
		}
	}
}

// TestConcurrentUpdates advances several Results of one session at once,
// each through its own weight changes: the session's cone and scratch
// pools are shared, so every Result must still equal a fresh Run of its
// config bit for bit (run under -race).
func TestConcurrentUpdates(t *testing.T) {
	d, g := buildDesign(t, seaOfGates())
	s := engine.NewSession(g)
	const workers = 4
	results := make([]*engine.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := engine.DefaultConfig()
			cfg.Parallelism = 1
			cfg.Weights = make([]float64, len(d.Instances))
			for i := range cfg.Weights {
				cfg.Weights[i] = 1
			}
			r := s.Run(cfg)
			rnd := rng.New(uint64(100 + w))
			for step := 0; step < 30; step++ {
				wts := slices.Clone(r.Cfg.Weights)
				dirty := make([]int, 0, 4)
				for k := 0; k < 4; k++ {
					v := int(g.Topo[rnd.Intn(len(g.Topo))])
					wts[v] = 0.7 + 0.6*rnd.Float64()
					dirty = append(dirty, v)
				}
				r.Cfg.Weights = wts
				r.Update(dirty)
			}
			results[w] = r
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		full := s.Run(r.Cfg)
		requireIdentical(t, full, r, fmt.Sprintf("worker %d", w))
		full.Release()
		r.Release()
	}
}

// TestUpdateSteadyStateZeroAlloc pins the cost model of the resize loop:
// once the session's cone pool is warm, an Update allocates nothing, with
// observability off or on.
func TestUpdateSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	d, g := buildDesign(t, gen.Suite()[2])
	r := engine.NewSession(g).Run(engine.DefaultConfig())
	defer r.Release()
	var inst *netlist.Instance
	for _, v := range g.Topo {
		if in := d.Instances[v]; !in.IsFF() && d.Lib.Upsize(in.Cell) != nil {
			inst = in
			break
		}
	}
	if inst == nil {
		t.Fatal("no resizable gate")
	}
	variants := [2]*cells.Cell{inst.Cell, d.Lib.Upsize(inst.Cell)}
	dirty := resizeDirty(t, d, inst, true)
	step := 0
	flip := func() {
		inst.Cell = variants[step%2]
		r.Update(dirty)
		step++
	}
	flip()
	flip()
	prev := obs.Enabled()
	defer obs.Enable(prev)
	for _, on := range []bool{false, true} {
		obs.Enable(on)
		runtime.GC()
		if a := testing.AllocsPerRun(50, flip); a != 0 {
			t.Fatalf("obs %v: Update allocates %.1f/op, want 0", on, a)
		}
	}
}
