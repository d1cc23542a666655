package engine_test

import (
	"fmt"
	"testing"

	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/rng"
)

// refConfig is one analysis setting the reference tests sweep.
type refConfig struct {
	name string
	cfg  engine.Config
}

// refConfigs returns the settings Run is checked against the reference
// under: the default GBA, a weighted mGBA run (weights in 0.7–1.3), delay
// overrides on a seeded tenth of the instances (flip-flops included),
// derates scaled by 1.15 with 10 ps of clock uncertainty, an ideal clock,
// and data derating off.
func refConfigs(t testing.TB, d *netlist.Design, seed uint64) []refConfig {
	t.Helper()
	rnd := rng.New(seed)
	n := len(d.Instances)
	weighted := engine.DefaultConfig()
	weighted.Weights = make([]float64, n)
	for i := range weighted.Weights {
		weighted.Weights[i] = 0.7 + 0.6*rnd.Float64()
	}
	override := engine.DefaultConfig()
	override.DelayOverride = make(map[int]float64)
	for v := 0; v < n; v++ {
		if rnd.Intn(10) == 0 {
			override.DelayOverride[v] = 5 + 95*rnd.Float64()
		}
	}
	scaled := engine.DefaultConfig()
	derates, err := d.Derates.Scale(1.15)
	if err != nil {
		t.Fatal(err)
	}
	scaled.Derates, scaled.Uncertainty = derates, 10
	ideal := engine.DefaultConfig()
	ideal.IdealClock = true
	noData := engine.DefaultConfig()
	noData.DerateData = false
	return []refConfig{
		{"default", engine.DefaultConfig()},
		{"weighted", weighted},
		{"override", override},
		{"scaled", scaled},
		{"ideal-clock", ideal},
		{"no-data-derate", noData},
	}
}

// refDesigns returns the designs TestRunMatchesReference covers: D1–D10,
// both closure fixtures and gen.Large(5000).
func refDesigns(t *testing.T) []*netlist.Design {
	t.Helper()
	var out []*netlist.Design
	for _, cfg := range append(gen.Suite(), gen.Large(5000)) {
		d, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	bufcase, err := fixtures.BufferCase()
	if err != nil {
		t.Fatal(err)
	}
	retimetoy, err := fixtures.RetimePipeline(4)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, bufcase, retimetoy)
}

// TestRunMatchesReference requires Run to equal the reference propagation
// (Kahn-order levels, every load read from the netlist at its use, no
// staging; engine.RefRun) bit for bit in all 15 Result slices, WNS and
// TNS, on every reference design and setting, at Parallelism 1, 2 and 3.
func TestRunMatchesReference(t *testing.T) {
	for di, d := range refDesigns(t) {
		g, err := graph.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.NewSession(g)
		for _, rc := range refConfigs(t, d, uint64(31+di)) {
			want := engine.RefRun(s, rc.cfg)
			for _, p := range []int{1, 2, 3} {
				cfg := rc.cfg
				cfg.Parallelism = p
				got := s.Run(cfg)
				requireIdentical(t, want, got, fmt.Sprintf("%s %s par %d", d.Name, rc.name, p))
				got.Release()
			}
			want.Release()
		}
	}
}

// FuzzRunMatchesReference draws a small generated design, one of the
// reference settings and a Parallelism of 1–3, then chains seeded gate
// resizes. The bits of shape pick the design's logic style (bit 0: cone
// or sea of gates), clock domains (bits 1–2: 1–3), leaf density (bits
// 3–4: FFsPerLeaf 0, 4 or 16) and level bound (bits 5–7); size sets
// 40–200 gates. Each resize is followed by an Update over the sizer's
// dirty set: the resized gate plus the non-clock drivers of its input
// nets. After every step both a fresh Run and the updated Result must
// equal the reference propagation bit for bit.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), []byte{3, 140, 7, 22, 91})
	f.Add(uint64(2), uint8(75), uint8(160), uint8(1), uint8(1), []byte{0, 255, 17, 4, 4, 60})
	f.Add(uint64(3), uint8(52), uint8(90), uint8(2), uint8(2), []byte{9, 8, 7, 6, 5, 4, 3, 2})
	f.Add(uint64(4), uint8(113), uint8(40), uint8(3), uint8(1), []byte{200, 13, 99})
	f.Add(uint64(5), uint8(165), uint8(255), uint8(4), uint8(2), []byte{1, 1, 2, 2, 250})
	f.Add(uint64(6), uint8(234), uint8(120), uint8(5), uint8(0), []byte{77, 31, 45, 12, 6})

	f.Fuzz(func(t *testing.T, seed uint64, shape, size, setting, parallel uint8, steps []byte) {
		gates := 40 + int(size)%161
		gc := gen.Config{
			Name:         "ref",
			Seed:         seed,
			Node:         28,
			Gates:        gates,
			FFs:          4 + gates/10,
			MaxLevel:     4 + int(shape>>5),
			LongEdgeP:    0.1,
			AreaPerGate:  30,
			ViolateFrac:  0.4,
			ConeMode:     shape&1 == 0,
			JoinP:        0.05,
			ShareP:       0.03,
			ClockDomains: 1 + int(shape>>1&3)%3,
			FFsPerLeaf:   []int{0, 4, 16}[int(shape>>3&3)%3],
		}
		d, err := gen.Generate(gc)
		if err != nil {
			t.Skip(err)
		}
		g, err := graph.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.NewSession(g)
		rcs := refConfigs(t, d, seed)
		rc := rcs[int(setting)%len(rcs)]
		cfg := rc.cfg
		cfg.Parallelism = 1 + int(parallel)%3
		check := func(got *engine.Result, label string) {
			t.Helper()
			want := engine.RefRun(s, cfg)
			requireIdentical(t, want, got, fmt.Sprintf("%s (%s, par %d)", label, rc.name, cfg.Parallelism))
			want.Release()
		}
		r := s.Run(cfg)
		defer r.Release()
		check(r, "run")
		var gatesOnDAG []int
		for _, v := range g.Topo {
			if !d.Instances[v].IsFF() {
				gatesOnDAG = append(gatesOnDAG, int(v))
			}
		}
		for k, b := range steps {
			if k == 32 {
				break
			}
			inst := d.Instances[gatesOnDAG[int(b)%len(gatesOnDAG)]]
			to := d.Lib.Upsize(inst.Cell)
			if (int(b)+k)&1 == 1 || to == nil {
				if down := d.Lib.Downsize(inst.Cell); down != nil {
					to = down
				}
			}
			if to == nil {
				continue
			}
			if err := d.Resize(inst, to); err != nil {
				t.Fatal(err)
			}
			dirty := []int{inst.ID}
			for _, net := range inst.Inputs {
				if drv := d.Nets[net].Driver; drv >= 0 && !g.IsClock(drv) {
					dirty = append(dirty, drv)
				}
			}
			r.Update(dirty)
			label := fmt.Sprintf("step %d: resize %s", k, inst.Name)
			check(r, label+", updated")
			fresh := s.Run(cfg)
			check(fresh, label+", fresh run")
			fresh.Release()
		}
	})
}
