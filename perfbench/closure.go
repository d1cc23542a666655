package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mgba/internal/closure"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/netlist"
)

// closureQoR is the final state of one closure run, in the committed
// golden's field names. Two runs did the same work when these are equal.
type closureQoR struct {
	Timer             string  `json:"timer"`
	Transforms        int     `json:"transforms"`
	Upsized           int     `json:"upsized"`
	Downsized         int     `json:"downsized"`
	BuffersAdded      int     `json:"buffers_added"`
	Calibrations      int     `json:"calibrations"`
	Validations       int     `json:"validations"`
	ViolatedEndpoints int     `json:"violated_endpoints"`
	Buffers           int     `json:"buffers"`
	TimerWNS          float64 `json:"timer_wns"`
	TimerTNS          float64 `json:"timer_tns"`
	SignoffWNS        float64 `json:"signoff_wns"`
	SignoffTNS        float64 `json:"signoff_tns"`
	Area              float64 `json:"area"`
	Leakage           float64 `json:"leakage"`
	DesignHash        string  `json:"design_hash"`
	WeightsHash       string  `json:"weights_hash"`
}

func qorOf(r *closure.Result, d *netlist.Design) closureQoR {
	return closureQoR{
		Timer:             r.Timer.String(),
		Transforms:        r.Transforms,
		Upsized:           r.Upsized,
		Downsized:         r.Downsized,
		BuffersAdded:      r.BuffersAdded,
		Calibrations:      r.Calibrations,
		Validations:       r.Validations,
		ViolatedEndpoints: r.ViolatedEndpoints,
		Buffers:           r.Buffers,
		TimerWNS:          r.TimerWNS,
		TimerTNS:          r.TimerTNS,
		SignoffWNS:        r.SignoffWNS,
		SignoffTNS:        r.SignoffTNS,
		Area:              r.Area,
		Leakage:           r.Leakage,
		DesignHash:        hashDesign(d),
		WeightsHash:       hashWeights(r.Weights),
	}
}

// loadGoldenD3 returns the mGBA D3 entry of the committed closure golden
// (the file lists the D3 runs before the buffer-case fixture's).
func loadGoldenD3(root string) (closureQoR, error) {
	path := filepath.Join(root, "internal", "closure", "testdata", "closure_d3_golden.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		return closureQoR{}, err
	}
	var runs []closureQoR
	if err := json.Unmarshal(blob, &runs); err != nil {
		return closureQoR{}, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range runs {
		if r.Timer == "mGBA" {
			return r, nil
		}
	}
	return closureQoR{}, fmt.Errorf("%s: no mGBA entry", path)
}

// runClosure is the closure-d3 workload: one op is a full mGBA closure.Run
// on a fresh clone of D3 in the committed golden's configuration, and
// every op must reproduce the golden bit for bit. The op does not depend
// on the seed: the flow's work swings with its input (53-650 ms per op
// across D3 generator seeds, about 12% across solver seeds), which would
// make the seed, not the program, the main source of run-to-run spread.
func runClosure(cfg config, t *tally) error {
	ctx := context.Background()
	opt := closure.DefaultOptions(closure.TimerMGBA)
	opt.RecalibrateEvery = 25

	want, err := loadGoldenD3(cfg.root)
	if err != nil {
		return err
	}
	var base *netlist.Design
	var gens []time.Duration
	for s := 0; s < setupRuns; s++ {
		base = nil
		runtime.GC()
		id := t.spanLog.begin("setup", -1, -1)
		clk := t.startSetup()
		d, err := gen.Generate(gen.Suite()[2])
		if err != nil {
			return err
		}
		gens = append(gens, time.Since(clk.t0))
		runtime.GC()
		if _, err := closure.Run(ctx, d.Clone(), opt); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		t.endSetup(clk)
		t.spanLog.end(id)
		base = d
	}
	t.layer["gen.generate_ms"] = quantile(gens, 0.5)
	t.setupHeap = liveHeapMB()

	var last *netlist.Design
	var calibShare float64
	err = sequential(cfg, t, func(i int, tm *opTimer) error {
		d := base.Clone()
		op := t.spanLog.begin("op", -1, i)
		tm.start()
		call := t.spanLog.begin("closure.Run", op, i)
		res, err := closure.Run(ctx, d, opt)
		t.spanLog.end(call)
		tm.stop()
		t.spanLog.end(op)
		if err != nil {
			t.fail("op %d: %v", i, err)
			return nil
		}
		got := qorOf(res, d)
		t.note(got.Transforms, got.Area, got.DesignHash, got.WeightsHash)
		if got != want {
			t.fail("op %d: QoR %+v, want %+v", i, got, want)
		}
		if tm.traced {
			calibShare += ratio(float64(res.CalibElapsed), float64(res.Elapsed))
		}
		last = d
		return nil
	})
	if err != nil {
		return err
	}
	t.guards = append(t.guards,
		guard{"qor_area", "area", want.Area},
		guard{"qor_fixes", "count", float64(want.Transforms)})
	t.extra = append(t.extra,
		fmt.Sprintf("config: D3, closure.DefaultOptions(mGBA), RecalibrateEvery 25, Parallelism %d (%d workers)",
			opt.STA.Parallelism, engine.Workers(opt.STA.Parallelism)),
		"check: every op compared bit for bit with the committed closure golden (mGBA, D3)")
	if cfg.trace && last != nil {
		t.layer["closure.calib_share"] = ratio(calibShare, float64(len(t.lat[1])))
		return probeLayers(t, last, opt.STA, opt.Core.K)
	}
	return nil
}

// hashDesign digests every design field the closure flow can mutate, in
// the same way as the closure golden's design_hash.
func hashDesign(d *netlist.Design) string {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	wi := func(i int) { w64(uint64(int64(i))) }
	wf(d.ClockPeriod)
	wi(d.ClockRoot)
	wi(len(d.Instances))
	for _, in := range d.Instances {
		wi(in.ID)
		h.Write([]byte(in.Cell.Name))
		wf(in.X)
		wf(in.Y)
		wi(in.Output)
		wi(in.Clock)
		if in.Dead {
			wi(1)
		} else {
			wi(0)
		}
		wi(len(in.Inputs))
		for _, n := range in.Inputs {
			wi(n)
		}
	}
	wi(len(d.Nets))
	for _, n := range d.Nets {
		wi(n.Driver)
		wf(n.WireCap)
		wf(n.WireDelay)
		wi(len(n.Sinks))
		for _, s := range n.Sinks {
			wi(s)
		}
	}
	wi(len(d.FFs))
	for _, ff := range d.FFs {
		wi(ff)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashWeights digests a weight vector like the closure golden's
// weights_hash ("" for nil).
func hashWeights(ws []float64) string {
	if ws == nil {
		return ""
	}
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		v := math.Float64bits(w)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
