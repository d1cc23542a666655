package core_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

// The golden file pins the exact numerical behavior of the default
// calibration pipeline — weights, corrections, QoR and checkpoint-content
// hashes on D3 and the buffer motif at Parallelism 1 and 4, for both a
// cold calibration and an incremental recalibration after a sizing batch.
// It was generated before the view-pair refactor and guards it: the
// default GBA<->PBA pair must stay bit-identical to the historical
// hard-wired pipeline. Regenerate with -update-golden only for a
// deliberate behavior change.
var updateCalibGolden = flag.Bool("update-golden", false, "rewrite the calibration golden file")

const calibGoldenPath = "testdata/calib_golden.json"

type calibGoldenRun struct {
	Design string `json:"design"`
	Par    int    `json:"parallelism"`

	Paths   int `json:"paths"`
	Columns int `json:"columns"`

	GBAWNS  float64 `json:"gba_wns"`
	GBATNS  float64 `json:"gba_tns"`
	MGBAWNS float64 `json:"mgba_wns"`
	MGBATNS float64 `json:"mgba_tns"`

	MSE       float64 `json:"mse"`
	Phi       float64 `json:"phi"`
	PassRatio float64 `json:"pass_ratio"`
	Optimism  int     `json:"optimism"`

	WeightsHash    string `json:"weights_hash"`
	CorrectionHash string `json:"correction_hash"`

	// The incremental leg: a deterministic sizing batch applied to the
	// calibrated design, recalibrated through the persistent cache. The
	// checkpoint hash digests what a serve snapshot would persist — the
	// mutated design plus the refitted weights.
	RecalWeightsHash string  `json:"recal_weights_hash"`
	RecalMGBAWNS     float64 `json:"recal_mgba_wns"`
	RecalMGBATNS     float64 `json:"recal_mgba_tns"`
	CheckpointHash   string  `json:"checkpoint_hash"`
}

// calibHashDesign digests every design field a calibration or sizing pass
// can observe, format-independently (mirrors the closure golden's digest).
func calibHashDesign(d *netlist.Design) string {
	h := fnv.New64a()
	w64 := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
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
		wi(0) // where the Dead flag was hashed: the golden hashes keep their layout
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

func calibHashFloats(ws []float64) string {
	h := fnv.New64a()
	for _, w := range ws {
		v := math.Float64bits(w)
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func calibGoldenDesign(t *testing.T, name string) *netlist.Design {
	t.Helper()
	var d *netlist.Design
	var err error
	switch name {
	case "d3":
		d, err = gen.Generate(gen.Suite()[2])
	case "bufcase":
		d, err = fixtures.BufferCase()
	default:
		t.Fatalf("unknown golden design %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func calibGoldenRunOne(t *testing.T, design string, par int) calibGoldenRun {
	t.Helper()
	return calibGoldenRunWith(t, design, par, core.DefaultOptions())
}

// calibGoldenRunWith runs the golden pipeline under explicit options, so
// variants that must stay bit-identical to the default pipeline (the N=1
// corner set) can be checked against the same committed file.
func calibGoldenRunWith(t *testing.T, design string, par int, opt core.Options) calibGoldenRun {
	t.Helper()
	ctx := context.Background()
	d := calibGoldenDesign(t, design)
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig()
	cfg.Parallelism = par

	cal, err := core.NewCalibrator(engine.NewSession(g), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cal.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := m.Evaluate("mgba")
	if err != nil {
		t.Fatal(err)
	}
	run := calibGoldenRun{
		Design:  design,
		Par:     par,
		Paths:   len(m.Selection.Paths),
		Columns: len(m.Columns),
		GBAWNS:  m.GBA.WNS, GBATNS: m.GBA.TNS,
		MGBAWNS: m.MGBA.WNS, MGBATNS: m.MGBA.TNS,
		MSE: mt.MSE, Phi: mt.Phi, PassRatio: mt.PassRatio, Optimism: mt.Optimism,
		WeightsHash:    calibHashFloats(m.Weights),
		CorrectionHash: calibHashFloats(m.Correction),
	}

	// Incremental leg: a deterministic sizing batch over the selection,
	// refit through the cache, then digest the checkpoint content (design
	// + weights) a serve snapshot would persist.
	dirty := upsizeSelected(t, d, g, m, 25)
	mr, err := cal.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	run.RecalWeightsHash = calibHashFloats(mr.Weights)
	run.RecalMGBAWNS, run.RecalMGBATNS = mr.MGBA.WNS, mr.MGBA.TNS
	run.CheckpointHash = calibHashDesign(d) + ":" + calibHashFloats(mr.Weights)
	return run
}

// TestDefaultPairMatchesGolden pins the default calibration pipeline
// against the pre-refactor golden: bit-identical weights, corrections,
// QoR and checkpoint hashes on D3 + bufcase at Parallelism 1 and 4.
func TestDefaultPairMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden equivalence run is not short")
	}
	var runs []calibGoldenRun
	for _, design := range []string{"d3", "bufcase"} {
		for _, par := range []int{1, 4} {
			runs = append(runs, calibGoldenRunOne(t, design, par))
		}
	}
	if *updateCalibGolden {
		blob, err := json.MarshalIndent(runs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(calibGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(calibGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", calibGoldenPath)
		return
	}
	blob, err := os.ReadFile(calibGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want []calibGoldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(runs) {
		t.Fatalf("golden has %d runs, produced %d", len(want), len(runs))
	}
	for i, got := range runs {
		if got != want[i] {
			t.Errorf("run %s/par%d diverged from pre-refactor golden:\n got %+v\nwant %+v",
				got.Design, got.Par, got, want[i])
		}
	}
}
