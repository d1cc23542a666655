package closure_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mgba/internal/closure"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/netio"
	"mgba/internal/netlist"
)

// The golden file pins the exact behavior of the closure flow on the D3
// suite design: QoR, transform mix, the counter trajectory and design
// state at every checkpoint, and the final calibration weights. It was
// generated by the pre-refactor loop (upsize/buffer hard-coded in
// repairEndpoint) and guards the transform-framework refactor: the
// default registry must replay the exact same transform sequence and land
// on bit-identical results. Regenerate with -update-golden only for a
// deliberate behavior change.
var updateGolden = flag.Bool("update-golden", false, "rewrite the closure equivalence golden file")

const goldenPath = "testdata/closure_d3_golden.json"

type goldenCkpt struct {
	Transforms   int    `json:"transforms"`
	Upsized      int    `json:"upsized"`
	Downsized    int    `json:"downsized"`
	BuffersAdded int    `json:"buffers_added"`
	DesignHash   string `json:"design_hash"`
	WeightsHash  string `json:"weights_hash"`
}

type goldenRun struct {
	Timer string `json:"timer"`
	Par   int    `json:"parallelism"`

	Transforms        int `json:"transforms"`
	Upsized           int `json:"upsized"`
	Downsized         int `json:"downsized"`
	BuffersAdded      int `json:"buffers_added"`
	Calibrations      int `json:"calibrations"`
	Validations       int `json:"validations"`
	ViolatedEndpoints int `json:"violated_endpoints"`
	Buffers           int `json:"buffers"`

	TimerWNS   float64 `json:"timer_wns"`
	TimerTNS   float64 `json:"timer_tns"`
	SignoffWNS float64 `json:"signoff_wns"`
	SignoffTNS float64 `json:"signoff_tns"`
	Area       float64 `json:"area"`
	Leakage    float64 `json:"leakage"`

	DesignHash  string       `json:"design_hash"`
	WeightsHash string       `json:"weights_hash"`
	Checkpoints []goldenCkpt `json:"checkpoints"`
}

// hashDesign digests every field of the design that the closure flow can
// mutate — cell choices, connectivity, placement, parasitics — in a
// format-independent way, so the digest survives checkpoint schema bumps.
func hashDesign(d *netlist.Design) string {
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

func hashWeights(ws []float64) string {
	if ws == nil {
		return ""
	}
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

// ckptCounters is the subset of the flow-state blob the golden pins: the
// transform total and the per-kind counts the golden's trio is read from.
type ckptCounters struct {
	Transforms int            `json:"transforms"`
	Kinds      map[string]int `json:"kinds"`
}

func goldenD3Run(t *testing.T, timer closure.TimerKind, par int, design string) goldenRun {
	t.Helper()
	var d *netlist.Design
	var err error
	switch design {
	case "d3":
		d, err = gen.Generate(gen.Suite()[2])
	case "bufcase":
		// No generated suite design ever accepts a buffer (their wires are
		// too short for insertion to win under the span-charged wire-delay
		// model), so the hand-built motif pins the buffer path of the flow.
		d, err = fixtures.BufferCase()
	default:
		t.Fatalf("unknown golden design %q", design)
	}
	if err != nil {
		t.Fatal(err)
	}
	opt := closure.DefaultOptions(timer)
	opt.STA.Parallelism = par
	// Force mid-flow incremental recalibrations and a dense checkpoint
	// cadence so the golden pins the interior trajectory of the flow, not
	// just its final state.
	opt.RecalibrateEvery = 25
	opt.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	opt.CheckpointEvery = 20

	var ckpts []goldenCkpt
	opt.OnCheckpoint = func(path string) {
		c, err := netio.LoadCheckpointFile(path)
		if err != nil {
			t.Fatalf("reading checkpoint: %v", err)
		}
		var st ckptCounters
		if err := json.Unmarshal(c.State, &st); err != nil {
			t.Fatalf("decoding checkpoint state: %v", err)
		}
		ckpts = append(ckpts, goldenCkpt{
			Transforms:   st.Transforms,
			Upsized:      st.Kinds["upsize"],
			Downsized:    st.Kinds["downsize"],
			BuffersAdded: st.Kinds["buffer"],
			DesignHash:   hashDesign(c.Design),
			WeightsHash:  hashWeights(c.Weights),
		})
	}

	res, err := closure.Optimize(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{
		Timer:             timer.String(),
		Par:               par,
		Transforms:        res.Transforms,
		Upsized:           res.Upsized,
		Downsized:         res.Downsized,
		BuffersAdded:      res.BuffersAdded,
		Calibrations:      res.Calibrations,
		Validations:       res.Validations,
		ViolatedEndpoints: res.ViolatedEndpoints,
		Buffers:           res.Buffers,
		TimerWNS:          res.TimerWNS,
		TimerTNS:          res.TimerTNS,
		SignoffWNS:        res.SignoffWNS,
		SignoffTNS:        res.SignoffTNS,
		Area:              res.Area,
		Leakage:           res.Leakage,
		DesignHash:        hashDesign(d),
		WeightsHash:       hashWeights(res.Weights),
		Checkpoints:       ckpts,
	}
}

// TestDefaultRegistryMatchesGolden replays the D3 closure flow under the
// default transform registry — GBA serial, mGBA serial and mGBA parallel —
// and requires bit-identical behavior to the recorded pre-refactor loop:
// same QoR and transform mix, the same design and weight state at every
// checkpoint (which pins the accepted transform sequence, not just its
// totals), and the same final netlist.
func TestDefaultRegistryMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("D3 closure runs in -short mode")
	}
	cases := []struct {
		timer  closure.TimerKind
		par    int
		design string
	}{
		{closure.TimerGBA, 1, "d3"},
		{closure.TimerMGBA, 1, "d3"},
		{closure.TimerMGBA, 4, "d3"},
		{closure.TimerGBA, 1, "bufcase"},
		{closure.TimerMGBA, 1, "bufcase"},
	}

	if *updateGolden {
		var runs []goldenRun
		for _, c := range cases {
			runs = append(runs, goldenD3Run(t, c.timer, c.par, c.design))
		}
		blob, err := json.MarshalIndent(runs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d runs", goldenPath, len(runs))
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (generate with -update-golden): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d runs, want %d", len(want), len(cases))
	}
	for i, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-%s-par%d", c.design, c.timer, c.par), func(t *testing.T) {
			got := goldenD3Run(t, c.timer, c.par, c.design)
			w := want[i]
			if got.Timer != w.Timer || got.Par != w.Par {
				t.Fatalf("case mismatch: got %s/par%d want %s/par%d", got.Timer, got.Par, w.Timer, w.Par)
			}
			if got.Transforms != w.Transforms || got.Upsized != w.Upsized ||
				got.Downsized != w.Downsized || got.BuffersAdded != w.BuffersAdded {
				t.Errorf("transform mix diverged: got %d (%du/%dd/%db) want %d (%du/%dd/%db)",
					got.Transforms, got.Upsized, got.Downsized, got.BuffersAdded,
					w.Transforms, w.Upsized, w.Downsized, w.BuffersAdded)
			}
			if got.Calibrations != w.Calibrations || got.Validations != w.Validations {
				t.Errorf("pipeline counts diverged: calib %d/%d validate %d/%d",
					got.Calibrations, w.Calibrations, got.Validations, w.Validations)
			}
			if got.ViolatedEndpoints != w.ViolatedEndpoints || got.Buffers != w.Buffers {
				t.Errorf("violated %d/%d buffers %d/%d",
					got.ViolatedEndpoints, w.ViolatedEndpoints, got.Buffers, w.Buffers)
			}
			if got.TimerWNS != w.TimerWNS || got.TimerTNS != w.TimerTNS ||
				got.SignoffWNS != w.SignoffWNS || got.SignoffTNS != w.SignoffTNS {
				t.Errorf("QoR diverged: timer %v/%v %v/%v signoff %v/%v %v/%v",
					got.TimerWNS, w.TimerWNS, got.TimerTNS, w.TimerTNS,
					got.SignoffWNS, w.SignoffWNS, got.SignoffTNS, w.SignoffTNS)
			}
			if got.Area != w.Area || got.Leakage != w.Leakage {
				t.Errorf("area/leakage diverged: %v/%v %v/%v", got.Area, w.Area, got.Leakage, w.Leakage)
			}
			if got.DesignHash != w.DesignHash {
				t.Errorf("final design hash diverged: %s vs %s", got.DesignHash, w.DesignHash)
			}
			if got.WeightsHash != w.WeightsHash {
				t.Errorf("final weights hash diverged: %s vs %s", got.WeightsHash, w.WeightsHash)
			}
			if len(got.Checkpoints) != len(w.Checkpoints) {
				t.Fatalf("checkpoint count diverged: %d vs %d", len(got.Checkpoints), len(w.Checkpoints))
			}
			for j := range w.Checkpoints {
				if got.Checkpoints[j] != w.Checkpoints[j] {
					t.Errorf("checkpoint %d diverged:\n got %+v\nwant %+v", j, got.Checkpoints[j], w.Checkpoints[j])
				}
			}
		})
	}
}
