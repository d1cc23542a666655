package core_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

// streamEquivDesign generates a violating design big enough to span
// several endpoint shards.
func streamEquivDesign(t *testing.T, gates, ffs int) (*graph.Graph, sta.Config) {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = gates, ffs
	cfg.Name = "stream-equiv"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return g, sta.Config{}
}

// requireStreamEquiv cold-calibrates g both materialized and streamed (at
// the given shard size) and asserts the two models are bit-identical in
// everything the fit produced: the assembled system, the column map, the
// solved correction and weights, the mGBA slacks per FF, and the banked
// path population against the materialized selection.
func requireStreamEquiv(t *testing.T, g *graph.Graph, cfg sta.Config, parallelism, shard int) {
	t.Helper()
	cfg.Parallelism = parallelism
	ctx := context.Background()
	opt := core.DefaultOptions()
	cold, err := core.Calibrate(ctx, g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.StreamShard = shard
	str, err := core.Calibrate(ctx, g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Selection.Paths) == 0 {
		t.Fatal("materialized cold selected no paths; design does not exercise the test")
	}
	if str.Bank == nil {
		t.Fatal("streamed model has no bank")
	}
	if str.Bank.Total() != len(cold.Selection.Paths) {
		t.Fatalf("bank has %d paths, materialized selected %d", str.Bank.Total(), len(cold.Selection.Paths))
	}
	for i, p := range cold.Selection.Paths {
		q := str.Bank.Store.PathAt(i)
		if q.Launch != p.Launch || q.Capture != p.Capture ||
			q.GBAArrival != p.GBAArrival || q.GBASlack != p.GBASlack {
			t.Fatalf("bank path %d header differs: %+v vs %+v", i, q, p)
		}
		if len(q.Cells) != len(p.Cells) {
			t.Fatalf("bank path %d has %d cells, want %d", i, len(q.Cells), len(p.Cells))
		}
		for j := range p.Cells {
			if q.Cells[j] != p.Cells[j] {
				t.Fatalf("bank path %d cell %d: %d vs %d", i, j, q.Cells[j], p.Cells[j])
			}
		}
	}
	if !sameFloats(str.GoldenSlack, cold.GoldenSlack) {
		t.Fatal("golden slacks differ")
	}
	if len(str.Columns) != len(cold.Columns) {
		t.Fatalf("columns: %d vs %d", len(str.Columns), len(cold.Columns))
	}
	for i := range cold.Columns {
		if str.Columns[i] != cold.Columns[i] {
			t.Fatalf("column %d: %d vs %d", i, str.Columns[i], cold.Columns[i])
		}
	}
	if !sameFloats(str.Problem.B, cold.Problem.B) {
		t.Fatal("targets differ")
	}
	if !sameFloats(str.Problem.Guard, cold.Problem.Guard) {
		t.Fatal("guards differ")
	}
	if str.Problem.A.Rows() != cold.Problem.A.Rows() || str.Problem.A.Cols() != cold.Problem.A.Cols() {
		t.Fatalf("matrix shape: %dx%d vs %dx%d",
			str.Problem.A.Rows(), str.Problem.A.Cols(), cold.Problem.A.Rows(), cold.Problem.A.Cols())
	}
	for i := 0; i < cold.Problem.A.Rows(); i++ {
		ci, cv := cold.Problem.A.Row(i)
		si, sv := str.Problem.A.Row(i)
		if len(ci) != len(si) {
			t.Fatalf("row %d nnz: %d vs %d", i, len(si), len(ci))
		}
		for j := range ci {
			if ci[j] != si[j] || cv[j] != sv[j] {
				t.Fatalf("row %d entry %d: (%d,%v) vs (%d,%v)", i, j, si[j], sv[j], ci[j], cv[j])
			}
		}
	}
	if !sameFloats(str.Correction, cold.Correction) {
		t.Fatal("corrections differ")
	}
	if !sameFloats(str.Weights, cold.Weights) {
		t.Fatal("weights differ")
	}
	if !sameFloats(str.MGBA.Slack, cold.MGBA.Slack) {
		t.Fatal("mGBA slacks differ")
	}
	for _, kind := range []string{"golden", "cheap", "mgba"} {
		a, err := cold.PathSlacks(kind)
		if err != nil {
			t.Fatal(err)
		}
		b, err := str.PathSlacks(kind)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(a, b) {
			t.Fatalf("PathSlacks(%q) differ", kind)
		}
	}
}

// TestStreamedColdBitIdentical is the streaming contract on a D3-sized
// design: shard-streamed enumeration and row assembly produce the exact
// model a materialized cold calibration does, at every Parallelism and
// shard size, including shards that straddle endpoint groups.
func TestStreamedColdBitIdentical(t *testing.T) {
	g, cfg := streamEquivDesign(t, 700, 90)
	for _, par := range []int{1, 4} {
		for _, shard := range []int{1, 7, 32, 1 << 20} {
			requireStreamEquiv(t, g, cfg, par, shard)
		}
	}
}

// TestStreamedColdBitIdenticalLarge runs the same contract on the 100k
// scale design; gated behind MGBA_SCALE=1 because it takes tens of
// seconds.
func TestStreamedColdBitIdenticalLarge(t *testing.T) {
	if os.Getenv("MGBA_SCALE") == "" {
		t.Skip("set MGBA_SCALE=1 to run the 100k streamed-equivalence test")
	}
	d, err := gen.Generate(gen.Large(100_000))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		requireStreamEquiv(t, g, sta.Config{}, par, 256)
	}
}

// TestStreamedMaxPathsError pins MaxPaths' one meaning: a population
// over the cap is a loud error rather than a silently truncated model, at
// every shard size (0 is the single-shard, materialized mode).
func TestStreamedMaxPathsError(t *testing.T) {
	g, cfg := streamEquivDesign(t, 700, 90)
	for _, shard := range []int{0, 8} {
		opt := core.DefaultOptions()
		opt.MaxPaths = 3
		opt.StreamShard = shard
		if _, err := core.Calibrate(context.Background(), g, cfg, opt); err == nil {
			t.Fatalf("shard %d: expected MaxPaths overflow error", shard)
		}
	}
}

// TestStreamedMaxPathsBoundary pins the cap check's edge at every shard
// size: a cap exactly at the population calibrates fine, one below fails
// with an error naming the cap.
func TestStreamedMaxPathsBoundary(t *testing.T) {
	g, cfg := streamEquivDesign(t, 700, 90)
	ctx := context.Background()
	for _, shard := range []int{0, 8} {
		opt := core.DefaultOptions()
		opt.StreamShard = shard
		m, err := core.Calibrate(ctx, g, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		total := len(m.GoldenSlack)
		if total == 0 {
			t.Fatal("design selected no paths; boundary not exercised")
		}
		opt.MaxPaths = total
		if _, err := core.Calibrate(ctx, g, cfg, opt); err != nil {
			t.Fatalf("shard %d: MaxPaths == population must calibrate: %v", shard, err)
		}
		opt.MaxPaths = total - 1
		_, err = core.Calibrate(ctx, g, cfg, opt)
		if err == nil || !strings.Contains(err.Error(), "MaxPaths") {
			t.Fatalf("shard %d: MaxPaths one below the population: got error %v", shard, err)
		}
	}
}

// TestStreamedRecalibrateRunsCold verifies the cache contract: a streamed
// cold leaves the incremental cache empty, so Recalibrate re-runs the
// (streamed) cold pipeline and still matches a materialized cold of the
// same state.
func TestStreamedRecalibrateRunsCold(t *testing.T) {
	d, g, sess := calDesign(t)
	ctx := context.Background()
	cfg := sta.Config{}
	opt := core.DefaultOptions()
	opt.StreamShard = 8
	c, err := core.NewCalibrator(sess, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := c.Calibrate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dirty := upsizeSelectedBank(t, d, g, m0, 3)
	m1, err := c.Recalibrate(ctx, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Cold != 2 || got.Incremental != 0 {
		t.Fatalf("streamed calibrator stats %+v, want 2 cold / 0 incremental", got)
	}
	// The re-run must match a materialized cold of the same design state
	// with the same warm start.
	mopt := core.DefaultOptions()
	mopt.WarmWeights = m0.Weights
	ref, err := core.CalibrateWithSession(ctx, sess, cfg, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(m1.Weights, ref.Weights) {
		t.Fatal("streamed recalibrate weights differ from materialized cold")
	}
}

// upsizeSelectedBank is upsizeSelected for a streamed model, whose kept
// paths live in the bank instead of the selection.
func upsizeSelectedBank(t *testing.T, d *netlist.Design, g *graph.Graph, m *core.Model, n int) []int {
	t.Helper()
	seen := make(map[int]bool)
	var dirty []int
	note := func(id int) {
		if !seen[id] {
			seen[id] = true
			dirty = append(dirty, id)
		}
	}
	resized := 0
	var cells []int
	for i := 0; i < m.Bank.Total(); i++ {
		cells = m.Bank.Store.AppendCells(cells[:0], i)
		for _, id := range cells {
			if resized == n {
				return dirty
			}
			inst := d.Instances[id]
			if seen[id] || inst.IsFF() {
				continue
			}
			to := d.Lib.Upsize(inst.Cell)
			if to == nil {
				continue
			}
			if err := d.Resize(inst, to); err != nil {
				continue
			}
			resized++
			note(id)
			for _, nid := range inst.Inputs {
				if drv := d.Nets[nid].Driver; drv >= 0 && !g.IsClock(drv) {
					note(drv)
				}
			}
		}
	}
	if resized == 0 {
		t.Fatal("no gate on the banked selection could be upsized")
	}
	return dirty
}
