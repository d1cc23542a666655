package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mgba/internal/engine"
	"mgba/internal/faultinject"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/pba"
	"mgba/internal/rng"
	"mgba/internal/sparse"
	"mgba/internal/sta"
)

// refSystem is one corner's Eq. (9) system: rows, targets, guards and
// golden slacks.
type refSystem struct {
	a                       *sparse.Matrix
	targets, guards, golden []float64
}

// refAssemble is the map-based row assembler the dense column index
// replaced, kept as the reference: a map from instance ID to column, two
// fresh slices per row, and every corner's builder grown from empty. It
// assembles groups (with their golden timings tg) for every corner of c
// and returns the systems and the column map.
func refAssemble(c *Calibrator, groups [][]*pba.Path, tg [][][]*pba.Timing) ([]refSystem, []int, error) {
	g, epsilon := c.sess.G, c.opt.Epsilon
	colOf := map[int]int{}
	var cols []int
	type building struct {
		b                       *sparse.Builder
		targets, guards, golden []float64
	}
	sys := make([]building, len(c.corners))
	for i := range sys {
		sys[i].b = sparse.NewBuilder(0)
	}
	for gi, paths := range groups {
		for j, p := range paths {
			for _, cell := range p.Cells {
				if _, ok := colOf[cell]; !ok {
					colOf[cell] = len(cols)
					cols = append(cols, cell)
				}
			}
			for k, kc := range c.corners {
				s := &sys[k]
				tm := tg[k][gi][j]
				idx, val, target, guard := refPathRow(kc.gba, g, epsilon, colOf, p, tm)
				s.b.EnsureCols(len(cols))
				if err := s.b.AddRow(idx, val); err != nil {
					return nil, nil, err
				}
				s.targets = append(s.targets, target)
				s.guards = append(s.guards, guard)
				s.golden = append(s.golden, tm.Slack)
			}
		}
	}
	out := make([]refSystem, len(sys))
	for k, s := range sys {
		out[k] = refSystem{a: s.b.Build(), targets: s.targets, guards: s.guards, golden: s.golden}
	}
	return out, cols, nil
}

// refPathRow is the map-based pathRow the reference assembler calls.
func refPathRow(gba *sta.Result, g *graph.Graph, epsilon float64, cols map[int]int, p *pba.Path, tm *pba.Timing) (idx []int, val []float64, target, guard float64) {
	idx = make([]int, len(p.Cells))
	val = make([]float64, len(p.Cells))
	var gbaSum, wireSum float64
	for k, c := range p.Cells {
		idx[k] = cols[c]
		val[k] = gba.CellDelay[c]
		gbaSum += val[k]
		wireSum += gba.WireDelay[c]
	}
	crprExtra := tm.CRPR - gba.GBACRPR[g.FFIndex(p.Capture)]
	target = (tm.CellSum - crprExtra) - gbaSum
	if wa := tm.WireSum - wireSum; wa != 0 {
		target += wa
	}
	guard = epsilon * math.Abs(tm.Slack)
	return idx, val, target, guard
}

// requireSameMatrix compares two matrices row by row through Row, indices
// and value bits.
func requireSameMatrix(t *testing.T, what string, got, want *sparse.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape %dx%d/%d nnz, reference %dx%d/%d", what,
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < want.Rows(); i++ {
		gi, gv := got.Row(i)
		wi, wv := want.Row(i)
		if len(gi) != len(wi) {
			t.Fatalf("%s: row %d has %d entries, reference %d", what, i, len(gi), len(wi))
		}
		for k := range wi {
			if gi[k] != wi[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
				t.Fatalf("%s: row %d entry %d is (%d, %v), reference (%d, %v)", what, i, k, gi[k], gv[k], wi[k], wv[k])
			}
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// requireMatchesReference checks the model's every corner system and its
// columns against the reference assembly of the calibrator's cached
// population. It reports false when the calibration left no cache to
// assemble from.
func requireMatchesReference(t *testing.T, what string, c *Calibrator, m *Model) bool {
	t.Helper()
	if c.groups == nil {
		if m.Problem != nil {
			t.Logf("%s: the calibration kept no cache to compare against", what)
		}
		return false
	}
	tg := make([][][]*pba.Timing, len(c.corners))
	for k, kc := range c.corners {
		tg[k] = kc.tgroups
	}
	ref, cols, err := refAssemble(c, c.groups, tg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Columns) != len(cols) {
		t.Fatalf("%s: %d columns, reference %d", what, len(m.Columns), len(cols))
	}
	for i := range cols {
		if m.Columns[i] != cols[i] {
			t.Fatalf("%s: column %d is instance %d, reference %d", what, i, m.Columns[i], cols[i])
		}
	}
	if ref[0].a.Rows() == 0 {
		if m.Problem != nil {
			t.Fatalf("%s: a system for an empty population", what)
		}
		return true
	}
	got := []refSystem{{m.Problem.A, m.Problem.B, m.Problem.Guard, m.GoldenSlack}}
	if c.multiCorner() {
		if len(m.Corners) != len(c.corners) {
			t.Fatalf("%s: %d corner fits for %d corners", what, len(m.Corners), len(c.corners))
		}
		got = got[:0]
		for _, cf := range m.Corners {
			got = append(got, refSystem{cf.Problem.A, cf.Problem.B, cf.Problem.Guard, cf.GoldenSlack})
		}
	}
	for k, sys := range got {
		name := fmt.Sprintf("%s corner %d", what, k)
		requireSameMatrix(t, name+" rows", sys.a, ref[k].a)
		requireSameBits(t, name+" targets", sys.targets, ref[k].targets)
		requireSameBits(t, name+" guards", sys.guards, ref[k].guards)
		requireSameBits(t, name+" golden slacks", sys.golden, ref[k].golden)
	}
	return true
}

// refDesign builds a suite design or one of the two closure fixtures.
func refDesign(t *testing.T, name string) *netlist.Design {
	t.Helper()
	var d *netlist.Design
	var err error
	switch name {
	case "bufcase":
		d, err = fixtures.BufferCase()
	case "retimetoy":
		d, err = fixtures.RetimePipeline(4)
	default:
		var n int
		fmt.Sscanf(name, "D%d", &n)
		d, err = gen.Generate(gen.Suite()[n-1])
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sizingBatch resizes up to n seeded gates (not flip-flops, not clock
// cells) one drive step and returns the dirty set the closure flow hands
// the calibrator: each resized gate and the non-clock drivers of its
// inputs.
func sizingBatch(d *netlist.Design, g *graph.Graph, r *rng.Rand, n int) []int {
	var gates []int
	for id, in := range d.Instances {
		if in.IsFF() || g.IsClock(id) {
			continue
		}
		if d.Lib.Upsize(in.Cell) != nil || d.Lib.Downsize(in.Cell) != nil {
			gates = append(gates, id)
		}
	}
	if len(gates) == 0 {
		return nil
	}
	seen := map[int]bool{}
	var dirty []int
	note := func(id int) {
		if !seen[id] {
			seen[id] = true
			dirty = append(dirty, id)
		}
	}
	for i := 0; i < n; i++ {
		in := d.Instances[gates[r.Intn(len(gates))]]
		to := d.Lib.Upsize(in.Cell)
		if to == nil || (d.Lib.Downsize(in.Cell) != nil && r.Intn(2) == 0) {
			to = d.Lib.Downsize(in.Cell)
		}
		if d.Resize(in, to) != nil {
			continue
		}
		note(in.ID)
		for _, nid := range in.Inputs {
			if drv := d.Nets[nid].Driver; drv >= 0 && !g.IsClock(drv) {
				note(drv)
			}
		}
	}
	return dirty
}

// TestAssemblyMatchesMapReference: the dense-index assembler builds every
// corner's rows, targets, guards, golden slacks and columns bit for bit
// as the map-based reference does — cold materialized, cold streamed and
// through three incremental recalibrations, on D1-D10 and both closure
// fixtures, with no corner set and with slow:1.15:10,typ under
// independent and joint fits.
func TestAssemblyMatchesMapReference(t *testing.T) {
	designs := []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10", "bufcase", "retimetoy"}
	if raceEnabled {
		// Assembly runs on one goroutine, and the race detector slows the
		// full list to over a minute and a half: two designs keep every
		// path covered there.
		designs = []string{"D3", "bufcase"}
	}
	corners, err := ParseCorners("slow:1.15:10,typ")
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name    string
		corners []CornerSpec
		joint   bool
	}{{"plain", nil, false}, {"corners", corners, false}, {"joint", corners, true}}
	compared := 0
	for _, name := range designs {
		for _, cc := range configs {
			t.Run(name+"/"+cc.name, func(t *testing.T) {
				ctx := context.Background()
				d := refDesign(t, name)
				g, err := graph.Build(d)
				if err != nil {
					t.Fatal(err)
				}
				sess := engine.NewSession(g)
				cfg := sta.DefaultConfig()
				opt := DefaultOptions()
				opt.Corners, opt.JointFit = cc.corners, cc.joint
				cal, err := NewCalibrator(sess, cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				m, err := cal.Calibrate(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if requireMatchesReference(t, "cold", cal, m) {
					compared++
				}
				sopt := opt
				sopt.StreamShard = 64
				str, err := NewCalibrator(sess, cfg, sopt)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := str.Calibrate(ctx)
				if err != nil {
					t.Fatal(err)
				}
				// The streamed calibrator keeps no cache; its rows must be the
				// reference assembly of the materialized population.
				if requireMatchesReference(t, "streamed", cal, ms) {
					compared++
				}
				r := rng.New(uint64(len(name)*131 + len(cc.name)))
				for round := 0; round < 3; round++ {
					dirty := sizingBatch(d, g, r, 16)
					before := cal.Stats().Incremental
					m, err = cal.Recalibrate(ctx, dirty)
					if err != nil {
						t.Fatal(err)
					}
					if cal.groups != nil && cal.Stats().Incremental != before+1 {
						t.Fatalf("round %d ran cold: %+v", round, cal.Stats())
					}
					if requireMatchesReference(t, fmt.Sprintf("incremental %d", round), cal, m) {
						compared++
					}
				}
			})
		}
	}
	// Five assemblies per design and configuration: cold, streamed and
	// three incremental rounds.
	if want := len(designs) * len(configs) * 5; compared != want {
		t.Fatalf("%d of %d assemblies compared against the reference", compared, want)
	}
}

// TestAssemblyAllocsIndependentOfRows: an incremental assembly allocates
// a fixed count per corner and none per row, so D3's and D8's cached
// populations — 350 and 5,629 rows — cost the same allocations.
func TestAssemblyAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	defer faultinject.Reset()
	var counts []float64
	var rows []int
	for _, name := range []string{"D3", "D8"} {
		d := refDesign(t, name)
		g, err := graph.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := NewCalibrator(engine.NewSession(g), sta.DefaultConfig(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cal.Calibrate(context.Background()); err != nil {
			t.Fatal(err)
		}
		tg := [][][]*pba.Timing{cal.corners[0].tgroups}
		n := 0
		runtime.GC()
		// Twenty runs floor away a stray background allocation.
		counts = append(counts, testing.AllocsPerRun(20, func() {
			a := newAssembler(cal, true)
			if err := a.add(cal.groups, tg); err != nil {
				t.Fatal(err)
			}
			a.columns()
			n = a.rows()
		}))
		rows = append(rows, n)
	}
	if rows[1] < 2*rows[0] {
		t.Fatalf("D8's population (%d rows) is not much larger than D3's (%d)", rows[1], rows[0])
	}
	if counts[0] != counts[1] {
		t.Fatalf("incremental assembly allocates %.0f times for %d rows and %.0f for %d", counts[0], rows[0], counts[1], rows[1])
	}
}
