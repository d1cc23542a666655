package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/pba"
	"mgba/internal/rng"
	"mgba/internal/sta"
)

// opsPerBatch is the number of sizing ops in one scale-30k op and in one
// calibd-d8 batch.
const opsPerBatch = 16

// accuracyOp is the op whose model scale-30k's accuracy guards read: a
// fixed index, so that the guards repeat exactly for a seed.
const accuracyOp = 8

// sizer draws seeded sizing ops that always apply: it only picks gates
// with a drive variant in the chosen direction, reading the cells of the
// design it sizes.
type sizer struct {
	d     *netlist.Design
	g     *graph.Graph
	gates []int
	r     *rng.Rand
	undo  []sizeOp // inverse of the last fresh batch, sent next
}

func newSizer(d *netlist.Design, g *graph.Graph, seed uint64) *sizer {
	z := &sizer{d: d, g: g, r: rng.New(seed)}
	for id, in := range d.Instances {
		if in.Dead || in.IsFF() || g.IsClock(id) {
			continue
		}
		if d.Lib.Upsize(in.Cell) != nil || d.Lib.Downsize(in.Cell) != nil {
			z.gates = append(z.gates, id)
		}
	}
	return z
}

// sizeOp is one drawn op: the instance and whether it grows.
type sizeOp struct {
	inst int
	up   bool
}

// next returns the next batch: a fresh draw of n ops, or, every second
// batch, the inverse of the previous draw. The design thus oscillates
// around its generated state instead of drifting with the seed, which
// would move the cost of an op by tens of percent from seed to seed.
func (z *sizer) next(n int) []sizeOp {
	if ops := z.undo; ops != nil {
		z.undo = nil
		return ops
	}
	ops := z.draw(n)
	z.undo = make([]sizeOp, len(ops))
	for i, o := range ops {
		z.undo[len(ops)-1-i] = sizeOp{o.inst, !o.up}
	}
	return ops
}

// draw picks n ops on distinct gates.
func (z *sizer) draw(n int) []sizeOp {
	ops := make([]sizeOp, 0, n)
	seen := map[int]bool{}
	for len(ops) < n {
		id := z.gates[z.r.Intn(len(z.gates))]
		if seen[id] {
			continue
		}
		seen[id] = true
		c := z.d.Instances[id].Cell
		up := z.d.Lib.Upsize(c) != nil
		if up && z.d.Lib.Downsize(c) != nil {
			up = z.r.Intn(2) == 0
		}
		ops = append(ops, sizeOp{id, up})
	}
	return ops
}

// apply resizes the design and returns the sorted dirty set: each resized
// gate plus the non-clock drivers of its input nets, whose load changed
// (the same seed the daemon and the closure flow hand the calibrator).
func (z *sizer) apply(ops []sizeOp) ([]int, error) {
	dirty := map[int]bool{}
	for _, op := range ops {
		in := z.d.Instances[op.inst]
		to := z.d.Lib.Downsize(in.Cell)
		if op.up {
			to = z.d.Lib.Upsize(in.Cell)
		}
		if to == nil {
			return nil, fmt.Errorf("op on instance %d does not apply", op.inst)
		}
		if err := z.d.Resize(in, to); err != nil {
			return nil, err
		}
		dirty[op.inst] = true
		for _, nid := range in.Inputs {
			if drv := z.d.Nets[nid].Driver; drv >= 0 && !z.g.IsClock(drv) {
				dirty[drv] = true
			}
		}
	}
	out := make([]int, 0, len(dirty))
	for id := range dirty {
		out = append(out, id)
	}
	sort.Ints(out)
	return out, nil
}

// runScale is the scale-30k workload: one op applies opsPerBatch seeded
// sizing ops to gen.Large(30000) and recalibrates a streamed calibrator
// (StreamShard 256), which today re-runs cold on every call.
func runScale(cfg config, t *tally) error {
	ctx := context.Background()
	scfg := sta.DefaultConfig()
	opt := core.DefaultOptions()
	opt.StreamShard = 256

	var z *sizer
	var cal *core.Calibrator
	var gens []time.Duration
	for s := 0; s < setupRuns; s++ {
		z, cal = nil, nil
		runtime.GC()
		id := t.spanLog.begin("setup", -1, -1)
		clk := t.startSetup()
		d, err := gen.Generate(gen.Large(30000))
		if err != nil {
			return err
		}
		gens = append(gens, time.Since(clk.t0))
		g, err := graph.Build(d)
		if err != nil {
			return err
		}
		c, err := core.NewCalibrator(engine.NewSession(g), scfg, opt)
		if err != nil {
			return err
		}
		if _, err := c.Calibrate(ctx); err != nil {
			return err
		}
		// Every set-up draws the same warm-up op, so the timed ops that
		// follow are the same whatever the set-up count.
		z = newSizer(d, g, cfg.seed^0x5ca1e30)
		dirty, err := z.apply(z.next(opsPerBatch))
		if err != nil {
			return err
		}
		if _, err := c.Recalibrate(ctx, dirty); err != nil {
			return err
		}
		t.endSetup(clk)
		t.spanLog.end(id)
		cal = c
	}
	t.layer["gen.generate_ms"] = quantile(gens, 0.5)
	t.setupHeap = liveHeapMB()

	var last *core.Model
	var calib time.Duration
	var acc core.Metrics
	err := sequential(cfg, t, func(i int, tm *opTimer) error {
		ops := z.next(opsPerBatch)
		op := t.spanLog.begin("op", -1, i)
		tm.start()
		dirty, err := z.apply(ops)
		if err != nil {
			return err
		}
		call := t.spanLog.begin("Calibrator.Recalibrate", op, i)
		c0 := time.Now()
		m, err := cal.Recalibrate(ctx, dirty)
		cd := time.Since(c0)
		t.spanLog.end(call)
		tm.stop()
		t.spanLog.end(op)
		if err != nil {
			t.fail("op %d: %v", i, err)
			return nil
		}
		if tm.traced {
			calib += cd
		}
		for _, o := range ops {
			t.note(o.inst, fmt.Sprint(o.up))
		}
		t.note(hashWeights(m.Weights))
		if m.Fault != "" || m.Bank == nil {
			t.fail("op %d: streamed model fault %q (bank %v)", i, m.Fault, m.Bank != nil)
		}
		if i+1 == accuracyOp {
			if acc, err = m.Evaluate("mgba"); err != nil {
				return err
			}
		}
		last = m
		return nil
	})
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("no op completed")
	}
	if t.ops() < accuracyOp {
		if acc, err = last.Evaluate("mgba"); err != nil {
			return err
		}
	}
	t.extra = append(t.extra, fmt.Sprintf("config: gen.Large(30000), StreamShard %d, Parallelism %d (%d workers), %d sizing ops per op",
		opt.StreamShard, scfg.Parallelism, engine.Workers(scfg.Parallelism), opsPerBatch))
	t.guards = append(t.guards,
		guard{"pass_ratio", "ratio", acc.PassRatio},
		guard{"optimistic_paths", "count", float64(acc.Optimism)})
	if err := checkScale(ctx, t, last, z.d, scfg, opt); err != nil {
		return err
	}
	if cfg.trace {
		t.layer["core.calibrate_ms"] = ratio(ms(calib), float64(len(t.lat[1])))
		// The last op leaves the generated or a freshly sized state,
		// depending on how many ops the window held; the replays run on
		// the generated design, which is the same in every run.
		d, err := gen.Generate(gen.Large(30000))
		if err != nil {
			return err
		}
		return probeLayers(t, d, scfg, opt.K)
	}
	return nil
}

// checkScale checks the last op's streamed model: a materialized
// calibration of the same state, seeded with the same warm-start weights,
// must fit bit-identical weights, and a recount of Eq. (5) optimism with
// PathSlackWithWeights against golden retiming must agree with
// Model.Evaluate. A mismatch fails the last op.
func checkScale(ctx context.Context, t *tally, m *core.Model, d *netlist.Design, scfg sta.Config, opt core.Options) error {
	g, err := graph.Build(d)
	if err != nil {
		return err
	}
	mopt := opt
	mopt.StreamShard = 0
	mopt.WarmWeights = m.Opt.WarmWeights
	c, err := core.NewCalibrator(engine.NewSession(g), scfg, mopt)
	if err != nil {
		return err
	}
	mm, err := c.Calibrate(ctx)
	if err != nil {
		return err
	}
	if !sameBits(m.Weights, mm.Weights) || len(mm.Selection.Paths) != m.Bank.Total() {
		t.fail("last op: streamed weights (%d paths) differ from a materialized calibration (%d paths)",
			m.Bank.Total(), len(mm.Selection.Paths))
	}

	ev, err := m.Evaluate("mgba")
	if err != nil {
		return err
	}
	an := pba.NewAnalyzer(m.GBA)
	optimistic := 0
	var buf pba.Path
	for i := 0; i < m.Bank.Total(); i++ {
		p := m.Bank.Store.PathInto(&buf, i)
		model := core.PathSlackWithWeights(m.GBA, an, p, m.Weights)
		golden := an.Retime(p).Slack
		if model > golden+m.Opt.Epsilon*math.Abs(golden)+1e-9 {
			optimistic++
		}
	}
	if optimistic != ev.Optimism {
		t.fail("last op: Eq. (5) recount finds %d optimistic paths, Model.Evaluate %d", optimistic, ev.Optimism)
	}
	t.extra = append(t.extra, fmt.Sprintf(
		"check: last op's streamed model == materialized calibration (%d paths); Eq. (5) recount %d optimistic == Evaluate",
		m.Bank.Total(), optimistic))
	return nil
}

// sameBits reports whether two vectors are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
