package expt

import (
	"context"
	"fmt"
	"runtime"

	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// BenchScale runs the memory-lean scale pipeline end to end on the
// 100k-gate gen.Large design (20k in Quick mode): generate, build the CSR
// graph, stream-calibrate with a bounded endpoint shard, then measure the
// slab bank's bytes per path against a materialized pointer-form
// enumeration of the identical population (BENCH_scale.json). It fails
// when the two populations differ or the slab saves less than 4x.
func BenchScale(e *Env) (*BenchFile, error) {
	gates := 100_000
	if e.Quick {
		gates = 20_000
	}
	cfg := gen.Large(gates)
	f := newBenchFile(e, "benchscale")
	e.logf("benchscale: generating %s (%d gates)...\n", cfg.Name, gates)
	var d *netlist.Design
	genRow, err := measure(cfg.Name, "gen.generate", func() (err error) {
		d, err = gen.Generate(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	graphRow, err := measure(cfg.Name, "graph.build", func() (err error) {
		g, err = graph.Build(d)
		return err
	})
	if err != nil {
		return nil, err
	}
	genRow.Values = map[string]float64{"instances": float64(len(d.Instances)), "ffs": float64(len(d.FFs))}
	graphRow.Values = map[string]float64{"edges": float64(g.NumEdges())}

	opt := core.DefaultOptions()
	opt.StreamShard = 256
	e.logf("benchscale: streamed cold calibration (shard %d)...\n", opt.StreamShard)
	var m *core.Model
	calRow, err := measure(cfg.Name, "core.calibrate", func() (err error) {
		m, err = core.Calibrate(context.Background(), g, sta.DefaultConfig(), opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	if m.Fault != "" {
		return nil, fmt.Errorf("expt: benchscale calibration degraded: %s", m.Fault)
	}
	if m.Bank == nil || m.Bank.Total() == 0 {
		return nil, fmt.Errorf("expt: benchscale calibration kept no paths")
	}
	paths := m.Bank.Total()

	// Pointer-form baseline: materialize the identical population the old
	// cold path would hold and measure its retained heap. Both snapshots
	// follow a forced collection, so the delta is the population's
	// retained bytes, not transient enumeration garbage.
	e.logf("benchscale: materializing pointer-form population for comparison...\n")
	an := pba.NewAnalyzer(m.GBA)
	// Two collections per snapshot: sync.Pool scratch (the enumerator's
	// per-endpoint search state) drains over two GC cycles, and a
	// half-drained pool left from calibration would otherwise swamp the
	// delta.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	pop := pathsel.Enumerate(an, opt.K)
	runtime.GC()
	runtime.GC()
	var held runtime.MemStats
	runtime.ReadMemStats(&held)
	// The analyzer (and everything it retains) must stay live across both
	// snapshots, or the delta measures its collection instead of the
	// population's footprint.
	runtime.KeepAlive(an)
	if pop.Total() != paths {
		return nil, fmt.Errorf("expt: pointer population has %d paths, bank %d", pop.Total(), paths)
	}
	var pointerBytes uint64
	if held.HeapAlloc > before.HeapAlloc {
		pointerBytes = held.HeapAlloc - before.HeapAlloc
	}
	runtime.KeepAlive(pop)
	slabBytes := m.Bank.SizeBytes()
	reduction := float64(pointerBytes) / float64(slabBytes)
	calRow.Values = map[string]float64{
		"stream_shard":           float64(opt.StreamShard),
		"paths":                  float64(paths),
		"columns":                float64(len(m.Columns)),
		"slab_bytes_per_path":    float64(slabBytes) / float64(paths),
		"pointer_bytes_per_path": float64(pointerBytes) / float64(paths),
		"slab_reduction":         reduction,
	}
	if reduction < 4 {
		return nil, fmt.Errorf("expt: slab reduction %.2fx below the 4x acceptance floor", reduction)
	}
	f.Rows = append(f.Rows, genRow, graphRow, calRow)
	return f, nil
}
