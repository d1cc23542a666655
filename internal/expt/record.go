package expt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mgba/internal/report"
)

// BenchFile is the one schema every BENCH_*.json artifact shares: which
// bench ran, on which source tree and scheduler width, and one row per
// measured scenario.
type BenchFile struct {
	Bench      string     `json:"bench"`
	Commit     string     `json:"commit"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"numcpu"`
	Quick      bool       `json:"quick"`
	Rows       []BenchRow `json:"rows"`
}

// BenchRow is one measured scenario: the work it times, the layer that
// work belongs to (perfbench's layer name where one exists), its cost per
// run, and its own outcome in Values.
type BenchRow struct {
	Scenario    string `json:"scenario"`
	Layer       string `json:"layer"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// HeapAfterBytes is HeapAlloc read as the scenario's last run
	// returns, its result still live and its garbage not yet collected:
	// the scenario's peak-heap proxy.
	HeapAfterBytes uint64             `json:"heap_after_bytes"`
	Values         map[string]float64 `json:"values,omitempty"`
}

// newBenchFile starts the record of one bench run in e.
func newBenchFile(e *Env, bench string) *BenchFile {
	return &BenchFile{
		Bench:      bench,
		Commit:     commit(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      e.Quick,
	}
}

// commit names the source tree the way perfbench/run.sh does: the
// 12-digit git commit, or "unknown" outside a git checkout. (go run
// stamps no VCS revision into the binary, so git is asked directly.)
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if c := strings.TrimSpace(string(out)); err == nil && c != "" {
		return c
	}
	return "unknown"
}

// measure times op under testing.Benchmark and returns its row. The first
// error op returns stops the timing and is returned.
func measure(scenario, layer string, op func() error) (BenchRow, error) {
	var err error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && err == nil; i++ {
			err = op()
		}
	})
	if err != nil {
		return BenchRow{}, fmt.Errorf("expt: %s: %w", scenario, err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return BenchRow{
		Scenario:       scenario,
		Layer:          layer,
		NsPerOp:        br.NsPerOp(),
		AllocsPerOp:    br.AllocsPerOp(),
		BytesPerOp:     br.AllocedBytesPerOp(),
		HeapAfterBytes: ms.HeapAlloc,
	}, nil
}

// Table renders the record, one line per row, its values in key order.
func (f *BenchFile) Table() *report.Table {
	t := report.New(fmt.Sprintf("%s (commit %s, GOMAXPROCS %d, %d CPUs, quick %v)",
		f.Bench, f.Commit, f.GOMAXPROCS, f.NumCPU, f.Quick),
		"scenario", "layer", "ns/op", "allocs/op", "bytes/op", "heap after MB", "values")
	for _, r := range f.Rows {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals := make([]string, len(keys))
		for i, k := range keys {
			v := r.Values[k]
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				vals[i] = fmt.Sprintf("%s=%.0f", k, v)
			} else {
				vals[i] = fmt.Sprintf("%s=%.4g", k, v)
			}
		}
		t.AddRow(r.Scenario, r.Layer, fmt.Sprint(r.NsPerOp), fmt.Sprint(r.AllocsPerOp),
			fmt.Sprint(r.BytesPerOp), report.F(float64(r.HeapAfterBytes)/1e6, 1), strings.Join(vals, " "))
	}
	return t
}

// Write writes the record to path as indented JSON.
func (f *BenchFile) Write(path string) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("expt: writing %s: %w", path, err)
	}
	return nil
}
