package expt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var sink []float64

// TestBenchRecordRoundTrip measures a trivial scenario with the shared
// record helper and writes it: the file names its commit and scheduler
// width, the row a positive cost, and the scenario's values come back
// unchanged through the writer.
func TestBenchRecordRoundTrip(t *testing.T) {
	f := newBenchFile(NewEnv(nil, true), "trivial")
	row, err := measure("sum", "test.sum", func() error {
		sink = make([]float64, 1024)
		for i := range sink {
			sink[i] = float64(i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	row.Values = map[string]float64{"pass_ratio": 0.975, "optimism": 0, "speedup": 1.5}
	f.Rows = append(f.Rows, row)
	if f.Commit == "" || f.GOMAXPROCS <= 0 || !f.Quick || row.NsPerOp <= 0 || row.AllocsPerOp <= 0 {
		t.Fatalf("record %+v, row %+v: want a commit, positive gomaxprocs, ns/op and allocs/op", f, row)
	}

	path := filepath.Join(t.TempDir(), "BENCH_trivial.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchFile
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, f) {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, *f)
	}
	if tb := f.Table(); len(tb.Rows) != 1 || tb.Rows[0][6] != "optimism=0 pass_ratio=0.975 speedup=1.5" {
		t.Fatalf("rendered rows %q", tb.Rows)
	}
}
