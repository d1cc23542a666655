// Command experiments regenerates every table and figure of the paper's
// evaluation on the synthetic design suite:
//
//	experiments -run all            # everything (several minutes)
//	experiments -run table3,table4  # specific artifacts
//	experiments -quick              # scaled-down suite for a fast pass
//
// Artifacts: table1, fig2, sec32, fig3, fig4, table4, table4x, table3,
// table2, table5, and the bench artifacts benchxstage, benchmcmm and
// benchscale, which are pure timing and not part of 'all'. Output is plain
// text; -csv writes each table additionally as CSV into the given
// directory; -json makes each bench artifact also write its record
// (BENCH_xstage.json, BENCH_mcmm.json, BENCH_scale.json), one schema for
// all three. An unknown name fails before anything runs, and artifact
// paths are probed for writability before any benchmark runs, so an
// unwritable destination fails immediately instead of after minutes of
// timing.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mgba/internal/expt"
	"mgba/internal/report"
)

// output is what one artifact regenerates: the text to print, the table
// -csv writes (none for fig3's histogram), and a bench artifact's record.
type output struct {
	text  string
	table *report.Table
	bench *expt.BenchFile
}

func table(t *report.Table) output { return output{text: t.String(), table: t} }

// tableErr adapts the artifacts returning a table and an error.
func tableErr(fn func(*expt.Env) (*report.Table, error)) func(*expt.Env) (output, error) {
	return func(e *expt.Env) (output, error) {
		t, err := fn(e)
		if err != nil {
			return output{}, err
		}
		return table(t), nil
	}
}

// tableRows adapts the artifacts that also return their rows.
func tableRows[R any](fn func(*expt.Env) (*report.Table, R, error)) func(*expt.Env) (output, error) {
	return func(e *expt.Env) (output, error) {
		t, _, err := fn(e)
		if err != nil {
			return output{}, err
		}
		return table(t), nil
	}
}

// bench adapts a bench artifact: its record, rendered by the record's
// own table.
func bench(fn func(*expt.Env) (*expt.BenchFile, error)) func(*expt.Env) (output, error) {
	return func(e *expt.Env) (output, error) {
		f, err := fn(e)
		if err != nil {
			return output{}, err
		}
		t := f.Table()
		return output{text: t.String(), table: t, bench: f}, nil
	}
}

// artifacts lists every -run name in the order 'all' runs them; the
// bench artifacts come last and run only when named.
var artifacts = []struct {
	name string
	run  func(*expt.Env) (output, error)
}{
	{"table1", func(e *expt.Env) (output, error) { return table(expt.Table1(e)), nil }},
	{"fig2", tableErr(expt.Fig2)},
	{"sec32", tableErr(expt.Sec32)},
	{"fig3", func(e *expt.Env) (output, error) {
		s, _, err := expt.Fig3(e)
		return output{text: s}, err
	}},
	{"fig4", tableErr(expt.Fig4)},
	{"table4", tableRows(expt.Table4)},
	{"table4x", tableErr(expt.Table4Scaling)},
	{"table3", tableRows(expt.Table3)},
	{"table2", tableRows(expt.Table2)},
	{"table5", tableErr(expt.Table5)},
	{"benchxstage", bench(expt.BenchXStage)},
	{"benchmcmm", bench(expt.BenchMCMM)},
	{"benchscale", bench(expt.BenchScale)},
}

func isBench(name string) bool { return strings.HasPrefix(name, "bench") }

// artifactPath is where -json writes a bench artifact's record.
func artifactPath(name string) string {
	return "BENCH_" + strings.TrimPrefix(name, "bench") + ".json"
}

func main() {
	runList := flag.String("run", "all", "comma-separated artifacts to regenerate, or 'all'")
	quick := flag.Bool("quick", false, "use a scaled-down design suite")
	csvDir := flag.String("csv", "", "directory to also write tables as CSV")
	jsonOut := flag.Bool("json", false, "bench artifacts: also write their BENCH_*.json record")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Parse()

	valid := []string{"all"}
	for _, a := range artifacts {
		valid = append(valid, a.name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if !slices.Contains(valid, name) {
			fail(fmt.Errorf("unknown artifact %q in -run=%q; artifacts: %s", name, *runList, strings.Join(valid, " ")))
		}
		want[name] = true
	}

	// Benchmarks run for minutes; an unwritable artifact destination must
	// fail before the timing starts, not after it.
	if *jsonOut {
		for name := range want {
			if !isBench(name) {
				continue
			}
			if err := probeWritable(artifactPath(name)); err != nil {
				fail(fmt.Errorf("artifact %s is not writable: %w", artifactPath(name), err))
			}
		}
	}

	var progress = os.Stderr
	if *quiet {
		progress = nil
	}
	env := expt.NewEnv(progress, *quick)
	for _, a := range artifacts {
		if !want[a.name] && !(want["all"] && !isBench(a.name)) {
			continue
		}
		out, err := a.run(env)
		if err != nil {
			fail(err)
		}
		fmt.Println(out.text)
		if *csvDir != "" && out.table != nil {
			if err := writeCSV(filepath.Join(*csvDir, a.name+".csv"), out.table); err != nil {
				fail(err)
			}
		}
		if *jsonOut && out.bench != nil {
			if err := out.bench.Write(artifactPath(a.name)); err != nil {
				fail(err)
			}
		}
	}
}

func writeCSV(path string, t *report.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeWritable verifies the artifact path can be created or truncated
// without disturbing an existing file's contents.
func probeWritable(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
