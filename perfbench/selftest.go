package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []registered `json:"end_to_end"`
	PerLayer []registered `json:"per_layer"`
}

// registered is one metric entry of BENCHMARK.json.
type registered struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSelftest runs every workload for four ops, untraced and traced (two
// of the four ops traced), each in a child process, and fails unless
// every metric registered in BENCHMARK.json comes out with its unit, no
// op fails (so the closure-d3 ops matched the committed golden), and the
// traced run's table names every per-layer metric.
func runSelftest(cfg config) int {
	blob, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "selftest:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "selftest: BENCHMARK.json:", err)
		return 1
	}
	var problems []string
	check := func(list []metric, got []registered, kind string) map[string]string {
		want := map[string]string{}
		for _, m := range got {
			want[m.Name] = m.Unit
		}
		for _, m := range list {
			if want[m.name] != m.unit {
				problems = append(problems, fmt.Sprintf("%s metric %s (%s) is not registered in BENCHMARK.json as printed", kind, m.name, m.unit))
			}
		}
		if len(want) != len(list) {
			problems = append(problems, fmt.Sprintf("BENCHMARK.json registers %d %s metrics, the harness prints %d", len(want), kind, len(list)))
		}
		return want
	}
	e2e := check(endToEnd, bf.EndToEnd, "end-to-end")
	layers := check(perLayer, bf.PerLayer, "per-layer")

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "selftest:", err)
		return 1
	}
	for _, w := range bf.Workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "60",
				"--trace", fmt.Sprint(trace), "--ops", "4", "--root", cfg.root}
			var out bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			fail := func(format string, a ...any) {
				problems = append(problems, fmt.Sprintf("%s --trace %d: %s", w.Name, trace, fmt.Sprintf(format, a...)))
			}
			if err := cmd.Run(); err != nil {
				fail("%v", err)
				continue
			}
			text := strings.TrimSpace(out.String())
			lastLine := text[strings.LastIndex(text, "\n")+1:]
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lastLine), &res); err != nil {
				fail("last line is not the result object: %v", err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				fail("correct=%v attempted=%d failed=%d (fail_ratio must be 0)", res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace == 1 {
				want = layers
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Value == nil || m.Unit != unit {
					fail("metric %s (%s) missing or without its unit", name, unit)
				}
				if trace == 1 && !strings.Contains(text, "  "+name+" ") {
					fail("table does not list %s", name)
				}
			}
			if len(res.Metrics) != len(want) {
				fail("prints %d metrics, BENCHMARK.json registers %d", len(res.Metrics), len(want))
			}
			fmt.Printf("selftest: %-10s trace=%d attempted=%d failed=%d metrics=%d\n",
				w.Name, trace, res.Attempted, res.Failed, len(res.Metrics))
		}
	}
	if len(bf.Workloads) == 0 {
		problems = append(problems, "BENCHMARK.json lists no workloads")
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println("selftest FAILED:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Println("selftest: ok")
	return 0
}
