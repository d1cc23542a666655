// Quickstart: generate a design, run GBA, calibrate mGBA against PBA and
// compare the three analyses on the worst paths.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"mgba/internal/core"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

func main() {
	// 1. Synthesize a placed register-to-register design (a stand-in for
	//    an industrial netlist) with a clock period at which ~40% of the
	//    endpoints violate under GBA.
	d, err := gen.Generate(gen.Toy())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design %q: %s, clock period %.0f ps\n\n", d.Name, d.Stats(), d.ClockPeriod)

	// 2. Build the timing graph and run graph-based analysis with the full
	//    pessimism stack: worst-depth AOCV derating, worst-slew merging,
	//    conservative CRPR.
	g, err := graph.Build(d)
	if err != nil {
		log.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	fmt.Printf("GBA: WNS %.1f ps, TNS %.1f ps, %d violating endpoints\n",
		r.WNS, r.TNS, len(r.ViolatingEndpoints()))

	// 3. Calibrate the mGBA weighting factors (the paper's contribution):
	//    per-endpoint worst-path selection, PBA retiming as golden targets,
	//    stochastic-CG fit with row sampling.
	m, err := core.Calibrate(context.Background(), g, sta.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mGBA: fitted %d paths over %d gate weights in %v\n",
		len(m.Selection.Paths), len(m.Columns), m.Stats.Elapsed)
	fmt.Printf("mGBA: WNS %.1f ps, TNS %.1f ps, %d violating endpoints\n\n",
		m.MGBA.WNS, m.MGBA.TNS, len(m.MGBA.ViolatingEndpoints()))

	// 4. Accuracy against golden PBA over the selected paths.
	gba, _ := m.Evaluate("cheap")
	mgba, _ := m.Evaluate("mgba")
	fmt.Printf("pass ratio (within 5%% or 5 ps of PBA): GBA %.1f%% -> mGBA %.1f%%\n",
		gba.PassRatio*100, mgba.PassRatio*100)
	fmt.Printf("modelling error phi (Eq. 10):          GBA %.2f%% -> mGBA %.2f%%\n\n",
		gba.Phi*100, mgba.Phi*100)

	// 5. Inspect a few individual paths: GBA slack vs mGBA slack vs PBA.
	an := pba.NewAnalyzer(m.GBA)
	mgbaSlacks, _ := m.PathSlacks("mgba")
	fmt.Println("worst path per endpoint (ps):")
	fmt.Println("  GBA slack   mGBA slack   PBA slack   depth")
	seen := map[int]bool{}
	shown := 0
	for i, p := range m.Selection.Paths {
		if seen[p.Capture] {
			continue
		}
		seen[p.Capture] = true
		tm := an.Retime(p)
		fmt.Printf("  %9.1f   %10.1f   %9.1f   %5d\n",
			p.GBASlack, mgbaSlacks[i], tm.Slack, tm.Depth)
		if shown++; shown >= 6 {
			break
		}
	}
}
