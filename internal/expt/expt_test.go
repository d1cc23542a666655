package expt_test

import (
	"strconv"
	"strings"
	"testing"

	"mgba/internal/core"
	"mgba/internal/expt"
)

func quickEnv() *expt.Env { return expt.NewEnv(nil, true) }

func TestTable1ShapesAndMonotonicity(t *testing.T) {
	tb := expt.Table1(quickEnv())
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 paper + 3 synthesized", len(tb.Rows))
	}
	// The first paper row must be the exact Table 1 values.
	want := []string{"paper", "500 nm", "1.30", "1.25", "1.20", "1.15"}
	for i, cell := range want {
		if tb.Rows[0][i] != cell {
			t.Fatalf("row0[%d] = %q, want %q", i, tb.Rows[0][i], cell)
		}
	}
}

func TestFig2Regenerates(t *testing.T) {
	tb, err := expt.Fig2(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"740 ps", "690 ps", "50 ps"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Fig2 output missing %q:\n%s", want, s)
		}
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig2 rows = %d, want 6 gates", len(tb.Rows))
	}
}

func TestSec32SchemeOrdering(t *testing.T) {
	tb, err := expt.Sec32(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Column 2 is gate coverage: per-endpoint (row 2) must beat global
	// (row 1); both schemes fit the same number of paths (column 1).
	if tb.Rows[1][1] != tb.Rows[2][1] {
		t.Fatalf("budgets differ: %s vs %s", tb.Rows[1][1], tb.Rows[2][1])
	}
	covG := parsePct(t, tb.Rows[1][2])
	covE := parsePct(t, tb.Rows[2][2])
	if covE <= covG {
		t.Fatalf("per-endpoint coverage %.1f not above global %.1f", covE, covG)
	}
	// Full-population fit must be the most accurate of the three.
	phiAll := parsePct(t, tb.Rows[0][3])
	phiG := parsePct(t, tb.Rows[1][3])
	phiE := parsePct(t, tb.Rows[2][3])
	if phiAll > phiG || phiAll > phiE {
		t.Fatalf("full-fit phi %.1f not the best (global %.1f, per-endpoint %.1f)", phiAll, phiG, phiE)
	}
}

func TestFig3SparsityHeadline(t *testing.T) {
	s, m, err := expt.Fig3(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "fraction within [-0.01, 0.01]") {
		t.Fatalf("missing headline:\n%s", s)
	}
	if frac := m.SparsityFraction(0.01); frac < 0.5 {
		t.Fatalf("correction not sparse: %.2f", frac)
	}
}

func TestFig4Converges(t *testing.T) {
	tb, err := expt.Fig4(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("too few sweep points: %d", len(tb.Rows))
	}
	first := parsePct(t, tb.Rows[0][2])
	last := parsePct(t, tb.Rows[len(tb.Rows)-1][2])
	if last > first {
		t.Fatalf("phi did not improve with more rows: %.2f -> %.2f", first, last)
	}
}

func TestTable4SolverOrdering(t *testing.T) {
	_, rows, err := expt.Table4(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no solver rows")
	}
	var gd, scg, rs int
	for _, r := range rows {
		gd += r.Work[core.MethodGD]
		scg += r.Work[core.MethodSCG]
		rs += r.Work[core.MethodSCGRS]
		if r.Paths == 0 {
			t.Fatalf("%s: no paths", r.Design)
		}
	}
	// The headline of Table 4: the stochastic solvers beat full-gradient
	// descent on total cost across the suite. The cost is counted work —
	// matrix rows read, sub-problem copies included — so the ordering is
	// deterministic where the wall clock is not.
	if scg >= gd {
		t.Fatalf("SCG total %d rows read not below GD %d", scg, gd)
	}
	if rs >= gd {
		t.Fatalf("SCG+RS total %d rows read not below GD %d", rs, gd)
	}
}

func TestTable3NoRegression(t *testing.T) {
	_, rows, err := expt.Table3(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no pass-ratio rows")
	}
	for _, r := range rows {
		if r.MGBAPass < r.GBAPass {
			t.Fatalf("%s: mGBA pass %.2f below GBA %.2f — the paper's no-regression claim broke",
				r.Design, r.MGBAPass, r.GBAPass)
		}
		if r.MGBAPass-r.GBAPass < 0.10 {
			t.Fatalf("%s: improvement only %.2f pts", r.Design, (r.MGBAPass-r.GBAPass)*100)
		}
	}
}

func TestTable2QoRDirection(t *testing.T) {
	_, outs, err := expt.Table2(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("no closure outcomes")
	}
	var areaG, areaM, fixesG, fixesM float64
	for _, o := range outs {
		areaG += o.GBA.Area
		areaM += o.MGBA.Area
		fixesG += float64(o.GBA.Upsized + o.GBA.BuffersAdded)
		fixesM += float64(o.MGBA.Upsized + o.MGBA.BuffersAdded)
	}
	if areaM >= areaG {
		t.Fatalf("mGBA flow total area %.1f not below GBA %.1f", areaM, areaG)
	}
	if fixesM >= fixesG {
		t.Fatalf("mGBA flow fixes %v not below GBA %v", fixesM, fixesG)
	}
}

func TestTable5Decomposition(t *testing.T) {
	env := quickEnv()
	if _, _, err := expt.Table2(env); err != nil { // populate the cache
		t.Fatal(err)
	}
	tb, err := expt.Table5(env)
	if err != nil {
		t.Fatal(err)
	}
	// Every row: post-route + calib = total (within rounding).
	for _, row := range tb.Rows {
		if row[0] == "Avg." {
			continue
		}
		post := parseF(t, row[2])
		calib := parseF(t, row[3])
		total := parseF(t, row[4])
		if diff := post + calib - total; diff > 0.01 || diff < -0.01 {
			t.Fatalf("%s: %.3f + %.3f != %.3f", row[0], post, calib, total)
		}
	}
}

func TestSuiteConfigsQuickScaling(t *testing.T) {
	full := expt.NewEnv(nil, false).SuiteConfigs()
	quick := quickEnv().SuiteConfigs()
	if len(quick) >= len(full) {
		t.Fatalf("quick suite not smaller: %d vs %d", len(quick), len(full))
	}
	if quick[0].Gates >= full[0].Gates {
		t.Fatal("quick designs not scaled down")
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	return parseF(t, s)
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}
