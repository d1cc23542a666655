package sta_test

import (
	"math"
	"testing"

	"mgba/internal/aocv"
	"mgba/internal/cells"
	"mgba/internal/fixtures"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

func analyzeFig2(t *testing.T) (*netlist.Design, *fixtures.Fig2Info, *graph.Graph, *sta.Result) {
	t.Helper()
	d, info, cfg, err := fixtures.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, info, g, sta.Analyze(g, cfg)
}

// Eq. (3) of the paper: GBA prices the FF1->FF4 path at 740 ps.
func TestFig2GBAPathDelay(t *testing.T) {
	d, info, g, r := analyzeFig2(t)
	fi4 := g.FFIndex(info.FF4)
	if got := r.DataAtD[fi4]; math.Abs(got-740) > 1e-9 {
		t.Fatalf("GBA arrival at FF4.D = %v, want 740 (Eq. 3)", got)
	}
	// Per-gate derates along the main path: 1.20,1.20,1.20,1.30,1.25,1.25.
	want := [6]float64{1.20, 1.20, 1.20, 1.30, 1.25, 1.25}
	for i, id := range info.Gates {
		if math.Abs(r.Derate[id]-want[i]) > 1e-12 {
			t.Errorf("g%d derate = %v, want %v", i+1, r.Derate[id], want[i])
		}
	}
	_ = d
}

func TestFig2CellDelays(t *testing.T) {
	_, info, _, r := analyzeFig2(t)
	// Every main gate contributes 100ps * derate.
	if math.Abs(r.CellDelay[info.Gates[3]]-130) > 1e-9 {
		t.Fatalf("g4 cell delay = %v, want 130", r.CellDelay[info.Gates[3]])
	}
	if r.NominalDelay[info.Gates[0]] != 100 {
		t.Fatalf("override not applied: %v", r.NominalDelay[info.Gates[0]])
	}
}

func TestFig2EndpointSlack(t *testing.T) {
	d, info, g, r := analyzeFig2(t)
	fi4 := g.FFIndex(info.FF4)
	ff4 := d.Instances[info.FF4]
	want := d.ClockPeriod - ff4.Cell.Setup - 740 // ideal clock
	if math.Abs(r.Slack[fi4]-want) > 1e-9 {
		t.Fatalf("slack = %v, want %v", r.Slack[fi4], want)
	}
}

func TestWeightsScaleDelays(t *testing.T) {
	d, info, cfg, err := fixtures.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(d.Instances))
	for i := range w {
		w[i] = 1
	}
	// Weight the g4 gate down to its PBA-accurate derate: 1.15/1.30.
	w[info.Gates[3]] = 1.15 / 1.30
	cfg.Weights = w
	r := sta.Analyze(g, cfg)
	fi4 := g.FFIndex(info.FF4)
	want := 740 - 130 + 115.0
	if math.Abs(r.DataAtD[fi4]-want) > 1e-9 {
		t.Fatalf("weighted arrival = %v, want %v", r.DataAtD[fi4], want)
	}
}

func TestRequiredTimesAndInstanceSlack(t *testing.T) {
	d, info, g, r := analyzeFig2(t)
	// The instance slack of every main-path gate equals the endpoint slack
	// of its worst downstream endpoint.
	fi4 := g.FFIndex(info.FF4)
	fi3 := g.FFIndex(info.FF3)
	worst := math.Min(r.Slack[fi4], r.Slack[fi3])
	if got := r.InstanceSlack(info.Gates[3]); math.Abs(got-worst) > 1e-9 {
		t.Fatalf("g4 instance slack = %v, want %v", got, worst)
	}
	_ = d
}

func TestWNSTNS(t *testing.T) {
	// Shrink the period so endpoints violate and check the aggregates.
	d, _, cfg, err := fixtures.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	d.ClockPeriod = 500
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, cfg)
	if r.WNS >= 0 {
		t.Fatalf("WNS = %v, want negative at 500ps period", r.WNS)
	}
	var tns, wns float64
	for _, s := range r.Slack {
		if s < 0 {
			tns += s
			if s < wns {
				wns = s
			}
		}
	}
	if math.Abs(tns-r.TNS) > 1e-9 || math.Abs(wns-r.WNS) > 1e-9 {
		t.Fatalf("aggregates mismatch: TNS %v vs %v, WNS %v vs %v", r.TNS, tns, r.WNS, wns)
	}
	if len(r.ViolatingEndpoints()) == 0 {
		t.Fatal("no violating endpoints reported")
	}
}

func TestWorstSlewPropagationIsPessimistic(t *testing.T) {
	// A NAND merges a lightly-loaded fast driver and a heavily-loaded slow
	// driver. GBA must use the slow driver's slew for the NAND delay.
	lib := cells.Default(28)
	d := netlist.New("slew", 28, lib, aocv.Default(28), 10000)
	clk := d.AddNet()
	d.SetClockRoot(clk)
	ffc, _ := lib.Pick(cells.DFF, 1)
	invW, _ := lib.Pick(cells.Inv, 1) // weak: slow slew under load
	nand, _ := lib.Pick(cells.Nand2, 1)
	qa, qb := d.AddNet(), d.AddNet()
	na, nb, no := d.AddNet(), d.AddNet(), d.AddNet()
	qx := d.AddNet()
	ffA, _ := d.AddFF(ffc, 0, 0, qx, qa, clk)
	ffB, _ := d.AddFF(ffc, 0, 50, no, qb, clk) // far away: big wire load on its cone
	gA, _ := d.AddGate(invW, 1, 0, []int{qa}, na)
	gB, _ := d.AddGate(invW, 1, 50, []int{qb}, nb)
	gN, _ := d.AddGate(nand, 2, 0, []int{na, nb}, no)
	d.AddFF(ffc, 3, 0, no, qx, clk)
	d.AutoWire()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.Config{IdealClock: true}
	r := sta.Analyze(g, cfg)
	slowSlew := math.Max(r.Slew[gA.ID], r.Slew[gB.ID])
	// NAND nominal delay must reflect the worst input slew.
	load := d.LoadCap(d.Nets[gN.Output])
	want := gN.Cell.Delay(load, slowSlew)
	if math.Abs(r.NominalDelay[gN.ID]-want) > 1e-9 {
		t.Fatalf("NAND delay = %v, want worst-slew %v", r.NominalDelay[gN.ID], want)
	}
	if r.Slew[gA.ID] == r.Slew[gB.ID] {
		t.Fatal("test vacuous: both drivers have identical slew")
	}
	_ = ffA
	_ = ffB
}

func clockTreeDesign(t *testing.T) (*netlist.Design, *graph.Graph) {
	t.Helper()
	lib := cells.Default(28)
	d := netlist.New("ct", 28, lib, aocv.Default(28), 2000)
	clk := d.AddNet()
	d.SetClockRoot(clk)
	cb, _ := lib.Pick(cells.ClkBuf, 2)
	nRoot := d.AddNet()
	d.AddGate(cb, 0, 0, []int{clk}, nRoot)
	nA, nB := d.AddNet(), d.AddNet()
	d.AddGate(cb, -20, 0, []int{nRoot}, nA)
	d.AddGate(cb, 20, 0, []int{nRoot}, nB)
	ffc, _ := lib.Pick(cells.DFF, 1)
	inv, _ := lib.Pick(cells.Inv, 1)
	q0, mid, q1 := d.AddNet(), d.AddNet(), d.AddNet()
	d.AddFF(ffc, -20, 5, q1, q0, nA)
	d.AddGate(inv, 0, 5, []int{q0}, mid)
	d.AddFF(ffc, 20, 5, mid, q1, nB)
	d.AutoWire()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

func TestClockInsertionLateAboveEarly(t *testing.T) {
	_, g := clockTreeDesign(t)
	r := sta.Analyze(g, sta.DefaultConfig())
	for fi := range r.ClockLate {
		if r.ClockLate[fi] <= r.ClockEarly[fi] {
			t.Fatalf("FF %d: late %v <= early %v", fi, r.ClockLate[fi], r.ClockEarly[fi])
		}
		if r.ClockEarly[fi] <= 0 {
			t.Fatalf("FF %d: non-positive early insertion %v", fi, r.ClockEarly[fi])
		}
	}
}

func TestCRPRCredit(t *testing.T) {
	_, g := clockTreeDesign(t)
	r := sta.Analyze(g, sta.DefaultConfig())
	// FFs share one root buffer: the credit is positive but smaller than
	// the full late-early insertion gap.
	credit := r.CRPRCredit(0, 1)
	if credit <= 0 {
		t.Fatalf("credit = %v, want > 0 for shared root buffer", credit)
	}
	fullGap := r.ClockLate[0] - r.ClockEarly[0]
	if credit >= fullGap {
		t.Fatalf("credit %v >= full gap %v", credit, fullGap)
	}
	// Self-pair credit equals the launch FF's full insertion gap.
	self := r.CRPRCredit(0, 0)
	if math.Abs(self-fullGap) > 1e-9 {
		t.Fatalf("self credit = %v, want %v", self, fullGap)
	}
}

func TestCRPRZeroWhenIdealOrUnderated(t *testing.T) {
	_, g := clockTreeDesign(t)
	r := sta.Analyze(g, sta.Config{DerateData: true})
	if r.CRPRCredit(0, 1) != 0 {
		t.Fatal("credit without clock derating must be 0")
	}
	r = sta.Analyze(g, sta.Config{DerateData: true, DerateClock: true, IdealClock: true})
	if r.CRPRCredit(0, 1) != 0 {
		t.Fatal("credit with ideal clock must be 0")
	}
}

func TestHoldSlackDirectTransfer(t *testing.T) {
	// Direct FF->FF transfers are the classic hold hazard; with an ideal
	// clock and a real CK->Q delay the hold slack must be positive here.
	d, _, err := fixtures.Chain(1, 5, 28, 2000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.Config{IdealClock: true})
	for fi, hs := range r.HoldSlack {
		if math.IsInf(hs, 1) {
			continue
		}
		if hs <= 0 {
			t.Fatalf("endpoint %d hold slack = %v, want positive with ideal clock", fi, hs)
		}
	}
}

func TestDerationIncreasesArrival(t *testing.T) {
	d, _, err := fixtures.Chain(10, 10, 16, 3000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	plain := sta.Analyze(g, sta.Config{IdealClock: true})
	derated := sta.Analyze(g, sta.Config{DerateData: true, IdealClock: true})
	for fi := range plain.DataAtD {
		if math.IsInf(plain.DataAtD[fi], -1) {
			continue
		}
		if derated.DataAtD[fi] <= plain.DataAtD[fi] {
			t.Fatalf("derated arrival %v not above nominal %v", derated.DataAtD[fi], plain.DataAtD[fi])
		}
	}
}

func TestIncrementalUpdateMatchesFull(t *testing.T) {
	d, ids, err := fixtures.Chain(12, 8, 28, 2500)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig()
	r := sta.Analyze(g, cfg)

	// Resize a mid-chain inverter up and incrementally update. The
	// modified set includes the resized gate and its fanin driver (whose
	// load changed).
	mid := ids[6]
	inst := d.Instances[mid]
	up := d.Lib.Upsize(inst.Cell)
	if up == nil {
		t.Fatal("no upsize available")
	}
	if err := d.Resize(inst, up); err != nil {
		t.Fatal(err)
	}
	fanin := d.Nets[inst.Inputs[0]].Driver
	r.Update([]int{mid, fanin})

	// An incremental update re-derives exactly what a full analysis does:
	// the comparison is bitwise.
	full := sta.Analyze(g, cfg)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for v := range full.ArrivalOut {
		if !same(full.ArrivalOut[v], r.ArrivalOut[v]) {
			t.Fatalf("instance %d arrival: incremental %v vs full %v", v, r.ArrivalOut[v], full.ArrivalOut[v])
		}
		if !same(full.RequiredOut[v], r.RequiredOut[v]) {
			t.Fatalf("instance %d required: incremental %v vs full %v", v, r.RequiredOut[v], full.RequiredOut[v])
		}
	}
	for fi := range full.Slack {
		if !same(full.Slack[fi], r.Slack[fi]) {
			t.Fatalf("endpoint %d slack: incremental %v vs full %v", fi, r.Slack[fi], full.Slack[fi])
		}
	}
	if !same(full.TNS, r.TNS) || !same(full.WNS, r.WNS) {
		t.Fatal("aggregate mismatch after incremental update")
	}
}

func TestUpdateEmptyNoop(t *testing.T) {
	_, _, g, r := analyzeFig2(t)
	before := r.TNS
	r.Update(nil)
	if r.TNS != before {
		t.Fatal("empty update changed state")
	}
	_ = g
}

func TestTunePeriod(t *testing.T) {
	d, _, err := fixtures.Chain(20, 10, 28, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.DefaultConfig()
	p0, err := sta.TunePeriod(g, cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.ClockPeriod = p0
	r := sta.Analyze(g, cfg)
	if len(r.ViolatingEndpoints()) != 0 {
		t.Fatalf("violations at violateFrac=0: %v", r.ViolatingEndpoints())
	}
	p50, err := sta.TunePeriod(g, cfg, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p50 >= p0 {
		t.Fatalf("period at 50%% violations (%v) should be below zero-violation period (%v)", p50, p0)
	}
	d.ClockPeriod = p50
	r = sta.Analyze(g, cfg)
	if len(r.ViolatingEndpoints()) == 0 {
		t.Fatal("no violations at violateFrac=0.5")
	}
}

func TestTunePeriodBadFrac(t *testing.T) {
	d, _, err := fixtures.Chain(2, 10, 28, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.TunePeriod(g, sta.DefaultConfig(), 1.0, 0); err == nil {
		t.Fatal("violateFrac=1 accepted")
	}
	if _, err := sta.TunePeriod(g, sta.DefaultConfig(), -0.1, 0); err == nil {
		t.Fatal("negative violateFrac accepted")
	}
}
