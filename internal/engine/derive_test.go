package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"mgba/internal/cells"
	"mgba/internal/engine"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/obs"
	"mgba/internal/rng"
)

// requireSameSession asserts that a derived session holds exactly the
// design-derived state of a fresh one: depths, boxes, geometry and the
// clock index. The clock slices and credits are compared through Results.
func requireSameSession(t *testing.T, want, got *engine.Session, label string) {
	t.Helper()
	if want.NumInstances() != got.NumInstances() || want.NumFFs() != got.NumFFs() {
		t.Fatalf("%s: geometry %d/%d, want %d/%d", label,
			got.NumInstances(), got.NumFFs(), want.NumInstances(), want.NumFFs())
	}
	for _, sl := range []struct {
		name      string
		want, got []int32
	}{
		{"min prefix", want.Depths.MinPrefix, got.Depths.MinPrefix},
		{"min suffix", want.Depths.MinSuffix, got.Depths.MinSuffix},
		{"GBA depth", want.Depths.GBA, got.Depths.GBA},
	} {
		if !slices.Equal(sl.want, sl.got) {
			t.Fatalf("%s: %s differs from a fresh session", label, sl.name)
		}
	}
	if !slices.Equal(want.Boxes.Launch, got.Boxes.Launch) || !slices.Equal(want.Boxes.Capture, got.Boxes.Capture) ||
		!slices.EqualFunc(want.Boxes.GBADistance, got.Boxes.GBADistance, eq) {
		t.Fatalf("%s: boxes differ from a fresh session", label)
	}
	wci, gci := want.G.ClockIndex(), got.G.ClockIndex()
	if !slices.Equal(wci.LeafOfFF, gci.LeafOfFF) || wci.NumLeaves() != gci.NumLeaves() ||
		!slices.EqualFunc(wci.Chains, gci.Chains, slices.Equal) ||
		!slices.EqualFunc(wci.LaunchLeaves, gci.LaunchLeaves, slices.Equal) {
		t.Fatalf("%s: clock index differs from a fresh session", label)
	}
	for a := 0; a < wci.NumLeaves(); a++ {
		for b := 0; b < wci.NumLeaves(); b++ {
			if wci.CommonLen(a, b) != gci.CommonLen(a, b) {
				t.Fatalf("%s: common prefix of leaves (%d,%d) = %d, want %d", label, a, b,
					gci.CommonLen(a, b), wci.CommonLen(a, b))
			}
		}
	}
}

// requireSameGraph asserts that a derived graph equals one Build made of
// the same design field for field: every row in edge order, Topo in
// Build's order, positions, flip-flop positions, clock membership and
// clock chains.
func requireSameGraph(t *testing.T, want, got *graph.Graph, label string) {
	t.Helper()
	n := len(want.D.Instances)
	if len(got.Pos) != n || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: derived graph has %d instances and %d edges, want %d and %d", label,
			len(got.Pos), got.NumEdges(), n, want.NumEdges())
	}
	if !slices.Equal(want.Topo, got.Topo) || !slices.Equal(want.Pos, got.Pos) {
		t.Fatalf("%s: derived topological order differs from Build's", label)
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(want.Fanin(v), got.Fanin(v)) || !slices.Equal(want.Fanout(v), got.Fanout(v)) {
			t.Fatalf("%s: instance %d: derived rows differ from Build's (fanin %v, want %v; fanout %v, want %v)",
				label, v, got.Fanin(v), want.Fanin(v), got.Fanout(v), want.Fanout(v))
		}
		if want.FFIndex(v) != got.FFIndex(v) || want.IsClock(v) != got.IsClock(v) {
			t.Fatalf("%s: instance %d: flip-flop position or clock membership differs from Build's", label, v)
		}
	}
	if !slices.EqualFunc(want.ClockChain, got.ClockChain, slices.Equal) {
		t.Fatalf("%s: derived clock chains differ from Build's", label)
	}
}

// requireSameCredits compares every leaf-pair CRPR credit of two analyses
// of one design, through one representative flip-flop per leaf.
func requireSameCredits(t *testing.T, want, got *engine.Result, label string) {
	t.Helper()
	ci := want.G.ClockIndex()
	rep := make([]int, ci.NumLeaves())
	for i := range rep {
		rep[i] = -1
	}
	for fi, leaf := range ci.LeafOfFF {
		if rep[leaf] < 0 {
			rep[leaf] = fi
		}
	}
	for _, a := range rep {
		for _, b := range rep {
			if w, g := want.CRPRCredit(a, b), got.CRPRCredit(a, b); !eq(w, g) {
				t.Fatalf("%s: credit (%d,%d) = %v, want %v", label, a, b, g, w)
			}
		}
	}
}

// trialRig carries a design's current session and timing view through a
// sequence of structural trials, the way the closure flow does: each
// trial derives a session for the edited design and rebases the view
// onto it; an accepted trial becomes the parent of the next one, a
// rejected one is reverted and dropped.
type trialRig struct {
	t   *testing.T
	d   *netlist.Design
	s   *engine.Session
	cfg engine.Config
	r   *engine.Result

	trials, crprMoved, clockShared int
}

func newTrialRig(t *testing.T, d *netlist.Design, cfg engine.Config) *trialRig {
	t.Helper()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewSession(g)
	return &trialRig{t: t, d: d, s: s, cfg: cfg, r: s.Run(cfg)}
}

// trial times the current design state (an edit just applied) through
// Derive and Rebase, requires the graph, the session and the view to
// equal a fresh Build, session and Run bit for bit, and adopts them when
// accept is set.
func (rig *trialRig) trial(edited []int, accept bool, label string) {
	t := rig.t
	t.Helper()
	s2, err := rig.s.Derive(edited)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	cfg := rig.cfg
	if cfg.Weights != nil {
		for len(cfg.Weights) < len(rig.d.Instances) {
			cfg.Weights = append(cfg.Weights, 1)
		}
	}
	r2 := rig.r.Rebase(s2, cfg, edited)

	gf, err := graph.Build(rig.d)
	if err != nil {
		t.Fatal(err)
	}
	fresh := engine.NewSession(gf)
	want := fresh.Run(cfg)
	requireSameGraph(t, gf, s2.G, label)
	requireSameSession(t, fresh, s2, label)
	requireIdentical(t, want, r2, label)
	requireSameCredits(t, want, r2, label)
	want.Release()

	rig.trials++
	shared := len(r2.ClockLate) > 0 && &r2.ClockLate[0] == &rig.r.ClockLate[0]
	if shared {
		rig.clockShared++
		if !slices.EqualFunc(r2.GBACRPR, rig.r.GBACRPR, eq) {
			rig.crprMoved++
		}
	}
	if !accept {
		r2.Release()
		s2.Discard() // the next trial fills its storage
		return
	}
	rig.r.Release()
	rig.s, rig.r, rig.cfg = s2, r2, cfg
}

// bufferTrials inserts a buffer on n data nets spread over the design,
// timing each insertion as a trial and accepting every other one.
func (rig *trialRig) bufferTrials(n int, label string) {
	t, d := rig.t, rig.d
	buf, err := d.Lib.Pick(cells.Buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nets []int
	for _, v := range rig.s.G.Topo {
		if in := d.Instances[v]; !in.IsFF() && in.Output >= 0 && len(d.Nets[in.Output].Sinks) > 0 {
			nets = append(nets, in.Output)
		}
	}
	for k := 0; k < n && k < len(nets); k++ {
		net := nets[k*len(nets)/n]
		b, err := d.InsertBuffer(net, buf, "")
		if err != nil {
			t.Fatal(err)
		}
		edited := append(slices.Clone(d.Nets[b.Output].Sinks), d.Nets[net].Driver, b.ID)
		accept := k%2 == 1
		rig.trial(edited, accept, fmt.Sprintf("%s buffer on net %d", label, net))
		if !accept {
			if err := d.RemoveBuffer(b); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// retimeTrials tries every stride-th legal retime slide of the design as
// it stands at the call, backward and forward at each register,
// accepting every other one; a slide an accepted one made illegal is
// skipped. It returns how many slides were timed.
func (rig *trialRig) retimeTrials(stride int, label string) int {
	t, d := rig.t, rig.d
	type slide struct {
		ff, g    *netlist.Instance
		backward bool
	}
	var slides []slide
	for _, id := range d.FFs {
		ff := d.Instances[id]
		if len(ff.Inputs) > 0 {
			if drv := d.Nets[ff.Inputs[0]].Driver; drv >= 0 {
				slides = append(slides, slide{ff, d.Instances[drv], true})
			}
		}
		if ff.Output >= 0 {
			if sinks := d.Nets[ff.Output].Sinks; len(sinks) == 1 {
				slides = append(slides, slide{ff, d.Instances[sinks[0]], false})
			}
		}
	}
	timed, legal := 0, 0
	for _, sl := range slides {
		if sl.g.Cell.Kind.IsSequential() || sl.g.Cell.Kind.Inputs() != 1 {
			continue
		}
		apply, undo := d.RetimeForward, d.RetimeBackward
		if sl.backward {
			apply, undo = undo, apply
		}
		if _, err := apply(sl.ff, sl.g); err != nil {
			continue // not legal here (or no longer, after an accepted slide)
		}
		if legal++; (legal-1)%stride != 0 {
			if _, err := undo(sl.ff, sl.g); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// The retime transform's dirty set: the register, the gate and the
		// data drivers of their input nets.
		edited := []int{sl.ff.ID, sl.g.ID}
		for _, in := range []*netlist.Instance{sl.ff, sl.g} {
			for _, net := range in.Inputs {
				if drv := d.Nets[net].Driver; drv >= 0 && !rig.s.G.IsClock(drv) && !slices.Contains(edited, drv) {
					edited = append(edited, drv)
				}
			}
		}
		accept := timed%2 == 1
		rig.trial(edited, accept, fmt.Sprintf("%s retime %s across %s (backward %v)", label, sl.ff.Name, sl.g.Name, sl.backward))
		if !accept {
			if _, err := undo(sl.ff, sl.g); err != nil {
				t.Fatal(err)
			}
		}
		timed++
	}
	return timed
}

// rewireTrial is the hand-made edit buffer insertion and retiming never
// make: it moves the first input of an endpoint's D-pin driver onto the
// Q net of a register on a clock leaf that could not reach the endpoint
// before, so the endpoint's launch leaves change. Under a derated clock
// it picks a register whose credit against the endpoint is below the
// endpoint's conservative credit, so that credit moves. It reports
// whether it found such an edit.
func (rig *trialRig) rewireTrial(label string) bool {
	d, g, r := rig.d, rig.s.G, rig.r
	ci := g.ClockIndex()
	for efi, eid := range d.FFs {
		e := d.Instances[eid]
		if len(e.Inputs) == 0 {
			continue
		}
		drvID := d.Nets[e.Inputs[0]].Driver
		if drvID < 0 || g.IsClock(drvID) {
			continue
		}
		drv := d.Instances[drvID]
		if drv.IsFF() || len(drv.Inputs) == 0 {
			continue
		}
		for qfi, qid := range d.FFs {
			q := d.Instances[qid]
			if qid == eid || q.Output < 0 || slices.Contains(ci.LaunchLeaves[efi], ci.LeafOfFF[qfi]) {
				continue
			}
			if rig.cfg.DerateClock && !(r.CRPRCredit(qfi, efi) < r.GBACRPR[efi]) {
				continue
			}
			old := d.Nets[drv.Inputs[0]]
			k := slices.Index(old.Sinks, drvID)
			old.Sinks = slices.Delete(old.Sinks, k, k+1)
			drv.Inputs[0] = q.Output
			d.Nets[q.Output].Sinks = append(d.Nets[q.Output].Sinks, drvID)
			edited := []int{drvID, qid}
			if old.Driver >= 0 {
				edited = append(edited, old.Driver)
			}
			rig.trial(edited, true, fmt.Sprintf("%s rewire %s onto %s", label, drv.Name, q.Name))
			return true
		}
	}
	return false
}

// clockTrial resizes one clock buffer near the leaves — a clock-network
// edit, so Derive must rebuild the clock state — and times it as an
// accepted trial. It reports whether the design has a resizable clock
// buffer.
func (rig *trialRig) clockTrial(label string) bool {
	d := rig.d
	for fi := range d.FFs {
		chain := rig.s.G.ClockChain[fi]
		if len(chain) == 0 {
			continue
		}
		buf := d.Instances[chain[len(chain)-1]]
		to := d.Lib.Upsize(buf.Cell)
		if to == nil {
			to = d.Lib.Downsize(buf.Cell)
		}
		if to == nil {
			continue
		}
		if err := d.Resize(buf, to); err != nil {
			rig.t.Fatal(err)
		}
		rig.trial([]int{buf.ID}, true, fmt.Sprintf("%s resize clock buffer %s", label, buf.Name))
		return true
	}
	return false
}

// TestDeriveRebaseMatchesFresh is the equivalence test of the structural
// trial protocol: on D1–D3 and the buffer and retiming fixtures, under a
// plain, a weighted and a 1.15-scaled corner config, every derived graph
// equals a fresh graph.Build of the edited design field for field (rows
// in edge order, Topo in Build's order), every derived session equals a
// fresh NewSession (depths, boxes, clock index, clock slices, credits)
// and every rebased view equals a fresh Run bit for bit. The edits are buffer insertions on data nets,
// every legal retime slide (every sixth under the plain and corner
// configs, which keeps the test to a few seconds), a hand-made rewire
// that changes an endpoint's launch leaves and a clock-buffer resize,
// with accepted trials chaining derived sessions the way the closure flow
// adopts them. Under -race, which adds nothing to this single-goroutine
// test beyond Run's parallel sweeps (covered by the parallel tests), only
// the weighted config runs, with every twelfth slide.
func TestDeriveRebaseMatchesFresh(t *testing.T) {
	designs := []struct {
		name string
		mk   func() (*netlist.Design, error)
	}{
		{"D1", func() (*netlist.Design, error) { return gen.Generate(gen.Suite()[0]) }},
		{"D2", func() (*netlist.Design, error) { return gen.Generate(gen.Suite()[1]) }},
		{"D3", func() (*netlist.Design, error) { return gen.Generate(gen.Suite()[2]) }},
		{"bufcase", fixtures.BufferCase},
		{"retimetoy", func() (*netlist.Design, error) { return fixtures.RetimePipeline(4) }},
	}
	crprMoved, slides := 0, 0
	for di, dd := range designs {
		for ci, cname := range []string{"plain", "weighted", "corner"} {
			if raceEnabled && cname != "weighted" {
				continue
			}
			d, err := dd.mk()
			if err != nil {
				t.Fatal(err)
			}
			var cfg engine.Config
			switch cname {
			case "weighted":
				cfg = engine.DefaultConfig()
				rnd := rng.New(uint64(31 + 3*di + ci))
				cfg.Weights = make([]float64, len(d.Instances))
				for i := range cfg.Weights {
					cfg.Weights[i] = 0.7 + 0.6*rnd.Float64()
				}
			case "corner":
				cfg = engine.DefaultConfig()
				if cfg.Derates, err = d.Derates.Scale(1.15); err != nil {
					t.Fatal(err)
				}
				cfg.Uncertainty = 10
			}
			label := dd.name + "/" + cname
			rig := newTrialRig(t, d, cfg)
			rig.bufferTrials(6, label)
			stride := 6
			switch {
			case raceEnabled:
				stride = 12
			case cname == "weighted":
				stride = 1
			}
			n := rig.retimeTrials(stride, label)
			slides += n
			rewired := rig.rewireTrial(label)
			clocked := rig.clockTrial(label)
			t.Logf("%s: %d trials (%d retime slides, rewire %v, clock resize %v), clock state shared in %d, GBA credit moved under a shared state in %d",
				label, rig.trials, n, rewired, clocked, rig.clockShared, rig.crprMoved)
			if rig.clockShared == 0 {
				t.Errorf("%s: no trial shared the clock state", label)
			}
			crprMoved += rig.crprMoved
			rig.r.Release()
		}
	}
	if slides == 0 {
		t.Error("no legal retime slide timed")
	}
	if crprMoved == 0 {
		t.Error("no trial moved a GBA credit under a shared clock state: the launch-leaf re-derivation is untested")
	}
}

// TestDeriveRebuildsEditedClockState pins the visible fallback: after a
// clock-buffer resize or a wire-delay change on a clock leaf net, Derive
// must not share the clock state. It rebuilds it, counts the rebuild in
// engine.sessions.clock_rebuilt, and the derived session and a view
// rebased onto it equal a fresh session and Run.
func TestDeriveRebuildsEditedClockState(t *testing.T) {
	prev := obs.Enabled()
	defer obs.Enable(prev)
	obs.Enable(true)
	counter := func(name string) int64 {
		v, _ := obs.Snapshot()[name].(int64)
		return v
	}
	edits := []struct {
		name string
		edit func(d *netlist.Design, g *graph.Graph) int // returns the edited clock buffer
	}{
		{"clock buffer resize", func(d *netlist.Design, g *graph.Graph) int {
			buf := d.Instances[g.ClockChain[0][len(g.ClockChain[0])-1]]
			to := d.Lib.Upsize(buf.Cell)
			if to == nil {
				to = d.Lib.Downsize(buf.Cell)
			}
			if err := d.Resize(buf, to); err != nil {
				t.Fatal(err)
			}
			return buf.ID
		}},
		{"clock leaf wire delay", func(d *netlist.Design, g *graph.Graph) int {
			leaf := d.Nets[d.Instances[d.FFs[0]].Clock]
			leaf.WireDelay += 1.5
			return leaf.Driver
		}},
	}
	for _, ed := range edits {
		d, g := buildDesign(t, gen.Suite()[2])
		s := engine.NewSession(g)
		cfg := engine.DefaultConfig()
		r := s.Run(cfg)
		buf := ed.edit(d, g)

		derived, rebuilt := counter("engine.sessions.derived"), counter("engine.sessions.clock_rebuilt")
		s2, err := s.Derive([]int{buf})
		if err != nil {
			t.Fatal(err)
		}
		if n := counter("engine.sessions.derived") - derived; n != 1 {
			t.Errorf("%s: engine.sessions.derived rose by %d, want 1", ed.name, n)
		}
		if n := counter("engine.sessions.clock_rebuilt") - rebuilt; n != 1 {
			t.Errorf("%s: engine.sessions.clock_rebuilt rose by %d, want 1", ed.name, n)
		}
		r2 := r.Rebase(s2, cfg, []int{buf})
		if &r2.ClockLate[0] == &r.ClockLate[0] {
			t.Errorf("%s: the derived session shares the edited clock state", ed.name)
		}
		gf, err := graph.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		fresh := engine.NewSession(gf)
		want := fresh.Run(cfg)
		requireSameGraph(t, gf, s2.G, ed.name)
		requireSameSession(t, fresh, s2, ed.name)
		requireIdentical(t, want, r2, ed.name)
		requireSameCredits(t, want, r2, ed.name)
		for _, x := range []*engine.Result{r, r2, want} {
			x.Release()
		}
	}
}
