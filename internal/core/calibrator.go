package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"mgba/internal/engine"
	"mgba/internal/obs"
	"mgba/internal/pathsel"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// Calibrator is a persistent calibration session bound to an
// engine.Session, mirroring the engine's immutable-vs-per-run split on the
// calibration side. A cold Calibrate runs the full pipeline and caches its
// intermediate state: every corner's baseline cheap result, the
// per-endpoint selected path groups and every corner's golden retimings of
// them. A subsequent Recalibrate, fed the set of instances the closure
// flow touched since, then redoes only the invalidated part: the baselines
// advance through the engine's incremental update, only endpoints whose
// fan-in cone contains a touched gate are re-enumerated and retimed, the
// Eq. (9) rows are rebuilt from the cached groups by the same assembler a
// cold calibration uses, and the solve is warm-started from the previous
// fit. Every shortcut is exact — an incremental Recalibrate returns
// bit-identical weights to a cold Calibrate of the same design state — so
// the cache is purely a performance artifact.
//
// The cache is dropped (forcing the next call cold) whenever its validity
// cannot be guaranteed: a cancelled, faulted or failed calibration, a
// dirty set touching the clock network, a population over MaxPaths. A
// streamed (Options.StreamShard > 0) calibrator keeps no cache: every call
// runs cold. Topology changes (buffer insertion, register retiming)
// invalidate the engine.Session itself; Rebind moves the calibrator, cache
// included, to the session rebuilt for the new design state.
//
// A Calibrator is not safe for concurrent use. Returned models are never
// mutated by later calls.
type Calibrator struct {
	sess    *engine.Session
	opt     Options
	pair    ViewPair
	oneShot bool // throwaway calibrator: skip the weighted caches

	// corners[0] is the selection corner: paths are enumerated on its
	// baseline. A plain calibrator is a one-corner list.
	corners []*corner

	// The shared enumeration cache; groups == nil means no cache.
	eps    []int       // tracked endpoints: D.FFs positions, FF order
	slotOf map[int]int // D.FFs position -> index into eps/groups
	groups [][]*pba.Path

	stats CalibratorStats
}

// corner is one analysis corner of a calibration: its bound views, the
// warm start of its next solve and, while the cache is valid, its cached
// baseline, weighted re-analysis and golden retimings.
type corner struct {
	spec   CornerSpec
	cfg    sta.Config
	cheap  CheapView
	golden GoldenProvider
	warm   []float64 // per-instance weights seeding the next solve

	gba      *sta.Result     // cheap baseline, advanced in place via Update
	mgba     *sta.Result     // private weighted re-analysis, advanced via Update
	mweights []float64       // weights mgba was last evaluated under
	tgroups  [][]*pba.Timing // golden retimings, parallel to Calibrator.groups
}

// CalibratorStats counts what the calibrator actually did, for benchmarks
// and tests that assert the incremental path was taken.
type CalibratorStats struct {
	Cold                  int // full-pipeline calibrations (incl. fallbacks)
	Incremental           int // recalibrations served from the cache
	EndpointsReenumerated int // endpoint searches run by incremental calls
}

// errCancelled aborts golden retiming on context cancellation; the caller
// abandons the model.
var errCancelled = errors.New("core: calibration cancelled")

// NewCalibrator validates the configuration, resolves the view pair
// named by Options.ViewPair and binds a calibration session to s.
// Options.WarmWeights, when set, seeds the first solve.
func NewCalibrator(s *engine.Session, cfg sta.Config, opt Options) (*Calibrator, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil session")
	}
	return newBoundCalibrator(s, cfg, opt, false)
}

// newBoundCalibrator is the shared constructor: validate, resolve the
// pair, instantiate its views on the session once per corner.
func newBoundCalibrator(s *engine.Session, cfg sta.Config, opt Options, oneShot bool) (*Calibrator, error) {
	if err := validateOptions(cfg, opt); err != nil {
		return nil, err
	}
	vp, err := LookupViewPair(opt.ViewPair)
	if err != nil {
		return nil, err
	}
	if sp, ok := vp.(strictPair); ok && sp.StrictSafety() {
		// A cross-stage pair cannot uphold Eq. (5) with the soft penalty
		// alone; force the exact enforcement the pair declares it needs.
		opt.StrictSafety = true
	}
	specs := opt.Corners
	if len(specs) == 0 {
		// The identity spec: the plain calibrator is a one-corner list
		// running under cfg itself.
		specs = []CornerSpec{{}}
	}
	if len(specs) > 1 {
		// With several corners the soft penalty cannot vouch for all of
		// them; force the exact Eq. (5) enforcement on every fit.
		opt.StrictSafety = true
	}
	c := &Calibrator{sess: s, opt: opt, pair: vp, oneShot: oneShot}
	for _, spec := range specs {
		// Each corner's scaled derate tables are built once, here: they stay
		// pointer-stable for the calibrator's lifetime, so the engine's
		// clock-state cache hits on every run of every corner.
		ccfg, err := cornerConfig(cfg, s.G.D, spec)
		if err != nil {
			return nil, err
		}
		cheap, golden, err := vp.Bind(s, ccfg, opt)
		if err != nil {
			return nil, err
		}
		c.corners = append(c.corners, &corner{
			spec: spec, cfg: ccfg, cheap: cheap, golden: golden, warm: opt.WarmWeights,
		})
	}
	return c, nil
}

// multiCorner reports whether the calibrator runs under the N >= 2 corner
// contract: per-corner fits and a merged worst-corner view on the model,
// and the JointFit stack.
func (c *Calibrator) multiCorner() bool { return len(c.corners) > 1 }

// Pair returns the name of the view pair the calibrator corrects
// between.
func (c *Calibrator) Pair() string { return c.pair.Name() }

// Stats returns the calibrator's work counters.
func (c *Calibrator) Stats() CalibratorStats { return c.stats }

// SetWarmWeights replaces the per-instance weights seeding each corner's
// next solve, in corner order (the selection corner first); corners past
// the given vectors keep theirs. The closure flow uses it to carry a
// checkpointed run's fits into the resumed run's calibrator.
func (c *Calibrator) SetWarmWeights(w ...[]float64) {
	for i, wi := range w[:min(len(w), len(c.corners))] {
		c.corners[i].warm = append([]float64(nil), wi...)
	}
}

// CornerConfigs returns every corner's analysis config in corner order,
// Weights unset: the configs Model.Corners carries, with the derate
// tables the calibrator's own runs share.
func (c *Calibrator) CornerConfigs() []sta.Config {
	out := make([]sta.Config, len(c.corners))
	for i, k := range c.corners {
		out[i] = k.cfg
	}
	return out
}

// Rebind moves the calibrator to a new engine.Session after a structural
// edit of the same design that kept its flip-flops and the clock network
// and at most appended instances — a register retiming slide or a buffer
// insertion. The per-endpoint path cache survives: the caller owes the
// next Recalibrate a dirty set covering every instance whose timing or
// graph-derived state (depth, bounding box) the edit moved, appended
// instances included, whose fan-out cone then covers every endpoint whose
// cached paths could have changed — clean endpoints' enumerations and
// retimings are provably still exact. The cached baselines are tied to
// the old session's graph, so every corner's baseline is re-run on the new
// session and the private weighted baselines are dropped (the next
// Recalibrate re-derives them).
//
// The shape test reads the two sessions' recorded geometry: a session over
// another design, with another flip-flop count or with fewer instances
// voids the cache entirely; Rebind then degrades to an Invalidate and the
// next call runs cold.
func (c *Calibrator) Rebind(s *engine.Session) error {
	if s == nil {
		return fmt.Errorf("core: rebind to nil session")
	}
	sameShape := c.sess != nil && s.G.D == c.sess.G.D &&
		s.NumFFs() == c.sess.NumFFs() &&
		s.NumInstances() >= c.sess.NumInstances()
	c.sess = s
	for _, k := range c.corners {
		k.cheap.Rebind(s)
		if err := k.golden.Rebind(s); err != nil {
			return err
		}
		k.gba.Release()
		k.gba = nil
	}
	if !sameShape {
		c.Invalidate()
		return nil
	}
	for _, k := range c.corners {
		k.mgba.Release()
		k.mgba, k.mweights = nil, nil
	}
	if c.groups != nil {
		obsCalibRebinds.Inc()
		for _, k := range c.corners {
			k.gba = k.cheap.Run()
		}
	}
	return nil
}

// Invalidate drops every cached artifact, forcing the next call cold. The
// cached baselines are not released here — the last returned Model may
// still reference them. The weighted caches are private (callers only
// ever receive clones of them), so their buffers go straight back to the
// session pool.
func (c *Calibrator) Invalidate() {
	c.eps, c.slotOf, c.groups = nil, nil, nil
	for _, k := range c.corners {
		k.gba = nil
		k.mgba.Release()
		k.mgba, k.mweights, k.tgroups = nil, nil, nil
	}
}

// Calibrate runs a full cold calibration and (re)fills the cache.
func (c *Calibrator) Calibrate(ctx context.Context) (*Model, error) {
	return c.cold(ctx, nil)
}

// cold is the full pipeline plus cache management. sel non-nil
// substitutes an explicit selection (the §3.2 scheme study), which is
// never cached because its paths are not grouped per endpoint.
func (c *Calibrator) cold(ctx context.Context, sel *pathsel.Selection) (*Model, error) {
	for _, k := range c.corners {
		// The previous cached baseline belongs to this calibrator alone
		// (callers were handed it inside now-superseded models); recycle
		// its buffers before running a fresh analysis.
		k.gba.Release()
	}
	c.Invalidate()
	c.stats.Cold++
	obsCalibCold.Inc()
	sp := obs.StartSpan("calibrate.cold")
	defer sp.End()
	m, err := c.coldFit(ctx, sp, sel)
	if err != nil {
		c.Invalidate()
	}
	return m, err
}

func (c *Calibrator) coldFit(ctx context.Context, sp *obs.Span, sel *pathsel.Selection) (*Model, error) {
	// One baseline timing run per corner is the minimum for a usable model
	// and the atomic unit of cancellation: it always runs to completion.
	for _, k := range c.corners {
		k.gba = k.cheap.Run()
	}
	m := c.newModel(c.corners[0])
	if cancelled(ctx) {
		return c.abandon(m, "cancelled before path selection"), nil
	}
	// Re-derive the golden views from the current design state: a cold
	// calibration never trusts an incremental mirror (the default pair's
	// provider has nothing to derive; the routed pair rebuilds its twin).
	for _, k := range c.corners {
		if err := k.golden.Refresh(); err != nil {
			return nil, err
		}
	}
	timers, err := c.timers()
	if err != nil {
		return nil, err
	}
	streamed := sel == nil && c.opt.StreamShard > 0
	cache := sel == nil && !streamed
	var bank *pathsel.Bank
	if streamed {
		bank = pathsel.NewBank(0)
	}
	if cache {
		c.slotOf = make(map[int]int)
	}
	a := newAssembler(c, false)
	spEnum := sp.Child("enumerate")
	// shard retimes and assembles one run of endpoint groups. Shards
	// arrive in FF order, so the rows come out endpoint-major with columns
	// mapped by first occurrence — one system however the stream is cut.
	shard := func(groups [][]*pba.Path) error {
		// Reject a population over MaxPaths before burning golden retimes
		// on a shard that can only end in the same error.
		if err := c.checkMaxPaths(a.rows() + countPaths(groups)); err != nil {
			return err
		}
		tg, err := c.retime(ctx, timers, groups)
		if err != nil {
			return err
		}
		spEnum.End()
		spAsm := sp.Child("assemble")
		err = a.add(groups, tg)
		spAsm.End()
		spEnum = sp.Child("enumerate")
		if cache {
			for i, k := range c.corners {
				k.tgroups = append(k.tgroups, tg[i]...)
			}
		}
		return err
	}
	if sel != nil {
		err = shard([][]*pba.Path{sel.Paths})
	} else {
		an := pba.NewAnalyzer(m.GBA)
		err = pathsel.EnumerateStream(an, c.opt.K, c.opt.StreamShard, func(sh *pathsel.Shard) error {
			if err := shard(sh.Groups); err != nil {
				return err
			}
			if streamed {
				// The shard's pointer-form paths become garbage here; the
				// bank keeps them in slab form.
				return bank.AppendShard(sh)
			}
			for _, fi := range sh.Endpoints {
				c.slotOf[fi] = len(c.eps)
				c.eps = append(c.eps, fi)
			}
			c.groups = append(c.groups, sh.Groups...)
			return nil
		})
	}
	spEnum.End()
	if errors.Is(err, errCancelled) {
		return c.abandon(m, "cancelled during golden retiming"), nil
	}
	if err != nil {
		return nil, err
	}
	switch {
	case sel != nil:
		m.Selection = sel
	case streamed:
		m.Selection = &pathsel.Selection{Scheme: "per-endpoint-top-k-streamed"}
		if bank.Total() > 0 {
			m.Bank = bank
		}
	default:
		m.Selection = c.selection(a.rows())
	}
	if err := c.fit(ctx, sp, m, a, nil, cache); err != nil {
		return nil, err
	}
	return c.finish(m), nil
}

// Recalibrate re-fits the weights after the given instances changed (gate
// or flip-flop resizes, or the structural edits Rebind accepts). With a
// valid cache it runs the incremental path — update the baselines over
// the dirty cone, re-enumerate and retime only the affected endpoints,
// rebuild the rows from the cached groups, warm-start the solve — and
// returns a model bit-identical to a cold Calibrate of the same state.
// Without one (first call, streamed calibrator, after a fault, after
// Invalidate) it runs a cold calibration. A re-enumerated population over
// MaxPaths is an error that also drops the cache.
func (c *Calibrator) Recalibrate(ctx context.Context, dirty []int) (*Model, error) {
	if c.groups == nil {
		return c.cold(ctx, nil)
	}
	for _, id := range dirty {
		if id < 0 || id >= c.sess.NumInstances() || c.sess.G.IsClock(id) {
			// An instance the session does not time, or a touched clock
			// cell: the cache's clock-invariance assumptions are void, go
			// cold.
			return c.cold(ctx, nil)
		}
	}
	sp := obs.StartSpan("calibrate.recalibrate")
	defer sp.End()
	m, err := c.incremental(ctx, sp, dirty)
	if err != nil {
		c.Invalidate()
	}
	return m, err
}

func (c *Calibrator) incremental(ctx context.Context, sp *obs.Span, dirty []int) (*Model, error) {
	for _, k := range c.corners {
		k.gba.Update(dirty)
		if err := k.golden.Update(dirty); err != nil {
			// The incremental mirror failed; a cold calibration re-derives
			// the golden view from scratch instead (and counts as one).
			return c.cold(ctx, nil)
		}
	}
	c.stats.Incremental++
	obsCalibIncremental.Inc()
	m := c.newModel(c.corners[0])
	if cancelled(ctx) {
		return c.abandon(m, "cancelled before path selection"), nil
	}
	spEnum := sp.Child("enumerate")
	var slots []int
	for _, fi := range c.sess.FanoutEndpoints(dirty) {
		if s, ok := c.slotOf[fi]; ok {
			slots = append(slots, s)
		}
	}
	sort.Ints(slots)
	affected := make([]int, len(slots))
	for i, s := range slots {
		affected[i] = c.eps[s]
	}
	zero := 0.0
	groups := pba.NewAnalyzer(m.GBA).KWorstAll(affected, c.opt.K, &zero, m.Cfg.Parallelism)
	c.stats.EndpointsReenumerated += len(affected)
	obsEndpointsReenum.Add(int64(len(affected)))
	if cancelled(ctx) {
		spEnum.End()
		return c.abandon(m, "cancelled before path selection"), nil
	}
	for i, s := range slots {
		c.groups[s] = groups[i]
	}
	if err := c.checkMaxPaths(countPaths(c.groups)); err != nil {
		spEnum.End()
		return nil, err
	}
	timers, err := c.timers()
	if err != nil {
		spEnum.End()
		return nil, err
	}
	tg, err := c.retime(ctx, timers, groups)
	spEnum.End()
	if err != nil {
		return c.abandon(m, "cancelled during golden retiming"), nil
	}
	cached := make([][][]*pba.Timing, len(c.corners))
	for i, k := range c.corners {
		for j, s := range slots {
			k.tgroups[s] = tg[i][j]
		}
		cached[i] = k.tgroups
	}
	spAsm := sp.Child("assemble")
	a := newAssembler(c, true)
	err = a.add(c.groups, cached)
	spAsm.End()
	if err != nil {
		return nil, err
	}
	m.Selection = c.selection(a.rows())
	if err := c.fit(ctx, sp, m, a, dirty, true); err != nil {
		return nil, err
	}
	return c.finish(m), nil
}

// newModel starts a corner's model: identity weights, the corner's
// baseline and its warm start.
func (c *Calibrator) newModel(k *corner) *Model {
	m := &Model{G: c.sess.G, Session: c.sess, Cfg: k.cfg, Opt: c.opt, Pair: c.pair.Name(), SafetyScale: 1, GBA: k.gba}
	m.Opt.WarmWeights = k.warm
	m.Weights = identity(len(m.G.D.Instances))
	return m
}

// timers hands out every corner's golden path replayer for its current
// baseline.
func (c *Calibrator) timers() ([]PathTimer, error) {
	timers := make([]PathTimer, len(c.corners))
	for i, k := range c.corners {
		t, err := k.golden.Timer(k.gba)
		if err != nil {
			return nil, err
		}
		timers[i] = t
	}
	return timers, nil
}

// retime is the golden-retime loop: tg[k][gi][j] is path groups[gi][j]
// replayed by corner k's timer. It returns errCancelled when ctx is done,
// checked every 256 paths.
func (c *Calibrator) retime(ctx context.Context, timers []PathTimer, groups [][]*pba.Path) ([][][]*pba.Timing, error) {
	n := countPaths(groups)
	tg := make([][][]*pba.Timing, len(timers))
	done := 0
	for k, timer := range timers {
		flat := make([]*pba.Timing, n)
		tg[k] = make([][]*pba.Timing, len(groups))
		off := 0
		for gi, g := range groups {
			tg[k][gi] = flat[off : off+len(g) : off+len(g)]
			for j, p := range g {
				if done%256 == 0 && cancelled(ctx) {
					return nil, errCancelled
				}
				tg[k][gi][j] = timer.Retime(p)
				done++
			}
			off += len(g)
		}
	}
	return tg, nil
}

// checkMaxPaths rejects a selected population larger than
// Options.MaxPaths.
func (c *Calibrator) checkMaxPaths(n int) error {
	if c.opt.MaxPaths > 0 && n > c.opt.MaxPaths {
		return fmt.Errorf("core: path population exceeds MaxPaths (%d > %d); raise MaxPaths or lower K", n, c.opt.MaxPaths)
	}
	return nil
}

// selection concatenates the cached groups, endpoint-major: the
// per-endpoint top-k' selection of §3.2.
func (c *Calibrator) selection(n int) *pathsel.Selection {
	sel := &pathsel.Selection{Scheme: "per-endpoint-top-k"}
	if n > 0 {
		sel.Paths = make([]*pba.Path, 0, n)
		for _, g := range c.groups {
			sel.Paths = append(sel.Paths, g...)
		}
	}
	return sel
}

func countPaths(groups [][]*pba.Path) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

// fit finishes a calibration once every corner's rows are assembled:
// solve each corner's Eq. (9) system (or the joint stack), re-analyze each
// corner under its fitted weights and, with N >= 2 corners, attach the
// per-corner fits and the merged worst-corner view. dirty is an
// incremental call's dirty set (nil when cold); cache says whether the
// calibration may leave its enumeration cached.
func (c *Calibrator) fit(ctx context.Context, sp *obs.Span, m *Model, a *assembler, dirty []int, cache bool) error {
	m.Columns = a.cols
	m.GoldenSlack = a.sys[0].golden
	fits := make([]*Model, len(c.corners))
	for i, k := range c.corners {
		fits[i] = m
		if i > 0 {
			fits[i] = c.newModel(k)
			fits[i].Columns = a.cols
		}
	}
	if a.rows() == 0 {
		// Nothing violates: every corner's mGBA degenerates to its cheap
		// baseline, which the model now owns — an empty system is not
		// worth caching.
		for _, fm := range fits {
			fm.MGBA = fm.GBA
		}
		cache = false
	} else {
		spAsm := sp.Child("assemble")
		for i, fm := range fits {
			p, err := c.problem(a.sys[i].b, a.sys[i].targets, a.sys[i].guards)
			if err != nil {
				spAsm.End()
				return err
			}
			fm.Problem = p
		}
		spAsm.End()
		spSolve := sp.Child("solve")
		var err error
		if c.multiCorner() && c.opt.JointFit {
			err = c.jointFit(ctx, fits)
		} else {
			for i, fm := range fits {
				if err = fm.solve(ctx); err != nil {
					break
				}
				c.corners[i].warm = fm.Weights
			}
		}
		spSolve.End()
		if err != nil {
			return err
		}
		spVal := sp.Child("validate")
		for i, k := range c.corners {
			c.reanalyze(k, fits[i], dirty)
		}
		spVal.End()
	}
	if c.multiCorner() {
		c.mergeWorst(m, fits, a)
	}
	if !cache || m.Partial || m.Fault != "" {
		// A cut-short or faulted fit may rest on state we cannot vouch for;
		// force the next calibration cold.
		c.Invalidate()
		return nil
	}
	if !c.oneShot {
		for i, k := range c.corners {
			if k.mgba == nil {
				k.mgba = fits[i].MGBA.Clone()
				k.mweights = append([]float64(nil), fits[i].Weights...)
			}
		}
	}
	return nil
}

// reanalyze runs the corner's cheap analysis under fm's fitted weights.
// With a cached weighted re-analysis it advances that instead: the only
// instances whose weighted view changed are the dirty ones and those
// whose weight moved since the cached evaluation, so Update over their
// union is bitwise equal to a fresh Run. The caller gets an independent
// clone; the original stays with the calibrator for the next round.
func (c *Calibrator) reanalyze(k *corner, fm *Model, dirty []int) {
	wcfg := k.cfg
	wcfg.Weights = fm.Weights
	if k.mgba == nil {
		fm.MGBA = c.sess.Run(wcfg)
		return
	}
	wdirty := append([]int(nil), dirty...)
	for i, w := range fm.Weights {
		if k.mweights[i] != w {
			wdirty = append(wdirty, i)
		}
	}
	k.mgba.Cfg = wcfg
	k.mgba.Update(wdirty)
	copy(k.mweights, fm.Weights)
	fm.MGBA = k.mgba.Clone()
}

// abandon drops the cache and returns m as the identity model.
func (c *Calibrator) abandon(m *Model, why string) *Model {
	c.Invalidate()
	return c.finish(m.abandon(why))
}

// finish records the model's weights as the next solve's warm start —
// exactly the closure flow's historical behavior of feeding each
// calibration's weights into the next via Options.WarmWeights.
func (c *Calibrator) finish(m *Model) *Model {
	c.corners[0].warm = m.Weights
	return m
}
