package core

import (
	"fmt"

	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netlist"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// PreroutePair is the name of the cross-stage view pair: a pre-route
// analysis corrected against the deterministically routed twin the
// generator emits (gen.Route).
const PreroutePair = "preroute"

// preroutePair corrects across design stages: the cheap view is the
// plain analysis of the bound (pre-route) session, and the golden
// provider replays selected paths against a routed twin of the design
// whose data-net wire delays carry the post-route perturbation. Clock
// nets are never perturbed, so clock arrivals, capture budgets and CRPR
// credits are bit-identical between the two views — the per-pair
// bookkeeping split §3 assumes — and the whole cross-stage gap lives in
// the data path, where the fitted per-gate corrections can absorb it.
// Unlike the default pair, the cheap view here can be *optimistic* on a
// path (routed wires mostly get longer), so fitted weights above one are
// the common case and Eq. (5) safety rides entirely on the one-sided
// penalty of Eq. (6).
type preroutePair struct{}

func (preroutePair) Name() string { return PreroutePair }

// StrictSafety marks the pair cross-stage: its cheap view can be
// optimistic, so selecting it forces exact Eq. (5) enforcement.
func (preroutePair) StrictSafety() bool { return true }

func (preroutePair) Bind(s *engine.Session, cfg sta.Config, opt Options) (CheapView, GoldenProvider, error) {
	return &sessionView{sess: s, cfg: cfg},
		&routedProvider{sess: s, cfg: cfg, seed: opt.Seed}, nil
}

// routedProvider maintains the routed twin: a design clone with
// perturbed data-net wire delays, its own timing session, and the routed
// analysis selected paths replay against. The twin is derived lazily and
// re-derived on Refresh and after Rebind; Update mirrors cheap-side cell
// changes into it without re-running the routed analysis.
type routedProvider struct {
	sess *engine.Session // the pre-route session the golden view shadows
	cfg  sta.Config
	seed uint64

	routed *netlist.Design
	rsess  *engine.Session
	rres   *sta.Result
}

// derive (re)builds the routed twin from the current pre-route design
// state. Route's perturbation is a pure function of (seed, net ID), so
// re-deriving after a run of mirrored cell updates lands on the same
// twin those updates maintained.
func (rp *routedProvider) derive() error {
	rd, err := gen.Route(rp.sess.G.D, rp.seed)
	if err != nil {
		return fmt.Errorf("core: routed golden: %w", err)
	}
	rg, err := graph.Build(rd)
	if err != nil {
		return fmt.Errorf("core: routed golden: %w", err)
	}
	if rp.rres != nil {
		rp.rres.Release()
	}
	rp.routed = rd
	rp.rsess = engine.NewSession(rg)
	rp.rres = rp.rsess.Run(rp.cfg)
	return nil
}

func (rp *routedProvider) Refresh() error { return rp.derive() }

// Update mirrors cheap-side cell changes into the routed twin. Sizing
// leaves nets and placement untouched, and the path replayer recomputes
// cell delays and slews from the design itself (the cached routed result
// only contributes wire delays, clock arrivals and CRPR credits, none of
// which a resize moves), so mirroring the cell pointers keeps the golden
// view exact without re-running the routed analysis. The twin and the
// dirty IDs are checked against the bound session's geometry.
func (rp *routedProvider) Update(dirty []int) error {
	if rp.routed == nil {
		return nil // nothing derived yet; the next Timer derives fresh
	}
	src := rp.sess.G.D
	n := rp.sess.NumInstances()
	if len(rp.routed.Instances) != n {
		return fmt.Errorf("core: routed golden: twin out of shape (%d vs %d instances)",
			len(rp.routed.Instances), n)
	}
	for _, id := range dirty {
		if id < 0 || id >= n {
			return fmt.Errorf("core: routed golden: instance %d out of range", id)
		}
		rp.routed.Instances[id].Cell = src.Instances[id].Cell
	}
	return nil
}

func (rp *routedProvider) Timer(cheap *sta.Result) (PathTimer, error) {
	if rp.rres == nil {
		if err := rp.derive(); err != nil {
			return nil, err
		}
	}
	return pba.NewAnalyzer(rp.rres), nil
}

// Rebind follows the calibrator onto a new session after a structural
// edit. The twin's topology no longer matches, so it is dropped; the
// next Refresh or Timer re-derives it from the new design state.
func (rp *routedProvider) Rebind(s *engine.Session) error {
	rp.sess = s
	rp.routed = nil
	rp.rsess = nil
	if rp.rres != nil {
		rp.rres.Release()
		rp.rres = nil
	}
	return nil
}
