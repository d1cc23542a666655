package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mgba/internal/engine"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// A view pair names the two timing views a calibration corrects between:
// the cheap view, whose derated per-gate delays and path decomposition
// yield the A·Δx rows of Eq. (9), and the golden view, whose exact path
// slacks are the fit targets. The cheap view is always the bound
// session's own analysis under the corner config; a pair supplies the
// golden view. The paper's instance is GBA (cheap) against PBA retiming
// of the same session (golden); the "preroute" pair runs the same
// machinery across design stages, correcting a pre-route analysis
// against a deterministically routed twin of the design. Pairs are
// registered by name and selected per calibration through
// Options.ViewPair.

// PathTimer produces the golden timing of one selected path.
// pba.Analyzer is the canonical implementation: an exact single-path
// replay with path-specific derates and CRPR.
type PathTimer interface {
	Retime(p *pba.Path) *pba.Timing
}

// GoldenProvider produces golden slacks for selected paths. Refresh
// re-derives the golden view from the current design state (the start of
// every cold calibration); Update mirrors an incremental cheap-side
// change (the instance IDs whose cells changed) into it; Timer hands out
// the path replayer for the current state, given the cheap baseline the
// selection was enumerated on; Rebind follows the calibrator onto a new
// session after a structural edit.
type GoldenProvider interface {
	Refresh() error
	Update(dirty []int) error
	Timer(cheap *sta.Result) (PathTimer, error)
	Rebind(s *engine.Session) error
}

// ViewPair binds a named (cheap, golden) view combination onto a timing
// session: Bind returns the golden provider for one corner config.
type ViewPair interface {
	Name() string
	Bind(s *engine.Session, cfg sta.Config, opt Options) (GoldenProvider, error)
}

// strictPair is implemented by pairs whose cheap view can be optimistic
// against golden — cross-stage pairs, where the golden stage may lengthen
// a path the cheap stage under-times. Selecting such a pair forces
// Options.StrictSafety on: scale-back toward identity cannot repair an
// optimistic row, so the never-optimistic contract needs the exact
// Eq. (5) lift, not just the soft penalty.
type strictPair interface {
	StrictSafety() bool
}

// DefaultViewPair is the paper's GBA-corrected-against-PBA pairing, used
// whenever Options.ViewPair is empty.
const DefaultViewPair = "gba-pba"

var (
	pairMu  sync.RWMutex
	pairReg = map[string]ViewPair{}
)

// RegisterViewPair adds a pair to the registry. Registration is an
// init-time affair; a duplicate name panics.
func RegisterViewPair(p ViewPair) {
	pairMu.Lock()
	defer pairMu.Unlock()
	if _, dup := pairReg[p.Name()]; dup {
		panic("core: duplicate view pair " + p.Name())
	}
	pairReg[p.Name()] = p
}

// LookupViewPair resolves a pair name; "" selects DefaultViewPair. The
// error lists the registered names, so API layers can surface the valid
// choices verbatim.
func LookupViewPair(name string) (ViewPair, error) {
	if name == "" {
		name = DefaultViewPair
	}
	pairMu.RLock()
	defer pairMu.RUnlock()
	p, ok := pairReg[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown view pair %q (registered: %s)",
			name, strings.Join(pairNamesLocked(), ", "))
	}
	return p, nil
}

// ViewPairNames lists the registered pair names, sorted.
func ViewPairNames() []string {
	pairMu.RLock()
	defer pairMu.RUnlock()
	return pairNamesLocked()
}

func pairNamesLocked() []string {
	names := make([]string, 0, len(pairReg))
	for n := range pairReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gbaPBAPair is the paper's pairing: derated graph-based analysis as the
// cheap view, exact path-based retiming of the same session as golden.
type gbaPBAPair struct{}

func (gbaPBAPair) Name() string { return DefaultViewPair }

func (gbaPBAPair) Bind(*engine.Session, sta.Config, Options) (GoldenProvider, error) {
	return pbaProvider{}, nil
}

// pbaProvider replays selected paths with pba.Analyzer against the cheap
// baseline itself — same session, same stage — so Refresh and Update
// have nothing to mirror: the cheap baseline the calibrator maintains is
// the golden view's substrate.
type pbaProvider struct{}

func (pbaProvider) Refresh() error               { return nil }
func (pbaProvider) Update([]int) error           { return nil }
func (pbaProvider) Rebind(*engine.Session) error { return nil }

func (pbaProvider) Timer(cheap *sta.Result) (PathTimer, error) {
	return pba.NewAnalyzer(cheap), nil
}

func init() {
	RegisterViewPair(gbaPBAPair{})
	RegisterViewPair(preroutePair{})
}
