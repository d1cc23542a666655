package closure

import (
	"math"

	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/pba"
	"mgba/internal/sta"
)

// Signoff measures WNS/TNS with PBA: for every endpoint, the worst PBA
// slack among its worst GBA paths. This is the golden yardstick the paper
// uses for its QoR tables (PBA "sign-off stage" timing).
func Signoff(g *graph.Graph, cfg sta.Config) (wns, tns float64) {
	return signoff(engine.NewSession(g), cfg)
}

// signoff is Signoff against an existing timing session.
func signoff(s *engine.Session, cfg sta.Config) (wns, tns float64) {
	g := s.G
	cfg.Weights = nil
	r := s.Run(cfg)
	defer r.Release()
	an := pba.NewAnalyzer(r)
	for fi, ffID := range g.D.FFs {
		if len(g.Fanin(ffID)) == 0 {
			continue
		}
		if worst := pbaSlack(an, fi); worst < 0 {
			tns += worst
			if worst < wns {
				wns = worst
			}
		}
	}
	return wns, tns
}

// pbaSlack is endpoint fi's PBA slack: the worst PBA slack among its 10
// worst GBA paths, +Inf when it has none. The PBA-worst path is among the
// GBA-worst few (GBA ordering is a conservative bound on the PBA
// ordering), so the minimum over them is the standard sign-off
// approximation of the endpoint's true PBA slack.
func pbaSlack(an *pba.Analyzer, fi int) float64 {
	worst := math.Inf(1)
	for _, p := range an.KWorst(fi, 10, nil) {
		if s := an.Retime(p).Slack; s < worst {
			worst = s
		}
	}
	return worst
}
