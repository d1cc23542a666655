package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
	"mgba/internal/sta"
	"mgba/internal/transform"
)

// session is one resident calibration session: a design, its timing
// session, and the persistent incremental calibrator, plus the serving
// state (last fitted weights and slacks) the HTTP layer reports and the
// snapshot layer persists.
//
// Concurrency contract: mu is the single-writer lock — every request that
// reads or mutates the session holds it, so concurrent batches on one
// design queue instead of racing the calibrator (which is explicitly not
// safe for concurrent use). queued counts the holder plus waiters and is
// bounded by Config.MaxQueue before mu is ever taken, so a slow
// calibration produces early 429s, not an unbounded goroutine pileup.
type session struct {
	id     string
	source string // design name or "inline"; informational

	mu     sync.Mutex
	queued atomic.Int32

	d   *netlist.Design
	g   *graph.Graph
	eng *engine.Session
	cal *core.Calibrator
	opt core.Options

	// Serving state, guarded by mu. weights is the last fitted
	// per-instance weight vector (nil until the first calibration);
	// slacks is the per-endpoint setup slack under those weights, computed
	// lazily after a resume (mGBA slacks are a pure function of design
	// state and weights, which is what makes crash recovery bit-exact).
	weights    []float64
	slacks     []float64
	wns, tns   float64
	applied    int // accepted transform batches over the session lifetime
	calibrated bool
	degraded   bool
	partial    bool
	fault      string
	deleted    bool // session evicted or dropped; waiters must retry

	// Persistence state, guarded by mu. The session's durable form is its
	// last checkpoint plus the journal records appended since. pending
	// lists the resizes applied to d since the last record or checkpoint,
	// in application order, including those of a batch whose
	// recalibration failed: they are in the design all the same.
	jr        *netio.Journal // open journal; nil until the session first needs one
	seq       uint64         // sequence number of the last record or checkpoint persisted
	ckptBytes int64          // size of the session's checkpoint on disk; 0 while it has none
	pending   []netio.JournalResize

	// evicted is made when the session is taken out of the registry for
	// eviction and closed once its eviction checkpoint is written.
	evicted chan struct{}

	lastUsed atomic.Int64 // unix nanos of the last touch, for LRU and idle eviction
	dirty    atomic.Bool  // changes not yet persisted
	lastSnap atomic.Int64 // unix nanos of the last successful persist
}

// snapMeta is the serve-owned state blob embedded in a session's
// checkpoint-v2 snapshot and in each of its journal records. The design
// and weights live in the checkpoint envelope and the records; this
// records the serving counters and flags a resumed session reports back
// to clients, and the sequence number of the last journal record the
// state covers (0 in snapshots written before the journal).
type snapMeta struct {
	Seq        uint64            `json:"seq,omitempty"`
	Source     string            `json:"source"`
	ViewPair   string            `json:"view_pair,omitempty"`
	Corners    []core.CornerSpec `json:"corners,omitempty"`
	Applied    int               `json:"applied"`
	Calibrated bool              `json:"calibrated"`
	Degraded   bool              `json:"degraded,omitempty"`
	Partial    bool              `json:"partial,omitempty"`
	Fault      string            `json:"fault,omitempty"`
}

// newSession binds a fresh calibration session to d. No calibration runs
// yet — the create handler does that under the request's deadline.
func newSession(id, source string, d *netlist.Design, cfg sta.Config, opt core.Options) (*session, error) {
	g, err := graph.Build(d)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", id, err)
	}
	eng := engine.NewSession(g)
	cal, err := core.NewCalibrator(eng, cfg, opt)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", id, err)
	}
	s := &session{id: id, source: source, d: d, g: g, eng: eng, cal: cal, opt: opt}
	s.touch(time.Now())
	return s, nil
}

// resumeSession rebuilds a session from its persisted snapshot. The
// calibrator starts cache-cold but warm-started from the persisted
// weights, so its next recalibration is bit-identical to the incremental
// one an uninterrupted process would have run; slacks are recomputed
// lazily from the persisted weights.
func resumeSession(id string, c *netio.Checkpoint, cfg sta.Config, opt core.Options) (*session, error) {
	var meta snapMeta
	if len(c.State) > 0 {
		if err := json.Unmarshal(c.State, &meta); err != nil {
			return nil, fmt.Errorf("serve: session %s: snapshot state: %w", id, err)
		}
	}
	source := meta.Source
	if source == "" {
		source = c.Design.Name
	}
	// The pair and the corner set are part of the session's identity: a
	// resumed session must calibrate exactly as the one it replaces, even
	// if the server's configured defaults changed across the restart.
	if meta.ViewPair != "" {
		opt.ViewPair = meta.ViewPair
	}
	if len(meta.Corners) > 0 {
		opt.Corners = meta.Corners
	}
	s, err := newSession(id, source, c.Design, cfg, opt)
	if err != nil {
		return nil, err
	}
	if c.Weights != nil {
		s.weights = append([]float64(nil), c.Weights...)
		s.cal.SetWarmWeights(s.weights)
	}
	s.applied = meta.Applied
	s.calibrated = meta.Calibrated
	s.degraded = meta.Degraded
	s.partial = meta.Partial
	s.fault = meta.Fault
	s.seq = meta.Seq
	s.lastSnap.Store(time.Now().UnixNano())
	return s, nil
}

// touch records use for LRU ordering and idle-eviction decisions.
func (s *session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// acquire joins the session's single-writer queue if fewer than max
// requests (holder included) are already in it. It returns (true, false)
// with mu held, (false, false) when the queue is full, and (false, true)
// when the session was deleted while waiting (the caller should retry:
// the registry will resurrect it from its snapshot).
func (s *session) acquire(max int) (ok, gone bool) {
	for {
		q := s.queued.Load()
		if int(q) >= max {
			return false, false
		}
		if s.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	s.mu.Lock()
	if s.deleted {
		s.mu.Unlock()
		s.queued.Add(-1)
		return false, true
	}
	return true, false
}

// release drops the single-writer lock and leaves the queue.
func (s *session) release() {
	s.mu.Unlock()
	s.queued.Add(-1)
}

// adopt installs a calibration result as the session's serving state.
// Caller holds mu. Slices are copied: the model's buffers may go back to
// the engine pool with the next calibration.
func (s *session) adopt(m *core.Model) {
	s.weights = append(s.weights[:0], m.Weights...)
	s.slacks = append(s.slacks[:0], m.MGBA.Slack...)
	s.wns, s.tns = m.MGBA.WNS, m.MGBA.TNS
	s.calibrated = true
	s.degraded = m.Degraded
	s.partial = m.Partial
	s.fault = m.Fault
	s.dirty.Store(true)
}

// calibrate runs a full calibration (the "load design" step) under ctx.
// Caller holds mu.
func (s *session) calibrate(ctx context.Context) error {
	m, err := s.cal.Calibrate(ctx)
	if err != nil {
		return err
	}
	s.adopt(m)
	return nil
}

// recalibrate re-fits after the given instances changed. Caller holds mu.
// A cancelled or deadline-exceeded context yields a valid degraded model
// (identity weights at worst — never optimistic), not an error; errors
// are reserved for broken internal state, after which the calibrator
// cache is dropped so the next call runs cold.
func (s *session) recalibrate(ctx context.Context, dirty []int) error {
	m, err := s.cal.Recalibrate(ctx, dirty)
	if err != nil {
		s.cal.Invalidate()
		return err
	}
	s.adopt(m)
	if m.Partial {
		obsDeadlineDegraded.Inc()
	}
	return nil
}

// ensureSlacks computes the per-endpoint slack vector when it is not
// resident (a freshly resumed session). The weights were fitted under the
// selection corner's config, so the slacks are timed under it too.
// Weighted GBA is deterministic given the design, config and weights, so
// the recomputed slacks are bit-identical to the ones the process served
// before it died. Caller holds mu.
func (s *session) ensureSlacks() {
	if s.slacks != nil {
		return
	}
	wcfg := s.cal.CornerConfigs()[0]
	wcfg.Weights = s.weights // nil means plain GBA, also correct
	r := s.eng.Run(wcfg)
	s.slacks = append([]float64(nil), r.Slack...)
	s.wns, s.tns = r.WNS, r.TNS
	r.Release()
}

// Op is one mutation in a transform batch. "resize" swaps the instance to
// the named cell variant; "upsize"/"downsize" step one rung along the
// cell library's drive ladder (a no-op at the ladder's end).
type Op struct {
	Op       string `json:"op"`
	Instance int    `json:"instance"`
	Cell     string `json:"cell,omitempty"`
}

// OpResult reports what one op did. Unapplied ops are not errors: a
// ladder step at the top of the ladder or a swap to the current cell is a
// no-op, reported as such.
type OpResult struct {
	Applied bool   `json:"applied"`
	Reason  string `json:"reason,omitempty"`
}

// applyOps applies a batch of ops to the design, returning per-op results
// and the deduplicated dirty instance set (each resized instance plus the
// drivers of its input nets, whose loads changed). Each applied resize
// joins the session's pending list for its next journal record. A hard
// error (unknown instance or cell, clock-network target) reverts every op
// already applied, leaving the design and the pending list bit-identical
// to their pre-batch state. Caller holds mu.
func (s *session) applyOps(ops []Op) ([]OpResult, []int, error) {
	results := make([]OpResult, len(ops))
	dirtySet := map[int]bool{}
	var applied []func()
	mark := len(s.pending)
	revert := func() {
		for i := len(applied) - 1; i >= 0; i-- {
			applied[i]()
		}
		s.pending = s.pending[:mark]
	}
	for i, op := range ops {
		if op.Instance < 0 || op.Instance >= len(s.d.Instances) {
			revert()
			return nil, nil, fmt.Errorf("op %d: instance %d out of range", i, op.Instance)
		}
		inst := s.d.Instances[op.Instance]
		if s.g.IsClock(op.Instance) {
			revert()
			return nil, nil, fmt.Errorf("op %d: instance %d is on the clock network", i, op.Instance)
		}
		from := inst.Cell
		var to = from
		switch op.Op {
		case "resize":
			to = s.d.Lib.ByName(op.Cell)
			if to == nil {
				revert()
				return nil, nil, fmt.Errorf("op %d: unknown cell %q", i, op.Cell)
			}
		case "upsize":
			to = s.d.Lib.Upsize(from)
		case "downsize":
			to = s.d.Lib.Downsize(from)
		default:
			revert()
			return nil, nil, fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
		if to == nil {
			results[i] = OpResult{Applied: false, Reason: "at the end of the drive ladder"}
			continue
		}
		if to == from {
			results[i] = OpResult{Applied: false, Reason: "already " + from.Name}
			continue
		}
		if err := s.d.Resize(inst, to); err != nil {
			if op.Op == "resize" {
				revert()
				return nil, nil, fmt.Errorf("op %d: %w", i, err)
			}
			results[i] = OpResult{Applied: false, Reason: err.Error()}
			continue
		}
		in, prev := inst, from
		applied = append(applied, func() { in.Cell = prev })
		s.pending = append(s.pending, netio.JournalResize{Instance: op.Instance, Cell: to.Name})
		results[i] = OpResult{Applied: true}
		for _, id := range transform.ModifiedSet(&transform.Analysis{D: s.d, G: s.g}, op.Instance) {
			dirtySet[id] = true
		}
	}
	dirty := make([]int, 0, len(dirtySet))
	for id := range dirtySet {
		dirty = append(dirty, id)
	}
	sort.Ints(dirty)
	if len(s.pending) > mark {
		s.dirty.Store(true)
	}
	return results, dirty, nil
}

// stateBlob encodes the session's serving state as covering sequence
// number seq. Caller holds mu.
func (s *session) stateBlob(seq uint64) (json.RawMessage, error) {
	return json.Marshal(&snapMeta{
		Seq:        seq,
		Source:     s.source,
		ViewPair:   s.cal.Pair(),
		Corners:    s.opt.Corners,
		Applied:    s.applied,
		Calibrated: s.calibrated,
		Degraded:   s.degraded,
		Partial:    s.partial,
		Fault:      s.fault,
	})
}

// snapshotCheckpoint builds the session's full persistent form, covering
// every journal record appended so far. Caller holds mu.
func (s *session) snapshotCheckpoint() (*netio.Checkpoint, error) {
	blob, err := s.stateBlob(s.seq)
	if err != nil {
		return nil, err
	}
	return &netio.Checkpoint{Design: s.d, Weights: s.weights, State: blob}, nil
}

// journalRecord builds the session's next journal record: the pending
// resizes and the state after them. Caller holds mu.
func (s *session) journalRecord() (*netio.JournalRecord, error) {
	blob, err := s.stateBlob(s.seq + 1)
	if err != nil {
		return nil, err
	}
	return &netio.JournalRecord{Seq: s.seq + 1, Resizes: s.pending, Weights: s.weights, State: blob}, nil
}
