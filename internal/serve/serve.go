// Package serve is the calibration-as-a-service layer: a long-running
// daemon (cmd/calibd) hosting many concurrent calibrator sessions behind
// an HTTP/JSON API — load a design, apply transform batches, recalibrate,
// fetch slacks, drop the session. The algorithms all live below
// (internal/core's incremental Calibrator, internal/engine's timing
// sessions); this package is the reliability envelope around them:
//
//   - Session lifecycle: a registry with max-sessions admission, LRU
//     capacity eviction and idle timeouts. Evicted sessions are
//     snapshotted first and transparently resurrected on next access, so
//     eviction is a memory policy, never data loss.
//   - Single-writer serialization: concurrent batches against one design
//     queue on the session's writer lock (bounded by MaxQueue) instead of
//     racing the calibrator, which is not concurrency-safe by contract.
//   - Deadlines: every request carries a context deadline that rides the
//     existing cancellation paths into the solver and engine. A deadline
//     that expires mid-calibration yields the degradation ladder's
//     never-optimistic result (identity weights at worst) with HTTP 200 —
//     a valid pessimistic answer, not a dropped connection.
//   - Backpressure: when the server-wide in-flight budget or a session's
//     queue is full, requests are rejected early with 429 and a jittered
//     Retry-After hint instead of piling up goroutines; the shared
//     internal/par pool's saturation is exported alongside
//     (serve.par_active, par.pool.queue_full) so the decision is
//     observable, not inferred.
//   - Crash safety: a session's durable form is a checkpoint (format v2)
//     plus an append-only journal beside it. Each accepted batch, or each
//     write-behind sweep, appends one checksummed record (the resizes
//     since the last record, the fitted weights and the serving state),
//     fsynced before the answer. A full checkpoint is written on the
//     first persist, on eviction and on graceful shutdown (SIGTERM drains
//     in-flight requests, then checkpoints), and whenever the journal has
//     grown to the checkpoint's size, which then truncates the journal. A
//     restarted daemon loads the checkpoint, replays the journal and
//     resumes every persisted session bit-identically — mGBA slacks are a
//     pure function of (design state, fitted weights), and a resumed
//     calibrator warm-started from the persisted weights re-fits
//     bit-identically to the incremental path (the calibrator exactness
//     contract). A torn last record was never answered and is dropped; a
//     corrupt checkpoint or journal quarantines its session, and startup
//     never fails on one bad file.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mgba/internal/core"
	"mgba/internal/faultinject"
	"mgba/internal/netio"
	"mgba/internal/obs"
	"mgba/internal/par"
	"mgba/internal/sta"
)

// Config parameterizes the daemon. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// SnapshotDir is where sessions persist: a checkpoint-v2 snapshot
	// (<dir>/<id>.ckpt) and the journal of records appended since it
	// (<dir>/<id>.journal). Empty disables persistence: sessions are
	// memory-only and eviction loses them.
	SnapshotDir string
	// MaxSessions bounds resident sessions; beyond it the least recently
	// used session is snapshotted and evicted.
	MaxSessions int
	// IdleTimeout evicts sessions untouched for this long (snapshot
	// first). Zero disables idle eviction.
	IdleTimeout time.Duration
	// MaxInFlight bounds concurrently admitted heavy requests server-wide;
	// excess requests get 429 + Retry-After immediately.
	MaxInFlight int
	// MaxQueue bounds the per-session writer queue (active holder
	// included); excess batches on one session get 429 + Retry-After.
	MaxQueue int
	// DefaultDeadline applies when a request carries no X-Deadline-Ms
	// header. Zero means no deadline.
	DefaultDeadline time.Duration
	// RetryAfter is the base backoff hint attached to 429/503 responses;
	// the advertised value is jittered over [base/2, 3*base/2).
	RetryAfter time.Duration
	// SnapshotEvery is the write-behind cadence: the maintenance loop
	// appends one journal record per dirty session at most this often.
	// Zero appends a record synchronously after every accepted batch,
	// before the answer (safest, slowest).
	SnapshotEvery time.Duration
	// STA is the base analysis configuration (Weights must be nil; the
	// serving layer manages weights per session).
	STA sta.Config
	// Core is the calibration option set for every session.
	Core core.Options
	// Parallelism is the worker knob handed to STA/solver kernels.
	Parallelism int
}

// DefaultConfig returns serving defaults tuned for many small sessions:
// the calibration profile matches the closure loop's (faster solver
// schedule, same exactness), and every batch is journaled before its
// answer.
func DefaultConfig() Config {
	coreOpt := core.DefaultOptions()
	coreOpt.Solver.MinRows = 512
	coreOpt.Solver.MaxIters = 1500
	return Config{
		MaxSessions:     16,
		MaxInFlight:     8,
		MaxQueue:        4,
		DefaultDeadline: 30 * time.Second,
		RetryAfter:      250 * time.Millisecond,
		IdleTimeout:     15 * time.Minute,
		STA:             sta.DefaultConfig(),
		Core:            coreOpt,
	}
}

// idPattern keeps session IDs filesystem- and URL-safe: snapshots are
// stored under the ID, so traversal characters are rejected outright.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Server hosts the session registry and implements http.Handler. Use New
// to construct (it recovers persisted sessions), Shutdown to drain and
// persist on the way out.
type Server struct {
	cfg Config
	mux *http.ServeMux

	inflight chan struct{}
	reqWG    sync.WaitGroup
	reqSeq   atomic.Int64 // jitter source for Retry-After hints

	mu       sync.Mutex
	sessions map[string]*session
	// evicting holds, by ID, the sessions taken out of sessions whose
	// eviction checkpoint is still being written. A resurrect of the same
	// ID waits for it: reading the checkpoint and the journal while a
	// compaction replaces the one and truncates the other could pair an
	// old checkpoint with an emptied journal, or append past its end.
	evicting map[string]*session
	draining bool
	// cornerGauges remembers every corner name a resident session ever
	// published a gauge under, so a deleted session's gauge drops to zero
	// instead of freezing at its last value (corner names are user-chosen,
	// unlike the fixed view-pair registry). Guarded by mu.
	cornerGauges map[string]bool

	maintainStop chan struct{}
	maintainDone chan struct{}

	ln      net.Listener
	httpSrv *http.Server
}

// New builds a server, creating the snapshot directory if needed and
// resuming every persisted session found there. A session whose
// checkpoint or journal is corrupt is quarantined (both files renamed to
// *.quarantine) and skipped — one bad blob never blocks startup. The
// maintenance loop (idle eviction, write-behind flushing) starts
// immediately.
func New(cfg Config) (*Server, error) {
	base := DefaultConfig()
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = base.MaxSessions
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = base.MaxInFlight
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = base.MaxQueue
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = base.RetryAfter
	}
	if cfg.STA.Weights != nil {
		return nil, fmt.Errorf("serve: config STA weights must be nil")
	}
	if cfg.Core.K == 0 {
		cfg.Core = base.Core
	}
	if cfg.STA.Parallelism == 0 && cfg.Parallelism != 0 {
		cfg.STA.Parallelism = cfg.Parallelism
	}
	sv := &Server{
		cfg:          cfg,
		inflight:     make(chan struct{}, cfg.MaxInFlight),
		sessions:     make(map[string]*session),
		evicting:     make(map[string]*session),
		maintainStop: make(chan struct{}),
		maintainDone: make(chan struct{}),
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		sv.recoverSessions()
	}
	sv.routes()
	go sv.maintain()
	return sv, nil
}

// recoverSessions loads every *.ckpt under SnapshotDir and replays its
// journal. Unreadable or unresumable sessions are quarantined in place;
// everything else comes back resident with its serving counters restored.
func (sv *Server) recoverSessions() {
	entries, err := os.ReadDir(sv.cfg.SnapshotDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		id := strings.TrimSuffix(name, ".ckpt")
		s, err := sv.loadSnapshot(id)
		if err != nil {
			sv.quarantine(id, err)
			continue
		}
		sv.sessions[id] = s
		obsResumed.Inc()
		obs.Event("session_resumed", "id", id)
	}
	obsSessions.SetInt(len(sv.sessions))
	sv.pairGaugesLocked()
}

// errJournal marks a journal that cannot be read or replayed.
var errJournal = errors.New("journal")

// loadSnapshot reads one persisted session's checkpoint, replays the
// journal records after it and rebuilds the session, its journal open
// for the next append. A torn last record is dropped and counted; the
// append cuts it off.
func (sv *Server) loadSnapshot(id string) (*session, error) {
	if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("serve: snapshot id %q invalid", id)
	}
	path := sv.snapshotPath(id)
	c, err := netio.LoadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var meta snapMeta
	if len(c.State) > 0 {
		if err := json.Unmarshal(c.State, &meta); err != nil {
			return nil, fmt.Errorf("serve: session %s: snapshot state: %w", id, err)
		}
	}
	jpath := sv.journalPath(id)
	data, err := os.ReadFile(jpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %w", errJournal, err)
	}
	var scan *netio.JournalScan
	if err == nil {
		if scan, err = netio.ParseJournal(data); err != nil {
			return nil, fmt.Errorf("%w: %w", errJournal, err)
		}
		if _, err := netio.ReplayJournal(c, meta.Seq, scan.Records); err != nil {
			return nil, fmt.Errorf("%w: %w", errJournal, err)
		}
	}
	s, err := resumeSession(id, c, sv.cfg.STA, sv.cfg.Core)
	if err != nil {
		return nil, err
	}
	s.ckptBytes = st.Size()
	if scan == nil {
		return s, nil
	}
	if s.jr, err = netio.OpenJournal(jpath, scan.Intact); err != nil {
		return nil, fmt.Errorf("%w: %w", errJournal, err)
	}
	if scan.Dropped > 0 {
		obsJournalTail.Inc()
		obs.Event("journal_tail_dropped", "id", id, "bytes", scan.Dropped)
	}
	return s, nil
}

// quarantine sets aside a session that failed to load: its checkpoint and
// journal are renamed *.quarantine, kept for forensics, never loaded.
func (sv *Server) quarantine(id string, err error) {
	obsQuarantined.Inc()
	if errors.Is(err, errJournal) {
		obs.Event("journal_corrupt", "id", id, "err", err.Error())
	}
	obs.Event("session_quarantined", "id", id, "err", err.Error())
	for _, path := range []string{sv.snapshotPath(id), sv.journalPath(id)} {
		_ = os.Rename(path, path+".quarantine")
	}
}

// snapshotPath maps a session ID to its on-disk snapshot.
func (sv *Server) snapshotPath(id string) string {
	return filepath.Join(sv.cfg.SnapshotDir, id+".ckpt")
}

// journalPath maps a session ID to the journal beside its snapshot.
func (sv *Server) journalPath(id string) string {
	return filepath.Join(sv.cfg.SnapshotDir, id+".journal")
}

// persistLocked makes s's state durable (caller holds s.mu): its first
// persist writes a full checkpoint, every later one appends a journal
// record. Once the journal holds as many bytes as the checkpoint, the
// same call compacts it into a fresh checkpoint; should that fail, the
// appended record still carries the batch and the next persist retries.
func (sv *Server) persistLocked(s *session) error {
	if sv.cfg.SnapshotDir == "" {
		return nil
	}
	if s.ckptBytes == 0 {
		return sv.snapshotLocked(s)
	}
	if err := sv.appendLocked(s); err != nil {
		return err
	}
	if s.jr.Size() >= s.ckptBytes {
		_ = sv.snapshotLocked(s)
	}
	return nil
}

// appendLocked appends s's pending resizes and current state to its
// journal as one record, fsynced. On injected or real failure the session
// stays dirty and keeps its pending resizes for the next attempt. Caller
// holds s.mu.
func (sv *Server) appendLocked(s *session) error {
	err := faultinject.Err(faultinject.ServeJournal)
	if err == nil && s.jr == nil {
		err = sv.createJournalLocked(s)
	}
	var r *netio.JournalRecord
	if err == nil {
		r, err = s.journalRecord()
	}
	n := 0
	if err == nil {
		n, err = s.jr.Append(r)
	}
	if err != nil {
		obsSnapshotErr.Inc()
		obs.Event("snapshot_failed", "id", s.id, "err", err.Error())
		return err
	}
	s.seq = r.Seq
	s.pending = s.pending[:0]
	s.dirty.Store(false)
	s.lastSnap.Store(time.Now().UnixNano())
	obsJournalAppends.Inc()
	obsPersistBytes.Add(int64(n))
	return nil
}

// createJournalLocked starts s's journal empty, replacing any file a
// deleted session of the same ID left behind. Caller holds s.mu.
func (sv *Server) createJournalLocked(s *session) error {
	jr, err := netio.CreateJournal(sv.journalPath(s.id))
	if err != nil {
		return err
	}
	s.jr = jr
	obsPersistBytes.Add(int64(netio.JournalHeaderLen))
	return nil
}

// snapshotLocked writes s's full checkpoint (caller holds s.mu) and then
// truncates its journal, whose records the checkpoint now covers. A crash
// in between leaves stale records, which resume skips by sequence number.
// The first checkpoint of a session starts its journal first, so no
// record of an earlier session of the same ID can follow it. On injected
// or real write failure the previous checkpoint is never clobbered
// (atomic rename) and the session stays dirty for retry.
func (sv *Server) snapshotLocked(s *session) error {
	if sv.cfg.SnapshotDir == "" {
		return nil
	}
	err := faultinject.Err(faultinject.ServeSnapshot)
	if err == nil && s.ckptBytes == 0 && s.jr == nil {
		err = sv.createJournalLocked(s)
	}
	var c *netio.Checkpoint
	if err == nil {
		c, err = s.snapshotCheckpoint()
	}
	path := sv.snapshotPath(s.id)
	if err == nil {
		err = netio.SaveCheckpointFile(path, c)
	}
	var st os.FileInfo
	if err == nil {
		st, err = os.Stat(path)
	}
	if err != nil {
		obsSnapshotErr.Inc()
		obs.Event("snapshot_failed", "id", s.id, "err", err.Error())
		return err
	}
	s.ckptBytes = st.Size()
	s.pending = s.pending[:0]
	s.dirty.Store(false)
	s.lastSnap.Store(time.Now().UnixNano())
	obsSnapshotOK.Inc()
	obsPersistBytes.Add(s.ckptBytes)
	if s.jr != nil && s.jr.Size() > int64(netio.JournalHeaderLen) {
		if err := s.jr.Truncate(); err != nil {
			obs.Event("journal_truncate_failed", "id", s.id, "err", err.Error())
		} else {
			obsJournalCompactions.Inc()
		}
	}
	return nil
}

// needsCheckpoint reports whether s's checkpoint misses anything: changes
// not yet persisted, journal records, or no checkpoint at all. Caller
// holds s.mu.
func (sv *Server) needsCheckpoint(s *session) bool {
	return sv.cfg.SnapshotDir != "" &&
		(s.dirty.Load() || s.ckptBytes == 0 || (s.jr != nil && s.jr.Size() > int64(netio.JournalHeaderLen)))
}

// closeJournalLocked closes s's journal file; later appends fail instead
// of starting a new journal. Caller holds s.mu.
func (s *session) closeJournalLocked() {
	if s.jr != nil {
		_ = s.jr.Close() // every append was fsynced; a failed close loses nothing
	}
}

// getSession returns the resident session for id, resurrecting it from
// its snapshot when it was evicted. The returned session may be deleted
// concurrently; acquire reports that and callers retry.
func (sv *Server) getSession(id string) *session {
	sv.mu.Lock()
	s, ev := sv.sessions[id], sv.evicting[id]
	sv.mu.Unlock()
	if s != nil {
		s.touch(time.Now())
		return s
	}
	if sv.cfg.SnapshotDir == "" {
		return nil
	}
	if ev != nil {
		<-ev.evicted
	}
	if _, err := os.Stat(sv.snapshotPath(id)); err != nil {
		return nil
	}
	loaded, err := sv.loadSnapshot(id)
	if err != nil {
		sv.quarantine(id, err)
		return nil
	}
	obsResurrected.Inc()
	return sv.insert(loaded)
}

// insert adds s to the registry (keeping a racing earlier insert, and
// closing the journal s opened) and evicts LRU sessions beyond
// MaxSessions.
func (sv *Server) insert(s *session) *session {
	sv.mu.Lock()
	if cur, ok := sv.sessions[s.id]; ok {
		sv.mu.Unlock()
		s.closeJournalLocked()
		cur.touch(time.Now())
		return cur
	}
	sv.sessions[s.id] = s
	var victims []*session
	for len(sv.sessions) > sv.cfg.MaxSessions {
		v := sv.lruLocked(s)
		if v == nil {
			break
		}
		sv.takeForEvictionLocked(v)
		victims = append(victims, v)
	}
	obsSessions.SetInt(len(sv.sessions))
	sv.pairGaugesLocked()
	sv.mu.Unlock()
	for _, v := range victims {
		sv.evict(v, "lru")
	}
	return s
}

// pairGaugesLocked refreshes the per-pair resident-session gauges
// (serve.sessions.pair.<name>), surfaced on /debug/summary next to the
// total, so an operator can see which view pairs the fleet is running
// without walking the sessions list. Caller holds sv.mu.
func (sv *Server) pairGaugesLocked() {
	counts := make(map[string]int, 2)
	for _, s := range sv.sessions {
		counts[s.cal.Pair()]++
	}
	for _, name := range core.ViewPairNames() {
		obs.NewGauge("serve.sessions.pair." + name).SetInt(counts[name])
	}
	sv.cornerGaugesLocked()
}

// cornerGaugesLocked refreshes the per-corner resident-session gauges
// (serve.sessions.corner.<name>) for multi-corner sessions. Caller holds
// sv.mu.
func (sv *Server) cornerGaugesLocked() {
	counts := make(map[string]int)
	for _, s := range sv.sessions {
		for _, name := range core.CornerNames(s.opt.Corners) {
			counts[name]++
		}
	}
	if sv.cornerGauges == nil {
		sv.cornerGauges = make(map[string]bool)
	}
	for name := range counts {
		sv.cornerGauges[name] = true
	}
	for name := range sv.cornerGauges {
		obs.NewGauge("serve.sessions.corner." + name).SetInt(counts[name])
	}
}

// lruLocked picks the least recently used session other than keep.
func (sv *Server) lruLocked(keep *session) *session {
	var victim *session
	for _, s := range sv.sessions {
		if s == keep {
			continue
		}
		if victim == nil || s.lastUsed.Load() < victim.lastUsed.Load() {
			victim = s
		}
	}
	return victim
}

// takeForEvictionLocked moves s from the registry to the evicting set.
// Caller holds sv.mu.
func (sv *Server) takeForEvictionLocked(s *session) {
	delete(sv.sessions, s.id)
	s.evicted = make(chan struct{})
	sv.evicting[s.id] = s
}

// evict checkpoints and tombstones a session taken out of the registry by
// takeForEvictionLocked. Waiters queued on its lock see the tombstone and
// tell their clients to retry; the retry resurrects the session from its
// checkpoint and journal once they are written.
func (sv *Server) evict(s *session, why string) {
	if why == "lru" {
		obsEvictLRU.Inc()
	} else {
		obsEvictIdle.Inc()
	}
	obs.Event("session_evicted", "id", s.id, "why", why)
	s.mu.Lock()
	s.deleted = true
	if err := faultinject.Err(faultinject.ServeEvict); err != nil {
		obsSnapshotErr.Inc()
		obs.Event("snapshot_failed", "id", s.id, "err", err.Error())
	} else if sv.needsCheckpoint(s) {
		_ = sv.snapshotLocked(s)
	}
	s.closeJournalLocked()
	s.mu.Unlock()
	sv.mu.Lock()
	if sv.evicting[s.id] == s {
		delete(sv.evicting, s.id)
	}
	sv.mu.Unlock()
	close(s.evicted)
}

// Sweep runs one maintenance pass at the given time: idle sessions are
// evicted and overdue dirty sessions flushed. The background loop calls
// it periodically; tests call it directly for determinism. Busy sessions
// (writer lock held) are skipped, not waited on — they flush on their
// next pass.
func (sv *Server) Sweep(now time.Time) {
	var idle []*session
	sv.mu.Lock()
	if sv.cfg.IdleTimeout > 0 {
		for _, s := range sv.sessions {
			if now.Sub(time.Unix(0, s.lastUsed.Load())) > sv.cfg.IdleTimeout && s.queued.Load() == 0 {
				sv.takeForEvictionLocked(s)
				idle = append(idle, s)
			}
		}
	}
	var flush []*session
	for _, s := range sv.sessions {
		if s.dirty.Load() && now.Sub(time.Unix(0, s.lastSnap.Load())) >= sv.cfg.SnapshotEvery {
			flush = append(flush, s)
		}
	}
	obsSessions.SetInt(len(sv.sessions))
	sv.pairGaugesLocked()
	sv.mu.Unlock()
	for _, s := range idle {
		sv.evict(s, "idle")
	}
	for _, s := range flush {
		if s.mu.TryLock() {
			if !s.deleted {
				_ = sv.persistLocked(s)
			}
			s.mu.Unlock()
		}
	}
	obsParBusy.SetInt(par.Active())
}

// maintain is the background janitor: a sweep every interval until
// Shutdown stops it.
func (sv *Server) maintain() {
	defer close(sv.maintainDone)
	interval := 500 * time.Millisecond
	if sv.cfg.SnapshotEvery > 0 && sv.cfg.SnapshotEvery < interval {
		interval = sv.cfg.SnapshotEvery
	}
	if sv.cfg.IdleTimeout > 0 && sv.cfg.IdleTimeout/4 < interval {
		interval = sv.cfg.IdleTimeout / 4
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sv.maintainStop:
			return
		case now := <-t.C:
			sv.Sweep(now)
		}
	}
}

// Listen starts serving on addr (host:port; port 0 picks a free one —
// read it back via Addr).
func (sv *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	sv.ln = ln
	sv.httpSrv = &http.Server{Handler: sv}
	go func() {
		if err := sv.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			obs.Event("http_serve_error", "err", err.Error())
		}
	}()
	return nil
}

// Addr returns the bound listen address, or "" before Listen.
func (sv *Server) Addr() string {
	if sv.ln == nil {
		return ""
	}
	return sv.ln.Addr().String()
}

// Shutdown drains and persists: new requests are rejected with 503 +
// Retry-After, in-flight requests run to completion (bounded by ctx),
// then every session whose checkpoint misses anything is checkpointed,
// which truncates its journal, and every journal is closed. This is the
// SIGTERM path; a process killed without it still resumes from its
// checkpoint and journal, as of its last append.
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.mu.Lock()
	if sv.draining {
		sv.mu.Unlock()
		return nil
	}
	sv.draining = true
	sv.mu.Unlock()

	close(sv.maintainStop)
	<-sv.maintainDone

	if sv.httpSrv != nil {
		_ = sv.httpSrv.Shutdown(ctx)
	}
	// Drain handlers that were admitted before draining flipped (covers
	// handler-only deployments, e.g. behind httptest).
	drained := make(chan struct{})
	go func() {
		sv.reqWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
	}

	sv.mu.Lock()
	all := make([]*session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		all = append(all, s)
	}
	sv.mu.Unlock()
	var firstErr error
	for _, s := range all {
		s.mu.Lock()
		if sv.needsCheckpoint(s) {
			if err := sv.snapshotLocked(s); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.closeJournalLocked()
		s.mu.Unlock()
	}
	return firstErr
}

// retryAfterHint returns a jittered backoff hint. The jitter is a
// deterministic low-discrepancy sequence (no RNG, no time dependence):
// consecutive rejected clients get hints spread over [base/2, 3*base/2),
// so a rejected thundering herd does not come back as one.
func (sv *Server) retryAfterHint() time.Duration {
	base := sv.cfg.RetryAfter
	if base <= 0 {
		// New coerces the config, but a directly-constructed Server can
		// carry a zero base; a fixed hint beats a modulo-by-zero panic.
		return time.Second
	}
	seq := sv.reqSeq.Add(1)
	// Mix in uint64: the int64 product overflows once seq passes ~3.49e9,
	// and a negative remainder would advertise hints below base/2 (or a
	// negative Retry-After, which reads as "retry now").
	jitter := (uint64(seq) * 2654435761) % uint64(base)
	return base/2 + time.Duration(jitter)
}
