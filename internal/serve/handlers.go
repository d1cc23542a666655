package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"mgba/internal/core"
	"mgba/internal/faultinject"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/netio"
	"mgba/internal/netlist"
	"mgba/internal/obs"
)

// API types. Every response body is JSON; errors use errorBody with the
// HTTP status carrying the class (404 unknown, 409 conflict, 429/503
// retryable with Retry-After, 422 bad batch, 400 bad request).

type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

type createRequest struct {
	// ID names the session; it doubles as the snapshot filename stem, so
	// it is restricted to [A-Za-z0-9._-].
	ID string `json:"id"`
	// Design names a built-in design source: "toy", "retimetoy",
	// "bufcase", or a suite member "D1".."D10".
	Design string `json:"design,omitempty"`
	// DesignJSON carries an inline design in the netio interchange format
	// instead. Exactly one of Design/DesignJSON must be set.
	DesignJSON json.RawMessage `json:"design_json,omitempty"`
	// ViewPair names the (cheap, golden) view pair the session calibrates
	// under; empty selects the server's configured default. Unknown names
	// are rejected with 400 listing the registered pairs.
	ViewPair string `json:"view_pair,omitempty"`
	// Corners selects a multi-corner calibration: the session enumerates
	// once on Corners[0] and fits every corner per batch. Empty keeps the
	// server's configured (usually single-corner) set. Invalid sets are
	// rejected with 400.
	Corners []core.CornerSpec `json:"corners,omitempty"`
}

// sessionStatus is the session's externally visible state, returned by
// create, status, batch and recalibrate.
type sessionStatus struct {
	ID         string   `json:"id"`
	Source     string   `json:"source"`
	ViewPair   string   `json:"view_pair"`
	Corners    []string `json:"corners,omitempty"` // multi-corner sessions only
	Instances  int      `json:"instances"`
	Endpoints  int      `json:"endpoints"`
	Calibrated bool     `json:"calibrated"`
	Applied    int      `json:"applied_batches"`
	WNS        float64  `json:"wns_ps"`
	TNS        float64  `json:"tns_ps"`
	Degraded   bool     `json:"degraded,omitempty"`
	Partial    bool     `json:"partial,omitempty"`
	Fault      string   `json:"fault,omitempty"`
	Resumed    bool     `json:"resumed,omitempty"`
}

type batchRequest struct {
	Ops []Op `json:"ops"`
}

type batchResponse struct {
	Results []OpResult    `json:"results"`
	Dirty   int           `json:"dirty_instances"`
	Status  sessionStatus `json:"status"`
}

type slacksResponse struct {
	ID      string    `json:"id"`
	WNS     float64   `json:"wns_ps"`
	TNS     float64   `json:"tns_ps"`
	Slacks  []float64 `json:"slacks_ps"`
	Weights []float64 `json:"weights,omitempty"`
}

// routes wires the versioned API. Go 1.22 pattern routing gives us
// method + path-value dispatch without a router dependency.
func (sv *Server) routes() {
	sv.mux = http.NewServeMux()
	sv.mux.HandleFunc("GET /healthz", sv.handleHealth)
	sv.mux.HandleFunc("GET /v1/sessions", sv.handleList)
	sv.mux.HandleFunc("POST /v1/sessions", sv.admitted(sv.handleCreate))
	sv.mux.HandleFunc("GET /v1/sessions/{id}", sv.handleStatus)
	sv.mux.HandleFunc("DELETE /v1/sessions/{id}", sv.admitted(sv.handleDelete))
	sv.mux.HandleFunc("GET /v1/sessions/{id}/slacks", sv.admitted(sv.handleSlacks))
	sv.mux.HandleFunc("POST /v1/sessions/{id}/batch", sv.admitted(sv.handleBatch))
	sv.mux.HandleFunc("POST /v1/sessions/{id}/recalibrate", sv.admitted(sv.handleRecalibrate))
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	sv.mux.ServeHTTP(w, r)
}

// admitted wraps heavy handlers with the admission protocol:
//
//  1. a draining server refuses with 503 + Retry-After (another replica,
//     or the restarted process, will take the retry);
//  2. the ServeAdmit fault hook can refuse for tests and drills;
//  3. the server-wide in-flight budget is acquired without blocking —
//     when it is exhausted the request is refused *now* with 429 +
//     Retry-After instead of joining an invisible queue.
//
// The request context gets the deadline from X-Deadline-Ms (or the
// configured default) before the handler runs, so cancellation rides the
// standard context path into the solver.
func (sv *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sv.mu.Lock()
		draining := sv.draining
		sv.mu.Unlock()
		if draining {
			obsRejectDraining.Inc()
			sv.writeRetryable(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		if err := faultinject.Err(faultinject.ServeAdmit); err != nil {
			obsRejectAdmitFault.Inc()
			sv.writeRetryable(w, http.StatusServiceUnavailable, "admission refused: "+err.Error())
			return
		}
		select {
		case sv.inflight <- struct{}{}:
		default:
			obsRejectSaturated.Inc()
			sv.writeRetryable(w, http.StatusTooManyRequests, "server saturated")
			return
		}
		sv.reqWG.Add(1)
		obsInFlight.SetInt(len(sv.inflight))
		defer func() {
			<-sv.inflight
			obsInFlight.SetInt(len(sv.inflight))
			sv.reqWG.Done()
		}()

		ctx := r.Context()
		deadline := sv.cfg.DefaultDeadline
		if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
			v, err := strconv.ParseInt(ms, 10, 64)
			if err != nil || v <= 0 {
				writeError(w, http.StatusBadRequest, "invalid X-Deadline-Ms %q", ms)
				return
			}
			deadline = time.Duration(v) * time.Millisecond
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		h(w, r.WithContext(ctx))
	}
}

// lockSession resolves id and joins its writer queue, handling every
// refusal uniformly: 404 when the session does not exist anywhere, 429
// when its queue is full, and retry-resurrect when it is evicted between
// lookup and lock. Returns nil after writing the response itself.
func (sv *Server) lockSession(w http.ResponseWriter, id string) *session {
	for attempt := 0; attempt < 3; attempt++ {
		s := sv.getSession(id)
		if s == nil {
			writeError(w, http.StatusNotFound, "no session %q", id)
			return nil
		}
		ok, gone := s.acquire(sv.cfg.MaxQueue)
		if ok {
			return s
		}
		if !gone {
			obsRejectQueue.Inc()
			sv.writeRetryable(w, http.StatusTooManyRequests, "session %s queue full", id)
			return nil
		}
		// Evicted while we waited; the next getSession resurrects it from
		// its snapshot.
	}
	sv.writeRetryable(w, http.StatusServiceUnavailable, "session %s is being evicted", id)
	return nil
}

func (sv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	status := "ok"
	if sv.draining {
		status = "draining"
	}
	n := len(sv.sessions)
	sv.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "sessions": n})
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	ids := make([]string, 0, len(sv.sessions))
	pairs := make(map[string]string, len(sv.sessions))
	for id, s := range sv.sessions {
		ids = append(ids, id)
		pairs[id] = s.cal.Pair()
	}
	sv.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]any{"sessions": ids, "view_pairs": pairs})
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !idPattern.MatchString(req.ID) {
		writeError(w, http.StatusBadRequest, "session id must match %s", idPattern.String())
		return
	}
	if (req.Design == "") == (len(req.DesignJSON) == 0) {
		writeError(w, http.StatusBadRequest, "exactly one of design/design_json required")
		return
	}
	// Reject unknown pairs before any heavy work; the lookup error lists
	// every registered pair name.
	if _, err := core.LookupViewPair(req.ViewPair); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := core.ValidateCorners(req.Corners); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sv.idTaken(req.ID) {
		writeError(w, http.StatusConflict, "session %q already exists", req.ID)
		return
	}

	d, source, err := buildDesign(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opt := sv.cfg.Core
	if req.ViewPair != "" {
		opt.ViewPair = req.ViewPair
	}
	if len(req.Corners) > 0 {
		opt.Corners = req.Corners
	}
	s, err := newSession(req.ID, source, d, sv.cfg.STA, opt)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s = sv.insert(s)
	ok, gone := s.acquire(sv.cfg.MaxQueue)
	if !ok {
		if gone {
			sv.writeRetryable(w, http.StatusServiceUnavailable, "session %s evicted during create", req.ID)
		} else {
			obsRejectQueue.Inc()
			sv.writeRetryable(w, http.StatusTooManyRequests, "session %s queue full", req.ID)
		}
		return
	}
	defer s.release()
	if !s.calibrated {
		t0 := obs.Clock()
		if err := s.calibrate(r.Context()); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "calibrate: %v", err)
			return
		}
		obsRecalNS.ObserveSince(t0)
		sv.flushAfterBatch(s)
	}
	writeJSON(w, http.StatusCreated, sv.statusLocked(s))
}

// idTaken reports whether id names a session, resident or not: one in
// the registry, one being evicted, or one whose checkpoint sits in the
// snapshot directory (evicted, and resurrected by its next request). A
// new session under such an ID would overwrite the old one's checkpoint
// and journal on its first persist. An ID whose files were all
// quarantined is free.
func (sv *Server) idTaken(id string) bool {
	sv.mu.Lock()
	_, resident := sv.sessions[id]
	_, evicting := sv.evicting[id]
	sv.mu.Unlock()
	if resident || evicting {
		return true
	}
	if sv.cfg.SnapshotDir == "" {
		return false
	}
	_, err := os.Stat(sv.snapshotPath(id))
	return err == nil
}

func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s := sv.getSession(id)
	if s == nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	ok, gone := s.acquire(sv.cfg.MaxQueue)
	if !ok {
		if gone {
			sv.writeRetryable(w, http.StatusServiceUnavailable, "session %s is being evicted", id)
		} else {
			obsRejectQueue.Inc()
			sv.writeRetryable(w, http.StatusTooManyRequests, "session %s queue full", id)
		}
		return
	}
	defer s.release()
	writeJSON(w, http.StatusOK, sv.statusLocked(s))
}

// handleDelete drops a session and its files. It joins the session's
// writer queue and tombstones the session before removing them: a batch
// in flight finishes and persists first, and nothing persists after.
func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sv.mu.Lock()
	s := sv.sessions[id]
	delete(sv.sessions, id)
	obsSessions.SetInt(len(sv.sessions))
	sv.pairGaugesLocked()
	sv.mu.Unlock()
	if s != nil {
		s.queued.Add(1)
		s.mu.Lock()
		s.deleted = true
		s.closeJournalLocked()
		s.release()
	}
	hadSnapshot := false
	if sv.cfg.SnapshotDir != "" {
		if err := os.Remove(sv.snapshotPath(id)); err == nil {
			hadSnapshot = true
		}
		_ = os.Remove(sv.journalPath(id))
	}
	if s == nil && !hadSnapshot {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (sv *Server) handleSlacks(w http.ResponseWriter, r *http.Request) {
	s := sv.lockSession(w, r.PathValue("id"))
	if s == nil {
		return
	}
	defer s.release()
	s.ensureSlacks()
	resp := slacksResponse{
		ID:      s.id,
		WNS:     s.wns,
		TNS:     s.tns,
		Slacks:  append([]float64(nil), s.slacks...),
		Weights: append([]float64(nil), s.weights...),
	}
	writeJSON(w, http.StatusOK, resp)
}

func (sv *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s := sv.lockSession(w, r.PathValue("id"))
	if s == nil {
		return
	}
	defer s.release()
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	results, dirty, err := s.applyOps(req.Ops)
	if err != nil {
		// applyOps reverted everything; the session is bit-identical to
		// its pre-batch state and stays serviceable.
		writeError(w, http.StatusUnprocessableEntity, "batch rejected: %v", err)
		return
	}
	obsBatches.Inc()
	for _, res := range results {
		if res.Applied {
			obsOpsApplied.Inc()
		}
	}
	if len(dirty) > 0 {
		t0 := obs.Clock()
		if err := s.recalibrate(r.Context(), dirty); err != nil {
			writeError(w, http.StatusInternalServerError, "recalibrate: %v", err)
			return
		}
		obsRecalNS.ObserveSince(t0)
		s.applied++
		s.dirty.Store(true)
		sv.flushAfterBatch(s)
	}
	writeJSON(w, http.StatusOK, batchResponse{
		Results: results,
		Dirty:   len(dirty),
		Status:  sv.statusLocked(s),
	})
}

func (sv *Server) handleRecalibrate(w http.ResponseWriter, r *http.Request) {
	s := sv.lockSession(w, r.PathValue("id"))
	if s == nil {
		return
	}
	defer s.release()
	// A forced full calibration: drop the incremental cache so the fit
	// runs cold (still warm-started from the current weights).
	s.cal.Invalidate()
	if s.weights != nil {
		s.cal.SetWarmWeights(s.weights)
	}
	t0 := obs.Clock()
	if err := s.calibrate(r.Context()); err != nil {
		writeError(w, http.StatusInternalServerError, "calibrate: %v", err)
		return
	}
	obsRecalNS.ObserveSince(t0)
	sv.flushAfterBatch(s)
	writeJSON(w, http.StatusOK, sv.statusLocked(s))
}

// flushAfterBatch persists synchronously, one journal record before the
// answer, when no write-behind cadence is configured; otherwise the
// maintenance loop picks the dirty flag up on its next sweep. Failures
// leave the session dirty for retry.
func (sv *Server) flushAfterBatch(s *session) {
	if sv.cfg.SnapshotEvery <= 0 {
		_ = sv.persistLocked(s)
	}
}

// statusLocked renders the session's externally visible state, reading
// the timing through ensureSlacks so a resumed session reports what it
// served before the restart. Caller holds s.mu.
func (sv *Server) statusLocked(s *session) sessionStatus {
	s.ensureSlacks()
	return sessionStatus{
		ID:         s.id,
		Source:     s.source,
		ViewPair:   s.cal.Pair(),
		Corners:    core.CornerNames(s.opt.Corners),
		Instances:  len(s.d.Instances),
		Endpoints:  len(s.slacks),
		Calibrated: s.calibrated,
		Applied:    s.applied,
		WNS:        s.wns,
		TNS:        s.tns,
		Degraded:   s.degraded,
		Partial:    s.partial,
		Fault:      s.fault,
	}
}

// buildDesign resolves a create request's design source.
func buildDesign(req *createRequest) (*netlist.Design, string, error) {
	if len(req.DesignJSON) > 0 {
		d, err := netio.Load(bytes.NewReader(req.DesignJSON))
		if err != nil {
			return nil, "", fmt.Errorf("inline design: %w", err)
		}
		return d, "inline", nil
	}
	switch req.Design {
	case "toy":
		d, err := gen.Generate(gen.Toy())
		return d, req.Design, err
	case "retimetoy":
		d, err := fixtures.RetimePipeline(4)
		return d, req.Design, err
	case "bufcase":
		d, err := fixtures.BufferCase()
		return d, req.Design, err
	default:
		for _, cfg := range gen.Suite() {
			if cfg.Name == req.Design {
				d, err := gen.Generate(cfg)
				return d, req.Design, err
			}
		}
		return nil, "", fmt.Errorf("unknown design %q (want toy, retimetoy, bufcase, D1..D10, or design_json)", req.Design)
	}
}

// writeRetryable writes a 429/503 with both the standard Retry-After
// header (integer seconds, rounded up — the header's granularity) and a
// machine-friendly retry_after_ms in the body.
func (sv *Server) writeRetryable(w http.ResponseWriter, status int, format string, args ...any) {
	hint := sv.retryAfterHint()
	secs := int64((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, errorBody{
		Error:        fmt.Sprintf(format, args...),
		RetryAfterMS: hint.Milliseconds(),
	})
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
