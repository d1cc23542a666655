package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"mgba/internal/core"
	"mgba/internal/faultinject"
)

// TestCrashMidBatchResumesBitIdentical is the daemon's headline
// robustness contract, end to end:
//
//  1. a session absorbs batch 1 and journals it;
//  2. batch 2 lands but its journal record "crashes" (injected write
//     fault), and the process dies without a graceful drain — the disk
//     still holds the batch-1 state;
//  3. a restarted daemon resumes the session bit-identically to the
//     batch-1 state (slacks, weights, batch counter);
//  4. replaying batch 2 on the restarted daemon lands bit-identically on
//     the state the dead process had served after its batch 2 — the
//     recovery path (cold calibrator warm-started from persisted weights)
//     is exact, not approximate.
func TestCrashMidBatchResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.SnapshotDir = dir

	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 6)
	batch1, batch2 := upsizeBatch(ids[:3]), upsizeBatch(ids[3:])

	svA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(svA)
	createInline(t, tsA.URL, "crash", d)
	wantStatus(t, doJSON(t, "POST", tsA.URL+"/v1/sessions/crash/batch", batch1, nil), http.StatusOK)
	afterBatch1 := getSlacks(t, tsA.URL, "crash")

	// Batch 2: the recalibration succeeds in memory but every journal
	// append and checkpoint write from here on fails — the disk is frozen
	// at the batch-1 state.
	boom := errors.New("injected snapshot crash")
	faultinject.SetError(faultinject.ServeSnapshot, func() error { return boom })
	faultinject.SetError(faultinject.ServeJournal, func() error { return boom })
	var br2 batchResponse
	wantStatus(t, doJSON(t, "POST", tsA.URL+"/v1/sessions/crash/batch", batch2, &br2), http.StatusOK)
	afterBatch2 := getSlacks(t, tsA.URL, "crash")
	if sameFloats(afterBatch1.Slacks, afterBatch2.Slacks) {
		t.Fatal("batch 2 changed nothing; the crash test would be vacuous")
	}

	// The crash: no graceful snapshot happens (the injected fault also
	// covers Shutdown's flush), goroutines stop, the fault is disarmed
	// only after the "process" is gone.
	tsA.Close()
	ctx, cancel := ctxWithTimeout(10 * time.Second)
	err = svA.Shutdown(ctx)
	cancel()
	if !errors.Is(err, boom) {
		t.Fatalf("shutdown should have surfaced the injected snapshot failure, got %v", err)
	}
	faultinject.Reset()

	// Restart. The session must come back resident at the batch-1 state.
	svB, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(svB)
	defer func() {
		tsB.Close()
		shutdownServer(t, svB)
	}()

	var resumed sessionStatus
	wantStatus(t, doJSON(t, "GET", tsB.URL+"/v1/sessions/crash", nil, &resumed), http.StatusOK)
	if !resumed.Calibrated || resumed.Applied != 1 {
		t.Fatalf("resumed status %+v, want calibrated with 1 applied batch", resumed)
	}
	resumedSlacks := getSlacks(t, tsB.URL, "crash")
	if !sameFloats(afterBatch1.Slacks, resumedSlacks.Slacks) {
		t.Fatal("resumed slacks differ from the last durable (batch-1) state")
	}
	if !sameFloats(afterBatch1.Weights, resumedSlacks.Weights) {
		t.Fatal("resumed weights differ from the last durable (batch-1) state")
	}

	// Replay the lost batch. The resumed calibrator runs cold with the
	// persisted warm start; the dead process ran incrementally. The
	// calibrator's exactness contract makes those bit-identical.
	wantStatus(t, doJSON(t, "POST", tsB.URL+"/v1/sessions/crash/batch", batch2, nil), http.StatusOK)
	replayed := getSlacks(t, tsB.URL, "crash")
	if !sameFloats(afterBatch2.Slacks, replayed.Slacks) {
		t.Fatal("replayed batch-2 slacks differ from the uninterrupted run")
	}
	if !sameFloats(afterBatch2.Weights, replayed.Weights) {
		t.Fatal("replayed batch-2 weights differ from the uninterrupted run")
	}
}

// TestGracefulShutdownThenResume: the SIGTERM path — Shutdown snapshots
// the batch's state, so the restarted daemon resumes it directly, no
// replay needed, and serves the slacks, WNS/TNS and weights it served
// before, bit for bit. Under a corner set the weights were fitted under
// the selection corner's config, so the resumed session must re-time
// under that config too; a selection corner other than the base config
// (slow first) is the case that tells the two apart.
func TestGracefulShutdownThenResume(t *testing.T) {
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 4)
	for _, set := range []string{"", "slow:1.15:10", "slow:1.15:10,typ", "typ,slow:1.15:10"} {
		name := set
		if name == "" {
			name = "no-corner-set"
		}
		t.Run(name, func(t *testing.T) {
			corners, err := core.ParseCorners(set)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.SnapshotDir = t.TempDir()
			cfg.SnapshotEvery = time.Hour // force the drain path to do the persisting

			svA, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tsA := httptest.NewServer(svA)
			wantStatus(t, doJSON(t, "POST", tsA.URL+"/v1/sessions",
				createRequest{ID: "term", DesignJSON: designJSON(t, d), Corners: corners}, nil), http.StatusCreated)
			wantStatus(t, doJSON(t, "POST", tsA.URL+"/v1/sessions/term/batch", upsizeBatch(ids), nil), http.StatusOK)
			before := getStatus(t, tsA.URL, "term")
			final := getSlacks(t, tsA.URL, "term")
			tsA.Close()
			ctx, cancel := ctxWithTimeout(10 * time.Second)
			if err := svA.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()

			svB, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tsB := httptest.NewServer(svB)
			defer func() {
				tsB.Close()
				shutdownServer(t, svB)
			}()
			// The status comes first: it must not wait for a /slacks read
			// to report the resumed session's timing.
			after := getStatus(t, tsB.URL, "term")
			if math.Float64bits(before.WNS) != math.Float64bits(after.WNS) ||
				math.Float64bits(before.TNS) != math.Float64bits(after.TNS) || before.Endpoints != after.Endpoints {
				t.Errorf("status WNS/TNS/endpoints %v/%v/%d before the restart, %v/%v/%d after",
					before.WNS, before.TNS, before.Endpoints, after.WNS, after.TNS, after.Endpoints)
			}
			resumed := getSlacks(t, tsB.URL, "term")

			if final.Weights == nil {
				t.Fatal("session served no weights before the restart")
			}
			if !sameFloats(final.Weights, resumed.Weights) {
				t.Error("resumed weights differ from pre-shutdown weights")
			}
			changed := 0
			for i := range final.Slacks {
				if i >= len(resumed.Slacks) || math.Float64bits(final.Slacks[i]) != math.Float64bits(resumed.Slacks[i]) {
					changed++
				}
			}
			if changed > 0 || len(resumed.Slacks) != len(final.Slacks) {
				t.Errorf("%d of %d endpoint slacks changed across the restart (%d resumed)",
					changed, len(final.Slacks), len(resumed.Slacks))
			}
			if math.Float64bits(final.WNS) != math.Float64bits(resumed.WNS) ||
				math.Float64bits(final.TNS) != math.Float64bits(resumed.TNS) {
				t.Errorf("WNS/TNS %v/%v before the restart, %v/%v after",
					final.WNS, final.TNS, resumed.WNS, resumed.TNS)
			}
		})
	}
}

// TestBackpressureBounded: under deliberate saturation (in-flight budget
// 1, session queue 1, many concurrent clients) every request resolves
// promptly to either success or a well-formed 429 — nothing hangs,
// nothing 500s, and accepted requests complete within their (generous)
// deadline rather than being starved by the rejected herd.
func TestBackpressureBounded(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
	})
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 8)
	createInline(t, ts.URL, "sat", d)

	const clients = 12
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	client := &http.Client{Timeout: 60 * time.Second}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob, _ := json.Marshal(upsizeBatch([]int{ids[i%len(ids)]}))
			req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/sat/batch", bytes.NewReader(blob))
			req.Header.Set("X-Deadline-Ms", "30000")
			<-start
			resp, err := client.Do(req)
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()

	okCount, rejCount := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			okCount++
			var br batchResponse
			if err := json.Unmarshal(bodies[i], &br); err != nil {
				t.Errorf("client %d: accepted response not JSON: %v", i, err)
				continue
			}
			if br.Status.Partial || br.Status.Degraded {
				t.Errorf("client %d: accepted request missed its 30s deadline: %+v", i, br.Status)
			}
		case http.StatusTooManyRequests:
			rejCount++
			var eb errorBody
			if err := json.Unmarshal(bodies[i], &eb); err != nil || eb.RetryAfterMS <= 0 {
				t.Errorf("client %d: 429 body lacks retry_after_ms: %s", i, bodies[i])
			}
		case -1:
			t.Errorf("client %d: transport error (request hung or dropped)", i)
		default:
			t.Errorf("client %d: unexpected status %d: %s", i, code, bodies[i])
		}
	}
	if okCount == 0 {
		t.Fatal("saturation refused every request; backpressure must keep serving")
	}
	if okCount+rejCount != clients {
		t.Fatalf("responses outside the 200/429 contract: %v", codes)
	}
	t.Logf("saturation: %d accepted, %d rejected with Retry-After", okCount, rejCount)
}

// TestInflightExhausted429 pins the admission decision deterministically:
// with the in-flight budget held, any heavy request is refused
// immediately with 429 + Retry-After.
func TestInflightExhausted429(t *testing.T) {
	sv, ts := testServer(t, func(c *Config) { c.MaxInFlight = 2 })
	createInline(t, ts.URL, "full", testDesign(t, 150, 20))

	for i := 0; i < cap(sv.inflight); i++ {
		sv.inflight <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(sv.inflight); i++ {
			<-sv.inflight
		}
	}()
	resp := doJSON(t, "GET", ts.URL+"/v1/sessions/full/slacks", nil, nil)
	wantStatus(t, resp, http.StatusTooManyRequests)
	assertRetryable(t, resp)
}

// TestSessionQueueFull429 pins the per-session queue bound: while one
// writer holds the session, a queue of MaxQueue is admitted and the next
// request bounces with 429.
func TestSessionQueueFull429(t *testing.T) {
	sv, ts := testServer(t, func(c *Config) { c.MaxQueue = 1 })
	createInline(t, ts.URL, "busy", testDesign(t, 150, 20))

	s := sv.getSession("busy")
	ok, gone := s.acquire(sv.cfg.MaxQueue)
	if !ok || gone {
		t.Fatalf("test could not take the writer lock: ok=%v gone=%v", ok, gone)
	}
	defer s.release()

	resp := doJSON(t, "GET", ts.URL+"/v1/sessions/busy/slacks", nil, nil)
	wantStatus(t, resp, http.StatusTooManyRequests)
	assertRetryable(t, resp)
}

// TestAdmitFaultRejects503: the ServeAdmit hook turns admission off for
// drills; refusals are 503 + Retry-After, not errors or hangs.
func TestAdmitFaultRejects503(t *testing.T) {
	_, ts := testServer(t, nil)
	createInline(t, ts.URL, "adm", testDesign(t, 150, 20))

	faultinject.SetError(faultinject.ServeAdmit, func() error { return errors.New("injected admission refusal") })
	defer faultinject.Reset()
	resp := doJSON(t, "GET", ts.URL+"/v1/sessions/adm/slacks", nil, nil)
	wantStatus(t, resp, http.StatusServiceUnavailable)
	assertRetryable(t, resp)
}

// TestSnapshotFaultKeepsServing: persistent snapshot failure must not
// fail requests — the batch succeeds, the session stays dirty, and the
// first healthy sweep flushes it.
func TestSnapshotFaultKeepsServing(t *testing.T) {
	sv, ts := testServer(t, nil)
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 2)
	createInline(t, ts.URL, "flaky", d)

	faultinject.SetError(faultinject.ServeSnapshot, func() error { return errors.New("injected disk full") })
	faultinject.SetError(faultinject.ServeJournal, func() error { return errors.New("injected disk full") })
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/sessions/flaky/batch", upsizeBatch(ids), nil), http.StatusOK)
	s := sv.getSession("flaky")
	if !s.dirty.Load() {
		t.Fatal("failed snapshot must leave the session dirty for retry")
	}
	faultinject.Reset()

	sv.Sweep(time.Now())
	if s.dirty.Load() {
		t.Fatal("sweep after fault cleared did not flush")
	}
}

// TestEvictionFaultLosesOnlyTail: when the eviction snapshot fails, the
// session's durable state stays at its previous snapshot — resurrect
// serves the older state instead of nothing.
func TestEvictionFaultLosesOnlyTail(t *testing.T) {
	sv, ts := testServer(t, func(c *Config) {
		c.MaxSessions = 1
		c.SnapshotEvery = time.Hour // batches do not snapshot synchronously
	})
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 4)

	createInline(t, ts.URL, "tail", d)
	s := sv.getSession("tail")
	s.mu.Lock()
	if err := sv.snapshotLocked(s); err != nil { // durable point: created state
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.mu.Unlock()
	durable := getSlacks(t, ts.URL, "tail")
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/sessions/tail/batch", upsizeBatch(ids), nil), http.StatusOK)

	// Evict under an eviction-snapshot fault: the batch above is lost,
	// the durable point survives.
	faultinject.SetError(faultinject.ServeEvict, func() error { return errors.New("injected eviction fault") })
	createInline(t, ts.URL, "other", testDesign(t, 150, 20))
	faultinject.Reset()

	resurrected := getSlacks(t, ts.URL, "tail")
	if !sameFloats(durable.Slacks, resurrected.Slacks) {
		t.Fatal("eviction fault corrupted the durable snapshot")
	}
}

// TestConcurrentMixedSessions drives several sessions concurrently
// (create, batches, reads, deletes) as a -race exerciser for the
// registry, the writer queues and the snapshot paths.
func TestConcurrentMixedSessions(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.MaxSessions = 3
		c.MaxInFlight = 8
	})
	d := testDesign(t, 150, 20)
	ids := upsizableIDs(t, d, 4)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			blob, _ := json.Marshal(createRequest{ID: id, DesignJSON: designJSON(t, d)})
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Errorf("create %s: %v", id, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				return // evicted or rejected under pressure; both fine here
			}
			for round := 0; round < 2; round++ {
				b, _ := json.Marshal(upsizeBatch([]int{ids[round]}))
				if resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/batch", "application/json", bytes.NewReader(b)); err == nil {
					resp.Body.Close()
				}
				if resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/slacks"); err == nil {
					resp.Body.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	// The registry must end bounded and consistent.
	var list struct {
		Sessions []string `json:"sessions"`
	}
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list), http.StatusOK)
	if len(list.Sessions) > 3 {
		t.Fatalf("registry exceeded MaxSessions: %v", list.Sessions)
	}
}

// TestDeleteSessionRemovesSnapshot: delete is durable — the snapshot is
// gone and the session cannot be resurrected.
func TestDeleteSessionRemovesSnapshot(t *testing.T) {
	sv, ts := testServer(t, nil)
	createInline(t, ts.URL, "gone", testDesign(t, 150, 20))
	if _, err := os.Stat(sv.snapshotPath("gone")); err != nil {
		t.Fatalf("create did not snapshot: %v", err)
	}
	wantStatus(t, doJSON(t, "DELETE", ts.URL+"/v1/sessions/gone", nil, nil), http.StatusOK)
	if _, err := os.Stat(sv.snapshotPath("gone")); err == nil {
		t.Fatal("delete left the snapshot behind")
	}
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/sessions/gone", nil, nil), http.StatusNotFound)
}
