package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
)

// testDesign generates a small violating design for fast handler tests.
func testDesign(t *testing.T, gates, ffs int) *netlist.Design {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = gates, ffs
	cfg.Name = "serve-test"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// designJSON serializes d in the netio interchange format for inline
// session creation.
func designJSON(t *testing.T, d *netlist.Design) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := netio.Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// upsizableIDs returns n instance IDs that an upsize op will actually
// move: combinational, alive, off the clock network, not already at the
// top of the drive ladder.
func upsizableIDs(t *testing.T, d *netlist.Design, n int) []int {
	t.Helper()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for id, inst := range d.Instances {
		if len(ids) == n {
			break
		}
		if inst.IsFF() || g.IsClock(id) {
			continue
		}
		if d.Lib.Upsize(inst.Cell) == nil {
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) < n {
		t.Fatalf("only %d upsizable instances, want %d", len(ids), n)
	}
	return ids
}

// testServer builds a server (snapshots in a temp dir unless cfg says
// otherwise) behind httptest, with Shutdown wired into cleanup.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SnapshotDir = t.TempDir()
	if mutate != nil {
		mutate(&cfg)
	}
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := ctxWithTimeout(10 * time.Second)
		defer cancel()
		_ = sv.Shutdown(ctx)
	})
	return sv, ts
}

// doJSON performs one API call and decodes the response into out (when
// non-nil), returning the raw response for header/status checks.
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(blob))
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, url, blob, err)
		}
	}
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, body)
	}
}

func createInline(t *testing.T, base, id string, d *netlist.Design) sessionStatus {
	t.Helper()
	var st sessionStatus
	resp := doJSON(t, "POST", base+"/v1/sessions",
		createRequest{ID: id, DesignJSON: designJSON(t, d)}, &st)
	wantStatus(t, resp, http.StatusCreated)
	return st
}

func getSlacks(t *testing.T, base, id string) slacksResponse {
	t.Helper()
	var sl slacksResponse
	resp := doJSON(t, "GET", base+"/v1/sessions/"+id+"/slacks", nil, &sl)
	wantStatus(t, resp, http.StatusOK)
	return sl
}

func upsizeBatch(ids []int) batchRequest {
	ops := make([]Op, len(ids))
	for i, id := range ids {
		ops[i] = Op{Op: "upsize", Instance: id}
	}
	return batchRequest{Ops: ops}
}

// TestSessionLifecycle walks the whole API surface once: create from an
// inline design, read status and slacks, apply a transform batch with
// incremental recalibration, force a full recalibration, list, delete.
func TestSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, nil)
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 3)

	st := createInline(t, ts.URL, "life", d)
	if !st.Calibrated || st.ID != "life" || st.Source != "inline" {
		t.Fatalf("create status %+v", st)
	}
	if st.WNS > 0 {
		t.Fatalf("toy design should be violating, WNS %v", st.WNS)
	}

	var got sessionStatus
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/sessions/life", nil, &got), http.StatusOK)
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("status drifted without writes: %+v vs %+v", got, st)
	}

	sl := getSlacks(t, ts.URL, "life")
	if len(sl.Slacks) == 0 || len(sl.Weights) != len(d.Instances) {
		t.Fatalf("slacks %d, weights %d (want instances %d)", len(sl.Slacks), len(sl.Weights), len(d.Instances))
	}
	if sl.WNS != st.WNS || sl.TNS != st.TNS {
		t.Fatalf("slacks WNS/TNS disagree with status: %v/%v vs %v/%v", sl.WNS, sl.TNS, st.WNS, st.TNS)
	}

	var br batchResponse
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/sessions/life/batch", upsizeBatch(ids), &br), http.StatusOK)
	if br.Status.Applied != 1 || br.Dirty == 0 {
		t.Fatalf("batch response %+v", br)
	}
	for i, res := range br.Results {
		if !res.Applied {
			t.Fatalf("op %d not applied: %+v", i, res)
		}
	}

	var rc sessionStatus
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/sessions/life/recalibrate", nil, &rc), http.StatusOK)
	post := getSlacks(t, ts.URL, "life")
	if rc.WNS != post.WNS {
		t.Fatalf("recalibrate WNS %v but slacks WNS %v", rc.WNS, post.WNS)
	}

	var list struct {
		Sessions []string `json:"sessions"`
	}
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list), http.StatusOK)
	if len(list.Sessions) != 1 || list.Sessions[0] != "life" {
		t.Fatalf("session list %v", list.Sessions)
	}

	wantStatus(t, doJSON(t, "DELETE", ts.URL+"/v1/sessions/life", nil, nil), http.StatusOK)
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/sessions/life", nil, nil), http.StatusNotFound)
	wantStatus(t, doJSON(t, "DELETE", ts.URL+"/v1/sessions/life", nil, nil), http.StatusNotFound)
}

// TestCreateValidation covers the request-shape rejections.
func TestCreateValidation(t *testing.T) {
	_, ts := testServer(t, nil)
	d := testDesign(t, 150, 20)

	cases := []struct {
		name string
		req  createRequest
		want int
	}{
		{"bad id", createRequest{ID: "../evil", Design: "toy"}, http.StatusBadRequest},
		{"empty id", createRequest{Design: "toy"}, http.StatusBadRequest},
		{"no design", createRequest{ID: "a"}, http.StatusBadRequest},
		{"both designs", createRequest{ID: "a", Design: "toy", DesignJSON: designJSON(t, d)}, http.StatusBadRequest},
		{"unknown design", createRequest{ID: "a", Design: "nope"}, http.StatusBadRequest},
		{"garbage inline", createRequest{ID: "a", DesignJSON: json.RawMessage(`{"not":"a design"}`)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := doJSON(t, "POST", ts.URL+"/v1/sessions", tc.req, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	createInline(t, ts.URL, "dup", d)
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions",
		createRequest{ID: "dup", DesignJSON: designJSON(t, d)}, nil)
	wantStatus(t, resp, http.StatusConflict)
}

// TestBatchValidationRevertsAtomically: a batch with a bad op in the
// middle must reject with 422 and leave the session bit-identical to its
// pre-batch state — earlier ops in the same batch are reverted.
func TestBatchValidationRevertsAtomically(t *testing.T) {
	_, ts := testServer(t, nil)
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 2)
	createInline(t, ts.URL, "atomic", d)
	before := getSlacks(t, ts.URL, "atomic")

	bad := batchRequest{Ops: []Op{
		{Op: "upsize", Instance: ids[0]},
		{Op: "resize", Instance: ids[1], Cell: "no-such-cell"},
	}}
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/sessions/atomic/batch", bad, nil), http.StatusUnprocessableEntity)

	after := getSlacks(t, ts.URL, "atomic")
	if !sameFloats(before.Slacks, after.Slacks) || !sameFloats(before.Weights, after.Weights) {
		t.Fatal("rejected batch left the session changed")
	}

	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/sessions/atomic/batch",
		batchRequest{Ops: []Op{{Op: "downsize", Instance: ids[0]}, {Op: "upsize", Instance: ids[0]}}}, nil),
		http.StatusOK)
}

// TestDeadlineExceededDegradesNeverDrops: a request whose deadline cannot
// be met returns HTTP 200 with the degradation ladder's never-optimistic
// partial result — not a timeout, not a 5xx.
func TestDeadlineExceededDegradesNeverDrops(t *testing.T) {
	_, ts := testServer(t, nil)
	d := testDesign(t, 700, 90)
	ids := upsizableIDs(t, d, 10)
	createInline(t, ts.URL, "dl", d)
	base := getSlacks(t, ts.URL, "dl")

	blob, _ := json.Marshal(upsizeBatch(ids))
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/dl/batch", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Deadline-Ms", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline-exceeded batch: status %d, want 200", resp.StatusCode)
	}
	if !br.Status.Partial && !br.Status.Degraded {
		t.Fatalf("1ms deadline produced a full fit? %+v", br.Status)
	}
	// The degraded result is still a complete, usable answer (core's
	// scale-back guarantees it is never optimistic; pinned there).
	after := getSlacks(t, ts.URL, "dl")
	if len(after.Weights) != len(d.Instances) {
		t.Fatalf("degraded weights length %d, want %d", len(after.Weights), len(d.Instances))
	}
	for i, w := range after.Weights {
		if w <= 0 || w != w {
			t.Fatalf("degraded weight %d = %v is not a valid weight", i, w)
		}
	}
	if len(after.Slacks) != len(base.Slacks) {
		t.Fatalf("slack vector length changed: %d vs %d", len(after.Slacks), len(base.Slacks))
	}
}

// TestLRUEvictionResurrectsBitIdentical: with MaxSessions=1 the second
// create evicts the first (snapshot to disk); touching the first again
// resurrects it with bit-identical slacks and weights.
func TestLRUEvictionResurrectsBitIdentical(t *testing.T) {
	sv, ts := testServer(t, func(c *Config) { c.MaxSessions = 1 })
	d1 := testDesign(t, 300, 40)
	d2 := testDesign(t, 150, 20)

	createInline(t, ts.URL, "first", d1)
	before := getSlacks(t, ts.URL, "first")

	createInline(t, ts.URL, "second", d2)
	sv.mu.Lock()
	_, resident := sv.sessions["first"]
	sv.mu.Unlock()
	if resident {
		t.Fatal("first session should have been LRU-evicted")
	}
	if _, err := os.Stat(sv.snapshotPath("first")); err != nil {
		t.Fatalf("evicted session has no snapshot: %v", err)
	}

	after := getSlacks(t, ts.URL, "first") // resurrects, evicting "second"
	if !sameFloats(before.Slacks, after.Slacks) {
		t.Fatal("resurrected slacks differ from pre-eviction slacks")
	}
	if !sameFloats(before.Weights, after.Weights) {
		t.Fatal("resurrected weights differ from pre-eviction weights")
	}
}

// TestIdleSweepEvicts: Sweep with a time beyond the idle window must
// evict (with snapshot) without waiting for the background janitor.
func TestIdleSweepEvicts(t *testing.T) {
	sv, ts := testServer(t, func(c *Config) { c.IdleTimeout = time.Minute })
	createInline(t, ts.URL, "idler", testDesign(t, 150, 20))

	sv.Sweep(time.Now()) // inside the window: stays
	sv.mu.Lock()
	_, resident := sv.sessions["idler"]
	sv.mu.Unlock()
	if !resident {
		t.Fatal("session evicted before its idle timeout")
	}

	sv.Sweep(time.Now().Add(2 * time.Minute))
	sv.mu.Lock()
	_, resident = sv.sessions["idler"]
	sv.mu.Unlock()
	if resident {
		t.Fatal("idle session not evicted")
	}
	if _, err := os.Stat(sv.snapshotPath("idler")); err != nil {
		t.Fatalf("idle eviction lost the session: %v", err)
	}
	// Still reachable: the next request resurrects it.
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/sessions/idler", nil, nil), http.StatusOK)
}

// TestWriteBehindSweepFlushes: with a write-behind cadence configured,
// a batch leaves the session dirty until a sweep persists it.
func TestWriteBehindSweepFlushes(t *testing.T) {
	sv, ts := testServer(t, func(c *Config) { c.SnapshotEvery = time.Hour })
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 2)
	createInline(t, ts.URL, "wb", d)
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/sessions/wb/batch", upsizeBatch(ids), nil), http.StatusOK)

	s := sv.getSession("wb")
	if !s.dirty.Load() {
		t.Fatal("batch should leave the session dirty under write-behind")
	}
	if _, err := os.Stat(sv.snapshotPath("wb")); err == nil {
		t.Fatal("write-behind mode snapshotted synchronously")
	}
	sv.Sweep(time.Now())
	if s.dirty.Load() {
		t.Fatal("sweep did not flush the dirty session")
	}
	if _, err := os.Stat(sv.snapshotPath("wb")); err != nil {
		t.Fatalf("sweep flush wrote no snapshot: %v", err)
	}
}

// TestCorruptSnapshotQuarantined: startup recovery must quarantine a
// corrupt blob (rename, keep the bytes for forensics) and keep going.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.ckpt"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A healthy snapshot alongside proves recovery continues past the bad one.
	cfg := DefaultConfig()
	cfg.SnapshotDir = dir
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, sv)
	createViaHandler(t, sv, "good", testDesign(t, 150, 20))
	ctx, cancel := ctxWithTimeout(10 * time.Second)
	_ = sv.Shutdown(ctx)
	cancel()

	sv2, err := New(cfg)
	if err != nil {
		t.Fatalf("one corrupt snapshot failed startup: %v", err)
	}
	defer shutdownServer(t, sv2)
	sv2.mu.Lock()
	_, hasBad := sv2.sessions["bad"]
	_, hasGood := sv2.sessions["good"]
	sv2.mu.Unlock()
	if hasBad {
		t.Fatal("corrupt snapshot produced a session")
	}
	if !hasGood {
		t.Fatal("healthy snapshot not resumed alongside the corrupt one")
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.ckpt.quarantine")); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.ckpt")); err == nil {
		t.Fatal("corrupt snapshot left in place")
	}
}

// TestHealthzReportsDraining: shutdown flips health to draining and new
// heavy requests are refused with 503 + Retry-After.
func TestHealthzReportsDraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotDir = t.TempDir()
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	defer ts.Close()

	var h struct {
		Status string `json:"status"`
	}
	wantStatus(t, doJSON(t, "GET", ts.URL+"/healthz", nil, &h), http.StatusOK)
	if h.Status != "ok" {
		t.Fatalf("health %q, want ok", h.Status)
	}

	ctx, cancel := ctxWithTimeout(10 * time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, doJSON(t, "GET", ts.URL+"/healthz", nil, &h), http.StatusOK)
	if h.Status != "draining" {
		t.Fatalf("health %q after Shutdown, want draining", h.Status)
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "x", Design: "toy"}, nil)
	wantStatus(t, resp, http.StatusServiceUnavailable)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining rejection missing Retry-After")
	}
}

// TestRetryAfterHintJittered: consecutive hints must spread over
// [base/2, 3*base/2) rather than synchronizing rejected clients.
func TestRetryAfterHintJittered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryAfter = 400 * time.Millisecond
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, sv)
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		h := sv.retryAfterHint()
		if h < cfg.RetryAfter/2 || h >= cfg.RetryAfter/2+cfg.RetryAfter {
			t.Fatalf("hint %v outside [%v, %v)", h, cfg.RetryAfter/2, cfg.RetryAfter/2+cfg.RetryAfter)
		}
		seen[h] = true
	}
	if len(seen) < 8 {
		t.Fatalf("hints barely vary: %d distinct over 64 draws", len(seen))
	}
}

// TestRetryAfterHintOverflowSeed seeds the jitter sequence just below the
// point where the int64 product seq*2654435761 overflows, then draws
// across it: every hint must stay in [base/2, 3*base/2). Before the
// unsigned mix, the overflowed remainder went negative and the daemon
// advertised sub-base/2 (even negative) Retry-After hints.
func TestRetryAfterHintOverflowSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryAfter = 400 * time.Millisecond
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, sv)
	sv.reqSeq.Store(math.MaxInt64/2654435761 - 10)
	lo, hi := cfg.RetryAfter/2, cfg.RetryAfter/2+cfg.RetryAfter
	for i := 0; i < 1000; i++ {
		if h := sv.retryAfterHint(); h < lo || h >= hi {
			t.Fatalf("draw %d (seq %d): hint %v outside [%v, %v)", i, sv.reqSeq.Load(), h, lo, hi)
		}
	}
}

// TestRetryAfterHintZeroBase: a directly-constructed Server (no New, so
// no config coercion) carries a zero RetryAfter; the hint must fall back
// to a fixed second instead of a modulo-by-zero panic.
func TestRetryAfterHintZeroBase(t *testing.T) {
	sv := &Server{}
	for i := 0; i < 3; i++ {
		if h := sv.retryAfterHint(); h != time.Second {
			t.Fatalf("zero-base hint = %v, want %v", h, time.Second)
		}
	}
}

// --- shared helpers ---

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ctxWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// createViaHandler creates a session through the real handler stack
// without an HTTP listener.
func createViaHandler(t *testing.T, sv *Server, id string, d *netlist.Design) {
	t.Helper()
	blob, err := json.Marshal(createRequest{ID: id, DesignJSON: designJSON(t, d)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", id, rec.Code, rec.Body.String())
	}
}

func shutdownServer(t *testing.T, sv *Server) {
	t.Helper()
	ctx, cancel := ctxWithTimeout(10 * time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil && !strings.Contains(err.Error(), "injected") {
		t.Errorf("shutdown: %v", err)
	}
}

// assertRetryable checks the shared shape of every 429/503 refusal: a
// Retry-After header in whole seconds and a machine-readable
// retry_after_ms in the body.
func assertRetryable(t *testing.T, resp *http.Response) {
	t.Helper()
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("%d response missing Retry-After header", resp.StatusCode)
	}
	var eb errorBody
	blob, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(blob, &eb); err != nil {
		t.Errorf("%d response body not JSON: %s", resp.StatusCode, blob)
		return
	}
	if eb.RetryAfterMS <= 0 {
		t.Errorf("%d response retry_after_ms = %d, want > 0", resp.StatusCode, eb.RetryAfterMS)
	}
	if eb.Error == "" {
		t.Errorf("%d response has empty error", resp.StatusCode)
	}
}
