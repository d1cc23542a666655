package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mgba/internal/faultinject"
	"mgba/internal/netio"
	"mgba/internal/obs"
)

// sessionState is what a client can read back from a session: its status
// and its slacks and weights.
type sessionState struct {
	status sessionStatus
	slacks slacksResponse
}

func captureState(t *testing.T, base, id string) sessionState {
	t.Helper()
	st := getStatus(t, base, id) // before any slack read, as after a restart
	return sessionState{status: st, slacks: getSlacks(t, base, id)}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSameState fails unless got reads back bit for bit as want:
// slacks, weights, status WNS/TNS, endpoint count and batch count.
func checkSameState(t *testing.T, what string, got, want sessionState) {
	t.Helper()
	g, w := got.status, want.status
	if g.Applied != w.Applied || g.Calibrated != w.Calibrated || g.Endpoints != w.Endpoints ||
		math.Float64bits(g.WNS) != math.Float64bits(w.WNS) || math.Float64bits(g.TNS) != math.Float64bits(w.TNS) {
		t.Fatalf("%s: status %+v, want %+v", what, g, w)
	}
	if !sameBits(got.slacks.Slacks, want.slacks.Slacks) || !sameBits(got.slacks.Weights, want.slacks.Weights) {
		t.Fatalf("%s: slacks or weights differ from the uninterrupted run", what)
	}
	if math.Float64bits(got.slacks.WNS) != math.Float64bits(want.slacks.WNS) ||
		math.Float64bits(got.slacks.TNS) != math.Float64bits(want.slacks.TNS) {
		t.Fatalf("%s: slacks WNS/TNS differ from the uninterrupted run", what)
	}
}

// crashImage copies the snapshot directory as a crash at this instant
// would leave it: the files only, no drain.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// restart starts a daemon on dir, as a restarted process would.
func restart(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	return testServer(t, func(c *Config) { c.SnapshotDir = dir })
}

// forceCompaction makes the session's next append compact its journal.
func forceCompaction(sv *Server, id string) {
	s := sv.getSession(id)
	s.mu.Lock()
	s.ckptBytes = 1
	s.mu.Unlock()
}

func postBatch(t *testing.T, base, id string, b batchRequest) {
	t.Helper()
	wantStatus(t, doJSON(t, "POST", base+"/v1/sessions/"+id+"/batch", b, nil), http.StatusOK)
}

// journalRecords parses the session's journal in dir.
func journalRecords(t *testing.T, dir, id string) *netio.JournalScan {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := netio.ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	return scan
}

// TestJournalResumeEveryLength: a crash after any batch resumes exactly
// the uninterrupted state, and the next batch then lands on the
// uninterrupted state too, for a journal of every length from 0 records
// (just created) to one record past a compaction.
func TestJournalResumeEveryLength(t *testing.T) {
	const batches, compactAt = 5, 4
	sv, ts := testServer(t, nil)
	dir := sv.cfg.SnapshotDir
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 2*(batches+1))
	createInline(t, ts.URL, "j", d)

	var want []sessionState
	var images []string
	var records []int
	for n := 0; ; n++ {
		want = append(want, captureState(t, ts.URL, "j"))
		if n == batches+1 {
			break
		}
		images = append(images, crashImage(t, dir))
		records = append(records, len(journalRecords(t, dir, "j").Records))
		if n+1 == compactAt {
			forceCompaction(sv, "j")
		}
		postBatch(t, ts.URL, "j", upsizeBatch(ids[2*n:2*n+2]))
	}
	if fmt.Sprint(records) != "[0 1 2 3 0 1]" {
		t.Fatalf("journal lengths %v, want 0 to 3 records, a compaction, then 1", records)
	}

	for n, img := range images {
		_, tsB := restart(t, img)
		checkSameState(t, fmt.Sprintf("resumed after batch %d (%d records)", n, records[n]), captureState(t, tsB.URL, "j"), want[n])
		postBatch(t, tsB.URL, "j", upsizeBatch(ids[2*n:2*n+2]))
		checkSameState(t, fmt.Sprintf("batch %d after the resume", n+1), captureState(t, tsB.URL, "j"), want[n+1])
	}
}

// TestJournalTornTailResumes: a last record cut short or with one bit
// flipped was never answered. Resume drops exactly that record and counts
// it, serving the state before it; the next batch cuts the file back to
// the last intact record, appends, and itself resumes cleanly. Every
// byte offset and bit of a record is swept in netio
// (TestJournalCutAtEveryByte, TestJournalFlipEveryBit); this samples
// them through the daemon: each byte of the length, checksum and
// sequence fields, a stride through the rest, and the last byte.
func TestJournalTornTailResumes(t *testing.T) {
	sv, ts := testServer(t, nil)
	dir := sv.cfg.SnapshotDir
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 4)
	createInline(t, ts.URL, "torn", d)
	postBatch(t, ts.URL, "torn", upsizeBatch(ids[:2]))
	want1 := captureState(t, ts.URL, "torn")
	postBatch(t, ts.URL, "torn", upsizeBatch(ids[2:]))
	want2 := captureState(t, ts.URL, "torn")

	img := crashImage(t, dir)
	jpath := filepath.Join(img, "torn.journal")
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	scan := journalRecords(t, img, "torn")
	if len(scan.Records) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(scan.Records))
	}
	enc, err := netio.AppendJournalRecord(nil, &scan.Records[1])
	if err != nil {
		t.Fatal(err)
	}
	last := len(journal) - len(enc)

	type damage struct {
		name string
		data []byte
	}
	var cases []damage
	offsets := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 23, 24}
	for o := 40; o < len(enc)-1; o += len(enc) / 7 {
		offsets = append(offsets, o)
	}
	offsets = append(offsets, len(enc)-1)
	for _, o := range offsets {
		cases = append(cases, damage{fmt.Sprintf("cut at +%d", o), journal[:last+o]})
		flipped := append([]byte(nil), journal...)
		flipped[last+o] ^= 0x10
		cases = append(cases, damage{fmt.Sprintf("bit flipped at +%d", o), flipped})
	}
	shorter := append([]byte(nil), journal...)
	binary.LittleEndian.PutUint32(shorter[last:], uint32(len(enc)-9)) // the record's own last byte follows it
	cases = append(cases, damage{"length one short", shorter})

	obs.Enable(true)
	defer obs.Enable(false)
	for i, c := range cases {
		if err := os.WriteFile(jpath, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		run := crashImage(t, img)
		dropped := obsJournalTail.Value()
		svB, tsB := restart(t, run)
		if obsJournalTail.Value() != dropped+1 {
			t.Fatalf("%s: dropped tails went %d -> %d, want one more", c.name, dropped, obsJournalTail.Value())
		}
		checkSameState(t, c.name+": resumed", captureState(t, tsB.URL, "torn"), want1)
		if i%8 != 0 && i != len(cases)-1 {
			continue
		}
		// The full leg, on a sample: the batch again, the file cut back and
		// appended to, and a second crash that resumes the batch.
		postBatch(t, tsB.URL, "torn", upsizeBatch(ids[2:]))
		checkSameState(t, c.name+": the batch again", captureState(t, tsB.URL, "torn"), want2)
		if scan := journalRecords(t, run, "torn"); len(scan.Records) != 2 || scan.Dropped != 0 {
			t.Fatalf("%s: after the next append the journal holds %d records and %d dropped bytes", c.name, len(scan.Records), scan.Dropped)
		}
		_, tsC := restart(t, crashImage(t, svB.cfg.SnapshotDir))
		checkSameState(t, c.name+": resumed again", captureState(t, tsC.URL, "torn"), want2)
	}
}

// TestCompactionCrashSkipsStaleRecords: a crash after a compaction's
// checkpoint is renamed into place but before its journal is truncated
// leaves records the checkpoint already covers. Resume skips them by
// sequence number, and the next record appends after them.
func TestCompactionCrashSkipsStaleRecords(t *testing.T) {
	sv, ts := testServer(t, nil)
	dir := sv.cfg.SnapshotDir
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 8)
	createInline(t, ts.URL, "stale", d)
	for b := 0; b < 2; b++ {
		postBatch(t, ts.URL, "stale", upsizeBatch(ids[2*b:2*b+2]))
	}

	// The checkpoint hook fires after batch 3's append, so the journal it
	// copies holds records 1 to 3, which the compaction then truncates.
	var stale []byte
	faultinject.SetError(faultinject.ServeSnapshot, func() error {
		var err error
		stale, err = os.ReadFile(filepath.Join(dir, "stale.journal"))
		return err
	})
	forceCompaction(sv, "stale")
	postBatch(t, ts.URL, "stale", upsizeBatch(ids[4:6]))
	faultinject.Reset()
	want3 := captureState(t, ts.URL, "stale")
	if n := len(journalRecords(t, dir, "stale").Records); n != 0 {
		t.Fatalf("compaction left %d records", n)
	}
	postBatch(t, ts.URL, "stale", upsizeBatch(ids[6:8]))
	want4 := captureState(t, ts.URL, "stale")

	img := crashImage(t, dir)
	if err := os.WriteFile(filepath.Join(img, "stale.journal"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if scan := journalRecords(t, img, "stale"); len(scan.Records) != 3 || scan.Records[2].Seq != 3 {
		t.Fatalf("stale journal: %+v", scan)
	}
	svB, tsB := restart(t, img)
	checkSameState(t, "resumed over stale records", captureState(t, tsB.URL, "stale"), want3)
	postBatch(t, tsB.URL, "stale", upsizeBatch(ids[6:8]))
	checkSameState(t, "the next batch", captureState(t, tsB.URL, "stale"), want4)
	if scan := journalRecords(t, img, "stale"); len(scan.Records) != 4 || scan.Records[3].Seq != 4 {
		t.Fatalf("after the next batch the journal holds %d records", len(scan.Records))
	}
	_, tsC := restart(t, crashImage(t, svB.cfg.SnapshotDir))
	checkSameState(t, "resumed again", captureState(t, tsC.URL, "stale"), want4)
}

// TestFailedCompactionJournalCarriesBatch: when the compaction's
// checkpoint write fails after a successful append, the batch is durable
// all the same, in the journal alone, and the next persist compacts.
func TestFailedCompactionJournalCarriesBatch(t *testing.T) {
	sv, ts := testServer(t, nil)
	dir := sv.cfg.SnapshotDir
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 6)
	createInline(t, ts.URL, "fc", d)
	postBatch(t, ts.URL, "fc", upsizeBatch(ids[:2]))

	faultinject.SetError(faultinject.ServeSnapshot, func() error { return errors.New("injected disk full") })
	forceCompaction(sv, "fc")
	postBatch(t, ts.URL, "fc", upsizeBatch(ids[2:4]))
	faultinject.Reset()
	want := captureState(t, ts.URL, "fc")
	s := sv.getSession("fc")
	if s.dirty.Load() {
		t.Fatal("the append made the batch durable; the failed compaction must not leave the session dirty")
	}
	if n := len(journalRecords(t, dir, "fc").Records); n != 2 {
		t.Fatalf("journal holds %d records, want 2", n)
	}
	_, tsB := restart(t, crashImage(t, dir))
	checkSameState(t, "resumed from the journal", captureState(t, tsB.URL, "fc"), want)

	postBatch(t, ts.URL, "fc", upsizeBatch(ids[4:]))
	if n := len(journalRecords(t, dir, "fc").Records); n != 0 {
		t.Fatalf("the next persist did not compact: %d records", n)
	}
	want = captureState(t, ts.URL, "fc")
	_, tsC := restart(t, crashImage(t, dir))
	checkSameState(t, "resumed after the retried compaction", captureState(t, tsC.URL, "fc"), want)
}

// TestCorruptJournalQuarantinesBoth: a bad record with an intact one
// behind it is corruption, not a torn tail; the session is quarantined,
// its checkpoint and journal both set aside.
func TestCorruptJournalQuarantinesBoth(t *testing.T) {
	sv, ts := testServer(t, nil)
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 4)
	createInline(t, ts.URL, "bad", d)
	createInline(t, ts.URL, "good", testDesign(t, 150, 20))
	postBatch(t, ts.URL, "bad", upsizeBatch(ids[:2]))
	postBatch(t, ts.URL, "bad", upsizeBatch(ids[2:]))

	img := crashImage(t, sv.cfg.SnapshotDir)
	jpath := filepath.Join(img, "bad.journal")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data[netio.JournalHeaderLen+40] ^= 0x04 // inside record 1; record 2 is intact
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var events syncBuffer
	obs.SetSink(&events)
	obs.Enable(true)
	defer func() {
		obs.Enable(false)
		obs.SetSink(nil)
	}()
	quarantined := obsQuarantined.Value()
	svB, tsB := restart(t, img)
	svB.mu.Lock()
	_, hasBad := svB.sessions["bad"]
	_, hasGood := svB.sessions["good"]
	svB.mu.Unlock()
	if hasBad || !hasGood {
		t.Fatalf("resident after restart: bad %v, good %v", hasBad, hasGood)
	}
	if obsQuarantined.Value() != quarantined+1 {
		t.Fatal("quarantine not counted")
	}
	for _, name := range []string{"bad.ckpt", "bad.journal"} {
		if _, err := os.Stat(filepath.Join(img, name+".quarantine")); err != nil {
			t.Errorf("%s not quarantined: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(img, name)); err == nil {
			t.Errorf("%s left in place", name)
		}
	}
	if !strings.Contains(events.String(), `"journal_corrupt"`) {
		t.Errorf("no journal_corrupt event: %s", events.String())
	}
	wantStatus(t, doJSON(t, "GET", tsB.URL+"/v1/sessions/bad", nil, nil), http.StatusNotFound)
}

// syncBuffer is an event sink safe for the daemon's goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJournalTelemetry: each batch appends one record, and
// serve.persist.bytes counts every byte written for the session: the
// first checkpoint, the journal header and each record; a compaction
// adds its checkpoint and counts once.
func TestJournalTelemetry(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	sv, ts := testServer(t, nil)
	dir := sv.cfg.SnapshotDir
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 6)
	appends, compactions, bytes0 := obsJournalAppends.Value(), obsJournalCompactions.Value(), obsPersistBytes.Value()
	createInline(t, ts.URL, "tel", d)
	postBatch(t, ts.URL, "tel", upsizeBatch(ids[:2]))
	postBatch(t, ts.URL, "tel", upsizeBatch(ids[2:4]))
	size := func(name string) int64 {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if got := obsJournalAppends.Value() - appends; got != 2 {
		t.Fatalf("%d appends for 2 batches", got)
	}
	if got, want := obsPersistBytes.Value()-bytes0, size("tel.ckpt")+size("tel.journal"); got != want {
		t.Fatalf("persisted %d bytes, the files hold %d", got, want)
	}
	before, journal := obsPersistBytes.Value(), size("tel.journal")
	var record int64 // the compacting batch's record, measured before the truncation
	faultinject.SetError(faultinject.ServeSnapshot, func() error {
		record = size("tel.journal") - journal
		return nil
	})
	defer faultinject.Reset()
	forceCompaction(sv, "tel")
	postBatch(t, ts.URL, "tel", upsizeBatch(ids[4:]))
	if got := obsJournalCompactions.Value() - compactions; got != 1 {
		t.Fatalf("%d compactions, want 1", got)
	}
	if got, want := obsPersistBytes.Value()-before, record+size("tel.ckpt"); record <= 0 || got != want {
		t.Fatalf("a compacting batch persisted %d bytes, want its %d-byte record and the checkpoint, %d", got, record, want)
	}
}

// TestDeleteRacingBatchStaysDeleted: a DELETE that arrives while a batch
// holds the session's lock waits for the batch, whose record lands first,
// and then removes the checkpoint and the journal; nothing resurrects the
// session afterwards.
func TestDeleteRacingBatchStaysDeleted(t *testing.T) {
	sv, ts := testServer(t, nil)
	dir := sv.cfg.SnapshotDir
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 2)
	createInline(t, ts.URL, "race", d)
	s := sv.getSession("race")

	deleted := make(chan int, 1)
	var once sync.Once
	hook := func() error {
		once.Do(func() {
			go func() {
				req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/race", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					deleted <- -1
					return
				}
				resp.Body.Close()
				deleted <- resp.StatusCode
			}()
			// Hold the batch until the DELETE either removed the checkpoint
			// (a DELETE that does not wait for the lock) or queued behind
			// the batch.
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if _, err := os.Stat(sv.snapshotPath("race")); err != nil || s.queued.Load() >= 2 {
					return
				}
			}
			t.Error("the DELETE neither removed the checkpoint nor queued")
		})
		return nil
	}
	faultinject.SetError(faultinject.ServeJournal, hook)
	faultinject.SetError(faultinject.ServeSnapshot, hook)
	postBatch(t, ts.URL, "race", upsizeBatch(ids))
	faultinject.Reset()
	if code := <-deleted; code != http.StatusOK {
		t.Fatalf("DELETE answered %d", code)
	}
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/sessions/race", nil, nil), http.StatusNotFound)
	for _, name := range []string{"race.ckpt", "race.journal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("%s survived the DELETE", name)
		}
	}
}

// TestResurrectWaitsForEviction: a request for a session while its
// eviction is folding the journal into a checkpoint waits for the
// eviction. Resurrected from the files mid-compaction, the session would
// append its next record past the end of the truncated journal, and the
// restarted daemon would quarantine it.
func TestResurrectWaitsForEviction(t *testing.T) {
	sv, ts := testServer(t, func(c *Config) { c.IdleTimeout = time.Minute })
	d := testDesign(t, 300, 40)
	ids := upsizableIDs(t, d, 6)
	createInline(t, ts.URL, "ev", d)
	postBatch(t, ts.URL, "ev", upsizeBatch(ids[:2]))
	postBatch(t, ts.URL, "ev", upsizeBatch(ids[2:4]))

	read := make(chan int, 1)
	var once sync.Once
	faultinject.SetError(faultinject.ServeEvict, func() error {
		once.Do(func() {
			go func() {
				resp, err := http.Get(ts.URL + "/v1/sessions/ev/slacks")
				if err != nil {
					read <- -1
					return
				}
				resp.Body.Close()
				read <- resp.StatusCode
			}()
			// Give a resurrect that does not wait time to finish inside the
			// eviction.
			select {
			case code := <-read:
				read <- code
			case <-time.After(500 * time.Millisecond):
			}
		})
		return nil
	})
	sv.Sweep(time.Now().Add(2 * time.Minute)) // evicts "ev" as idle
	faultinject.Reset()
	if code := <-read; code != http.StatusOK {
		t.Fatalf("the read during the eviction answered %d", code)
	}
	postBatch(t, ts.URL, "ev", upsizeBatch(ids[4:]))
	want := captureState(t, ts.URL, "ev")
	if want.status.Applied != 3 {
		t.Fatalf("session reports %d batches, want 3", want.status.Applied)
	}
	_, tsB := restart(t, crashImage(t, sv.cfg.SnapshotDir))
	checkSameState(t, "resumed after a resurrect during eviction", captureState(t, tsB.URL, "ev"), want)
}
