package netio_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mgba/internal/gen"
	"mgba/internal/netio"
	"mgba/internal/netlist"
)

// journalRecords builds n consecutive records against d, numbered from
// 1: each upsizes two combinational instances d can still upsize (the
// resize list walks the design, so replaying the records in order is
// valid), carries a weight vector for d and a state blob.
func journalRecords(t testing.TB, d *netlist.Design, n int) []netio.JournalRecord {
	t.Helper()
	cells := make([]string, len(d.Instances))
	for i, in := range d.Instances {
		cells[i] = in.Cell.Name
	}
	next := 0
	recs := make([]netio.JournalRecord, n)
	for k := range recs {
		r := &recs[k]
		r.Seq = uint64(k + 1)
		for len(r.Resizes) < 2 && next < len(d.Instances) {
			id := next
			next++
			in := d.Instances[id]
			if in.IsFF() {
				continue
			}
			up := d.Lib.Upsize(d.Lib.ByName(cells[id]))
			if up == nil {
				continue
			}
			cells[id] = up.Name
			r.Resizes = append(r.Resizes, netio.JournalResize{Instance: id, Cell: up.Name})
		}
		if len(r.Resizes) < 2 {
			t.Fatalf("design %s has too few upsizable instances for %d records", d.Name, n)
		}
		r.Weights = make([]float64, len(d.Instances))
		for i := range r.Weights {
			r.Weights[i] = 1 + float64((i+k)%97)/1013
		}
		r.State = json.RawMessage(fmt.Sprintf(`{"seq":%d,"source":"toy","applied":%d}`, r.Seq, k))
	}
	return recs
}

// writeJournal creates a journal at path holding recs and returns its
// bytes and the end offset of each record.
func writeJournal(t testing.TB, path string, recs []netio.JournalRecord) ([]byte, []int) {
	t.Helper()
	j, err := netio.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ends := make([]int, len(recs))
	for i := range recs {
		if _, err := j.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
		ends[i] = int(j.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != int(j.Size()) {
		t.Fatalf("journal file holds %d bytes, journal reports %d", len(data), j.Size())
	}
	return data, ends
}

// sameRecords reports whether got is the first len(got) of want, bit for
// bit.
func sameRecords(got, want []netio.JournalRecord) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || !reflect.DeepEqual(g.Resizes, w.Resizes) || !bytes.Equal(g.State, w.State) || len(g.Weights) != len(w.Weights) {
			return false
		}
		for k := range g.Weights {
			if math.Float64bits(g.Weights[k]) != math.Float64bits(w.Weights[k]) {
				return false
			}
		}
	}
	return true
}

// TestJournalRoundTrip: appended records parse back bit for bit, in
// order, and each re-encodes to the bytes it was read from.
func TestJournalRoundTrip(t *testing.T) {
	d := smallDesign(t, "journal")
	recs := journalRecords(t, d, 4)
	recs[2].Resizes, recs[2].State = nil, nil // a forced recalibration's record
	recs[3].Weights = nil                     // an uncalibrated session's
	data, ends := writeJournal(t, filepath.Join(t.TempDir(), "s.journal"), recs)

	scan, err := netio.ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != len(recs) || !sameRecords(scan.Records, recs) {
		t.Fatalf("parsed %d records, not the %d written", len(scan.Records), len(recs))
	}
	if scan.Intact != int64(len(data)) || scan.Dropped != 0 {
		t.Fatalf("intact %d dropped %d, want %d and 0", scan.Intact, scan.Dropped, len(data))
	}
	start := netio.JournalHeaderLen
	for i := range scan.Records {
		enc, err := netio.AppendJournalRecord(nil, &scan.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data[start:ends[i]]) {
			t.Fatalf("record %d re-encodes differently", i+1)
		}
		start = ends[i]
	}
}

// TestJournalCutAtEveryByte: a journal cut anywhere past its header
// yields exactly the records that fit whole, and counts the rest as a
// dropped tail; a cut inside the header is an error.
func TestJournalCutAtEveryByte(t *testing.T) {
	d := smallDesign(t, "journal")
	recs := journalRecords(t, d, 3)
	data, ends := writeJournal(t, filepath.Join(t.TempDir(), "s.journal"), recs)
	for cut := 0; cut <= len(data); cut++ {
		scan, err := netio.ParseJournal(data[:cut])
		if cut < netio.JournalHeaderLen {
			if err == nil {
				t.Fatalf("cut at %d inside the header parsed", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		whole, end := 0, netio.JournalHeaderLen
		for whole < len(ends) && ends[whole] <= cut {
			end = ends[whole]
			whole++
		}
		if len(scan.Records) != whole || !sameRecords(scan.Records, recs) {
			t.Fatalf("cut at %d: %d records, want the first %d", cut, len(scan.Records), whole)
		}
		if scan.Intact != int64(end) || scan.Dropped != int64(cut-end) {
			t.Fatalf("cut at %d: intact %d dropped %d, want %d and %d", cut, scan.Intact, scan.Dropped, end, cut-end)
		}
	}
}

// TestJournalFlipEveryBit: one flipped bit in the last record drops
// exactly that record as a torn tail; anywhere before it, header
// included, the journal is corrupt. No flip ever yields a record that was
// not written.
func TestJournalFlipEveryBit(t *testing.T) {
	d := smallDesign(t, "journal")
	recs := journalRecords(t, d, 3)
	data, ends := writeJournal(t, filepath.Join(t.TempDir(), "s.journal"), recs)
	lastStart := ends[len(ends)-2]
	bad := make([]byte, len(data))
	for bit := 0; bit < 8*len(data); bit++ {
		copy(bad, data)
		bad[bit/8] ^= 1 << (bit % 8)
		scan, err := netio.ParseJournal(bad)
		if bit/8 < lastStart {
			if err == nil {
				t.Fatalf("bit %d (byte %d, before the last record) flipped and the journal parsed", bit, bit/8)
			}
			continue
		}
		if err != nil {
			t.Fatalf("bit %d in the last record: %v", bit, err)
		}
		if len(scan.Records) != len(recs)-1 || !sameRecords(scan.Records, recs) {
			t.Fatalf("bit %d in the last record: %d records, want the first %d", bit, len(scan.Records), len(recs)-1)
		}
		if scan.Intact != int64(lastStart) || scan.Dropped != int64(len(data)-lastStart) {
			t.Fatalf("bit %d: intact %d dropped %d", bit, scan.Intact, scan.Dropped)
		}
	}
}

// TestJournalZeroFilledTail: a tail the file system extended with zeros
// is torn, not corrupt.
func TestJournalZeroFilledTail(t *testing.T) {
	d := smallDesign(t, "journal")
	data, ends := writeJournal(t, filepath.Join(t.TempDir(), "s.journal"), journalRecords(t, d, 2))
	scan, err := netio.ParseJournal(append(data, make([]byte, 4096)...))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 2 || scan.Intact != int64(ends[1]) || scan.Dropped != 4096 {
		t.Fatalf("%d records, intact %d, dropped %d", len(scan.Records), scan.Intact, scan.Dropped)
	}
}

// TestJournalRejectsGaps: records whose sequence numbers skip one are
// corrupt.
func TestJournalRejectsGaps(t *testing.T) {
	d := smallDesign(t, "journal")
	recs := journalRecords(t, d, 3)
	recs[2].Seq = 5
	data, _ := writeJournal(t, filepath.Join(t.TempDir(), "s.journal"), recs)
	if _, err := netio.ParseJournal(data); err == nil || !strings.Contains(err.Error(), "follows") {
		t.Fatalf("a gap in the sequence parsed: %v", err)
	}
}

// TestJournalAppendCutsTornTail: reopened at its intact length, a journal
// with a torn tail cuts it before the next append, which then parses
// clean.
func TestJournalAppendCutsTornTail(t *testing.T) {
	d := smallDesign(t, "journal")
	recs := journalRecords(t, d, 3)
	path := filepath.Join(t.TempDir(), "s.journal")
	data, ends := writeJournal(t, path, recs)
	torn := (ends[1] + ends[2]) / 2
	if err := os.Truncate(path, int64(torn)); err != nil {
		t.Fatal(err)
	}
	scan, err := netio.ParseJournal(data[:torn])
	if err != nil || len(scan.Records) != 2 || scan.Dropped == 0 {
		t.Fatalf("torn journal: %v, %+v", err, scan)
	}
	j, err := netio.OpenJournal(path, scan.Intact)
	if err != nil {
		t.Fatal(err)
	}
	again := recs[2]
	again.Resizes = again.Resizes[:1] // not the bytes that were torn
	if _, err := j.Append(&again); err != nil {
		t.Fatal(err)
	}
	j.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err = netio.ParseJournal(after)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]netio.JournalRecord(nil), recs[:2]...), again)
	if len(scan.Records) != 3 || !sameRecords(scan.Records, want) || scan.Dropped != 0 {
		t.Fatalf("after the append: %d records, dropped %d", len(scan.Records), scan.Dropped)
	}
}

// TestJournalTruncateAndCreate: Truncate leaves the header alone, and
// CreateJournal replaces a journal that holds records.
func TestJournalTruncateAndCreate(t *testing.T) {
	d := smallDesign(t, "journal")
	recs := journalRecords(t, d, 2)
	path := filepath.Join(t.TempDir(), "s.journal")
	writeJournal(t, path, recs)
	j, err := netio.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(path); st.Size() != int64(netio.JournalHeaderLen) || j.Size() != st.Size() {
		t.Fatalf("created journal holds %d bytes", st.Size())
	}
	if _, err := j.Append(&recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Truncate(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(&recs[1]); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, _ := os.ReadFile(path)
	scan, err := netio.ParseJournal(data)
	if err != nil || len(scan.Records) != 1 || scan.Records[0].Seq != 2 {
		t.Fatalf("after truncate and append: %v, %+v", err, scan)
	}
	if _, err := j.Append(&recs[1]); err == nil {
		t.Fatal("append to a closed journal succeeded")
	}
}

// TestReplayJournal: replay applies the records after the checkpoint's
// sequence number in order, skips stale ones, and rejects what
// LoadCheckpoint would reject.
func TestReplayJournal(t *testing.T) {
	d := smallDesign(t, "journal")
	recs := journalRecords(t, d, 3)
	checkpoint := func() *netio.Checkpoint {
		return &netio.Checkpoint{Design: smallDesign(t, "journal"), Weights: fitWeights(d), State: serveState}
	}
	c := checkpoint()
	seq, err := netio.ReplayJournal(c, 0, recs)
	if err != nil || seq != 3 {
		t.Fatalf("replay: seq %d, %v", seq, err)
	}
	if !sameRecords([]netio.JournalRecord{{Seq: 3, Resizes: recs[2].Resizes, Weights: c.Weights, State: c.State}}, recs[2:]) {
		t.Fatal("replay did not end on the last record's weights and state")
	}
	for _, r := range recs {
		for _, rz := range r.Resizes {
			if c.Design.Instances[rz.Instance].Cell.Name != rz.Cell {
				t.Fatalf("instance %d is %s after replay, want %s", rz.Instance, c.Design.Instances[rz.Instance].Cell.Name, rz.Cell)
			}
		}
	}

	// Records up to the checkpoint's are stale: only the third applies.
	c = checkpoint()
	if seq, err := netio.ReplayJournal(c, 2, recs); err != nil || seq != 3 {
		t.Fatalf("stale replay: seq %d, %v", seq, err)
	}
	if rz := recs[0].Resizes[0]; c.Design.Instances[rz.Instance].Cell.Name == rz.Cell {
		t.Fatal("a stale record was applied")
	}
	if seq, err := netio.ReplayJournal(checkpoint(), 5, recs); err != nil || seq != 5 {
		t.Fatalf("all-stale replay: seq %d, %v", seq, err)
	}
	if _, err := netio.ReplayJournal(checkpoint(), 0, recs[1:]); err == nil {
		t.Fatal("a journal starting past the checkpoint's next record replayed")
	}

	ff := d.Instances[d.FFs[0]].Cell.Name
	bad := []struct {
		name string
		edit func(r *netio.JournalRecord)
	}{
		{"negative instance", func(r *netio.JournalRecord) { r.Resizes[0].Instance = -1 }},
		{"instance out of range", func(r *netio.JournalRecord) { r.Resizes[0].Instance = len(d.Instances) }},
		{"unknown cell", func(r *netio.JournalRecord) { r.Resizes[0].Cell = "NOPE_X9" }},
		{"cell of another kind", func(r *netio.JournalRecord) { r.Resizes[0].Cell = ff }},
		{"short weights", func(r *netio.JournalRecord) { r.Weights = r.Weights[1:] }},
		{"NaN weight", func(r *netio.JournalRecord) { r.Weights[3] = math.NaN() }},
		{"infinite weight", func(r *netio.JournalRecord) { r.Weights[3] = math.Inf(1) }},
		{"zero weight", func(r *netio.JournalRecord) { r.Weights[3] = 0 }},
		{"negative weight", func(r *netio.JournalRecord) { r.Weights[3] = -1 }},
		{"state not JSON", func(r *netio.JournalRecord) { r.State = json.RawMessage(`{"seq":`) }},
	}
	for _, tc := range bad {
		r := recs[0]
		r.Resizes = append([]netio.JournalResize(nil), r.Resizes...)
		r.Weights = append([]float64(nil), r.Weights...)
		tc.edit(&r)
		if _, err := netio.ReplayJournal(checkpoint(), 0, []netio.JournalRecord{r}); err == nil {
			t.Errorf("%s: replay accepted the record", tc.name)
		}
	}
}

// FuzzJournal throws arbitrary bytes at the reader, and cuts and flips a
// valid journal. The reader never panics; every record it accepts
// re-encodes to the bytes it was read from, and the accepted records and
// the dropped tail account for the whole input. A valid journal cut at
// any byte, or with any single bit flipped (flip > 0 names bit flip-1),
// never yields a record that was not written.
func FuzzJournal(f *testing.F) {
	recs := []netio.JournalRecord{
		{Seq: 1, Resizes: []netio.JournalResize{{Instance: 3, Cell: "NAND2_X2"}}, Weights: []float64{1, 1.25, 0.5}, State: json.RawMessage(`{"seq":1}`)},
		{Seq: 2, Weights: []float64{1, 1.5, 0.75}, State: json.RawMessage(`{"seq":2}`)},
		{Seq: 3, Resizes: []netio.JournalResize{{Instance: 0, Cell: ""}, {Instance: 7, Cell: "INV_X4"}}},
	}
	valid, ends := writeJournal(f, filepath.Join(f.TempDir(), "f.journal"), recs)
	f.Add(valid, uint32(len(valid)), uint32(0))
	f.Add([]byte{}, uint32(0), uint32(0))
	f.Add(valid[:netio.JournalHeaderLen], uint32(ends[0]-1), uint32(0))
	f.Add(valid[:ends[1]], uint32(ends[1]), uint32(8*ends[0]+3))
	f.Add(append(append([]byte(nil), valid...), 0, 0, 0, 0), uint32(len(valid)), uint32(8*len(valid)-1))
	f.Add(append(append([]byte(nil), valid[:ends[0]]...), valid[ends[1]:]...), uint32(ends[2]), uint32(8*netio.JournalHeaderLen+1))

	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint32) {
		if scan, err := netio.ParseJournal(data); err == nil {
			off := netio.JournalHeaderLen
			for i := range scan.Records {
				enc, err := netio.AppendJournalRecord(nil, &scan.Records[i])
				if err != nil {
					t.Fatalf("accepted record %d does not encode: %v", i, err)
				}
				if off+len(enc) > len(data) || !bytes.Equal(enc, data[off:off+len(enc)]) {
					t.Fatalf("accepted record %d re-encodes differently", i)
				}
				off += len(enc)
			}
			if scan.Intact != int64(off) || scan.Intact+scan.Dropped != int64(len(data)) {
				t.Fatalf("intact %d + dropped %d does not cover %d bytes (records end at %d)", scan.Intact, scan.Dropped, len(data), off)
			}
		}

		bad := append([]byte(nil), valid[:int(cut%uint32(len(valid)+1))]...)
		if flip > 0 && len(bad) > 0 {
			bit := int((flip - 1) % uint32(8*len(bad)))
			bad[bit/8] ^= 1 << (bit % 8)
		}
		if scan, err := netio.ParseJournal(bad); err == nil && !sameRecords(scan.Records, recs) {
			t.Fatalf("cut %d, flip %d: the reader yielded a record that was not written", len(bad), flip)
		}
	})
}

// BenchmarkJournalAppend writes one D8-sized journal record (16 resizes,
// D8's fitted weights, the session state): "encode" to memory, as
// BenchmarkSaveCheckpoint encodes a D8 checkpoint, and "fsync" appended
// to a journal file and synced, as calibd does per batch.
func BenchmarkJournalAppend(b *testing.B) {
	d, err := gen.Generate(gen.Suite()[7])
	if err != nil {
		b.Fatal(err)
	}
	r := &netio.JournalRecord{Seq: 1, Weights: fitWeights(d), State: serveState}
	for id, in := range d.Instances {
		if len(r.Resizes) == 16 {
			break
		}
		if up := d.Lib.Upsize(in.Cell); up != nil && !in.IsFF() {
			r.Resizes = append(r.Resizes, netio.JournalResize{Instance: id, Cell: up.Name})
		}
	}
	enc, err := netio.AppendJournalRecord(nil, r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		buf := enc[:0]
		for i := 0; i < b.N; i++ {
			if buf, err = netio.AppendJournalRecord(buf[:0], r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fsync", func(b *testing.B) {
		j, err := netio.CreateJournal(filepath.Join(b.TempDir(), "d8.journal"))
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Seq = uint64(i + 1)
			if _, err := j.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
