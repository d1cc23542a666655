package netio_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mgba/internal/faultinject"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/netlist"
	"mgba/internal/sta"
)

func genDesign(t *testing.T) ([]byte, *sta.Result) {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 300, 40
	cfg.Name = "netio-test"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, sta.DefaultConfig())
	var buf bytes.Buffer
	if err := netio.Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

func TestRoundTripPreservesTiming(t *testing.T) {
	blob, orig := genDesign(t)
	d2, err := netio.Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Build(d2)
	if err != nil {
		t.Fatal(err)
	}
	r2 := sta.Analyze(g2, sta.DefaultConfig())
	if len(r2.Slack) != len(orig.Slack) {
		t.Fatalf("endpoint counts differ: %d vs %d", len(r2.Slack), len(orig.Slack))
	}
	for fi := range orig.Slack {
		a, b := orig.Slack[fi], r2.Slack[fi]
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			continue
		}
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("endpoint %d slack drifted: %v vs %v", fi, a, b)
		}
	}
	if math.Abs(orig.TNS-r2.TNS) > 1e-9 {
		t.Fatalf("TNS drifted: %v vs %v", orig.TNS, r2.TNS)
	}
}

func TestRoundTripIdempotent(t *testing.T) {
	blob, _ := genDesign(t)
	d2, err := netio.Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := netio.Save(&buf2, d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, buf2.Bytes()) {
		t.Fatal("save -> load -> save is not byte-identical")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := netio.Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	blob, _ := genDesign(t)
	bad := bytes.Replace(blob, []byte("\"version\": 1"), []byte("\"version\": 99"), 1)
	if bytes.Equal(bad, blob) {
		t.Fatal("version field not found in blob")
	}
	if _, err := netio.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestLoadRejectsUnknownCell(t *testing.T) {
	blob, _ := genDesign(t)
	bad := bytes.Replace(blob, []byte("\"DFF_X1\""), []byte("\"BOGUS_X9\""), 1)
	if _, err := netio.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown cell accepted")
	}
}

func TestLoadRejectsDanglingReferences(t *testing.T) {
	blob, _ := genDesign(t)
	// Point an output at a non-existent net.
	bad := bytes.Replace(blob, []byte("\"output\": 1,"), []byte("\"output\": 99999,"), 1)
	if bytes.Equal(bad, blob) {
		t.Skip("no matching output field to corrupt")
	}
	if _, err := netio.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("dangling net reference accepted")
	}
}

func TestSaveStreams(t *testing.T) {
	blob, _ := genDesign(t)
	if len(blob) < 1000 {
		t.Fatalf("implausibly small blob: %d bytes", len(blob))
	}
	if !strings.Contains(string(blob), "\"clock_period_ps\"") {
		t.Fatal("missing clock period field")
	}
}

// makeDesign generates a small valid design for file-level tests.
func makeDesign(t *testing.T) *netlist.Design {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 120, 16
	cfg.Name = "netio-file-test"
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// failingWriter errors after passing through limit bytes, simulating a
// disk-full or crash partway through a snapshot write.
type failingWriter struct {
	w     io.Writer
	limit int
	n     int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		room := f.limit - f.n
		if room > 0 {
			f.w.Write(p[:room])
			f.n = f.limit
		}
		return room, errors.New("injected write failure")
	}
	n, err := f.w.Write(p)
	f.n += n
	return n, err
}

func TestSaveFileRoundTrip(t *testing.T) {
	d := makeDesign(t)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := netio.SaveFile(path, d); err != nil {
		t.Fatal(err)
	}
	d2, err := netio.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Instances) != len(d.Instances) || len(d2.Nets) != len(d.Nets) {
		t.Fatalf("round trip lost elements: %d/%d instances, %d/%d nets",
			len(d2.Instances), len(d.Instances), len(d2.Nets), len(d.Nets))
	}
}

// TestSaveFileCrashLeavesOldSnapshot simulates a crash mid-write: the
// injected writer fails after a partial write, and the previous snapshot
// must survive untouched with no temp files littering the directory.
func TestSaveFileCrashLeavesOldSnapshot(t *testing.T) {
	d := makeDesign(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := netio.SaveFile(path, d); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.SetWriter(faultinject.NetioWrite, func(w io.Writer) io.Writer {
		return &failingWriter{w: w, limit: 64}
	})
	defer faultinject.Reset()
	if err := netio.SaveFile(path, d); err == nil {
		t.Fatal("SaveFile succeeded despite injected write failure")
	}
	faultinject.Reset()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save corrupted the existing snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("temp litter left behind: %v", names)
	}
	if d2, err := netio.LoadFile(path); err != nil || d2.Validate() != nil {
		t.Fatalf("surviving snapshot unreadable: %v", err)
	}
}

// TestSaveFileDirSyncFault exercises the rename-then-crash window: the
// rename itself succeeds but the parent-directory fsync that makes it
// durable fails. The writer must surface that as an error — a caller told
// "checkpoint ok" while the directory entry could still roll back on power
// loss is exactly the bug this sync exists to close — while the renamed
// file (already complete on disk) must load cleanly.
func TestSaveFileDirSyncFault(t *testing.T) {
	d := makeDesign(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")

	faultinject.SetError(faultinject.NetioSyncDir, func() error {
		return errors.New("injected dir sync failure")
	})
	defer faultinject.Reset()
	err := netio.SaveFile(path, d)
	faultinject.Reset()
	if err == nil {
		t.Fatal("SaveFile reported success despite the directory sync failing")
	}
	if !strings.Contains(err.Error(), "sync dir") {
		t.Fatalf("error does not identify the directory sync: %v", err)
	}

	// The rename happened before the failed sync: the new snapshot is
	// complete and readable, and no temp litter remains.
	d2, err := netio.LoadFile(path)
	if err != nil {
		t.Fatalf("renamed snapshot unreadable after dir-sync failure: %v", err)
	}
	if len(d2.Instances) != len(d.Instances) {
		t.Fatalf("snapshot incomplete: %d/%d instances", len(d2.Instances), len(d.Instances))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("unexpected directory contents: %v", entries)
	}

	// A clean retry over the same path must succeed and stay durable.
	if err := netio.SaveFile(path, d); err != nil {
		t.Fatalf("retry after dir-sync fault failed: %v", err)
	}
}

// TestCheckpointFileDirSyncFault runs the same window through the
// checkpoint writer, which is what the closure flow calls mid-run.
func TestCheckpointFileDirSyncFault(t *testing.T) {
	d := makeDesign(t)
	w := make([]float64, len(d.Instances))
	for i := range w {
		w[i] = 1
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	faultinject.SetError(faultinject.NetioSyncDir, func() error {
		return errors.New("injected dir sync failure")
	})
	defer faultinject.Reset()
	if err := netio.SaveCheckpointFile(path, &netio.Checkpoint{Design: d, Weights: w}); err == nil {
		t.Fatal("checkpoint save reported success despite the directory sync failing")
	}
	faultinject.Reset()
	if _, err := netio.LoadCheckpointFile(path); err != nil {
		t.Fatalf("renamed checkpoint unreadable: %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	d := makeDesign(t)
	w := make([]float64, len(d.Instances))
	for i := range w {
		w[i] = 1 + 0.001*float64(i%7)
	}
	state := json.RawMessage(`{"phase":"recovery","round":3}`)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := netio.SaveCheckpointFile(path, &netio.Checkpoint{Design: d, Weights: w, State: state}); err != nil {
		t.Fatal(err)
	}
	c, err := netio.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Weights) != len(w) {
		t.Fatalf("weights length drifted: %d vs %d", len(c.Weights), len(w))
	}
	for i := range w {
		if c.Weights[i] != w[i] {
			t.Fatalf("weight %d drifted: %v vs %v", i, c.Weights[i], w[i])
		}
	}
	var got, want bytes.Buffer
	if err := json.Compact(&got, c.State); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("state blob drifted: %s vs %s", got.Bytes(), want.Bytes())
	}
	if err := c.Design.Validate(); err != nil {
		t.Fatalf("loaded checkpoint design invalid: %v", err)
	}
}

func TestCheckpointNilWeights(t *testing.T) {
	d := makeDesign(t)
	var buf bytes.Buffer
	if err := netio.SaveCheckpoint(&buf, &netio.Checkpoint{Design: d}); err != nil {
		t.Fatal(err)
	}
	c, err := netio.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Weights != nil {
		t.Fatal("nil weights did not round trip as nil")
	}
}

func TestCheckpointRejectsBadWeights(t *testing.T) {
	d := makeDesign(t)
	bad := [][]float64{
		make([]float64, len(d.Instances)+1),              // wrong length (also zeros)
		append(make([]float64, len(d.Instances)-1), -1),  // negative
		append(make([]float64, len(d.Instances)-1), 0.5), // zeros elsewhere
	}
	nan := make([]float64, len(d.Instances))
	for i := range nan {
		nan[i] = 1
	}
	nan[3] = math.NaN()
	bad = append(bad, nan)
	for i, w := range bad {
		var buf bytes.Buffer
		if err := netio.SaveCheckpoint(&buf, &netio.Checkpoint{Design: d, Weights: w}); err == nil {
			t.Fatalf("bad weights %d accepted by SaveCheckpoint", i)
		}
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	d := makeDesign(t)
	w := make([]float64, len(d.Instances))
	for i := range w {
		w[i] = 1
	}
	var buf bytes.Buffer
	if err := netio.SaveCheckpoint(&buf, &netio.Checkpoint{Design: d, Weights: w}); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, err := netio.LoadCheckpoint(bytes.NewReader(blob[:len(blob)/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	bad := bytes.Replace(blob, []byte(`"checkpoint_version": 2`), []byte(`"checkpoint_version": 9`), 1)
	if bytes.Equal(bad, blob) {
		t.Fatal("checkpoint version field not found")
	}
	if _, err := netio.LoadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong checkpoint version accepted")
	}
}

// TestLoadReadFault exercises the NetioRead hook: a reader that truncates
// the stream mid-flight must surface as a load error.
func TestLoadReadFault(t *testing.T) {
	blob, _ := genDesign(t)
	faultinject.SetReader(faultinject.NetioRead, func(r io.Reader) io.Reader {
		return io.LimitReader(r, int64(len(blob)/3))
	})
	defer faultinject.Reset()
	if _, err := netio.Load(bytes.NewReader(blob)); err == nil {
		t.Fatal("truncated read accepted")
	}
}

// loadAsV1 saves ck, demotes the file's version field to 1 and loads it
// back, returning the load error.
func loadAsV1(t *testing.T, ck *netio.Checkpoint) error {
	t.Helper()
	var buf bytes.Buffer
	if err := netio.SaveCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(buf.Bytes(), []byte(`"checkpoint_version": 2`), []byte(`"checkpoint_version": 1`), 1)
	if bytes.Equal(v1, buf.Bytes()) {
		t.Fatal("checkpoint version field not found")
	}
	_, err := netio.LoadCheckpoint(bytes.NewReader(v1))
	return err
}

// TestCheckpointV1ReadCompat: v1 read-compat is gone, and only the current
// checkpoint format loads. A version-1 file without per-kind blobs (the
// bytes a pre-v2 writer produced, which nothing has written since) is
// refused with an error that names its version.
func TestCheckpointV1ReadCompat(t *testing.T) {
	d := makeDesign(t)
	err := loadAsV1(t, &netio.Checkpoint{Design: d, State: json.RawMessage(`{"round":1}`)})
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 checkpoint: err = %v, want a rejection naming version 1", err)
	}
}

// TestCheckpointV1RejectsKinds: a checkpoint claiming version 1 but carrying
// per-transform blobs is refused too, never loaded with its state dropped.
func TestCheckpointV1RejectsKinds(t *testing.T) {
	d := makeDesign(t)
	err := loadAsV1(t, &netio.Checkpoint{
		Design: d,
		Kinds:  map[string]json.RawMessage{"retime": json.RawMessage(`{"lags":{"3":1}}`)},
	})
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 checkpoint with kinds: err = %v, want a rejection naming version 1", err)
	}
}

// TestCheckpointKindsRoundTrip: per-transform blobs survive save/load
// byte-for-byte (modulo JSON whitespace).
func TestCheckpointKindsRoundTrip(t *testing.T) {
	d := makeDesign(t)
	kinds := map[string]json.RawMessage{
		"retime": json.RawMessage(`{"lags":{"3":1,"7":-2}}`),
	}
	var buf bytes.Buffer
	if err := netio.SaveCheckpoint(&buf, &netio.Checkpoint{Design: d, Kinds: kinds}); err != nil {
		t.Fatal(err)
	}
	c, err := netio.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := json.Compact(&got, c.Kinds["retime"]); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, kinds["retime"]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("kinds blob drifted: %s vs %s", got.Bytes(), want.Bytes())
	}
}

// TestCheckpointRefusesDeadSlot: a checkpoint from before reverted buffer
// trials popped their slots can hold a dead instance (no inputs, output
// -1, "dead": true) and its dead net. The format has no dead field any
// more, so such a file must fail to load, never load the slot as a live
// buffer: the loaded design's validation refuses the buffer's missing
// input.
func TestCheckpointRefusesDeadSlot(t *testing.T) {
	path := filepath.Join("testdata", "dead_slot_checkpoint.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"dead": true`)) {
		t.Fatal("fixture holds no dead slot")
	}
	c, err := netio.LoadCheckpointFile(path)
	if err == nil || c != nil {
		t.Fatalf("dead-slot checkpoint loaded (err = %v)", err)
	}
	if !strings.Contains(err.Error(), "has 0 inputs") {
		t.Fatalf("err = %v, want the loaded design's arity check", err)
	}
}
