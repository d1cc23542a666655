package netio_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mgba/internal/aocv"
	"mgba/internal/cells"
	"mgba/internal/fixtures"
	"mgba/internal/gen"
	"mgba/internal/netio"
	"mgba/internal/netlist"
)

// trickyNames cover every branch of JSON string escaping: HTML-sensitive
// bytes, quote and backslash, control bytes with and without a short
// escape, DEL, multi-byte UTF-8, the two JavaScript line separators, and
// invalid UTF-8 (stray bytes, a truncated sequence, an encoded surrogate).
var trickyNames = []string{
	"plain_name",
	"a<b>&c",
	`quote"back\slash/`,
	"ctl\x00\x01\b\f\n\r\t\x1f\x7f",
	"caf\u00e9 \u65e5\u672c \U0001F600",
	"sep\u2028line\u2029para",
	"bad\xff\xfeutf8\xc3",
	"\xed\xa0\x80surrogate",
	"",
}

// edgeFloats are the number format's edges: signed zero, both sides of
// the exponent-form cut-offs at 1e-6 and 1e21, a one-digit negative
// exponent, the smallest subnormal and the largest float.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, -1e-6, 9.999999999999999e-7,
	1e21, -1e21, 999999999999999900000, 1e-7, -1.5e-300,
	5e-324, math.MaxFloat64, -math.MaxFloat64, 123456.789, 0.1,
}

func smallDesign(t testing.TB, name string) *netlist.Design {
	t.Helper()
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 60, 8
	cfg.Name = name
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fitWeights stands in for fitted weights: one positive weight per
// instance, most of them needing all 17 significant digits.
func fitWeights(d *netlist.Design) []float64 {
	w := make([]float64, len(d.Instances))
	for i := range w {
		w[i] = 1 + float64(i%97)/1013
	}
	return w
}

var serveState = json.RawMessage(`{"source":"D8","applied":1,"calibrated":true}`)

type encoderCase struct {
	name string
	ck   *netio.Checkpoint
}

func encoderCases(t *testing.T) []encoderCase {
	t.Helper()
	var cases []encoderCase
	add := func(name string, ck *netio.Checkpoint) {
		cases = append(cases, encoderCase{name, ck})
	}
	must := func(d *netlist.Design, err error) *netlist.Design {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	for _, cfg := range gen.Suite() {
		d := must(gen.Generate(cfg))
		add(cfg.Name, &netio.Checkpoint{Design: d, Weights: fitWeights(d), State: serveState})
	}
	add("bufcase", &netio.Checkpoint{Design: must(fixtures.BufferCase()), State: serveState})
	rt := must(fixtures.RetimePipeline(4))
	add("retimetoy", &netio.Checkpoint{Design: rt, Weights: fitWeights(rt),
		Kinds: map[string]json.RawMessage{"retime": json.RawMessage(`{"lags":{"3":1,"7":-2}}`)}})

	// A reverted buffer trial leaves a dead instance (output -1, its
	// input list kept) and a dead net (no driver, no sinks, zero wire).
	dead := must(fixtures.BufferCase())
	buf, err := dead.Lib.Pick(cells.Buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dead.InsertBuffer(dead.Instances[dead.FFs[0]].Output, buf, "trial_buf")
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.RemoveBuffer(b); err != nil {
		t.Fatal(err)
	}
	add("dead-slots", &netio.Checkpoint{Design: dead, Weights: fitWeights(dead)})

	names := smallDesign(t, "names<&>\u2028\xff")
	kinds := map[string]json.RawMessage{}
	for i, in := range names.Instances {
		in.Name = trickyNames[i%len(trickyNames)]
		in.Cell = &cells.Cell{Name: trickyNames[(i+1)%len(trickyNames)], Kind: in.Cell.Kind}
	}
	for _, s := range trickyNames {
		kinds[s] = json.RawMessage(`{"k":"<&>"}`)
	}
	add("names", &netio.Checkpoint{Design: names, Kinds: kinds})

	floats := smallDesign(t, "floats")
	floats.ClockPeriod = 5e-324
	for i, in := range floats.Instances {
		in.X = edgeFloats[i%len(edgeFloats)]
		in.Y = edgeFloats[(i+5)%len(edgeFloats)]
	}
	for i, n := range floats.Nets {
		n.WireCap = edgeFloats[(i+2)%len(edgeFloats)]
		n.WireDelay = edgeFloats[(i+9)%len(edgeFloats)]
	}
	var positive []float64
	for _, f := range edgeFloats {
		if f > 0 {
			positive = append(positive, f)
		}
	}
	fw := make([]float64, len(floats.Instances))
	for i := range fw {
		fw[i] = positive[i%len(positive)]
	}
	add("float-edges", &netio.Checkpoint{Design: floats, Weights: fw})

	// Empty and nil lists: empty inputs and sinks are omitted like nil
	// ones, but an empty flip-flop list is [] where nil is null.
	empties := smallDesign(t, "empties")
	for i, in := range empties.Instances {
		if i%3 == 0 {
			in.Inputs = []int{}
		}
	}
	for i, n := range empties.Nets {
		if i%4 == 0 {
			n.Sinks = []int{}
		}
	}
	empties.FFs = []int{}
	add("empty-lists", &netio.Checkpoint{Design: empties})
	nilFFs := smallDesign(t, "nil-ffs")
	nilFFs.FFs = nil
	add("nil-ffs", &netio.Checkpoint{Design: nilFFs, Weights: fitWeights(nilFFs)})
	lib, der := cells.Default(28), aocv.Default(28)
	add("no-instances", &netio.Checkpoint{Design: netlist.New("none", 28, lib, der, 1000), Weights: []float64{}})
	none := netlist.New("none", 28, lib, der, 1000)
	none.Instances, none.Nets, none.FFs = []*netlist.Instance{}, []*netlist.Net{}, []int{}
	add("no-instances-empty-ffs", &netio.Checkpoint{Design: none, State: json.RawMessage(`{}`),
		Kinds: map[string]json.RawMessage{}})

	// Blobs are compacted, HTML-escaped and re-indented at their depth.
	add("blobs", &netio.Checkpoint{
		Design: smallDesign(t, "blobs"),
		State: json.RawMessage(" {\n \"a\" : [ 1 , 2.50 , {\"b\" : \"<&>\xe2\x80\xa8\\u2029\"} ] ,\t" +
			"\"c\" : { } , \"d\" : [ ] , \"e\": null, \"f\": [[], [{}], {\"g\": [true, false]}] }\n"),
		Kinds: map[string]json.RawMessage{
			"zeta":   json.RawMessage(" [ ] "),
			"alpha":  json.RawMessage(` "str<>" `),
			"mid":    nil,
			"num":    json.RawMessage(" -0.0e+00 "),
			"nested": json.RawMessage(`{"x":{"y":[[],[{}]]},"z":[1,[2,[3]]]}`),
		},
	})
	add("scalar-state", &netio.Checkpoint{Design: smallDesign(t, "scalar"), State: json.RawMessage(`42`)})
	return cases
}

// firstDiff describes where two encodings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d: got %q, want %q", i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestEncoderMatchesEncodingJSON: Save and SaveCheckpoint write exactly
// the bytes of encoding/json's indented Encoder over the suite designs,
// both fixtures, a design with dead slots and designs built to hit every
// escaping, number-format, nil-versus-empty and blob-indentation branch.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	for _, tc := range encoderCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var got, want bytes.Buffer
			if err := netio.RefSave(&want, tc.ck.Design); err != nil {
				t.Fatal(err)
			}
			if err := netio.Save(&got, tc.ck.Design); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("Save differs from encoding/json %s", firstDiff(got.Bytes(), want.Bytes()))
			}
			got.Reset()
			want.Reset()
			if err := netio.RefSaveCheckpoint(&want, tc.ck); err != nil {
				t.Fatal(err)
			}
			if err := netio.SaveCheckpoint(&got, tc.ck); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("SaveCheckpoint differs from encoding/json %s", firstDiff(got.Bytes(), want.Bytes()))
			}
		})
	}
}

// chunkRecorder records the size of every write.
type chunkRecorder struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// TestSaveCheckpointWritesFixedChunks: a checkpoint far larger than one
// chunk streams in equal writes, only the last one shorter.
func TestSaveCheckpointWritesFixedChunks(t *testing.T) {
	d, err := gen.Generate(gen.Suite()[7])
	if err != nil {
		t.Fatal(err)
	}
	var rec chunkRecorder
	if err := netio.SaveCheckpoint(&rec, &netio.Checkpoint{Design: d, Weights: fitWeights(d), State: serveState}); err != nil {
		t.Fatal(err)
	}
	if len(rec.sizes) < 3 {
		t.Fatalf("%d writes for %d bytes, want a stream of chunks", len(rec.sizes), rec.Len())
	}
	for i, n := range rec.sizes[:len(rec.sizes)-1] {
		if n != rec.sizes[0] {
			t.Fatalf("write %d is %d bytes, write 0 is %d", i, n, rec.sizes[0])
		}
	}
	if last := rec.sizes[len(rec.sizes)-1]; last == 0 || last > rec.sizes[0] {
		t.Fatalf("last write is %d bytes, chunks are %d", last, rec.sizes[0])
	}
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// TestSaveCheckpointErrorWritesNothing: a checkpoint that cannot be
// encoded fails before its first byte, as encoding/json's single Write
// did, so an atomic file save leaves the previous file and no temp file.
func TestSaveCheckpointErrorWritesNothing(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(c *netio.Checkpoint)
	}{
		{"nan-coordinate", func(c *netio.Checkpoint) { c.Design.Instances[5].X = math.NaN() }},
		{"inf-wire-delay", func(c *netio.Checkpoint) { c.Design.Nets[7].WireDelay = math.Inf(1) }},
		{"invalid-state", func(c *netio.Checkpoint) { c.State = json.RawMessage(`{"phase": "recovery",`) }},
		// Every other float the format carries is checked too.
		{"nan-y", func(c *netio.Checkpoint) { c.Design.Instances[9].Y = math.NaN() }},
		{"inf-clock-period", func(c *netio.Checkpoint) { c.Design.ClockPeriod = math.Inf(1) }},
		{"inf-wire-cap", func(c *netio.Checkpoint) { c.Design.Nets[3].WireCap = math.Inf(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := makeDesign(t)
			good := &netio.Checkpoint{Design: d, Weights: fitWeights(d), State: serveState}
			dir := t.TempDir()
			path := filepath.Join(dir, "ckpt.json")
			if err := netio.SaveCheckpointFile(path, good); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			tc.spoil(good)
			var ref, w countingWriter
			if err := netio.RefSaveCheckpoint(&ref, good); err == nil || ref.n != 0 {
				t.Fatalf("encoding/json reference: err = %v after %d bytes, want an error before any", err, ref.n)
			}
			if err := netio.SaveCheckpoint(&w, good); err == nil || w.n != 0 {
				t.Fatalf("SaveCheckpoint: err = %v after %d bytes, want an error before any", err, w.n)
			}
			if json.Valid(good.State) { // a design float is bad: Save fails too
				if err := netio.Save(&w, good.Design); err == nil || w.n != 0 {
					t.Fatalf("Save: err = %v after %d bytes, want an error before any", err, w.n)
				}
			}

			if err := netio.SaveCheckpointFile(path, good); err == nil {
				t.Fatal("SaveCheckpointFile accepted an unencodable checkpoint")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed save changed the previous checkpoint")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("directory holds %d entries after a failed save, want the checkpoint alone", len(entries))
			}
		})
	}
}

// BenchmarkSaveCheckpoint encodes a D8 checkpoint (the calibd-d8
// snapshot: design, fitted weights, session state) to io.Discard with
// the streaming encoder and with the encoding/json reference.
func BenchmarkSaveCheckpoint(b *testing.B) {
	d, err := gen.Generate(gen.Suite()[7])
	if err != nil {
		b.Fatal(err)
	}
	c := &netio.Checkpoint{Design: d, Weights: fitWeights(d), State: serveState}
	for _, enc := range []struct {
		name string
		save func(io.Writer, *netio.Checkpoint) error
	}{{"stream", netio.SaveCheckpoint}, {"encoding_json", netio.RefSaveCheckpoint}} {
		b.Run(enc.name, func(b *testing.B) {
			var n countingWriter
			if err := enc.save(&n, c); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.save(io.Discard, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
