package netio_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"mgba/internal/gen"
	"mgba/internal/netio"
	"mgba/internal/netlist"
)

// FuzzLoad throws arbitrary bytes — seeded with a valid snapshot plus
// truncations and bit flips of it — at the loader. The contract: Load may
// reject the input with an error, but must never panic, and a design it
// does accept must pass full validation.
func FuzzLoad(f *testing.F) {
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 80, 10
	cfg.Name = "fuzz-seed"
	d, err := gen.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netio.Save(&buf, d); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte("not json at all"))
	for _, frac := range []int{4, 2, 10} {
		f.Add(valid[:len(valid)/frac])
	}
	for _, pos := range []int{17, len(valid) / 3, len(valid) / 2, len(valid) - 20} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0x20
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := netio.Load(bytes.NewReader(data))
		if err != nil {
			if d != nil {
				t.Fatal("Load returned both a design and an error")
			}
			return
		}
		if d == nil {
			t.Fatal("Load returned nil design with nil error")
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid design: %v", err)
		}
	})
}

// cloneDesign copies d's design-level fields, instances and nets so they
// can be mutated; the pin lists stay shared.
func cloneDesign(d *netlist.Design) *netlist.Design {
	c := *d
	c.Instances = make([]*netlist.Instance, len(d.Instances))
	for i, in := range d.Instances {
		cp := *in
		c.Instances[i] = &cp
	}
	c.Nets = make([]*netlist.Net, len(d.Nets))
	for i, n := range d.Nets {
		cp := *n
		c.Nets[i] = &cp
	}
	return &c
}

// FuzzSaveCheckpoint mutates a small design's name, one instance's name
// and placement, one net's parasitics, one weight, the state blob and a
// per-kind blob and its key, and holds SaveCheckpoint to the
// encoding/json reference: the same bytes, or an error from both with
// nothing written. The design carries two accepted buffers. A checkpoint
// of a valid design loads back, and when its strings are valid UTF-8
// (invalid bytes are saved as U+FFFD) saving the loaded checkpoint
// reproduces the bytes.
func FuzzSaveCheckpoint(f *testing.F) {
	cfg := gen.Toy()
	cfg.Gates, cfg.FFs = 80, 10
	cfg.Name = "fuzz-seed"
	base, err := gen.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	base = withBuffers(f, base)
	negZero := math.Copysign(0, -1)
	f.Add("U7", 12.5, 3.25, 1.0, []byte(`{"round":1}`), "retime", uint16(0))
	f.Add("a<b>&\u2028\xff", negZero, 1e21, 5e-324, []byte(` {"a" : [1, {}, []], "b": "<\u2029>"} `), "k\x00", uint16(3))
	f.Add("", 1e-7, 1e-6, math.MaxFloat64, []byte(`"s"`), "", uint16(11))
	f.Add("nan", math.NaN(), 1.0, 1.0, []byte(`{}`), "x", uint16(5))
	f.Add("inf", 1.0, math.Inf(1), 1.0, []byte(`{}`), "x", uint16(6))
	f.Add("weight", 1.0, 1.0, -1.0, []byte(`{}`), "x", uint16(7))
	f.Add("blob", 1.0, 1.0, 1.0, []byte(`{"a":`), "x", uint16(9))
	f.Add("empty", 1.0, 1.0, 1.0, []byte{}, "x", uint16(2))

	f.Fuzz(func(t *testing.T, name string, x, wire, weight float64, blob []byte, kind string, pick uint16) {
		d := cloneDesign(base)
		d.Name = name
		in := d.Instances[int(pick)%len(d.Instances)]
		in.Name, in.X = name, x
		n := d.Nets[int(pick)%len(d.Nets)]
		n.WireCap, n.WireDelay = -x, wire
		w := fitWeights(d)
		w[int(pick)%len(w)] = weight
		c := &netio.Checkpoint{Design: d, Weights: w, State: blob,
			Kinds: map[string]json.RawMessage{kind: blob, "retime": json.RawMessage(`{"lags":{"3":1}}`)}}

		var want, got bytes.Buffer
		refErr := netio.RefSaveCheckpoint(&want, c)
		err := netio.SaveCheckpoint(&got, c)
		if refErr != nil {
			if err == nil || got.Len() != 0 {
				t.Fatalf("reference fails (%v) but SaveCheckpoint returned %v after %d bytes", refErr, err, got.Len())
			}
			return
		}
		if err != nil {
			t.Fatalf("SaveCheckpoint: %v (reference succeeds)", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("SaveCheckpoint differs from encoding/json %s", firstDiff(got.Bytes(), want.Bytes()))
		}

		if d.Validate() != nil {
			return
		}
		back, err := netio.LoadCheckpoint(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("saved checkpoint does not load: %v", err)
		}
		if !utf8.ValidString(name) || !utf8.ValidString(kind) {
			return
		}
		var again bytes.Buffer
		if err := netio.SaveCheckpoint(&again, back); err != nil {
			t.Fatalf("loaded checkpoint does not save: %v", err)
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("save, load, save differs %s", firstDiff(again.Bytes(), got.Bytes()))
		}
	})
}
