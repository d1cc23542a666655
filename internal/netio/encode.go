package netio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"mgba/internal/netlist"
)

// The writer side of the format. One hand-written encoder produces exactly
// the bytes encoding/json's Encoder with SetIndent("", " ") writes for
// fileDesign and fileCheckpoint: the same field order and omitempty rules,
// the same HTML-safe string escaping, the same float formatting and the
// same indentation, newline-terminated. It walks the design, weights and
// state blobs directly and streams the document to the writer in
// chunkSize writes through one buffer that lives for the call, instead of
// marshalling the whole document and re-indenting a second copy of it.
//
// Everything that can fail is checked before the first byte is written —
// the weights, every design float (JSON has no NaN or Inf) and the state
// blobs — so a failed save writes nothing, as the single Write of
// encoding/json's Encoder did. The blobs are small and opaque; they still
// go through encoding/json's compact-and-indent, which validates and
// HTML-escapes them.

// chunkSize is the size of every write but the last.
const chunkSize = 32 << 10

// newlineIndent holds a newline and enough one-space indents for the
// deepest level the encoder itself opens (an instance's input list is at
// depth 5; blobs arrive pre-indented).
const newlineIndent = "\n                "

type encoder struct {
	w     io.Writer
	buf   []byte
	err   error // first write error; later output is discarded
	depth int   // nesting depth of the innermost open container
	empty bool  // the innermost open container has no member yet
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, 2*chunkSize)}
}

// open starts an object or array.
func (e *encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.empty = true
}

// close ends the innermost container. Empty ones stay "{}" and "[]".
func (e *encoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.buf = append(e.buf, c)
	e.empty = false
}

// member starts the next array element or object member on its own line.
func (e *encoder) member() {
	if !e.empty {
		e.buf = append(e.buf, ',')
	}
	e.empty = false
	e.newline()
}

// field starts an object member whose key needs no escaping.
func (e *encoder) field(key string) {
	e.member()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '"', ':', ' ')
}

func (e *encoder) newline() {
	e.buf = append(e.buf, newlineIndent[:1+e.depth]...)
}

func (e *encoder) int(v int) {
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}

// ints writes a nil slice as null and any other as an array.
func (e *encoder) ints(v []int) {
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.open('[')
	for _, x := range v {
		e.member()
		e.int(x)
		e.flush()
	}
	e.close(']')
}

// float writes a finite float as encoding/json does: the shortest
// representation that round-trips, in exponent form below 1e-6 and from
// 1e21 up, with the exponent not padded to two digits.
func (e *encoder) float(f float64) {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

func (e *encoder) floats(v []float64) {
	e.open('[')
	for _, x := range v {
		e.member()
		e.float(x)
		e.flush()
	}
	e.close(']')
}

const hexDigits = "0123456789abcdef"

// str writes s as a JSON string with encoding/json's escaping: quote,
// backslash and control bytes escaped (short forms where JSON has them),
// '<', '>' and '&' as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and
// each byte of invalid UTF-8 as \ufffd.
func (e *encoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

// flush writes out every full chunk the buffer holds. After a failed
// write it drops output instead, so the buffer stays bounded while the
// encoder finishes its walk.
func (e *encoder) flush() {
	if e.err != nil {
		e.buf = e.buf[:0]
		return
	}
	for len(e.buf) >= chunkSize {
		if _, e.err = e.w.Write(e.buf[:chunkSize]); e.err != nil {
			e.buf = e.buf[:0]
			return
		}
		e.buf = e.buf[:copy(e.buf, e.buf[chunkSize:])]
	}
}

// finish terminates the document with encoding/json's newline and writes
// what is left.
func (e *encoder) finish() error {
	e.buf = append(e.buf, '\n')
	e.flush()
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	if e.err != nil {
		return fmt.Errorf("netio: %w", e.err)
	}
	return nil
}

// design writes d as fileDesign. Empty instance and net lists are null:
// the old flattening built them by appending to nil slices.
func (e *encoder) design(d *netlist.Design) {
	e.open('{')
	e.field("version")
	e.int(FormatVersion)
	e.field("name")
	e.str(d.Name)
	e.field("node")
	e.int(d.Node)
	e.field("clock_period_ps")
	e.float(d.ClockPeriod)
	e.field("clock_root")
	e.int(d.ClockRoot)
	e.field("instances")
	if len(d.Instances) == 0 {
		e.buf = append(e.buf, "null"...)
	} else {
		e.open('[')
		for _, in := range d.Instances {
			e.member()
			e.open('{')
			e.field("name")
			e.str(in.Name)
			e.field("cell")
			e.str(in.Cell.Name)
			e.field("x")
			e.float(in.X)
			e.field("y")
			e.float(in.Y)
			if len(in.Inputs) > 0 {
				e.field("inputs")
				e.ints(in.Inputs)
			}
			e.field("output")
			e.int(in.Output)
			e.field("clock")
			e.int(in.Clock)
			e.close('}')
			e.flush()
		}
		e.close(']')
	}
	e.field("nets")
	if len(d.Nets) == 0 {
		e.buf = append(e.buf, "null"...)
	} else {
		e.open('[')
		for _, n := range d.Nets {
			e.member()
			e.open('{')
			e.field("driver")
			e.int(n.Driver)
			if len(n.Sinks) > 0 {
				e.field("sinks")
				e.ints(n.Sinks)
			}
			e.field("wire_cap_ff")
			e.float(n.WireCap)
			e.field("wire_delay_ps")
			e.float(n.WireDelay)
			e.close('}')
			e.flush()
		}
		e.close(']')
	}
	e.field("ffs")
	e.ints(d.FFs)
	e.close('}')
}

// validFloats rejects a design holding a float JSON cannot represent.
func validFloats(d *netlist.Design) error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(d.ClockPeriod) {
		return fmt.Errorf("netio: clock period is %v", d.ClockPeriod)
	}
	for i, in := range d.Instances {
		if bad(in.X) || bad(in.Y) {
			return fmt.Errorf("netio: instance %d placed at (%v, %v)", i, in.X, in.Y)
		}
	}
	for i, n := range d.Nets {
		if bad(n.WireCap) || bad(n.WireDelay) {
			return fmt.Errorf("netio: net %d wire cap %v, delay %v", i, n.WireCap, n.WireDelay)
		}
	}
	return nil
}

// checkpointBlobs are a checkpoint's state blobs, validated and indented
// for their place in the document: State is a member of the top-level
// object, each Kinds value a member of the object one level down.
type checkpointBlobs struct {
	state []byte
	kinds []kindBlob // by name, the order encoding/json gives map keys
}

type kindBlob struct {
	name string
	blob []byte
}

func prepareBlobs(c *Checkpoint) (checkpointBlobs, error) {
	var b checkpointBlobs
	var err error
	if len(c.State) > 0 {
		if b.state, err = indentBlob(c.State, 1); err != nil {
			return b, err
		}
	}
	for name, raw := range c.Kinds {
		blob, err := indentBlob(raw, 2)
		if err != nil {
			return b, err
		}
		b.kinds = append(b.kinds, kindBlob{name, blob})
	}
	sort.Slice(b.kinds, func(i, j int) bool { return b.kinds[i].name < b.kinds[j].name })
	return b, nil
}

// indentBlob returns blob compacted, HTML-escaped and indented for a value
// at the given depth, exactly as encoding/json embeds a json.RawMessage
// there, or the error it would fail with. A nil blob is null.
func indentBlob(blob json.RawMessage, depth int) ([]byte, error) {
	b, err := json.MarshalIndent(blob, newlineIndent[1:1+depth], " ")
	if err != nil {
		return nil, fmt.Errorf("netio: %w", err)
	}
	return b, nil
}

// checkpoint writes c as fileCheckpoint, with its blobs prepared by
// prepareBlobs.
func (e *encoder) checkpoint(c *Checkpoint, blobs checkpointBlobs) {
	e.open('{')
	e.field("checkpoint_version")
	e.int(CheckpointVersion)
	e.field("design")
	e.design(c.Design)
	if len(c.Weights) > 0 {
		e.field("weights")
		e.floats(c.Weights)
	}
	if blobs.state != nil {
		e.field("state")
		e.buf = append(e.buf, blobs.state...)
	}
	if len(blobs.kinds) > 0 {
		e.field("kinds")
		e.open('{')
		for _, k := range blobs.kinds {
			e.member()
			e.str(k.name)
			e.buf = append(e.buf, ':', ' ')
			e.buf = append(e.buf, k.blob...)
		}
		e.close('}')
	}
	e.close('}')
}
