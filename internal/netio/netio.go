// Package netio persists designs to a versioned JSON format and loads them
// back, so generated test cases can be archived, diffed and shared. Cell
// and derate libraries are reconstructed from the design's technology node
// (the library is synthesized deterministically), so the format stores
// cell *names*, not characterization data.
//
// On top of plain design snapshots the package provides atomic file
// persistence (write to a temp file in the target directory, fsync,
// rename) and a checkpoint format bundling a design with calibration
// weights and an opaque flow-state blob — the durability layer of the
// closure flow's checkpoint/resume mechanism. Beside a checkpoint, an
// append-only journal (journal.go) records the resizes, weights and state
// of each later change in checksummed binary records, replayed over the
// checkpoint on resume.
package netio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"mgba/internal/aocv"
	"mgba/internal/cells"
	"mgba/internal/faultinject"
	"mgba/internal/netlist"
)

// FormatVersion identifies the on-disk design schema.
const FormatVersion = 1

// CheckpointVersion identifies the on-disk checkpoint schema, the only
// one LoadCheckpoint accepts. Version 2 added the per-transform-kind state
// blobs.
const CheckpointVersion = 2

// fileDesign, fileInstance, fileNet and fileCheckpoint are the on-disk
// schema. Load and LoadCheckpoint decode through their json tags; the
// encoder in encode.go writes the same fields in the same order by hand,
// so a schema change is made in both places
// (TestEncoderMatchesEncodingJSON fails on any mismatch).
type fileDesign struct {
	Version     int     `json:"version"`
	Name        string  `json:"name"`
	Node        int     `json:"node"`
	ClockPeriod float64 `json:"clock_period_ps"`
	ClockRoot   int     `json:"clock_root"`

	Instances []fileInstance `json:"instances"`
	Nets      []fileNet      `json:"nets"`
	FFs       []int          `json:"ffs"`
}

type fileInstance struct {
	Name   string  `json:"name"`
	Cell   string  `json:"cell"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Inputs []int   `json:"inputs,omitempty"`
	Output int     `json:"output"`
	Clock  int     `json:"clock"`
}

type fileNet struct {
	Driver    int     `json:"driver"`
	Sinks     []int   `json:"sinks,omitempty"`
	WireCap   float64 `json:"wire_cap_ff"`
	WireDelay float64 `json:"wire_delay_ps"`
}

// fromFile reconstructs and revalidates a design from its serialized form.
func fromFile(fd *fileDesign) (*netlist.Design, error) {
	if fd.Version != FormatVersion {
		return nil, fmt.Errorf("netio: unsupported format version %d (want %d)", fd.Version, FormatVersion)
	}
	lib, err := cells.DefaultLibrary(fd.Node)
	if err != nil {
		return nil, fmt.Errorf("netio: node %d: %w", fd.Node, err)
	}
	derates, err := aocv.DefaultSet(fd.Node)
	if err != nil {
		return nil, fmt.Errorf("netio: node %d: %w", fd.Node, err)
	}
	d := netlist.New(fd.Name, fd.Node, lib, derates, fd.ClockPeriod)
	for i, fi := range fd.Instances {
		cell := lib.ByName(fi.Cell)
		if cell == nil {
			return nil, fmt.Errorf("netio: instance %d references unknown cell %q", i, fi.Cell)
		}
		in := &netlist.Instance{
			ID:     i,
			Name:   fi.Name,
			Cell:   cell,
			X:      fi.X,
			Y:      fi.Y,
			Inputs: fi.Inputs,
			Output: fi.Output,
			Clock:  fi.Clock,
		}
		d.Instances = append(d.Instances, in)
	}
	for i, fn := range fd.Nets {
		d.Nets = append(d.Nets, &netlist.Net{
			ID:        i,
			Driver:    fn.Driver,
			Sinks:     fn.Sinks,
			WireCap:   fn.WireCap,
			WireDelay: fn.WireDelay,
		})
	}
	d.FFs = fd.FFs
	d.ClockRoot = fd.ClockRoot
	if err := checkRefs(d); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("netio: loaded design invalid: %w", err)
	}
	return d, nil
}

// Save writes the design as indented JSON. It checks the design first and
// writes nothing when it cannot be saved (a NaN or infinite coordinate,
// clock period or wire parasitic). For durable on-disk snapshots use
// SaveFile, which writes atomically.
func Save(w io.Writer, d *netlist.Design) error {
	if err := validFloats(d); err != nil {
		return err
	}
	e := newEncoder(faultinject.Writer(faultinject.NetioWrite, w))
	e.design(d)
	return e.finish()
}

// Load reads a design saved by Save and revalidates it. The standard-cell
// library and AOCV tables are resynthesized from the stored node.
func Load(r io.Reader) (*netlist.Design, error) {
	r = faultinject.Reader(faultinject.NetioRead, r)
	var fd fileDesign
	dec := json.NewDecoder(r)
	if err := dec.Decode(&fd); err != nil {
		return nil, fmt.Errorf("netio: %w", err)
	}
	return fromFile(&fd)
}

// writeAtomic writes via fn to a temp file alongside path, fsyncs, renames
// it over path, and fsyncs the parent directory, so a crash at any point
// can never clobber or lose an existing snapshot: readers observe either
// the old complete file or the new one. The directory sync is what makes
// the rename itself durable — without it, a power loss shortly after a
// "successful" checkpoint can roll the directory entry back to the old
// file (or to nothing, for a first write).
func writeAtomic(path string, fn func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = fn(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	if err = syncDir(dir); err != nil {
		// The rename has happened and the new snapshot is complete on
		// disk; only its durability against power loss is in doubt, which
		// the caller must hear about.
		return fmt.Errorf("netio: sync dir after rename: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a preceding rename in it is durable.
func syncDir(dir string) error {
	if err := faultinject.Err(faultinject.NetioSyncDir); err != nil {
		return err
	}
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := df.Sync()
	cerr := df.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// SaveFile atomically writes the design snapshot to path.
func SaveFile(path string, d *netlist.Design) error {
	return writeAtomic(path, func(w io.Writer) error { return Save(w, d) })
}

// LoadFile loads a design snapshot from path.
func LoadFile(path string) (*netlist.Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netio: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Checkpoint bundles everything needed to resume an interrupted
// optimization run: the current design, the calibration weights in effect
// (nil when running pure GBA), an opaque flow-state blob owned by the
// flow that wrote the checkpoint, and — since format v2 — per-transform
// state blobs keyed by transform kind (a stateful transform like the
// retimer checkpoints its lag map there). Version-1 checkpoints load with
// nil Kinds; the flow derives what it can from the v1 counters.
type Checkpoint struct {
	Design  *netlist.Design
	Weights []float64
	State   json.RawMessage
	Kinds   map[string]json.RawMessage
}

type fileCheckpoint struct {
	Version int                        `json:"checkpoint_version"`
	Design  fileDesign                 `json:"design"`
	Weights []float64                  `json:"weights,omitempty"`
	State   json.RawMessage            `json:"state,omitempty"`
	Kinds   map[string]json.RawMessage `json:"kinds,omitempty"`
}

// SaveCheckpoint writes the checkpoint as one JSON document (always at
// the current CheckpointVersion). It checks the weights, the design's
// floats and the state blobs first and writes nothing when any is bad.
func SaveCheckpoint(w io.Writer, c *Checkpoint) error {
	if c == nil || c.Design == nil {
		return fmt.Errorf("netio: nil checkpoint design")
	}
	if err := validWeights(c.Weights, len(c.Design.Instances)); err != nil {
		return err
	}
	if err := validFloats(c.Design); err != nil {
		return err
	}
	blobs, err := prepareBlobs(c)
	if err != nil {
		return err
	}
	e := newEncoder(faultinject.Writer(faultinject.NetioWrite, w))
	e.checkpoint(c, blobs)
	return e.finish()
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint, fully
// revalidating the embedded design and weights: a corrupt or truncated
// stream yields an error, never a partially valid checkpoint. Any version
// but CheckpointVersion is rejected.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	r = faultinject.Reader(faultinject.NetioRead, r)
	var fc fileCheckpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("netio: %w", err)
	}
	if fc.Version != CheckpointVersion {
		return nil, fmt.Errorf("netio: unsupported checkpoint version %d (want %d)", fc.Version, CheckpointVersion)
	}
	d, err := fromFile(&fc.Design)
	if err != nil {
		return nil, err
	}
	if err := validWeights(fc.Weights, len(d.Instances)); err != nil {
		return nil, err
	}
	return &Checkpoint{Design: d, Weights: fc.Weights, State: fc.State, Kinds: fc.Kinds}, nil
}

// SaveCheckpointFile atomically writes the checkpoint to path.
func SaveCheckpointFile(path string, c *Checkpoint) error {
	return writeAtomic(path, func(w io.Writer) error { return SaveCheckpoint(w, c) })
}

// LoadCheckpointFile loads a checkpoint from path.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netio: %w", err)
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// validWeights checks a calibration weight vector against the design it
// belongs to: nil is fine (pure GBA), otherwise one positive finite weight
// per instance.
func validWeights(w []float64, instances int) error {
	if w == nil {
		return nil
	}
	if len(w) != instances {
		return fmt.Errorf("netio: %d weights for %d instances", len(w), instances)
	}
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("netio: weight %d is %v", i, v)
		}
	}
	return nil
}

// checkRefs bounds-checks every cross-reference before Validate walks them.
func checkRefs(d *netlist.Design) error {
	nI, nN := len(d.Instances), len(d.Nets)
	netOK := func(id int) bool { return id >= -1 && id < nN }
	instOK := func(id int) bool { return id >= -1 && id < nI }
	for i, in := range d.Instances {
		if !netOK(in.Output) || !netOK(in.Clock) {
			return fmt.Errorf("netio: instance %d has out-of-range net reference", i)
		}
		for _, nid := range in.Inputs {
			if nid < 0 || nid >= nN {
				return fmt.Errorf("netio: instance %d input net %d out of range", i, nid)
			}
		}
	}
	for i, n := range d.Nets {
		if !instOK(n.Driver) {
			return fmt.Errorf("netio: net %d driver out of range", i)
		}
		for _, s := range n.Sinks {
			if s < 0 || s >= nI {
				return fmt.Errorf("netio: net %d sink %d out of range", i, s)
			}
		}
	}
	for _, ff := range d.FFs {
		if ff < 0 || ff >= nI {
			return fmt.Errorf("netio: FF id %d out of range", ff)
		}
		if !d.Instances[ff].IsFF() {
			return fmt.Errorf("netio: instance %d listed as FF but is %s", ff, d.Instances[ff].Cell.Name)
		}
	}
	if d.ClockRoot < -1 || d.ClockRoot >= nN {
		return fmt.Errorf("netio: clock root %d out of range", d.ClockRoot)
	}
	return nil
}
