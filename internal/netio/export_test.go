package netio

import (
	"encoding/json"
	"fmt"
	"io"

	"mgba/internal/netlist"
)

// The encoding/json reference: the writer the streaming encoder replaced,
// which the byte-identity tests and FuzzSaveCheckpoint hold it to.

// toFile flattens a design into its serializable form.
func toFile(d *netlist.Design) fileDesign {
	fd := fileDesign{
		Version:     FormatVersion,
		Name:        d.Name,
		Node:        d.Node,
		ClockPeriod: d.ClockPeriod,
		ClockRoot:   d.ClockRoot,
		FFs:         d.FFs,
	}
	for _, in := range d.Instances {
		fd.Instances = append(fd.Instances, fileInstance{
			Name:   in.Name,
			Cell:   in.Cell.Name,
			X:      in.X,
			Y:      in.Y,
			Inputs: in.Inputs,
			Output: in.Output,
			Clock:  in.Clock,
			Dead:   in.Dead,
		})
	}
	for _, n := range d.Nets {
		fd.Nets = append(fd.Nets, fileNet{
			Driver:    n.Driver,
			Sinks:     n.Sinks,
			WireCap:   n.WireCap,
			WireDelay: n.WireDelay,
		})
	}
	return fd
}

func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	return nil
}

// RefSave is Save through encoding/json.
func RefSave(w io.Writer, d *netlist.Design) error {
	return encodeIndented(w, toFile(d))
}

// RefSaveCheckpoint is SaveCheckpoint through encoding/json.
func RefSaveCheckpoint(w io.Writer, c *Checkpoint) error {
	if c == nil || c.Design == nil {
		return fmt.Errorf("netio: nil checkpoint design")
	}
	if err := validWeights(c.Weights, len(c.Design.Instances)); err != nil {
		return err
	}
	return encodeIndented(w, fileCheckpoint{
		Version: CheckpointVersion,
		Design:  toFile(c.Design),
		Weights: c.Weights,
		State:   c.State,
		Kinds:   c.Kinds,
	})
}
