package netio

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// The journal is the append-only companion of a checkpoint: one record per
// persisted change, so a session that changed a few cells and its weights
// writes those instead of re-encoding the whole design. The file starts
// with a header (the 8-byte magic, then JournalVersion as a little-endian
// u32). Each record is a u32 payload length, a u32 CRC-32C (Castagnoli) of
// the payload, then the payload, all little-endian:
//
//	u64 sequence number, consecutive within a journal
//	u32 resize count, then per resize: u32 instance, u32 name length, the cell name
//	u32 weight count (0 for nil weights), then the weights as float64 bits
//	u32 state length, then the state blob
//
// Every field has one encoding, so a decoded record re-encodes to the
// bytes it was read from. Records hold the full weight vector, not a
// diff: each is self-contained, and the last intact one wins.

// JournalVersion identifies the on-disk journal schema, the only one
// ParseJournal accepts.
const JournalVersion = 1

const (
	journalMagic = "mgbajrnl"
	// JournalHeaderLen is the size of the journal header: a journal of
	// this many bytes holds no records.
	JournalHeaderLen = len(journalMagic) + 4
	recordHeaderLen  = 8
	// minPayload is the smallest payload: the sequence number and three
	// empty counts.
	minPayload = 8 + 3*4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// JournalResize is one cell swap: instance Instance now uses the library
// cell named Cell.
type JournalResize struct {
	Instance int
	Cell     string
}

// JournalRecord is one journal entry: the resizes applied since the
// previous record, in application order, and the state after them.
type JournalRecord struct {
	Seq     uint64
	Resizes []JournalResize
	Weights []float64
	State   json.RawMessage
}

// AppendJournalRecord appends r's encoding (length, checksum, payload) to
// dst and returns the extended slice. It fails, appending nothing, when an
// instance or a count does not fit its u32 field.
func AppendJournalRecord(dst []byte, r *JournalRecord) ([]byte, error) {
	size := minPayload + 8*len(r.Weights) + len(r.State)
	for _, rz := range r.Resizes {
		if rz.Instance < 0 || int64(rz.Instance) > math.MaxUint32 || int64(len(rz.Cell)) > math.MaxUint32 {
			return dst, fmt.Errorf("netio: journal resize of instance %d to %q does not fit a record", rz.Instance, rz.Cell)
		}
		size += 8 + len(rz.Cell)
	}
	if int64(size) > math.MaxUint32 {
		return dst, fmt.Errorf("netio: journal record of %d bytes does not fit a record", size)
	}
	start := len(dst)
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(size))
	dst = le.AppendUint32(dst, 0) // the checksum, filled in below
	dst = le.AppendUint64(dst, r.Seq)
	dst = le.AppendUint32(dst, uint32(len(r.Resizes)))
	for _, rz := range r.Resizes {
		dst = le.AppendUint32(dst, uint32(rz.Instance))
		dst = le.AppendUint32(dst, uint32(len(rz.Cell)))
		dst = append(dst, rz.Cell...)
	}
	dst = le.AppendUint32(dst, uint32(len(r.Weights)))
	for _, w := range r.Weights {
		dst = le.AppendUint64(dst, math.Float64bits(w))
	}
	dst = le.AppendUint32(dst, uint32(len(r.State)))
	dst = append(dst, r.State...)
	payload := dst[start+recordHeaderLen:]
	le.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// JournalScan is what ParseJournal found in a journal.
type JournalScan struct {
	// Records are the intact records, in file order.
	Records []JournalRecord
	// Intact is the length of the header plus every intact record: where
	// the next append goes.
	Intact int64
	// Dropped counts the bytes of a torn tail past Intact: a last record
	// that overruns the file or fails its checksum. Such a record was
	// never acknowledged, since an append returns only after its fsync.
	Dropped int64
}

// ParseJournal decodes a whole journal. A torn tail is dropped and
// reported in Dropped. Corruption anywhere else is an error: a bad header,
// a bad record followed by an intact one, a record whose checksum holds
// but whose payload does not decode, or a gap in the sequence numbers.
func ParseJournal(data []byte) (*JournalScan, error) {
	if len(data) < JournalHeaderLen || string(data[:len(journalMagic)]) != journalMagic {
		return nil, fmt.Errorf("netio: journal header missing or damaged")
	}
	if v := binary.LittleEndian.Uint32(data[len(journalMagic):]); v != JournalVersion {
		return nil, fmt.Errorf("netio: unsupported journal version %d (want %d)", v, JournalVersion)
	}
	scan := &JournalScan{Intact: int64(JournalHeaderLen)}
	off := JournalHeaderLen
	var last uint64
	for off < len(data) {
		payload, ok := intactRecord(data[off:])
		if !ok {
			if intactAfter(data[off+1:], last) {
				return nil, fmt.Errorf("netio: journal record at byte %d is corrupt and intact records follow it", off)
			}
			scan.Dropped = int64(len(data) - off)
			break
		}
		r, err := decodePayload(payload)
		if err != nil {
			return nil, fmt.Errorf("netio: journal record at byte %d: %w", off, err)
		}
		if len(scan.Records) > 0 && r.Seq != last+1 {
			return nil, fmt.Errorf("netio: journal record %d follows record %d", r.Seq, last)
		}
		last = r.Seq
		scan.Records = append(scan.Records, r)
		off += recordHeaderLen + len(payload)
		scan.Intact = int64(off)
	}
	return scan, nil
}

// intactRecord returns the payload of the record at the start of b when
// it fits in b and its checksum holds. A payload shorter than the
// smallest record is not intact either: a tail the file system filled
// with zeros reads as length 0 with the empty payload's checksum, 0.
func intactRecord(b []byte) ([]byte, bool) {
	if len(b) < recordHeaderLen {
		return nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n < minPayload || n > uint64(len(b)-recordHeaderLen) {
		return nil, false
	}
	payload := b[recordHeaderLen : recordHeaderLen+int(n)]
	return payload, crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(b[4:])
}

// intactAfter reports whether b holds, at any offset, an intact record
// numbered after seq. A bad record with one behind it is corruption, not a
// torn tail: a damaged length field must not pass for the end of the
// file. A record is at least minPayload bytes and carries its sequence
// number first, so most offsets are ruled out before any checksum.
func intactAfter(b []byte, seq uint64) bool {
	for o := 0; o+recordHeaderLen+minPayload <= len(b); o++ {
		if binary.LittleEndian.Uint64(b[o+recordHeaderLen:]) <= seq {
			continue
		}
		if _, ok := intactRecord(b[o:]); ok {
			return true
		}
	}
	return false
}

// payloadReader walks a record payload; the first short read sticks.
type payloadReader struct {
	b   []byte
	bad bool
}

func (p *payloadReader) take(n uint64) []byte {
	if p.bad || n > uint64(len(p.b)) {
		p.bad = true
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) u32() uint32 {
	if b := p.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// count reads a u32 element count and checks that count elements of at
// least size bytes fit in what is left, before anything is allocated.
func (p *payloadReader) count(size uint64) int {
	n := uint64(p.u32())
	if n*size > uint64(len(p.b)) {
		p.bad = true
		return 0
	}
	return int(n)
}

// decodePayload decodes a checksummed payload; it must be consumed
// exactly.
func decodePayload(b []byte) (JournalRecord, error) {
	p := &payloadReader{b: b}
	var r JournalRecord
	if s := p.take(8); s != nil {
		r.Seq = binary.LittleEndian.Uint64(s)
	}
	if n := p.count(8); n > 0 {
		r.Resizes = make([]JournalResize, n)
		for i := range r.Resizes {
			r.Resizes[i].Instance = int(p.u32())
			r.Resizes[i].Cell = string(p.take(uint64(p.u32())))
		}
	}
	if n := p.count(8); n > 0 {
		r.Weights = make([]float64, n)
		for i := range r.Weights {
			r.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(p.take(8)))
		}
	}
	if n := p.count(1); n > 0 {
		r.State = append(json.RawMessage(nil), p.take(uint64(n))...)
	}
	if p.bad || len(p.b) != 0 {
		return JournalRecord{}, errors.New("malformed payload")
	}
	return r, nil
}

// ReplayJournal applies to c, in order, the records of recs numbered
// after seq, the sequence number c already covers, and returns the number
// c covers afterwards. Records at or before seq are stale (a compaction's
// checkpoint landed but the journal was not yet truncated) and are
// skipped. Every applied record is validated as LoadCheckpoint validates
// a checkpoint: instance range, cell name and kind, one positive finite
// weight per instance, and a state blob that is valid JSON. On error c is
// partly updated and must be discarded.
func ReplayJournal(c *Checkpoint, seq uint64, recs []JournalRecord) (uint64, error) {
	d := c.Design
	for i := range recs {
		r := &recs[i]
		if r.Seq <= seq {
			continue
		}
		if r.Seq != seq+1 {
			return seq, fmt.Errorf("netio: journal record %d follows record %d", r.Seq, seq)
		}
		for _, rz := range r.Resizes {
			if rz.Instance < 0 || rz.Instance >= len(d.Instances) {
				return seq, fmt.Errorf("netio: journal record %d: instance %d out of range", r.Seq, rz.Instance)
			}
			cell := d.Lib.ByName(rz.Cell)
			if cell == nil {
				return seq, fmt.Errorf("netio: journal record %d: unknown cell %q", r.Seq, rz.Cell)
			}
			if err := d.Resize(d.Instances[rz.Instance], cell); err != nil {
				return seq, fmt.Errorf("netio: journal record %d: %w", r.Seq, err)
			}
		}
		if err := validWeights(r.Weights, len(d.Instances)); err != nil {
			return seq, fmt.Errorf("netio: journal record %d: %w", r.Seq, err)
		}
		if len(r.State) > 0 && !json.Valid(r.State) {
			return seq, fmt.Errorf("netio: journal record %d: state blob is not valid JSON", r.Seq)
		}
		c.Weights, c.State = r.Weights, r.State
		seq = r.Seq
	}
	return seq, nil
}

// Journal is an open journal file, appended to in place.
type Journal struct {
	f    *os.File
	size int64 // the header plus every intact record: where the next append goes
	cut  bool  // bytes past size remain (a torn tail or a failed append)
	buf  []byte
}

func journalHeader() []byte {
	return binary.LittleEndian.AppendUint32([]byte(journalMagic), JournalVersion)
}

// CreateJournal atomically replaces whatever is at path with an empty
// journal (the header alone), durable before it returns: the file and its
// directory are fsynced. It returns the journal open for appending.
func CreateJournal(path string) (*Journal, error) {
	err := writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(journalHeader())
		return err
	})
	if err != nil {
		return nil, err
	}
	return OpenJournal(path, int64(JournalHeaderLen))
}

// OpenJournal opens the journal at path for appending after its first
// intact bytes (JournalScan.Intact); anything past them is cut before the
// next append.
func OpenJournal(path string, intact int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("netio: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("netio: %w", err)
	}
	return &Journal{f: f, size: intact, cut: st.Size() > intact}, nil
}

// Size returns the journal's intact bytes, header included.
func (j *Journal) Size() int64 { return j.size }

// Append writes r at the end of the intact records and fsyncs, returning
// the bytes written. Nothing is acknowledged before the fsync, so a crash
// mid-append leaves at most a torn tail, which ParseJournal drops. A
// failed append leaves the intact records as they were; its bytes are cut
// before the next one.
func (j *Journal) Append(r *JournalRecord) (int, error) {
	var err error
	if j.buf, err = AppendJournalRecord(j.buf[:0], r); err != nil {
		return 0, err
	}
	if j.cut {
		if err := j.f.Truncate(j.size); err != nil {
			return 0, fmt.Errorf("netio: %w", err)
		}
		j.cut = false
	}
	if _, err := j.f.WriteAt(j.buf, j.size); err != nil {
		j.cut = true
		return 0, fmt.Errorf("netio: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.cut = true
		return 0, fmt.Errorf("netio: %w", err)
	}
	j.size += int64(len(j.buf))
	return len(j.buf), nil
}

// Truncate drops every record, durably: call it only once a checkpoint
// covering them is on disk.
func (j *Journal) Truncate() error {
	if err := j.f.Truncate(int64(JournalHeaderLen)); err != nil {
		j.cut = true
		return fmt.Errorf("netio: %w", err)
	}
	j.size, j.cut = int64(JournalHeaderLen), false
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	return nil
}

// Close closes the file; later appends fail.
func (j *Journal) Close() error { return j.f.Close() }
