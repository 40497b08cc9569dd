// Binary trace file format, version 1 (".rtt").
//
// Layout (all integers little-endian):
//
//	header   magic "RTSEEDTR" (8 bytes) | version u16 | reserved u16
//	section* tag u8 | length u64 | payload[length]
//
// Sections:
//
//	'R' records: length/32 packed 32-byte records. A file-backed tracer
//	             writes one section per full spill buffer, so its sections
//	             arrive in sequence order; WriteTo writes one section. The
//	             reader still merges any number of sections by sorting on
//	             the records' sequence numbers, so files that interleave
//	             per-CPU chunks out of order decode to the same trace.
//	'T' threads: u32 count, then per thread
//	             u32 tid | u16 cpu | u16 priority | u16 namelen | name
//	'L' lost:    u16 cpus, then cpus × u64 overwritten-record counts
//	             (the overflow markers of flight-recorder rings).
//
// A record is
//
//	u64 seq | i64 at | u64 arg | u32 tid | u16 cpu | u8 kind | u8 reserved
//
// The reader rejects unknown magic, versions, tags and kinds, nonzero
// reserved bytes, section lengths that overrun the file, and duplicate
// sequence numbers; it never panics on hostile input (FuzzTraceCodec).

package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"rtseed/internal/engine"
)

const (
	// recordSize is the packed size of one Record.
	recordSize = 32
	// sectionHeaderSize is the packed size of a section's tag and length.
	sectionHeaderSize = 9
	// Version is the current trace file format version.
	Version = 1
)

// magic identifies a trace file.
var magic = [8]byte{'R', 'T', 'S', 'E', 'E', 'D', 'T', 'R'}

const (
	secRecords = 'R'
	secThreads = 'T'
	secLost    = 'L'
)

// ErrBadFormat is wrapped by every decode error.
var ErrBadFormat = errors.New("trace: bad file format")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
}

// putRecord packs rec into buf[:recordSize].
func putRecord(buf []byte, rec Record) {
	binary.LittleEndian.PutUint64(buf[0:], rec.Seq)
	binary.LittleEndian.PutUint64(buf[8:], uint64(rec.At))
	binary.LittleEndian.PutUint64(buf[16:], rec.Arg)
	binary.LittleEndian.PutUint32(buf[24:], rec.TID)
	binary.LittleEndian.PutUint16(buf[28:], rec.CPU)
	buf[30] = byte(rec.Kind)
	buf[31] = 0
}

// unpackRecord is the inverse of putRecord.
func unpackRecord(buf []byte) Record {
	return Record{
		Seq:  binary.LittleEndian.Uint64(buf[0:]),
		At:   engine.Time(binary.LittleEndian.Uint64(buf[8:])),
		Arg:  binary.LittleEndian.Uint64(buf[16:]),
		TID:  binary.LittleEndian.Uint32(buf[24:]),
		CPU:  binary.LittleEndian.Uint16(buf[28:]),
		Kind: Kind(buf[30]),
	}
}

// getRecord unpacks buf[:recordSize], validating the kind and the reserved
// byte.
func getRecord(buf []byte) (Record, error) {
	rec := unpackRecord(buf)
	if !rec.Kind.Valid() {
		return Record{}, formatErr("record seq %d has unknown kind %d", rec.Seq, buf[30])
	}
	if buf[31] != 0 {
		return Record{}, formatErr("record seq %d has nonzero reserved byte", rec.Seq)
	}
	return rec, nil
}

// writeHeader writes the file header to the tracer's sink (once).
func (tr *Tracer) writeHeader() {
	if tr.headerDone || tr.err != nil {
		return
	}
	tr.headerDone = true
	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	_, err := tr.sink.Write(hdr[:])
	tr.err = err
}

// flush writes the spill buffer's pending records to the sink as one 'R'
// section, header and records in a single Write, and empties the buffer.
// Cold path: runs once per Capacity records; the buffer, section header
// included, is allocated at New.
//
//rtseed:noalloc
func (tr *Tracer) flush() {
	tr.writeHeader()
	n := tr.pending
	tr.pending = 0
	if tr.err != nil || n == 0 {
		return
	}
	tr.spill[0] = secRecords
	binary.LittleEndian.PutUint64(tr.spill[1:], uint64(n*recordSize))
	_, tr.err = tr.sink.Write(tr.spill[:sectionHeaderSize+n*recordSize])
}

// Close finishes a file-backed tracer: the pending records are spilled,
// followed by the thread and lost sections. It reports the first sink error
// encountered anywhere on the write path. Close is not needed in
// flight-recorder mode (use WriteTo instead).
func (tr *Tracer) Close(threads []ThreadInfo) error {
	if tr.sink == nil {
		return errors.New("trace: Close on a tracer without a sink")
	}
	tr.flush()
	if tr.err != nil {
		return tr.err
	}
	if err := writeThreads(tr.sink, threads); err != nil {
		return err
	}
	return writeLost(tr.sink, tr.Lost())
}

// WriteTo serializes a flight-recorder tracer's retained records, thread
// table, and lost counters as one complete trace file.
func (tr *Tracer) WriteTo(w io.Writer, threads []ThreadInfo) error {
	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	recs := tr.Records()
	if len(recs) > 0 {
		var sec [sectionHeaderSize]byte
		sec[0] = secRecords
		binary.LittleEndian.PutUint64(sec[1:], uint64(len(recs)*recordSize))
		if _, err := w.Write(sec[:]); err != nil {
			return err
		}
		buf := make([]byte, len(recs)*recordSize)
		for i, rec := range recs {
			putRecord(buf[i*recordSize:], rec)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := writeThreads(w, threads); err != nil {
		return err
	}
	return writeLost(w, tr.Lost())
}

// writeThreads writes the 'T' section.
func writeThreads(w io.Writer, threads []ThreadInfo) error {
	size := 4
	for _, t := range threads {
		size += 10 + len(t.Name)
	}
	buf := make([]byte, 9+size)
	buf[0] = secThreads
	binary.LittleEndian.PutUint64(buf[1:], uint64(size))
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(threads)))
	off := 13
	for _, t := range threads {
		if len(t.Name) > 0xffff {
			return fmt.Errorf("trace: thread name %.16q... exceeds 64 KiB", t.Name)
		}
		binary.LittleEndian.PutUint32(buf[off:], t.TID)
		binary.LittleEndian.PutUint16(buf[off+4:], t.CPU)
		binary.LittleEndian.PutUint16(buf[off+6:], t.Priority)
		binary.LittleEndian.PutUint16(buf[off+8:], uint16(len(t.Name)))
		off += 10
		off += copy(buf[off:], t.Name)
	}
	_, err := w.Write(buf)
	return err
}

// writeLost writes the 'L' section.
func writeLost(w io.Writer, lost []uint64) error {
	size := 2 + 8*len(lost)
	buf := make([]byte, 9+size)
	buf[0] = secLost
	binary.LittleEndian.PutUint64(buf[1:], uint64(size))
	binary.LittleEndian.PutUint16(buf[9:], uint16(len(lost)))
	for i, n := range lost {
		binary.LittleEndian.PutUint64(buf[11+8*i:], n)
	}
	_, err := w.Write(buf)
	return err
}

// Trace is a decoded trace file.
type Trace struct {
	// Records is the merged record stream in global emission order.
	Records []Record
	// Threads is the thread metadata table.
	Threads []ThreadInfo
	// Lost holds the per-CPU overwritten-record counts.
	Lost []uint64
}

// TotalLost sums Lost over all CPUs.
func (t *Trace) TotalLost() uint64 {
	var sum uint64
	for _, n := range t.Lost {
		sum += n
	}
	return sum
}

// ThreadByTID returns the metadata for tid, or nil.
func (t *Trace) ThreadByTID(tid uint32) *ThreadInfo {
	for i := range t.Threads {
		if t.Threads[i].TID == tid {
			return &t.Threads[i]
		}
	}
	return nil
}

// Decode parses a complete trace file image. It validates the header, every
// section frame, and every record, and returns a descriptive error — never
// a panic — on malformed input.
func Decode(data []byte) (*Trace, error) {
	if len(data) < 12 {
		return nil, formatErr("file too short for header (%d bytes)", len(data))
	}
	if string(data[:8]) != string(magic[:]) {
		return nil, formatErr("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != Version {
		return nil, formatErr("unsupported version %d (have %d)", v, Version)
	}
	tr := &Trace{}
	sawThreads, sawLost := false, false
	rest := data[12:]
	for len(rest) > 0 {
		if len(rest) < sectionHeaderSize {
			return nil, formatErr("truncated section header (%d trailing bytes)", len(rest))
		}
		tag := rest[0]
		length := binary.LittleEndian.Uint64(rest[1:])
		rest = rest[sectionHeaderSize:]
		if length > uint64(len(rest)) {
			return nil, formatErr("section %q length %d overruns file (%d bytes left)", tag, length, len(rest))
		}
		payload := rest[:length]
		rest = rest[length:]
		var err error
		switch tag {
		case secRecords:
			err = tr.decodeRecords(payload)
		case secThreads:
			if sawThreads {
				return nil, formatErr("duplicate thread section")
			}
			sawThreads = true
			err = tr.decodeThreads(payload)
		case secLost:
			if sawLost {
				return nil, formatErr("duplicate lost section")
			}
			sawLost = true
			err = tr.decodeLost(payload)
		default:
			err = formatErr("unknown section tag %q", tag)
		}
		if err != nil {
			return nil, err
		}
	}
	sortRecords(tr.Records)
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].Seq == tr.Records[i-1].Seq {
			return nil, formatErr("duplicate record sequence number %d", tr.Records[i].Seq)
		}
	}
	return tr, nil
}

func (t *Trace) decodeRecords(payload []byte) error {
	if len(payload)%recordSize != 0 {
		return formatErr("record section length %d is not a multiple of %d", len(payload), recordSize)
	}
	for off := 0; off < len(payload); off += recordSize {
		rec, err := getRecord(payload[off:])
		if err != nil {
			return err
		}
		t.Records = append(t.Records, rec)
	}
	return nil
}

func (t *Trace) decodeThreads(payload []byte) error {
	if len(payload) < 4 {
		return formatErr("thread section too short (%d bytes)", len(payload))
	}
	count := binary.LittleEndian.Uint32(payload)
	payload = payload[4:]
	for i := uint32(0); i < count; i++ {
		if len(payload) < 10 {
			return formatErr("truncated thread entry %d", i)
		}
		info := ThreadInfo{
			TID:      binary.LittleEndian.Uint32(payload),
			CPU:      binary.LittleEndian.Uint16(payload[4:]),
			Priority: binary.LittleEndian.Uint16(payload[6:]),
		}
		nameLen := int(binary.LittleEndian.Uint16(payload[8:]))
		payload = payload[10:]
		if len(payload) < nameLen {
			return formatErr("truncated thread name in entry %d", i)
		}
		info.Name = string(payload[:nameLen])
		payload = payload[nameLen:]
		t.Threads = append(t.Threads, info)
	}
	if len(payload) != 0 {
		return formatErr("%d trailing bytes after thread table", len(payload))
	}
	return nil
}

func (t *Trace) decodeLost(payload []byte) error {
	if len(payload) < 2 {
		return formatErr("lost section too short (%d bytes)", len(payload))
	}
	cpus := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) != 8*cpus {
		return formatErr("lost section has %d bytes for %d cpus", len(payload), cpus)
	}
	t.Lost = make([]uint64, cpus)
	for i := 0; i < cpus; i++ {
		t.Lost[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return nil
}

// ReadFile loads and decodes a trace file from disk.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
