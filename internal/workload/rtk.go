// Binary workload trace format, version 1 (".rtk").
//
// Layout (all integers little-endian), following internal/trace v1's
// strict-decode discipline:
//
//	header   magic "RTSEEDWK" (8 bytes) | version u16 | reserved u16
//	section* tag u8 | length u64 | payload[length]
//
// Sections (each at most once; 'M' is required):
//
//	'M' meta:    u16 namelen | name | u64 seed | i64 horizon |
//	             u32 clients | u32 symbols | u16 windows, then per window
//	             u16 namelen | name | i64 start | i64 end | f64 rate
//	'C' clients: u32 count, then count 64-byte client-parameter records
//	'K' ticks:   u32 count, then count 32-byte tick records
//
// A client record is
//
//	u32 id | u32 symbol | u8 class | u8 cohort | u8 ntasks | u8 parallel |
//	u32 reserved | i64 arrival | i64 lifetime | i64 period_min |
//	i64 period_max | f64 util | u64 genseed
//
// and a tick record is
//
//	u32 symbol | u32 reserved | i64 at | f64 bid | f64 ask
//
// The reader rejects unknown magic, versions and tags, duplicate sections,
// section lengths that overrun the file, nonzero reserved fields,
// non-sequential client ids, out-of-range classes, counts, utilizations and
// instants, non-finite floats, crossed quotes, and time-disordered ticks; it
// never panics on hostile input (FuzzWorkloadCodec). Because the client
// records carry every ClientParams field bit-exactly, replaying a trace
// reproduces the generating run's admission funnel and miss rates verbatim.
package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

const (
	// Version is the current .rtk format version.
	Version = 1
	// clientRecordSize is the packed size of one client-parameter record.
	clientRecordSize = 64
	// tickRecordSize is the packed size of one tick record.
	tickRecordSize = 32
	// maxSectionName bounds decoded name lengths (u16 on the wire).
	maxSectionName = 1 << 12
)

// rtkMagic identifies a workload trace file.
var rtkMagic = [8]byte{'R', 'T', 'S', 'E', 'E', 'D', 'W', 'K'}

const (
	secMeta    = 'M'
	secClients = 'C'
	secTicks   = 'K'
)

// ErrBadFormat is wrapped by every decode error.
var ErrBadFormat = errors.New("workload: bad file format")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
}

// Tick is one market quote of one symbol.
type Tick struct {
	Symbol uint32
	At     time.Duration
	Bid    float64
	Ask    float64
}

// Meta describes a recorded workload: the compile inputs a replay needs to
// reproduce the generating run (seed and horizon included — a cluster
// -replay run takes them from here, not from its own flags).
type Meta struct {
	Name    string
	Seed    uint64
	Horizon time.Duration
	Clients int
	Symbols int
	Windows []ResolvedWindow
}

// Trace is a decoded workload trace: the client population and the market
// tick stream.
type Trace struct {
	Meta    Meta
	Clients []ClientParams
	Ticks   []Tick
}

// Write serializes the trace.
func Write(w io.Writer, tr *Trace) error {
	var hdr [12]byte
	copy(hdr[:8], rtkMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeMeta(w, tr.Meta); err != nil {
		return err
	}
	if err := writeClients(w, tr.Clients); err != nil {
		return err
	}
	return writeTicks(w, tr.Ticks)
}

// WriteFile serializes the trace to path.
func WriteFile(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeName(buf []byte, name string) ([]byte, error) {
	if len(name) > maxSectionName {
		return nil, fmt.Errorf("workload: name %.16q... exceeds %d bytes", name, maxSectionName)
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(name)))
	return append(append(buf, n[:]...), name...), nil
}

func writeSection(w io.Writer, tag byte, payload []byte) error {
	var sec [9]byte
	sec[0] = tag
	binary.LittleEndian.PutUint64(sec[1:], uint64(len(payload)))
	if _, err := w.Write(sec[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeMeta(w io.Writer, m Meta) error {
	buf, err := writeName(nil, m.Name)
	if err != nil {
		return err
	}
	var fixed [26]byte
	binary.LittleEndian.PutUint64(fixed[0:], m.Seed)
	binary.LittleEndian.PutUint64(fixed[8:], uint64(m.Horizon))
	binary.LittleEndian.PutUint32(fixed[16:], uint32(m.Clients))
	binary.LittleEndian.PutUint32(fixed[20:], uint32(m.Symbols))
	binary.LittleEndian.PutUint16(fixed[24:], uint16(len(m.Windows)))
	buf = append(buf, fixed[:]...)
	for _, win := range m.Windows {
		if buf, err = writeName(buf, win.Name); err != nil {
			return err
		}
		var wb [24]byte
		binary.LittleEndian.PutUint64(wb[0:], uint64(win.Start))
		binary.LittleEndian.PutUint64(wb[8:], uint64(win.End))
		binary.LittleEndian.PutUint64(wb[16:], math.Float64bits(win.Rate))
		buf = append(buf, wb[:]...)
	}
	return writeSection(w, secMeta, buf)
}

func writeClients(w io.Writer, clients []ClientParams) error {
	buf := make([]byte, 4+len(clients)*clientRecordSize)
	binary.LittleEndian.PutUint32(buf, uint32(len(clients)))
	for i, p := range clients {
		rec := buf[4+i*clientRecordSize:]
		binary.LittleEndian.PutUint32(rec[0:], uint32(p.ID))
		binary.LittleEndian.PutUint32(rec[4:], p.Symbol)
		rec[8] = byte(p.Class)
		rec[9] = p.Cohort
		rec[10] = byte(p.NTasks)
		rec[11] = byte(p.Parallel)
		binary.LittleEndian.PutUint64(rec[16:], uint64(p.Arrival))
		binary.LittleEndian.PutUint64(rec[24:], uint64(p.Lifetime))
		binary.LittleEndian.PutUint64(rec[32:], uint64(p.PeriodMin))
		binary.LittleEndian.PutUint64(rec[40:], uint64(p.PeriodMax))
		binary.LittleEndian.PutUint64(rec[48:], math.Float64bits(p.Util))
		binary.LittleEndian.PutUint64(rec[56:], p.GenSeed)
	}
	return writeSection(w, secClients, buf)
}

func writeTicks(w io.Writer, ticks []Tick) error {
	buf := make([]byte, 4+len(ticks)*tickRecordSize)
	binary.LittleEndian.PutUint32(buf, uint32(len(ticks)))
	for i, t := range ticks {
		rec := buf[4+i*tickRecordSize:]
		binary.LittleEndian.PutUint32(rec[0:], t.Symbol)
		binary.LittleEndian.PutUint64(rec[8:], uint64(t.At))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(t.Bid))
		binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(t.Ask))
	}
	return writeSection(w, secTicks, buf)
}

// Decode parses a complete workload trace image. It validates the header,
// every section frame, and every record, and returns a descriptive error —
// never a panic — on malformed input.
func Decode(data []byte) (*Trace, error) {
	if len(data) < 12 {
		return nil, formatErr("file too short for header (%d bytes)", len(data))
	}
	if string(data[:8]) != string(rtkMagic[:]) {
		return nil, formatErr("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != Version {
		return nil, formatErr("unsupported version %d (have %d)", v, Version)
	}
	if r := binary.LittleEndian.Uint16(data[10:]); r != 0 {
		return nil, formatErr("nonzero reserved header field %d", r)
	}
	tr := &Trace{}
	sawMeta, sawClients, sawTicks := false, false, false
	rest := data[12:]
	for len(rest) > 0 {
		if len(rest) < 9 {
			return nil, formatErr("truncated section header (%d trailing bytes)", len(rest))
		}
		tag := rest[0]
		length := binary.LittleEndian.Uint64(rest[1:])
		rest = rest[9:]
		if length > uint64(len(rest)) {
			return nil, formatErr("section %q length %d overruns file (%d bytes left)", tag, length, len(rest))
		}
		payload := rest[:length]
		rest = rest[length:]
		var err error
		switch tag {
		case secMeta:
			if sawMeta {
				return nil, formatErr("duplicate meta section")
			}
			sawMeta = true
			err = tr.decodeMeta(payload)
		case secClients:
			if sawClients {
				return nil, formatErr("duplicate client section")
			}
			sawClients = true
			err = tr.decodeClients(payload)
		case secTicks:
			if sawTicks {
				return nil, formatErr("duplicate tick section")
			}
			sawTicks = true
			err = tr.decodeTicks(payload)
		default:
			err = formatErr("unknown section tag %q", tag)
		}
		if err != nil {
			return nil, err
		}
	}
	if !sawMeta {
		return nil, formatErr("missing meta section")
	}
	return tr, tr.validate()
}

func readName(payload []byte, what string) (string, []byte, error) {
	if len(payload) < 2 {
		return "", nil, formatErr("truncated %s name length", what)
	}
	n := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if n > maxSectionName {
		return "", nil, formatErr("%s name length %d exceeds %d", what, n, maxSectionName)
	}
	if len(payload) < n {
		return "", nil, formatErr("truncated %s name", what)
	}
	return string(payload[:n]), payload[n:], nil
}

func (tr *Trace) decodeMeta(payload []byte) error {
	name, payload, err := readName(payload, "trace")
	if err != nil {
		return err
	}
	if len(payload) < 26 {
		return formatErr("meta section too short (%d bytes after name)", len(payload))
	}
	m := Meta{
		Name:    name,
		Seed:    binary.LittleEndian.Uint64(payload[0:]),
		Horizon: time.Duration(binary.LittleEndian.Uint64(payload[8:])),
		Clients: int(binary.LittleEndian.Uint32(payload[16:])),
		Symbols: int(binary.LittleEndian.Uint32(payload[20:])),
	}
	nwin := int(binary.LittleEndian.Uint16(payload[24:]))
	payload = payload[26:]
	for i := 0; i < nwin; i++ {
		var wname string
		wname, payload, err = readName(payload, "window")
		if err != nil {
			return err
		}
		if len(payload) < 24 {
			return formatErr("truncated window entry %d", i)
		}
		m.Windows = append(m.Windows, ResolvedWindow{
			Name:  wname,
			Start: time.Duration(binary.LittleEndian.Uint64(payload[0:])),
			End:   time.Duration(binary.LittleEndian.Uint64(payload[8:])),
			Rate:  math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])),
		})
		payload = payload[24:]
	}
	if len(payload) != 0 {
		return formatErr("%d trailing bytes after meta section", len(payload))
	}
	tr.Meta = m
	return nil
}

func (tr *Trace) decodeClients(payload []byte) error {
	if len(payload) < 4 {
		return formatErr("client section too short (%d bytes)", len(payload))
	}
	count := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) != count*clientRecordSize {
		return formatErr("client section has %d payload bytes for %d records", len(payload), count)
	}
	tr.Clients = make([]ClientParams, count)
	for i := 0; i < count; i++ {
		rec := payload[i*clientRecordSize:]
		if r := binary.LittleEndian.Uint32(rec[12:]); r != 0 {
			return formatErr("client record %d has nonzero reserved field", i)
		}
		p := ClientParams{
			ID:        int(binary.LittleEndian.Uint32(rec[0:])),
			Symbol:    binary.LittleEndian.Uint32(rec[4:]),
			Class:     Class(rec[8]),
			Cohort:    rec[9],
			NTasks:    int(rec[10]),
			Parallel:  int(rec[11]),
			Arrival:   time.Duration(binary.LittleEndian.Uint64(rec[16:])),
			Lifetime:  time.Duration(binary.LittleEndian.Uint64(rec[24:])),
			PeriodMin: time.Duration(binary.LittleEndian.Uint64(rec[32:])),
			PeriodMax: time.Duration(binary.LittleEndian.Uint64(rec[40:])),
			Util:      math.Float64frombits(binary.LittleEndian.Uint64(rec[48:])),
			GenSeed:   binary.LittleEndian.Uint64(rec[56:]),
		}
		if p.ID != i {
			return formatErr("client record %d has id %d (ids must be sequential)", i, p.ID)
		}
		if int(p.Class) >= NumClasses {
			return formatErr("client %d has unknown class %d", i, p.Class)
		}
		if p.NTasks < 1 || p.NTasks > 64 {
			return formatErr("client %d has task count %d outside [1, 64]", i, p.NTasks)
		}
		if p.Parallel > 64 {
			return formatErr("client %d has parallelism %d above 64", i, p.Parallel)
		}
		if !(p.Util > 0) || p.Util > 1024 || math.IsNaN(p.Util) {
			return formatErr("client %d has utilization %v outside (0, 1024]", i, p.Util)
		}
		if p.Arrival < 0 || p.Lifetime < 0 {
			return formatErr("client %d has negative arrival or lifetime", i)
		}
		if p.PeriodMin <= 0 || p.PeriodMax < p.PeriodMin {
			return formatErr("client %d has bad period range [%v, %v]", i, p.PeriodMin, p.PeriodMax)
		}
		tr.Clients[i] = p
	}
	return nil
}

func (tr *Trace) decodeTicks(payload []byte) error {
	if len(payload) < 4 {
		return formatErr("tick section too short (%d bytes)", len(payload))
	}
	count := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) != count*tickRecordSize {
		return formatErr("tick section has %d payload bytes for %d records", len(payload), count)
	}
	tr.Ticks = make([]Tick, count)
	var prev time.Duration
	for i := 0; i < count; i++ {
		rec := payload[i*tickRecordSize:]
		if r := binary.LittleEndian.Uint32(rec[4:]); r != 0 {
			return formatErr("tick record %d has nonzero reserved field", i)
		}
		t := Tick{
			Symbol: binary.LittleEndian.Uint32(rec[0:]),
			At:     time.Duration(binary.LittleEndian.Uint64(rec[8:])),
			Bid:    math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
			Ask:    math.Float64frombits(binary.LittleEndian.Uint64(rec[24:])),
		}
		if t.At < 0 || t.At < prev {
			return formatErr("tick record %d at %v is before its predecessor", i, t.At)
		}
		if !(t.Bid > 0) || !(t.Ask > t.Bid) || math.IsInf(t.Ask, 0) {
			return formatErr("tick record %d has bad quote bid=%v ask=%v", i, t.Bid, t.Ask)
		}
		prev = t.At
		tr.Ticks[i] = t
	}
	return nil
}

// validate cross-checks the decoded sections against the meta section.
func (tr *Trace) validate() error {
	m := tr.Meta
	if m.Horizon <= 0 {
		return formatErr("non-positive horizon %v", m.Horizon)
	}
	if m.Symbols < 1 || m.Symbols > maxSymbols {
		return formatErr("symbol count %d outside [1, %d]", m.Symbols, maxSymbols)
	}
	if m.Clients != len(tr.Clients) {
		return formatErr("meta declares %d clients, client section has %d", m.Clients, len(tr.Clients))
	}
	prevEnd := time.Duration(0)
	for _, w := range m.Windows {
		if w.Name == "" {
			return formatErr("window with empty name")
		}
		if w.Start != prevEnd || w.End <= w.Start || w.End > m.Horizon {
			return formatErr("window %q spans [%v, %v], must tile [0, %v]", w.Name, w.Start, w.End, m.Horizon)
		}
		if !(w.Rate > 0) || math.IsInf(w.Rate, 0) {
			return formatErr("window %q has bad rate %v", w.Name, w.Rate)
		}
		prevEnd = w.End
	}
	if len(m.Windows) > 0 && prevEnd != m.Horizon {
		return formatErr("windows end at %v, must tile [0, %v]", prevEnd, m.Horizon)
	}
	for i, p := range tr.Clients {
		if p.Arrival > m.Horizon {
			return formatErr("client %d arrives at %v, after the horizon %v", i, p.Arrival, m.Horizon)
		}
		if int(p.Symbol) >= m.Symbols {
			return formatErr("client %d trades symbol %d outside the universe of %d", i, p.Symbol, m.Symbols)
		}
	}
	for i, t := range tr.Ticks {
		if t.At > m.Horizon {
			return formatErr("tick %d at %v, after the horizon %v", i, t.At, m.Horizon)
		}
		if int(t.Symbol) >= m.Symbols {
			return formatErr("tick %d quotes symbol %d outside the universe of %d", i, t.Symbol, m.Symbols)
		}
	}
	return nil
}

// ReadFile loads and decodes a workload trace from disk.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Replay is a Source backed by a decoded trace: the recorded client
// parameters drive the same admission and simulation path the generating
// run took.
type Replay struct {
	tr *Trace
}

// NewReplay wraps a decoded trace as a Source.
func NewReplay(tr *Trace) *Replay { return &Replay{tr: tr} }

// Name implements Source with the recorded spec name.
func (r *Replay) Name() string { return r.tr.Meta.Name }

// Len implements Source.
func (r *Replay) Len() int { return len(r.tr.Clients) }

// Params implements Source.
func (r *Replay) Params(id int) ClientParams { return r.tr.Clients[id] }

// Windows implements Source.
func (r *Replay) Windows() []ResolvedWindow { return r.tr.Meta.Windows }

// Meta returns the recorded metadata.
func (r *Replay) Meta() Meta { return r.tr.Meta }
