// Package trace is the simulator's ftrace/LTTng-style tracing subsystem:
// packed 32-byte records emitted from the kernel's
// dispatch/release/timer/sleep/termination paths and from the middleware's
// P-RMWP part boundaries, plus a versioned binary file format (file.go),
// post-hoc analyses (analyze.go), and a Chrome trace_event exporter
// (perfetto.go).
//
// The emit path is allocation-free (//rtseed:noalloc, enforced by
// rtseed-vet) and never blocks the simulation. Emit stamps each record and
// hands it to the tracer's taps. A tracer with a sink also encodes the
// record into one shared, cache-sized spill buffer and writes the buffer to
// the sink whenever it fills — the only write path that touches I/O, once
// every Capacity records in total. A tracer without a sink stores nothing:
// its taps are its only readers.
//
// Records are stamped with a tracer-global sequence number, so the merged
// stream of all CPUs has a total order that is a pure function of the
// simulation — byte-identical across runs and worker counts.
package trace

import (
	"fmt"
	"io"
	"time"

	"rtseed/internal/engine"
)

// Kind classifies one trace record. The zero Kind is invalid so a zeroed
// record is never mistaken for a real one.
type Kind uint8

// Record kinds. The first block mirrors the kernel's thread state
// transitions; the second block is the timer path; the third block is the
// middleware's P-RMWP part boundaries (Fig. 6/7 protocol points).
const (
	// KindReady: the thread entered a run queue (arg unused).
	KindReady Kind = iota + 1
	// KindDispatch: the thread was given its CPU after a context switch.
	KindDispatch
	// KindPreempt: a higher-priority thread took the CPU away.
	KindPreempt
	// KindBlock: the thread blocked on a condition variable or mutex.
	KindBlock
	// KindSleep: the thread entered clock_nanosleep.
	KindSleep
	// KindExit: the thread exited.
	KindExit
	// KindTimerArm: timer_settime armed the one-shot SIGALRM timer;
	// arg is the absolute expiry in ns of virtual time.
	KindTimerArm
	// KindTimerFire: the timer expired and SIGALRM was raised.
	KindTimerFire
	// KindJobRelease: a job was released; At is the nominal release
	// instant, arg the job index.
	KindJobRelease
	// KindMandStart: the mandatory part began (arg = job); the release
	// latency Δm is MandStart.At − JobRelease.At.
	KindMandStart
	// KindOptFork: the mandatory thread began waking the parallel optional
	// threads (arg = job) — the mandatory→optional fork.
	KindOptFork
	// KindOptStart: parallel optional part k began (arg = PackJobPart).
	KindOptStart
	// KindOptEnd: an optional part ran to completion (arg = PackJobPart).
	KindOptEnd
	// KindOptTerm: the optional-deadline timer terminated the part via
	// siglongjmp (arg = PackJobPart).
	KindOptTerm
	// KindOptDiscard: the part was discarded without running
	// (arg = PackJobPart).
	KindOptDiscard
	// KindWindupStart: the wind-up part began (arg = job).
	KindWindupStart
	// KindJobEnd: the job finished its wind-up part (arg = job).
	KindJobEnd
	// KindDeadlineMet: the job finished by its deadline (arg = job).
	KindDeadlineMet
	// KindDeadlineMiss: the job finished late; arg = PackMiss(job,
	// lateness).
	KindDeadlineMiss

	kindMax
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindReady:
		return "ready"
	case KindDispatch:
		return "dispatch"
	case KindPreempt:
		return "preempt"
	case KindBlock:
		return "block"
	case KindSleep:
		return "sleep"
	case KindExit:
		return "exit"
	case KindTimerArm:
		return "timer-arm"
	case KindTimerFire:
		return "timer-fire"
	case KindJobRelease:
		return "job-release"
	case KindMandStart:
		return "mand-start"
	case KindOptFork:
		return "opt-fork"
	case KindOptStart:
		return "opt-start"
	case KindOptEnd:
		return "opt-end"
	case KindOptTerm:
		return "opt-term"
	case KindOptDiscard:
		return "opt-discard"
	case KindWindupStart:
		return "windup-start"
	case KindJobEnd:
		return "job-end"
	case KindDeadlineMet:
		return "deadline-met"
	case KindDeadlineMiss:
		return "deadline-miss"
	default:
		return "unknown"
	}
}

// Valid reports whether k is a defined record kind.
func (k Kind) Valid() bool { return k >= KindReady && k < kindMax }

// Record is one packed trace record. Its binary form is exactly 32 bytes
// (recordSize in file.go); the struct mirrors that layout field for field.
type Record struct {
	// Seq is the tracer-global emission sequence number, starting at 1.
	// Sorting the merged per-CPU streams by Seq recovers the total order.
	Seq uint64
	// At is the virtual-time instant the record describes.
	At engine.Time
	// Arg is the kind-specific payload (job index, PackJobPart, expiry...).
	Arg uint64
	// TID is the emitting thread's kernel id.
	TID uint32
	// CPU is the hardware thread the record was emitted on.
	CPU uint16
	// Kind classifies the record.
	Kind Kind
}

// PackJobPart packs a job index and a parallel-optional-part index into a
// record argument: part in the low 16 bits, job above.
func PackJobPart(job, part int) uint64 {
	return uint64(job)<<16 | uint64(part)&0xffff
}

// UnpackJobPart is the inverse of PackJobPart.
func UnpackJobPart(arg uint64) (job, part int) {
	return int(arg >> 16), int(arg & 0xffff)
}

// PackMiss packs a job index and its deadline lateness into a
// KindDeadlineMiss argument: lateness (ns, saturating at ~4.29s) in the low
// 32 bits, job above.
func PackMiss(job int, lateness time.Duration) uint64 {
	ns := uint64(lateness)
	if lateness < 0 {
		ns = 0
	} else if ns > 0xffffffff {
		ns = 0xffffffff
	}
	return uint64(job)<<32 | ns
}

// UnpackMiss is the inverse of PackMiss.
func UnpackMiss(arg uint64) (job int, lateness time.Duration) {
	return int(arg >> 32), time.Duration(arg & 0xffffffff)
}

// MissedDeadline is the single definition of a deadline miss shared by the
// middleware (core.Process, which emits KindDeadlineMiss for the trace
// analyzer, and task.JobRecord.Met) and the cluster simulator: a job that
// finishes at finish with absolute deadline deadline misses iff it finishes
// strictly after it. All policies attribute misses through this predicate
// so their counts are comparable.
func MissedDeadline(finish, deadline time.Duration) bool { return finish > deadline }

// ThreadInfo is the per-thread metadata written alongside the records so
// analyzers can resolve TIDs to names, priorities, and home CPUs.
type ThreadInfo struct {
	TID      uint32
	CPU      uint16
	Priority uint16
	Name     string
}

// DefaultCapacity is the spill buffer's record capacity when Config leaves
// it zero: 4096 records = 128 KiB.
const DefaultCapacity = 4096

// MaxCPUs is the largest CPU count a tracer accepts: the file stores a
// record's CPU and the 'L' section's CPU count as u16.
const MaxCPUs = 0xffff

// Config configures a Tracer.
type Config struct {
	// CPUs is the number of hardware threads records may be emitted on,
	// sized once from the machine topology. New panics when it exceeds
	// MaxCPUs, and emitting on a CPU at or beyond it is a construction bug
	// and panics too. The tracer keeps no per-CPU state: CPUs bounds Emit
	// and sizes the 'L' section Close writes.
	CPUs int
	// Capacity is the number of records the spill buffer holds
	// (DefaultCapacity when zero). A tracer without a sink has no buffer.
	Capacity int
	// Sink, when non-nil, makes the tracer file-backed: Emit encodes every
	// record straight into the shared spill buffer, and a full buffer is
	// written to the sink as one record section, so no record is ever lost
	// and the file's records arrive in emission order. When nil the tracer
	// only stamps records and calls its taps.
	Sink io.Writer
}

// Tracer collects trace records. All methods must be called from the
// simulation's single host-code thread (the kernel handshake already
// guarantees this); the tracer does no locking.
type Tracer struct {
	cpus      int
	capacity  int
	seq       uint64
	observers []func(Record)

	// File-backed state, unused without a sink. spill is a section header
	// followed by room for capacity encoded records, of which the first
	// pending are filled; headerDone latches after the file header is
	// written; err holds the first sink error and stops further writes.
	sink       io.Writer
	spill      []byte
	pending    int
	headerDone bool
	err        error
}

// New builds a tracer. It panics when cfg.CPUs exceeds MaxCPUs.
func New(cfg Config) *Tracer {
	if cfg.CPUs > MaxCPUs {
		panic(fmt.Sprintf("trace: %d CPUs, but a trace file holds at most %d", cfg.CPUs, MaxCPUs))
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	tr := &Tracer{cpus: cfg.CPUs, capacity: capacity, sink: cfg.Sink}
	if cfg.Sink != nil {
		tr.spill = make([]byte, sectionHeaderSize+capacity*recordSize)
	}
	return tr
}

// Tap registers a live observer called with every emitted record, in
// emission order. The sched.Recorder uses this to build run segments; on a
// tracer without a sink the taps are the only readers.
func (tr *Tracer) Tap(fn func(Record)) { tr.observers = append(tr.observers, fn) }

// Emit records one event on cpu. This is the hot path: it never blocks and
// never allocates — the spill buffer is sized at New. It calls the taps,
// then a file-backed tracer encodes the record into the shared spill
// buffer, writing the buffer to the sink first if it is full.
// Emitting on a CPU beyond the configured count is a construction bug, not
// a growth event, and panics.
//
//rtseed:noalloc
//rtseed:kernelctx
func (tr *Tracer) Emit(at engine.Time, cpu uint16, tid uint32, kind Kind, arg uint64) {
	if int(cpu) >= tr.cpus {
		panic(fmt.Sprintf("trace: Emit on CPU %d, but the tracer was built for %d CPUs", cpu, tr.cpus))
	}
	tr.seq++
	rec := Record{Seq: tr.seq, At: at, Arg: arg, TID: tid, CPU: cpu, Kind: kind}
	for _, fn := range tr.observers {
		fn(rec)
	}
	if tr.sink == nil {
		return
	}
	if tr.pending == tr.capacity {
		tr.flush()
	}
	off := sectionHeaderSize + tr.pending*recordSize
	putRecord(tr.spill[off:off+recordSize], rec)
	tr.pending++
}

// TotalLost returns how many records the tracer dropped: always zero, since
// a file-backed tracer spills every record and a tracer without a sink
// keeps none. Close writes the matching all-zero 'L' section.
func (tr *Tracer) TotalLost() uint64 { return 0 }

// Emitted returns how many records have been emitted in total.
func (tr *Tracer) Emitted() uint64 { return tr.seq }
