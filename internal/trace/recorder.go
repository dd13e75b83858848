package trace

import (
	"sort"
	"sync"
	"time"
)

// Kind discriminates trace events. Each event is a fixed-size record
// stamped with the recording rank's virtual time; span-shaped phases
// (WAITLOGGED stalls, restarts) are recorded as a single event at the
// end of the phase carrying the phase duration, which keeps the hot
// path to one ring write per phase.
type Kind uint8

const (
	// EvSend: a fresh payload left the daemon. Span = the message's
	// span id, Parent = suppressed determinants piggybacked on the
	// frame, A = destination rank, B = body bytes.
	EvSend Kind = 1 + iota
	// EvResend: a SAVED payload was retransmitted during a RESTART1/2
	// handshake. Same fields as EvSend. Retransmissions re-emit a
	// message whose original send already satisfied the WAITLOGGED
	// gate, so the auditor exempts them from the no-early-send check.
	EvResend
	// EvRecvWire: a payload frame arrived and decoded. Span = the span
	// id carried on the wire (zero when the sender was not tracing),
	// A = sender rank, B = body bytes.
	EvRecvWire
	// EvDeliver: a reception was committed (determinant created).
	// Span = PackSpan(rank, recvClock), Parent = the sender's span id,
	// A = channel seq, B = 1 if the determinant is submitted
	// pessimistically (gates the next send until quorum-durable), 2 if
	// it was suppressed (epoch-batched + piggybacked off the critical
	// path), 0 when the run has no EL, exempting the rank from the
	// durability gate.
	EvDeliver
	// EvDetSubmit: a determinant batch was handed to the EL pipeline.
	// A = batch seq, B = event count.
	EvDetSubmit
	// EvDetDurable: a committed determinant reached write-quorum
	// durability (its batch retired in order). Span = the determinant's
	// PackSpan(rank, recvClock), A = batch seq.
	EvDetDurable
	// EvWaitLogged: a WAITLOGGED stall cleared. A = stall duration in
	// virtual nanoseconds, B = unacked determinants when the stall began.
	EvWaitLogged
	// EvCkptChunk: a checkpoint chunk was transmitted. A = checkpoint
	// seq, B = chunk index.
	EvCkptChunk
	// EvCkptDurable: a checkpoint reached write-quorum durability.
	// A = checkpoint seq, B = chunk count.
	EvCkptDurable
	// EvGCNote: this rank told peer A (via KCkptNote) that deliveries
	// from A up to clock B are covered by a durable checkpoint, so A
	// may reclaim those SAVED entries (§4.6.1).
	EvGCNote
	// EvGCApply: this rank reclaimed SAVED entries for peer A up to
	// clock B on receipt of a KCkptNote.
	EvGCApply
	// EvReplay: a delivery was replayed from the stash during recovery.
	// Span = PackSpan(rank, recvClock), Parent = sender span id,
	// A = sender rank, B = channel seq.
	EvReplay
	// EvRestartBegin: recovery started. A = incarnation.
	EvRestartBegin
	// EvRestartEnd: recovery finished (image and events fetched,
	// RESTART1s sent; replay may still be draining). A = incarnation,
	// B = recovery duration in virtual nanoseconds.
	EvRestartEnd
	// EvDetSuppressed: a delivery was classified deterministic and its
	// determinant suppressed off the critical path (epoch-batched to the
	// EL instead of gating the next send). Span = the determinant's
	// PackSpan(rank, recvClock), Parent = the sender's span id,
	// A = competing undelivered candidates from other senders at commit
	// time, B = outstanding probes at commit time. A and B are recorded
	// by the delivery path itself, independent of the classifier's
	// verdict, so the auditor can convict a broken classifier: a
	// suppressed delivery with A>0 or B>0 was nondeterministic.
	EvDetSuppressed
	// EvRestartPhase: recovery passed a phase boundary between
	// EvRestartBegin and EvRestartEnd. A = the phase that ended
	// (PhaseImage, PhaseAnnounce, PhaseEvents), B = virtual nanoseconds
	// since EvRestartBegin.
	EvRestartPhase
)

// The phases of a restart, in the order they end: the checkpoint image
// restored (or none found), RESTART1 sent to every peer, and the
// determinants to replay fetched and merged.
const (
	PhaseImage uint64 = 1 + iota
	PhaseAnnounce
	PhaseEvents
)

func (k Kind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvResend:
		return "resend"
	case EvRecvWire:
		return "recv-wire"
	case EvDeliver:
		return "deliver"
	case EvDetSubmit:
		return "det-submit"
	case EvDetDurable:
		return "det-durable"
	case EvWaitLogged:
		return "waitlogged"
	case EvCkptChunk:
		return "ckpt-chunk"
	case EvCkptDurable:
		return "ckpt-durable"
	case EvGCNote:
		return "gc-note"
	case EvGCApply:
		return "gc-apply"
	case EvReplay:
		return "replay"
	case EvRestartBegin:
		return "restart-begin"
	case EvRestartEnd:
		return "restart-end"
	case EvDetSuppressed:
		return "det-suppressed"
	case EvRestartPhase:
		return "restart-phase"
	}
	return "?"
}

// Ev is one fixed-size trace record. Field meaning depends on Kind.
type Ev struct {
	T      time.Duration // virtual timestamp
	Span   uint64        // span id (PackSpan) or phase-specific
	Parent uint64        // causal parent span id (0 = none)
	A, B   uint64        // kind-specific payload
	Rank   int32         // recording rank
	Inc    uint32        // incarnation of the recording daemon
	Kind   Kind
}

// PackSpan builds the span id of a message or determinant: the paper's
// §4.1 message identifier (emitting rank, logical clock at emission)
// packed into 64 bits. Rank occupies the top 16 bits, so clocks up to
// 2^48 are representable — far beyond any simulated run.
func PackSpan(rank int, clock uint64) uint64 {
	return uint64(rank+1)<<48 | clock&(1<<48-1)
}

// UnpackSpan splits a span id into rank and clock. Rank is -1 for the
// zero (absent) span.
func UnpackSpan(span uint64) (rank int, clock uint64) {
	return int(span>>48) - 1, span & (1<<48 - 1)
}

// Recorder is a per-rank ring buffer of trace events. The ring is
// preallocated at construction; Record never allocates and never
// blocks, so it is safe on the daemon's hot send path. When the ring
// wraps, the oldest events are overwritten and Dropped counts them —
// the auditor then reports the trace as incomplete rather than
// claiming invariants over evidence it no longer has.
//
// A Recorder is owned by a single simulated rank. The virtual-time
// scheduler serializes all actors of a run, so successive incarnations
// of a rank may share one Recorder without locking. A deployed worker
// runs on real goroutines instead and must call SetShared once before
// traffic, which arms an internal mutex for Record/Events.
type Recorder struct {
	rank    int32
	inc     uint32
	evs     []Ev
	n       int   // total events recorded (monotonic)
	dropped int64 // events overwritten by ring wrap
	mu      *sync.Mutex
}

// DefaultRecorderCap is the per-rank ring capacity used by the cluster
// harness: at 56 bytes per record this is ~3.6 MB per rank, enough for
// every seeded scenario in the test suites without wrapping.
const DefaultRecorderCap = 1 << 16

// NewRecorder returns a recorder for the given rank with a ring of the
// given capacity (DefaultRecorderCap if cap <= 0).
func NewRecorder(rank, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{rank: int32(rank), evs: make([]Ev, 0, capacity)}
}

// SetIncarnation stamps subsequent events with the daemon incarnation
// currently driving this rank.
func (r *Recorder) SetIncarnation(inc int) {
	if r != nil {
		r.inc = uint32(inc)
	}
}

// SetShared arms a mutex around Record and the read accessors, for
// deployed workers where a flusher goroutine snapshots the ring while
// the daemon records. Call once, before concurrent use. Simulated runs
// never call it and keep the lock-free hot path.
func (r *Recorder) SetShared() {
	if r != nil && r.mu == nil {
		r.mu = &sync.Mutex{}
	}
}

func (r *Recorder) lock() {
	if r.mu != nil {
		r.mu.Lock()
	}
}

func (r *Recorder) unlock() {
	if r.mu != nil {
		r.mu.Unlock()
	}
}

// Record appends one event. Nil receivers are no-ops so call sites can
// stay unconditional off the tracing-enabled path.
func (r *Recorder) Record(t time.Duration, k Kind, span, parent, a, b uint64) {
	if r == nil {
		return
	}
	r.lock()
	defer r.unlock()
	ev := Ev{T: t, Span: span, Parent: parent, A: a, B: b, Rank: r.rank, Inc: r.inc, Kind: k}
	if len(r.evs) < cap(r.evs) {
		r.evs = append(r.evs, ev)
	} else {
		r.evs[r.n%len(r.evs)] = ev
		r.dropped++
	}
	r.n++
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.lock()
	defer r.unlock()
	return len(r.evs)
}

// Dropped reports how many events were lost to ring wrap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.lock()
	defer r.unlock()
	return r.dropped
}

// Events returns the ring contents in record order (oldest first).
func (r *Recorder) Events() []Ev {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	if r.n <= len(r.evs) {
		out := make([]Ev, len(r.evs))
		copy(out, r.evs)
		return out
	}
	// Wrapped: the oldest surviving record sits at n % cap.
	head := r.n % len(r.evs)
	out := make([]Ev, 0, len(r.evs))
	out = append(out, r.evs[head:]...)
	return append(out, r.evs[:head]...)
}

// Trace is the merged, time-ordered record of a whole run.
type Trace struct {
	Evs []Ev
	// Dropped counts ring-wrap losses across all recorders. A nonzero
	// value marks the trace incomplete: the auditor will not claim
	// violations it cannot anchor, and reports Incomplete instead.
	Dropped int64
}

// Merge combines per-rank recorders into one trace sorted by virtual
// time. The sort is stable over per-recorder order, so events a rank
// recorded at the same instant keep their program order — which is
// what the per-rank auditor passes rely on.
func Merge(recs ...*Recorder) *Trace {
	tr := &Trace{}
	for _, r := range recs {
		tr.Evs = append(tr.Evs, r.Events()...)
		tr.Dropped += r.Dropped()
	}
	sortTrace(tr)
	return tr
}

func sortTrace(tr *Trace) {
	sort.SliceStable(tr.Evs, func(i, j int) bool { return tr.Evs[i].T < tr.Evs[j].T })
}

// Count returns how many events of the given kind the trace holds.
func (t *Trace) Count(k Kind) int {
	n := 0
	for i := range t.Evs {
		if t.Evs[i].Kind == k {
			n++
		}
	}
	return n
}
