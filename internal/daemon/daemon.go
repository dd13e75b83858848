// Package daemon implements the communication daemons of the three MPI
// implementations compared in the paper:
//
//   - V2: the MPICH-V2 daemon (§4.4-§4.6) — sender-based payload
//     logging, event logging with send gating, uncoordinated
//     checkpointing, message replay after restart.
//   - P4: the MPICH-P4 baseline — direct transmission, no fault
//     tolerance, payload pushed during the send call (the driver is busy
//     while transmitting and does not service receptions).
//   - V1: the MPICH-V1 baseline — every payload store-and-forwarded
//     through a reliable Channel Memory.
//
// Each daemon owns a transport endpoint and serves exactly one MPI
// process through the Device interface — the six-primitive MPICH channel
// interface of §4.4. The MPI process talks to its daemon over a
// mailbox pair that models the Unix socket (synchronous, whole-message
// granularity).
package daemon

import (
	"sync/atomic"
	"time"

	"mpichv/internal/netsim"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
)

// Device is the MPICH channel interface seen by the MPI protocol layer
// (PIbsend, PIbrecv, PInprobe, PIiInit, PIiFinish; PIfrom is folded into
// BRecv's return value).
type Device interface {
	// Init completes once the daemon is ready (recovery included) and
	// returns the process coordinates plus the restored application
	// snapshot when restarting from a checkpoint.
	Init() (rank, size int, appState []byte, restarted bool)
	// BSend transmits one protocol-layer block to the daemon of rank
	// "to". The daemon may keep data (the V2 SAVED log does), so the
	// caller must not write it afterwards.
	BSend(to int, data []byte)
	// BRecv blocks for the next protocol-layer block.
	BRecv() (from int, data []byte)
	// NProbe reports whether a block is pending.
	NProbe() bool
	// CkptRequested reports whether the checkpoint scheduler asked
	// this node to checkpoint; the MPI layer answers by calling
	// Checkpoint at the next application safe point.
	CkptRequested() bool
	// Checkpoint hands the application-level snapshot to the daemon,
	// which pairs it with the protocol state and ships it to the
	// checkpoint server (transfer overlapped with execution).
	Checkpoint(appState []byte)
	// Finish signals MPI finalization.
	Finish()
}

// Killed is panicked out of an MPI process whose daemon died (node
// crash). The runner that spawned the process recovers it.
type Killed struct{ Rank int }

// Config describes one computing node of a system.
type Config struct {
	Rank int // rank and node id of this computing node
	Size int // number of MPI processes

	// Service node ids; -1 when the service is absent. EventLogger and
	// CkptServer each name a replica group of one with quorum 1: the
	// daemon rides out an outage of the lone node by retransmitting
	// until the node is respawned over its stable store, and availability
	// under service loss is the job of ELReplicas/CSReplicas ≥ 2.
	// No daemon reads Scheduler: scheduler polls are answered to their
	// sender. It stays because the benchmark harness sets it.
	EventLogger int
	CkptServer  int
	Scheduler   int
	Dispatcher  int

	// Cost is the simulator's cost profile, charged in virtual time. V1
	// and V2 pay UnixOverhead per MPI-process↔daemon socket crossing and
	// UnixCopyPerByte for payloads up to EagerLimit (larger transfers
	// pipeline and pay nothing extra); V2 also pays the sender-based
	// logging costs. P4 charges nothing: it runs inside the MPI process.
	// The zero value charges nothing, as on the real path.
	Cost netsim.Params

	// Restarted indicates this daemon replaces a crashed incarnation
	// and must run the recovery protocol before serving.
	Restarted bool

	// Incarnation counts how many times this rank has been (re)spawned
	// (0 for the first launch). It namespaces the daemon's request
	// sequence numbers — event-log submissions and checkpoint saves
	// start at Incarnation<<32 — so a frame of a dead predecessor that
	// a slow network delivers late can never be mistaken for one of
	// ours, and the checkpoint store's monotonicity guard keeps
	// working across restarts.
	Incarnation uint64

	// ELReplicas is the event-logger replica group and ELQuorum its
	// write quorum (non-positive: majority, R/2+1; never above R): every
	// event batch is submitted to all replicas, WAITLOGGED is satisfied
	// only once ELQuorum distinct replicas have acked, retransmissions go
	// only to the still-silent replicas, and restart-time event fetches
	// merge a read quorum of len(ELReplicas)−ELQuorum+1 replies (the
	// smallest set guaranteed to intersect every write quorum). When
	// set, EventLogger is ignored.
	ELReplicas []int
	ELQuorum   int
	// CSReplicas/CSQuorum mirror the same scheme for checkpoint saves
	// and restart-time image fetches.
	CSReplicas []int
	CSQuorum   int

	// ELShardGroups shards the event-logger fleet (DESIGN.md §15): each
	// group is one ELReplicas/ELQuorum replica set, and every channel
	// (sender, receiver) maps to a shard through the deterministic
	// consistent-hash ring seeded by shard.Seed. Submissions,
	// WAITLOGGED gating, retransmission and cumulative acks run
	// independently per shard, restart fetches union determinants across
	// all shards, and KELShardDown/KELShardUp notices from the
	// dispatcher move a dead shard's key range to its ring successor
	// (with a history backfill) until it rejoins. When set, ELReplicas
	// and EventLogger are ignored; a single group behaves exactly like
	// ELReplicas. ELQuorum applies per group.
	ELShardGroups [][]int

	// PullTimeout, when positive, arms a pull timer whenever the
	// daemon starves waiting for a message: it re-announces its
	// delivered horizon (a RESTART1) to every peer, making them
	// re-send anything the network may have dropped. It is also what
	// makes recovery live on a lossy link: a restarted daemon sends
	// each peer one RESTART1 and never waits for the RESTART2, so a
	// lost announcement or reply is repaired by whichever side then
	// starves. Disabled by default — on a reliable fabric starvation
	// just means the application is blocked on a message that was never
	// sent. Deployed nodes arm it (deploy.ServeWith): the TCP fabric
	// drops the frames a failed write leaves.
	PullTimeout time.Duration

	// ELWindow bounds the event batches in flight to each event-logger
	// shard: reception events queue while the window is full, and the
	// whole queue becomes one batch whenever a slot frees, so batch size
	// adapts to however many events accumulated meanwhile. 0 means no
	// bound (every event ships at once, in a batch of one); 1 is
	// stop-and-wait batching. The pessimistic guarantee is unchanged:
	// WAITLOGGED still holds sends until every submitted batch is acked.
	ELWindow int

	// DetMode selects the determinant-suppression policy of the receive
	// path (DetOff, DetAdaptive, DetAggressive). Off logs every
	// reception pessimistically (the paper's protocol). Adaptive
	// classifies each delivery with daemon-observable signals — zero
	// outstanding probes and no competing undelivered arrival from
	// another sender — and suppresses the determinant of deterministic
	// deliveries: the event skips the WAITLOGGED gate, rides outgoing
	// payloads piggybacked, and reaches the event loggers in an epoch
	// batch of 16 off the critical path (also flushed whenever the
	// daemon starves, and synchronously at checkpoint and finalize).
	// At most 64 suppressed determinants may await durability — the
	// piggyback block's cap — before the classifier forces the
	// pessimistic path until the backlog drains. A channel that ever
	// shows a probe or a competing arrival is poisoned: it falls back to
	// the full pessimistic path permanently. Aggressive suppresses on the
	// probe signal alone with no poisoning — deliberately unsafe, kept
	// for the misclassification negative tests (the happens-before
	// auditor convicts it).
	DetMode int

	// NoSendGating disables the WAITLOGGED barrier (ablation only):
	// sends leave before reception events are acknowledged, turning
	// the protocol into an optimistic-style logger that can no longer
	// guarantee replay after a crash. Used by the ablation benchmarks
	// to price the pessimistic gating on the critical path.
	NoSendGating bool

	// CkptChunkSize is the chunk size (bytes) of the chunked checkpoint
	// transfer: images stream to the checkpoint servers as individually
	// CRC-framed chunks with per-chunk acks, and only missing chunks are
	// retransmitted. Zero or negative selects the default (16 KiB).
	CkptChunkSize int

	// CkptNoDelta disables delta checkpoint images (ablation): every
	// checkpoint ships its full SAVED log even when the previous acked
	// checkpoint already made most of it durable.
	CkptNoDelta bool

	// Tracer, when non-nil, receives a causal trace of the daemon's
	// protocol transitions (sends, deliveries, determinant durability,
	// WAITLOGGED stalls, checkpoint/GC progress, restarts) stamped
	// with virtual time. The recorder is owned by the rank, not the
	// incarnation: a respawned daemon inherits its predecessor's ring
	// so the happens-before auditor sees the whole history. Nil (the
	// default) records nothing and adds zero wire bytes, zero
	// allocations and zero virtual time to the run.
	Tracer *trace.Recorder
}

// Determinant-suppression policies (Config.DetMode).
const (
	// DetOff logs every reception pessimistically (the paper's
	// protocol, unchanged).
	DetOff = iota
	// DetAdaptive suppresses determinants of deliveries the daemon can
	// prove deterministic (no outstanding probe, no competing arrival
	// from another sender, channel never poisoned); everything else
	// takes the full pessimistic path.
	DetAdaptive
	// DetAggressive suppresses on the probe signal alone, without
	// channel poisoning or the competing-arrival check. Unsafe by
	// design: it exists so the negative tests can demonstrate that the
	// happens-before auditor convicts unsound suppression.
	DetAggressive
)

// rank → daemon request plumbing ("the Unix socket").

type rankOp uint8

const (
	opNone rankOp = iota
	opInit
	opSend
	opRecv
	opProbe
	opCkpt
	opFinish
)

type rankReq struct {
	op   rankOp
	to   int
	data []byte
}

type rankResp struct {
	from      int
	data      []byte
	flag      bool
	rank      int
	size      int
	appState  []byte
	restarted bool
}

// dEvent multiplexes everything a daemon actor can observe into its
// single inbox: transport frames, rank requests, timer expiries, and
// death.
type dEvent struct {
	isFrame bool
	frame   transport.Frame
	isReq   bool
	req     rankReq
	isTimer bool
	timer   uint64
	closed  bool
}

// proxy implements Device over the daemon's unified inbox.
type proxy struct {
	rank  int
	delay time.Duration
	in    *vtime.Mailbox[dEvent]
	resp  *vtime.Mailbox[rankResp]
	ckpt  *atomic.Bool
}

func (p *proxy) call(r rankReq) rankResp {
	p.in.SendAfter(p.delay, dEvent{isReq: true, req: r})
	resp, ok := p.resp.Recv()
	if !ok {
		panic(Killed{Rank: p.rank})
	}
	return resp
}

func (p *proxy) Init() (int, int, []byte, bool) {
	r := p.call(rankReq{op: opInit})
	return r.rank, r.size, r.appState, r.restarted
}

func (p *proxy) BSend(to int, data []byte) {
	p.call(rankReq{op: opSend, to: to, data: data})
}

func (p *proxy) BRecv() (int, []byte) {
	r := p.call(rankReq{op: opRecv})
	return r.from, r.data
}

func (p *proxy) NProbe() bool {
	return p.call(rankReq{op: opProbe}).flag
}

func (p *proxy) CkptRequested() bool { return p.ckpt.Load() }

func (p *proxy) Checkpoint(appState []byte) {
	p.call(rankReq{op: opCkpt, data: appState})
}

func (p *proxy) Finish() {
	p.call(rankReq{op: opFinish})
}

// unixCopy is the store-and-forward cost of moving an n-byte payload
// across the Unix socket: eager payloads pay it per byte, larger ones
// pipeline through the daemon and pay nothing extra.
func unixCopy(c *netsim.Params, n int) time.Duration {
	if c.EagerLimit > 0 && n > c.EagerLimit {
		return 0
	}
	return time.Duration(n) * c.UnixCopyPerByte
}

// killedPanic is used internally by daemon actors to unwind when their
// endpoint closes underneath them.
type killedPanic struct{}

// noCkpt is the always-false checkpoint flag shared by daemons without
// fault tolerance (P4, V1).
var noCkpt atomic.Bool

// pump forwards endpoint frames into the unified inbox and reports
// endpoint death.
func pump(rt vtime.Runtime, name string, ep transport.Endpoint, in *vtime.Mailbox[dEvent]) {
	rt.Go(name, func() {
		for {
			f, ok := ep.Inbox().Recv()
			if !ok {
				in.Send(dEvent{closed: true})
				return
			}
			if !in.Send(dEvent{isFrame: true, frame: f}) {
				return
			}
		}
	})
}

// Stats are per-daemon counters surfaced to the experiments.
type Stats struct {
	SentMsgs     int64
	SentBytes    int64
	RecvMsgs     int64
	RecvBytes    int64
	EventsLogged int64
	ELWaits      int64 // sends that actually blocked on WAITLOGGED
	ELWaitNS     int64 // virtual nanoseconds spent blocked in WAITLOGGED
	Checkpoints  int64
	CkptBytes    int64
	Replayed     int64
	Resent       int64
	GCFreedBytes int64
	Retransmits  int64 // timed-out requests re-sent (EL, ckpt, recovery, finalize)
	Pulls        int64 // starvation-triggered re-announcements to peers
	Malformed    int64 // frames the daemon could not decode

	// Quorum replication counters.
	QuorumAcks      int64 // batches/saves completed at their write quorum
	BelowQuorumAcks int64 // completions below quorum — an invariant breach, must stay 0
	DegradedReads   int64 // restart fetches that settled below the read quorum
	CorruptImages   int64 // fetched checkpoint images rejected by integrity checks
	ReplayDropped   int64 // replay events truncated at a channel-sequence gap

	// Incremental chunked checkpointing counters.
	DeltaCkpts       int64 // checkpoints shipped as deltas against an acked base
	ChunkRetransmits int64 // individual checkpoint chunks re-sent after a timeout
	ManifestFetches  int64 // restart-time manifest gathers (one per image fetch attempt)

	// Degraded-mode (EL watermark) counters.
	DegradedStalls  int64 // times the daemon reached elHighWater pending determinants and froze delivery
	DegradedResumes int64 // times the backlog drained to elHighWater/2 and delivery resumed

	// Event-logger fleet (sharding) counters.
	ShardRebalances int64 // KELShardDown notices applied (key range moved to successor)
	ShardRejoins    int64 // KELShardUp notices applied (key range moved back)
	ShardBackfilled int64 // retained determinants re-submitted to rebuild a shard

	// Determinant-suppression counters.
	DetSuppressed   int64 // deliveries whose determinant skipped the WAITLOGGED gate
	DetForced       int64 // deliveries logged on the full pessimistic path
	DetPiggybacked  int64 // suppressed determinants carried on outgoing payload frames
	DetRelayed      int64 // foreign piggybacked determinants relayed to the EL quorum
	DetEpochFlushes int64 // suppressed-determinant epoch batches submitted to the EL
	DetRegenerated  int64 // replay holes filled by regenerating a suppressed delivery
	DetFlushMerged  int64 // peer-cached determinants merged during restart (KDetFlushResp)
	DetPoisoned     int64 // channels permanently returned to the pessimistic path
}
