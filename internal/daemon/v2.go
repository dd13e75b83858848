package daemon

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync/atomic"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/core"
	"mpichv/internal/shard"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// Default bases for the retry machinery; see Config.
const (
	defELAckTimeout   = 25 * time.Millisecond
	defCkptAckTimeout = 250 * time.Millisecond
	defFetchTimeout   = 25 * time.Millisecond
	defRestartRetries = 6
	finalizeRetries   = 8
	// ckptEscalateAfter is the number of silent retransmit rounds after
	// which a chunked checkpoint transfer falls back to one monolithic
	// full image (see escalateCkpt).
	ckptEscalateAfter = 3
)

// V2 is the MPICH-V2 communication daemon: a single actor owning the
// node's endpoint, its protocol state (core.State) and the Unix-socket
// mailboxes of its MPI process.
type V2 struct {
	rt  vtime.Runtime
	cfg Config
	ep  transport.Endpoint
	in  *vtime.Mailbox[dEvent]
	rsp *vtime.Mailbox[rankResp]

	st       *core.State
	arrived  []core.StashedMsg
	appState []byte
	restored bool

	ckptFlag atomic.Bool
	ckptSeq  uint64
	ckptDone uint64 // highest retired (durably acked) checkpoint seq

	// Delta checkpointing base: the seq of the last retired checkpoint
	// and the SeqTo marks of its snapshot. The next checkpoint ships
	// only SAVED entries beyond those marks — the store holds the rest
	// inside the base image, so re-shipping them buys nothing.
	ckptBase  uint64
	ckptMarks map[int]uint64

	finished bool
	finAcked bool
	finTimer uint64
	stats    Stats

	// tr mirrors cfg.Tracer; nil disables tracing (every Record call
	// is a nil-receiver no-op).
	tr *trace.Recorder

	// Scheduler status counters, reset at each checkpoint so the
	// adaptive policy sees traffic since the last checkpoint.
	schedSent, schedRecv uint64

	// Virtual-time timers: after() registers a callback and posts a
	// dEvent; handleTimer() fires it unless cancel()led meanwhile.
	timers   map[uint64]func()
	timerSeq uint64

	// Event-logger exchange state, one elShard per replica group. The
	// non-sharded configurations (ELReplicas, or a lone EventLogger) are
	// the single-shard special case; with ELShardGroups the elMap ring
	// routes each channel (sender, receiver) to its shard, elDead tracks
	// groups the dispatcher declared below quorum (their key ranges
	// reroute to the ring successor), elNodeShard resolves an ack's
	// sender to its shard, and elHistory retains this rank's committed
	// determinants per sender channel so a rebuilt or rerouted shard can
	// be backfilled (DESIGN.md §15).
	elShards    []*elShard
	elMap       *shard.Ring
	elDead      map[int]bool
	elNodeShard map[int]*elShard
	elHistory   map[int][]core.Event

	// Checkpoint push state: the same quorum window as an event-logger
	// shard, over the checkpoint servers. In-flight checkpoints stream as
	// individually acked chunks and retire strictly from the front, so
	// ckptDone, the delta base and the KCkptNote GC horizons advance in
	// submission order.
	cs window[ckptXfer]

	// Pull recovery: when the daemon starves waiting for a deliverable
	// message on a lossy fabric, it re-announces its delivered horizon
	// so peers re-send anything that was dropped.
	pullTimer    uint64
	pullAttempts int

	// elDegraded latches the bounded-memory stall while pending
	// determinants sit between the ELLowWater/ELHighWater hysteresis
	// band (see Config.ELHighWater).
	elDegraded bool

	// Determinant suppression (Config.DetMode). detPoisoned holds the
	// per-channel poison latches of the adaptive classifier. detEpoch
	// buffers suppressed events awaiting their batch flush to the EL;
	// detPending is the superset still short of quorum durability
	// (buffered + in flight), piggybacked on every outgoing payload.
	// detForeign caches determinants piggybacked by peers, keyed
	// origin → RecvClock, served back on KDetFlushReq when the origin
	// restarts.
	detPoisoned map[int]bool
	detEpoch    []core.Event
	detPending  []core.Event
	detForeign  map[int]map[uint64]core.Event

	// recovery buffering: frames that arrive while we fetch our image
	// and event list are replayed into the normal handler afterwards.
	recovering     bool
	recoverPending []transport.Frame
	recoverReqs    []rankReq
}

// StartV2 attaches a V2 daemon for cfg.Rank to the fabric, spawns its
// actors, and returns the Device for the MPI process.
func StartV2(rt vtime.Runtime, fab transport.Fabric, cfg Config) (Device, *V2) {
	d := &V2{
		rt:          rt,
		cfg:         cfg,
		st:          core.NewState(cfg.Rank),
		timers:      make(map[uint64]func()),
		detPoisoned: make(map[int]bool),
	}
	d.tr = cfg.Tracer
	d.tr.SetIncarnation(int(cfg.Incarnation))
	d.ckptSeq = cfg.Incarnation << 32
	d.ckptDone = d.ckptSeq
	// The one normaliser of the service spellings: shard groups, one
	// replica list, or the lone EventLogger/CkptServer node — a group of
	// one with quorum 1. Each shard is an independent submission stream:
	// its own seq space (contiguous per shard, so the servers'
	// cumulative-ack trackers keep working), window, queue and timer.
	elGroups := cfg.ELShardGroups
	if len(elGroups) == 0 {
		if els := serviceGroup(cfg.ELReplicas, cfg.EventLogger); len(els) > 0 {
			elGroups = [][]int{els}
		}
	}
	d.elNodeShard = make(map[int]*elShard)
	for _, grp := range elGroups {
		sh := &elShard{seq: cfg.Incarnation << 32}
		sh.w.init(d, newReplicaGroup(cfg.Rank, grp, cfg.ELQuorum), d.elAckTimeout(), d.sendEventFrame)
		d.elShards = append(d.elShards, sh)
		for _, t := range sh.w.targets {
			d.elNodeShard[t] = sh
		}
	}
	if len(d.elShards) > 1 {
		d.elMap = shard.New(len(d.elShards), cfg.ELShardSeed)
		d.elDead = make(map[int]bool)
		d.elHistory = make(map[int][]core.Event)
	}
	d.cs.init(d, newReplicaGroup(cfg.Rank, serviceGroup(cfg.CSReplicas, cfg.CkptServer), cfg.CSQuorum),
		d.ckptAckTimeout(), d.sendXfer)
	d.ep = fab.Attach(cfg.Rank, fmt.Sprintf("cn%d", cfg.Rank))
	d.in = vtime.NewMailbox[dEvent](rt, fmt.Sprintf("v2d%d", cfg.Rank))
	d.rsp = vtime.NewMailbox[rankResp](rt, fmt.Sprintf("v2r%d", cfg.Rank))
	pump(rt, fmt.Sprintf("pump-cn%d", cfg.Rank), d.ep, d.in)
	rt.Go(fmt.Sprintf("daemon-cn%d", cfg.Rank), d.run)
	return &proxy{rank: cfg.Rank, delay: cfg.UnixDelay, in: d.in, resp: d.rsp, ckpt: &d.ckptFlag}, d
}

// serviceGroup resolves a service's two Config spellings to its replica
// list: the replicas when given, else the lone node, else nothing.
func serviceGroup(replicas []int, node int) []int {
	if len(replicas) == 0 && node >= 0 {
		return []int{node}
	}
	return replicas
}

// Stats returns the daemon's counters. Read it after the simulation (or
// from the owning actor) — it is not synchronized.
func (d *V2) Stats() Stats { return d.stats }

// State exposes the protocol state for tests and the checkpoint
// scheduler status plumbing.
func (d *V2) State() *core.State { return d.st }

// --- Timeout configuration -----------------------------------------------

// timeout resolves a Config duration: zero selects the default,
// negative disables (returns 0).
func timeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

func (d *V2) elAckTimeout() time.Duration   { return timeout(d.cfg.ELAckTimeout, defELAckTimeout) }
func (d *V2) ckptAckTimeout() time.Duration { return timeout(d.cfg.CkptAckTimeout, defCkptAckTimeout) }

// fetchTimeout is always positive: a restart-time gather cannot block
// without a deadline, so a disabled FetchTimeout selects the default.
func (d *V2) fetchTimeout() time.Duration {
	if d.cfg.FetchTimeout > 0 {
		return d.cfg.FetchTimeout
	}
	return defFetchTimeout
}

func (d *V2) restartRetries() int {
	if d.cfg.RestartRetries <= 0 {
		return defRestartRetries
	}
	return d.cfg.RestartRetries
}

// --- Determinant suppression ----------------------------------------------

// Defaults for the suppression knobs; see Config.
const (
	defDetEpoch    = 16
	defDetPiggyMax = 64
	// detCacheMax bounds the per-origin foreign-determinant cache: only
	// the newest entries matter for a restarting origin (older ones are
	// below its checkpoint horizon or regenerable), so the cache prunes
	// its lowest clocks past this size.
	detCacheMax = 512
)

// detMode resolves the effective suppression policy: without an event
// logger nothing is logged and there is nothing to suppress.
func (d *V2) detMode() int {
	if !d.hasEL() {
		return DetOff
	}
	return d.cfg.DetMode
}

func (d *V2) detEpochSize() int {
	if d.cfg.DetEpoch > 0 {
		return d.cfg.DetEpoch
	}
	return defDetEpoch
}

func (d *V2) detPiggyMax() int {
	if d.cfg.DetPiggyMax > 0 {
		return d.cfg.DetPiggyMax
	}
	return defDetPiggyMax
}

// classify decides, before the commit, whether the determinant of the
// next delivery from "from" may be suppressed. The adaptive policy
// suppresses only deliveries the daemon can prove deterministic from
// its own vantage point: no unsuccessful probe since the last delivery
// (a probe means the application branched on message timing) and no
// competing undelivered arrival from another sender (the delivery order
// across senders is a race the determinant would have to pin down).
// Either signal poisons the channel permanently — a source that raced
// once may race again, and a wrong suppression is unrecoverable. The
// aggressive policy skips the competing-arrival check and the poison
// latch; it exists to prove the auditors catch unsafe classifiers.
func (d *V2) classify(from int, probes uint32, competing int) bool {
	switch d.detMode() {
	case DetAdaptive:
		if probes > 0 || competing > 0 {
			if !d.detPoisoned[from] {
				d.detPoisoned[from] = true
				d.stats.DetPoisoned++
			}
			return false
		}
		if d.detPoisoned[from] {
			return false
		}
		if len(d.detPending) >= d.detPiggyMax() {
			// Backlog cap: flush what is buffered and take the
			// pessimistic path until durability catches up, so the
			// piggyback block on every payload stays bounded.
			d.flushDetEpoch()
			return false
		}
		return true
	case DetAggressive:
		return probes == 0
	}
	return false
}

// suppressEvent records a suppressed determinant: it joins the epoch
// buffer (flushed to the EL as one batch off the critical path) and the
// pending set piggybacked on every outgoing payload until durable.
func (d *V2) suppressEvent(ev core.Event) {
	d.stats.DetSuppressed++
	d.detEpoch = append(d.detEpoch, ev)
	d.detPending = append(d.detPending, ev)
	if len(d.detEpoch) >= d.detEpochSize() {
		d.flushDetEpoch()
	}
}

// flushDetEpoch submits the buffered suppressed determinants as one
// ungated batch: it rides the same ring, retransmit and cumulative-ack
// machinery as pessimistic batches, but retiring it credits nothing to
// WAITLOGGED — the events never blocked anything.
func (d *V2) flushDetEpoch() {
	if len(d.detEpoch) == 0 || !d.hasEL() {
		return
	}
	evs := d.detEpoch
	d.detEpoch = nil
	d.stats.DetEpochFlushes++
	if len(d.elShards) == 1 {
		d.sendEvents(d.elShards[0], evs, 0, originOwn)
		return
	}
	// Sharded: the epoch spans channels owned by different shards; split
	// it along the placement so each determinant lands where a restart
	// fetch will look for it.
	groups := make(map[*elShard][]core.Event)
	for _, ev := range evs {
		sh := d.elShardFor(ev.Sender, d.cfg.Rank)
		groups[sh] = append(groups[sh], ev)
	}
	for _, sh := range d.elShards {
		if g := groups[sh]; len(g) > 0 {
			d.sendEvents(sh, g, 0, originOwn)
		}
	}
}

// detRetire prunes pending suppressed determinants that just became
// quorum-durable, shrinking the piggyback block.
func (d *V2) detRetire(evs []core.Event) {
	if len(d.detPending) == 0 {
		return
	}
	durable := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		durable[ev.RecvClock] = true
	}
	kept := d.detPending[:0]
	for _, ev := range d.detPending {
		if !durable[ev.RecvClock] {
			kept = append(kept, ev)
		}
	}
	d.detPending = kept
	if len(d.detPending) == 0 {
		d.detPending = nil
	}
}

// drainDetPending blocks until every suppressed determinant is
// quorum-durable — the synchronous closing of the asynchronous path,
// used where volatile determinants must not survive: before a snapshot
// is captured (a crash after the checkpoint could otherwise leave
// permanent holes below its horizon, unreachable by replay
// regeneration) and before finalize (the post-run audits demand a
// gap-free logged history). The EL retransmit timers keep the exchange
// turning while we wait.
func (d *V2) drainDetPending() {
	if !d.hasEL() {
		return
	}
	for len(d.detPending) > 0 {
		e := d.next()
		if e.isFrame {
			d.handleFrame(e.frame)
		} else if e.isTimer {
			d.handleTimer(e.timer)
		} else {
			panic(fmt.Sprintf("daemon: rank %d: concurrent rank request during determinant drain", d.cfg.Rank))
		}
	}
}

// absorbDets handles determinants piggybacked on an incoming payload:
// they are cached for the origin's possible restart (KDetFlushReq) and
// relayed to the event loggers on our own submission stream — a second,
// receiver-driven durability path that needs no action from the origin.
func (d *V2) absorbDets(origin int, dets []core.Event) {
	cache := d.detForeign[origin]
	if cache == nil {
		if d.detForeign == nil {
			d.detForeign = make(map[int]map[uint64]core.Event)
		}
		cache = make(map[uint64]core.Event, len(dets))
		d.detForeign[origin] = cache
	}
	var fresh []core.Event
	for _, ev := range dets {
		if _, ok := cache[ev.RecvClock]; ok {
			continue
		}
		cache[ev.RecvClock] = ev
		fresh = append(fresh, ev)
	}
	if len(fresh) == 0 {
		return
	}
	if len(cache) > detCacheMax {
		d.pruneDetCache(cache)
	}
	d.stats.DetRelayed += int64(len(fresh))
	if !d.hasEL() {
		return
	}
	if len(d.elShards) == 1 {
		d.sendEvents(d.elShards[0], fresh, 0, origin)
		return
	}
	// Relayed determinants describe the origin's reception channels:
	// route each by (sender, origin) so they share the shard its own
	// submissions and its restart fetch use.
	groups := make(map[*elShard][]core.Event)
	for _, ev := range fresh {
		sh := d.elShardFor(ev.Sender, origin)
		groups[sh] = append(groups[sh], ev)
	}
	for _, sh := range d.elShards {
		if g := groups[sh]; len(g) > 0 {
			d.sendEvents(sh, g, 0, origin)
		}
	}
}

// pruneDetCache drops the oldest half of a foreign-determinant cache
// (lowest RecvClocks — below any horizon a restarting origin will ask
// about, or regenerable if not).
func (d *V2) pruneDetCache(cache map[uint64]core.Event) {
	clocks := make([]uint64, 0, len(cache))
	for c := range cache {
		clocks = append(clocks, c)
	}
	sort.Slice(clocks, func(i, j int) bool { return clocks[i] < clocks[j] })
	for _, c := range clocks[:len(clocks)/2] {
		delete(cache, c)
	}
}

// foreignDetsFor returns the cached determinants of a peer in clock
// order, for a KDetFlushResp.
func (d *V2) foreignDetsFor(origin int) []core.Event {
	cache := d.detForeign[origin]
	if len(cache) == 0 {
		return nil
	}
	out := make([]core.Event, 0, len(cache))
	for _, ev := range cache {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RecvClock < out[j].RecvClock })
	return out
}

// backoff builds the retransmit backoff for this daemon's service
// exchanges: rank- and incarnation-seeded jitter desynchronizes the
// retry storms of many daemons hammering the same replica group, while
// staying a pure function of the configuration so chaos runs remain
// reproducible.
func (d *V2) backoff(base time.Duration) transport.Backoff {
	return transport.Backoff{Base: base, Jitter: 0.2, Seed: uint64(d.cfg.Rank)*0x9e3779b9 + d.cfg.Incarnation}
}

// --- Timers ---------------------------------------------------------------

// after schedules fn on the daemon's own actor loop: the callback runs
// when the daemon next pulls its inbox, never concurrently with other
// daemon work.
func (d *V2) after(delay time.Duration, fn func()) uint64 {
	d.timerSeq++
	id := d.timerSeq
	d.timers[id] = fn
	d.in.SendAfter(delay, dEvent{isTimer: true, timer: id})
	return id
}

func (d *V2) cancel(id uint64) { delete(d.timers, id) }

func (d *V2) handleTimer(id uint64) {
	fn, ok := d.timers[id]
	if !ok {
		return // cancelled
	}
	delete(d.timers, id)
	fn()
}

func (d *V2) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); ok {
				d.rsp.Close()
				return
			}
			panic(r)
		}
	}()
	if d.cfg.Restarted {
		d.recover()
	}
	for {
		e := d.next()
		if e.isFrame {
			d.handleFrame(e.frame)
			continue
		}
		if e.isTimer {
			d.handleTimer(e.timer)
			continue
		}
		d.handleReq(e.req)
	}
}

// next pulls one event, unwinding the actor if the node has been killed.
func (d *V2) next() dEvent {
	e, ok := d.in.Recv()
	if !ok || e.closed {
		panic(killedPanic{})
	}
	return e
}

// --- Recovery (figure 2) -------------------------------------------------

func (d *V2) recover() {
	d.recovering = true
	d.restored = false
	recoverFrom := d.rt.Now()
	d.tr.Record(recoverFrom, trace.EvRestartBegin, 0, 0, d.cfg.Incarnation, 0)

	// Phase A1: fetch the latest checkpoint image, if any. Fast path
	// first: the image manifest from a read quorum, then the chunks in
	// parallel across the replicas serving byte-identical copies,
	// re-fetching only damaged chunks; any failure falls back to the
	// whole-image fetch.
	if d.hasCS() {
		var im *ckpt.Image
		if d.ckptChunkSize() > 0 {
			im = d.fetchImageChunked()
		}
		if im == nil {
			im = d.fetchImageWhole()
		}
		if im != nil {
			d.restoreImage(im)
		}
	}

	// Phase A2: download the reception events to replay. The read-quorum
	// replies are merged so that no event acked at the write quorum is
	// lost even when Q−1 of the replicas answering are stale. The union
	// is shard-aware: every shard contributes a read quorum and the merge
	// spans all of them — a determinant is fetchable wherever its channel
	// was logged, including a successor shard that absorbed a rebalanced
	// range. With one shard the fetch never settles for nothing (floor
	// 1): a restarting daemon cannot make progress without its event
	// list, so it retries until a replica answers. In a fleet a shard
	// that is entirely dead may answer with nothing: its surviving data,
	// if any, lives on its successor or comes back through the daemons'
	// history backfill, and one dead group must not wedge every restart
	// in the system.
	evsValid := func(resp []byte) bool {
		_, err := wire.DecodeEvents(resp)
		return err == nil
	}
	floor := 1
	if len(d.elShards) > 1 {
		floor = 0
	}
	var replies [][]core.Event
	for _, sh := range d.elShards {
		for _, data := range d.gatherQuorum(&sh.w.replicaGroup, floor, wire.KEventFetch,
			wire.EncodeU64(d.st.Clock()), wire.KEventFetched, evsValid) {
			evs, _ := wire.DecodeEvents(data)
			replies = append(replies, evs)
		}
	}
	evs := core.MergeReplicaEvents(replies)
	// Phase A2b (suppression only): merge the determinants our peers
	// cached off our piggybacks. A suppressed determinant can be relayed
	// but not yet EL-durable when we fetch — the peer's cache is the
	// only place it exists, and this bounded best-effort gather closes
	// that window. Whatever is in neither the EL nor any living cache is
	// a determinant nothing alive depends on; replay regenerates its
	// delivery instead.
	holeTolerant := d.detMode() != DetOff
	peers := make([]int, 0, d.cfg.Size-1)
	for q := 0; q < d.cfg.Size; q++ {
		if q != d.cfg.Rank {
			peers = append(peers, q)
		}
	}
	if holeTolerant && len(peers) > 0 {
		evs = d.mergeDetFlush(peers, evs)
	}
	// The fetched determinants re-seed the rebalancing history: after a
	// restart this daemon must again be able to backfill a successor
	// shard with everything it has committed since its checkpoint.
	for _, ev := range evs {
		d.noteHistory(ev)
	}
	d.stats.ReplayDropped += int64(d.st.StartRecoveryWith(evs, holeTolerant))

	// Phase B: ask every peer to re-send from what we have delivered.
	// Without a restart timeout this is fire-and-forget, as in the
	// paper; with one, we insist on a RESTART2 from each live peer,
	// retransmitting RESTART1 to the silent ones with backoff. Both
	// messages are idempotent, and peers simultaneously in recovery are
	// answered inline so two crashed nodes cannot deadlock waiting on
	// each other.
	restartTO := timeout(d.cfg.RestartTimeout, 0) // default: disabled
	rounds := 0
	if restartTO > 0 {
		rounds = d.restartRetries()
	}
	announce := func(q, _ int) {
		d.ep.Send(q, wire.KRestart1, wire.EncodeU64(d.st.RestartAnnouncement(q)))
	}
	silent := d.gather(peers, len(peers), 0, rounds, restartTO, announce,
		func(f transport.Frame) (int, bool) {
			if f.Kind != wire.KRestart1 && f.Kind != wire.KRestart2 {
				return 0, false
			}
			hp, err := wire.DecodeU64(f.Data)
			if err != nil {
				d.stats.Malformed++
				return -1, true
			}
			if f.Kind == wire.KRestart2 {
				d.transmitSaved(f.From, d.st.OnRestart2(f.From, hp))
				return f.From, true
			}
			resend, myHR := d.st.OnRestart1(f.From, hp)
			d.ep.Send(f.From, wire.KRestart2, wire.EncodeU64(myHR))
			d.transmitSaved(f.From, resend)
			return -1, true
		})
	// The last announcement is never waited on: a peer silent this long
	// is presumed crashed, and the RESTART2 it may still draw is handled
	// on the normal path.
	for _, q := range peers {
		if silent[q] {
			if rounds > 0 {
				d.stats.Retransmits++
			}
			announce(q, rounds)
		}
	}

	d.tr.Record(d.rt.Now(), trace.EvRestartEnd, 0, 0,
		d.cfg.Incarnation, uint64(d.rt.Now()-recoverFrom))

	// Frames and rank requests that raced with recovery now go through
	// the normal path (the new MPI process's Init is typically among
	// them).
	d.recovering = false
	pend := d.recoverPending
	reqs := d.recoverReqs
	d.recoverPending, d.recoverReqs = nil, nil
	for _, f := range pend {
		d.handleFrame(f)
	}
	for _, r := range reqs {
		d.handleReq(r)
	}
}

// restoreImage rebuilds the daemon from a fetched (already
// integrity-verified) checkpoint image.
func (d *V2) restoreImage(im *ckpt.Image) {
	sn, err := im.ProtoSnapshot()
	if err != nil {
		panic(fmt.Sprintf("daemon: rank %d: corrupt protocol snapshot: %v", d.cfg.Rank, err))
	}
	d.st = core.Restore(sn)
	d.appState = im.AppState
	d.restored = true
	if im.Seq > d.ckptSeq {
		d.ckptSeq = im.Seq
		d.ckptDone = im.Seq
	}
	// The restored image is the store's materialized latest: it is a
	// valid base for this incarnation's first delta, and its SeqTo
	// vector bounds what that delta may omit.
	d.ckptBase = im.Seq
	d.ckptMarks = sn.SeqTo
}

// fetchImageWhole gathers whole images from a read quorum: R−Q+1 replies
// intersect every write quorum, so at least one carries the newest
// durable image; the highest sequence among the verified replies wins.
// On a lossy fabric the request or the reply can vanish, and a corrupt
// or truncated image fails the integrity check: either way the silent
// replicas are asked again. A damaged image is never a dead end —
// servers only ack verified copies, so a write quorum of intact ones
// exists somewhere.
func (d *V2) fetchImageWhole() *ckpt.Image {
	var best *ckpt.Image
	d.gatherQuorum(&d.cs.replicaGroup, 1, wire.KCkptFetch, nil, wire.KCkptImage, func(resp []byte) bool {
		present, img, err := wire.DecodeCkptImage(resp)
		if err != nil || !present {
			return err == nil
		}
		im, err := ckpt.DecodeImage(img)
		if err != nil {
			d.stats.CorruptImages++
			return false
		}
		if best == nil || im.Seq > best.Seq {
			best = im
		}
		return true
	})
	return best
}

// fetchImageChunked is the restart fast path: gather image manifests
// from a read quorum, group the replicas by (seq, image CRC) so chunks
// are only mixed across byte-identical copies, then pull the chunks of
// the best group in parallel. Returns nil when anything falls short —
// the caller falls back to the whole-image fetch.
func (d *V2) fetchImageChunked() *ckpt.Image {
	cs := d.ckptChunkSize()
	d.stats.ManifestFetches++
	req := wire.EncodeU32(uint32(cs))
	valid := func(resp []byte) bool {
		_, err := wire.DecodeCkptManifest(resp)
		return err == nil
	}
	replies := d.gatherQuorum(&d.cs.replicaGroup, 1, wire.KCkptManifestReq, req, wire.KCkptManifest, valid)

	type group struct {
		seq uint64
		crc uint32
	}
	servers := make(map[group][]int)
	manifests := make(map[group]wire.CkptManifest)
	for from, resp := range replies {
		m, err := wire.DecodeCkptManifest(resp)
		if err != nil || !m.Present || m.ChunkSize != uint32(cs) {
			continue
		}
		g := group{m.Seq, m.ImageCRC}
		servers[g] = append(servers[g], from)
		manifests[g] = m
	}
	var best group
	found := false
	for g := range servers {
		if !found || g.seq > best.seq ||
			(g.seq == best.seq && len(servers[g]) > len(servers[best])) {
			best, found = g, true
		}
	}
	if !found {
		return nil
	}
	m := manifests[best]
	from := servers[best]
	sort.Ints(from) // deterministic chunk→replica assignment
	img := d.fetchChunks(m, from)
	if img == nil {
		return nil
	}
	im, err := ckpt.DecodeImage(img)
	if err != nil || im.BaseSeq != 0 {
		d.stats.CorruptImages++
		return nil
	}
	return im
}

// fetchChunks pulls every chunk the manifest describes, spreading the
// requests round-robin across the group's replicas — all holding
// byte-identical images, so any replica can serve any chunk — and
// validating each against its manifest CRC. Each retry round rotates
// the assignment and re-requests only the chunks still missing or
// received damaged.
func (d *V2) fetchChunks(m wire.CkptManifest, from []int) []byte {
	n := m.Chunks()
	parts := make([][]byte, n)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	missing := d.gather(ids, n, 0, d.restartRetries()+1, d.fetchTimeout(),
		func(i, attempt int) {
			d.ep.Send(from[(i+attempt)%len(from)], wire.KCkptChunkFetch,
				wire.AppendCkptChunkFetch(wire.GetBuf(wire.CkptChunkFetchLen), m.Seq, uint32(i), m.ChunkSize))
		},
		func(f transport.Frame) (int, bool) {
			if f.Kind != wire.KCkptChunkData {
				return 0, false
			}
			seq, idx, count, body, err := wire.DecodeCkptChunk(f.Data)
			if err != nil || seq != m.Seq || int(count) != n || int(idx) >= n {
				d.stats.Malformed++
				return -1, true
			}
			if parts[idx] != nil {
				return -1, true // duplicate
			}
			if crc32.ChecksumIEEE(body) != m.ChunkCRCs[idx] {
				// Damaged past the frame CRC, or a different image's
				// bytes: drop it and re-fetch just this chunk.
				d.stats.CorruptImages++
				return -1, true
			}
			parts[idx] = append([]byte(nil), body...)
			return int(idx), true
		})
	if len(missing) > 0 {
		return nil
	}
	img := make([]byte, 0, int(m.Size))
	for _, p := range parts {
		img = append(img, p...)
	}
	if uint64(len(img)) != m.Size || crc32.ChecksumIEEE(img) != m.ImageCRC {
		d.stats.CorruptImages++
		return nil
	}
	return img
}

// gatherQuorum performs a restart-time read-quorum exchange with one
// replica group: the request goes to every replica still missing a
// valid reply, and the call returns once a read quorum of distinct
// replicas has answered. After bounded retries the fetch degrades to
// whatever reply set of at least floor arrived — a restarting daemon
// that waited forever on crashed replicas would stall the whole run —
// and the degradation is counted so experiments can report when the
// intersection guarantee was forfeited. Only a multi-shard fetch may
// pass floor 0 and tolerate a whole group being down.
func (d *V2) gatherQuorum(g *replicaGroup, floor int, reqKind uint8, reqData []byte, respKind uint8, valid func([]byte) bool) map[int][]byte {
	need := g.readQuorum()
	replies := make(map[int][]byte, len(g.targets))
	d.gather(g.targets, need, floor, d.restartRetries()+1, d.fetchTimeout(),
		func(t, _ int) { d.ep.Send(t, reqKind, reqData) },
		func(f transport.Frame) (int, bool) {
			if f.Kind != respKind {
				return 0, false
			}
			if _, inGroup := g.bits[f.From]; !inGroup {
				return -1, true
			}
			if !valid(f.Data) {
				d.stats.Malformed++
				return -1, true
			}
			replies[f.From] = f.Data
			return f.From, true
		})
	if len(replies) < need {
		d.stats.DegradedReads++
	}
	return replies
}

// mergeDetFlush broadcasts KDetFlushReq to every peer and merges the
// cached determinants they return into the EL-fetched replay list,
// EL events winning any clock collision. Bounded and best-effort: dead
// peers (or peers simultaneously in recovery, whose replies are
// buffered behind their own fetch) must not stall our restart.
func (d *V2) mergeDetFlush(peers []int, evs []core.Event) []core.Event {
	seen := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		seen[ev.RecvClock] = true
	}
	flushed := make(map[int][]core.Event, len(peers))
	d.gather(peers, len(peers), 0, 3, d.fetchTimeout(),
		func(q, _ int) { d.ep.Send(q, wire.KDetFlushReq, nil) },
		func(f transport.Frame) (int, bool) {
			if f.Kind != wire.KDetFlushResp {
				return 0, false
			}
			dets, err := wire.DecodeEvents(f.Data)
			if err != nil {
				d.stats.Malformed++
				return -1, true
			}
			flushed[f.From] = dets
			return f.From, true
		})
	for _, q := range peers {
		for _, ev := range flushed[q] {
			// Each RecvClock names exactly one delivery of our history;
			// below the restored clock it is inside the checkpoint.
			if ev.RecvClock <= d.st.Clock() || seen[ev.RecvClock] {
				continue
			}
			seen[ev.RecvClock] = true
			evs = append(evs, ev)
			d.stats.DetFlushMerged++
		}
	}
	return evs
}

// awaitAnyFrame waits up to timeout for any frame, buffering rank
// requests. ok=false means the timeout expired.
func (d *V2) awaitAnyFrame(timeout time.Duration) (transport.Frame, bool) {
	expired := false
	id := d.after(timeout, func() { expired = true })
	defer d.cancel(id)
	for {
		e := d.next()
		if e.isTimer {
			d.handleTimer(e.timer)
			if expired {
				return transport.Frame{}, false
			}
			continue
		}
		if !e.isFrame {
			d.recoverReqs = append(d.recoverReqs, e.req)
			continue
		}
		return e.frame, true
	}
}

// --- Frame handling ------------------------------------------------------

func (d *V2) handleFrame(f transport.Frame) {
	if d.recovering {
		d.recoverPending = append(d.recoverPending, f)
		return
	}
	switch f.Kind {
	case wire.KPayload:
		hdr, body, err := wire.DecodePayload(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		d.tr.Record(d.rt.Now(), trace.EvRecvWire, hdr.Span, 0, uint64(f.From), uint64(len(body)))
		if len(hdr.Dets) > 0 {
			d.absorbDets(f.From, hdr.Dets)
		}
		if d.st.Offer(f.From, hdr.SenderClock, hdr.PairSeq, hdr.DevKind, body) == core.OfferQueue {
			d.arrived = append(d.arrived, core.StashedMsg{From: f.From, Clock: hdr.SenderClock, Seq: hdr.PairSeq, Kind: hdr.DevKind, Data: body})
			// A newly admitted message may release successors that
			// arrived out of order and were held for the gap to fill.
			d.arrived = append(d.arrived, d.st.TakeHeld(f.From)...)
		}
		d.stats.RecvMsgs++
		d.stats.RecvBytes += int64(len(body))
		d.schedRecv += uint64(len(body))

	case wire.KEventAck:
		seq, cum, err := wire.DecodeEventAck(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		wire.PutBuf(f.Data) // seq and cum are copied out; the frame is dead
		d.elAck(f.From, seq, cum)

	case wire.KRestart1:
		hp, err := wire.DecodeU64(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		resend, myHR := d.st.OnRestart1(f.From, hp)
		d.ep.Send(f.From, wire.KRestart2, wire.EncodeU64(myHR))
		d.transmitSaved(f.From, resend)

	case wire.KRestart2:
		hp, err := wire.DecodeU64(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		d.transmitSaved(f.From, d.st.OnRestart2(f.From, hp))

	case wire.KDetFlushReq:
		// A restarting peer gathers the determinants the living hold
		// for it (phase A2b) — the close of the in-flight-relay race:
		// a determinant we cached but whose relay has not reached the
		// EL yet would otherwise be invisible to the peer's fetch.
		d.ep.Send(f.From, wire.KDetFlushResp, wire.EncodeEvents(d.foreignDetsFor(f.From)))

	case wire.KELShardDown:
		k, err := wire.DecodeU32(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		d.elShardDown(int(k))

	case wire.KELShardUp:
		k, err := wire.DecodeU32(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		d.elShardUp(int(k))

	case wire.KCkptNote:
		upTo, err := wire.DecodeU64(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		d.tr.Record(d.rt.Now(), trace.EvGCApply, 0, 0, uint64(f.From), upTo)
		d.stats.GCFreedBytes += d.st.CollectGarbage(f.From, upTo)

	case wire.KSchedPoll:
		d.ep.Send(f.From, wire.KSchedStat, wire.EncodeStatus(wire.NodeStatus{
			Rank:      d.cfg.Rank,
			LogBytes:  uint64(d.st.LogBytes()),
			SentBytes: d.schedSent,
			RecvBytes: d.schedRecv,
		}))

	case wire.KCkptOrder:
		if d.hasCS() {
			d.ckptFlag.Store(true)
		}

	case wire.KCkptSaveAck:
		// A save ack means the server verified and stored a FULL image
		// for this seq — either a legacy monolithic save or an escalated
		// transfer — so the replica holds the checkpoint regardless of
		// which chunks it acked.
		seq, err := wire.DecodeU64(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		wire.PutBuf(f.Data) // seq is copied out; the frame is dead
		if d.cs.ack(f.From, seq, 0) > 0 {
			d.cs.retire(d.ckptRetired)
		}

	case wire.KCkptChunkAck:
		seq, idx, err := wire.DecodeCkptChunkAck(f.Data)
		if err != nil {
			d.stats.Malformed++
			return
		}
		wire.PutBuf(f.Data) // fields are copied out; the frame is dead
		bit, inGroup := d.cs.bits[f.From]
		if !inGroup {
			return // acks from nodes outside the replica group cannot count
		}
		// Chunk acks suppress retransmission of that chunk to that
		// replica; they never complete a transfer. Completion rides only
		// on KCkptSaveAck: the store sends it once the assembled image
		// verified and materialized, so per-chunk acks left behind by a
		// replica that died mid-transfer — respawned empty, it still
		// looks all-chunks-acked to us but holds nothing — cannot fake
		// durability.
		if s := d.cs.find(seq); s != nil && int(idx) < len(s.item.chunks) {
			s.item.chunks[idx].acked |= 1 << bit
		}

	case wire.KFinalizeAck:
		d.finAcked = true
		if d.finTimer != 0 {
			d.cancel(d.finTimer)
			d.finTimer = 0
		}
	}
}

// transmitSaved re-sends saved payload copies after a peer restart.
// Retransmissions reuse the original message's span id: they re-emit a
// message whose first transmission already passed the WAITLOGGED gate.
func (d *V2) transmitSaved(to int, msgs []core.SavedMsg) {
	for _, m := range msgs {
		hdr := wire.PayloadHeader{SenderClock: m.Clock, PairSeq: m.Seq, DevKind: m.Kind}
		if d.tr != nil {
			hdr.Span = trace.PackSpan(d.cfg.Rank, m.Clock)
		}
		// Retransmissions carry the pending suppressed determinants
		// too: a restarting peer is exactly who benefits from the
		// receiver-side cache being current.
		if len(d.detPending) > 0 {
			hdr.Dets = d.detPending
			d.stats.DetPiggybacked += int64(len(d.detPending))
		}
		d.ep.Send(to, wire.KPayload, wire.AppendPayload(wire.GetBuf(wire.PayloadSizeH(hdr, len(m.Data))), hdr, m.Data))
		d.tr.Record(d.rt.Now(), trace.EvResend, hdr.Span, uint64(len(hdr.Dets)), uint64(to), uint64(len(m.Data)))
		d.stats.Resent++
	}
}

// --- Event-logger exchange ------------------------------------------------

// elBatch is one in-flight event-log submission. Three shapes share the
// window, the seq stream and the cumulative-ack machinery: pessimistic
// batches (gated == len(evs), origin < 0) whose retirement credits
// WAITLOGGED; suppressed epoch batches (gated == 0, origin < 0) whose
// retirement only prunes the piggyback set; and foreign relay batches
// (origin >= 0) shipping another node's piggybacked determinants as
// KDetRelay frames.
type elBatch struct {
	evs    []core.Event
	gated  int // events to credit against WAITLOGGED on retire
	origin int // <0: our events (KEventLog); else relay origin (KDetRelay)
}

// Batch origins below 0 both ship as KEventLog and credit gated events
// on retirement; backfill marks re-submissions of already-counted
// determinants (shard rebuilds) so EventsLogged is not inflated.
const (
	originOwn      = -1
	originBackfill = -2
)

// elShard is one event-logger replica group of the fleet. Requests are
// numbered (namespaced by incarnation) per shard, so each group's
// replicas observe one contiguous seq stream and their cumulative-ack
// trackers work unchanged; acks are matched back through elNodeShard, so
// identical seqs on different shards cannot collide.
//
// The window is the sliding window of pipelined determinant logging: up
// to elWindow() batches may be outstanding per shard, further events
// wait in queue for a free slot, and completed batches retire strictly
// from the front (see batchRetired) so EventsAcked credits events in
// submission order exactly as stop-and-wait did.
type elShard struct {
	w     window[elBatch]
	seq   uint64
	queue []core.Event // events awaiting a free window slot
}

// hasEL reports whether any event-logger group is configured; without
// one nothing is logged and nothing gates.
func (d *V2) hasEL() bool { return len(d.elShards) > 0 }

// hasCS reports whether any checkpoint server is configured.
func (d *V2) hasCS() bool { return len(d.cs.targets) > 0 }

// elShardFor routes a channel (sender → receiver) to the shard serving
// it under the current dead set: the ring owner, or its successor while
// the owner is rebalanced away.
func (d *V2) elShardFor(sender, receiver int) *elShard {
	if len(d.elShards) == 1 {
		return d.elShards[0]
	}
	return d.elShards[d.elMap.OwnerLive(sender, receiver, d.elDead)]
}

// elWindow is the bound on in-flight batches: ELWindow when configured,
// else the legacy behavior — stop-and-wait under EventBatching,
// unbounded (one batch per event, 0 = no limit) without it.
func (d *V2) elWindow() int {
	if d.cfg.ELWindow > 0 {
		return d.cfg.ELWindow
	}
	if d.cfg.EventBatching {
		return 1
	}
	return 0
}

// pumpEL flushes a shard's queued events into new batches while its
// window has free slots — the adaptive close of the pipeline: under
// batching the whole queue becomes one batch, so batch size adapts to
// however many events accumulated while the window was full.
func (d *V2) pumpEL(sh *elShard) {
	w := d.elWindow()
	for len(sh.queue) > 0 && (w == 0 || len(sh.w.slots) < w) {
		var evs []core.Event
		if d.cfg.EventBatching {
			evs = sh.queue
			sh.queue = nil
		} else {
			evs = sh.queue[:1:1]
			sh.queue = sh.queue[1:]
		}
		d.sendEvents(sh, evs, len(evs), originOwn)
	}
	if len(sh.queue) == 0 {
		sh.queue = nil
	}
}

// sendEvents opens a window slot on one shard: the batch ships to every
// replica of the group and joins the shard's in-flight window. gated is
// how many of the events credit WAITLOGGED on retirement (all of them
// for a pessimistic batch, none for a suppressed epoch, relay or
// backfill batch); origin >= 0 marks a foreign relay batch shipped as
// KDetRelay.
func (d *V2) sendEvents(sh *elShard, evs []core.Event, gated, origin int) {
	sh.seq++
	d.tr.Record(d.rt.Now(), trace.EvDetSubmit, 0, 0, sh.seq, uint64(len(evs)))
	sh.w.push(sh.seq, elBatch{evs: evs, gated: gated, origin: origin})
	switch origin {
	case originOwn:
		d.stats.EventsLogged += int64(len(evs))
	case originBackfill:
		d.stats.ShardBackfilled += int64(len(evs))
	}
}

// sendEventFrame encodes one KEventLog (or KDetRelay, for a foreign
// relay batch) into a pooled framing buffer and ships it. Every
// transmission gets a fresh buffer — ownership moves with the frame,
// and the logger recycles it after decoding — so retransmissions
// re-encode rather than caching an encoding per batch.
func (d *V2) sendEventFrame(s *slot[elBatch], to int) {
	b := &s.item
	if b.origin >= 0 {
		d.ep.Send(to, wire.KDetRelay, wire.AppendDetRelay(wire.GetBuf(wire.DetRelaySize(len(b.evs))), s.seq, b.origin, b.evs))
		return
	}
	d.ep.Send(to, wire.KEventLog, wire.AppendEventLog(wire.GetBuf(wire.EventLogSize(len(b.evs))), s.seq, b.evs))
}

// elAck completes in-flight batches on the acking replica's shard.
// WAITLOGGED is released only once the write quorum acked, and the
// completed batches retire strictly from the front of the shard's
// window, so events are credited in submission order and unacked
// reaches zero at exactly the moment stop-and-wait would have reached
// it: when every submitted batch is complete. Shards gate
// independently: the WAITLOGGED counter in core.State is a plain count,
// so per-shard retirement order cannot misattribute credits.
func (d *V2) elAck(from int, seq, cum uint64) {
	sh := d.elNodeShard[from]
	if sh == nil {
		return // acks from nodes outside every replica group cannot count
	}
	if sh.w.ack(from, seq, cum) == 0 {
		return
	}
	sh.w.retire(d.batchRetired)
	d.pumpEL(sh)
}

// batchRetired credits a batch leaving the front of its shard's window.
func (d *V2) batchRetired(s *slot[elBatch]) {
	b := &s.item
	if b.origin >= 0 {
		return
	}
	if d.tr != nil {
		// Each determinant of the batch is quorum-durable the instant its
		// batch retires in order — this, not the raw ack arrival, is the
		// durability point WAITLOGGED waits on.
		now := d.rt.Now()
		for _, ev := range b.evs {
			d.tr.Record(now, trace.EvDetDurable,
				trace.PackSpan(d.cfg.Rank, ev.RecvClock), 0, s.seq, 0)
		}
	}
	d.st.EventsAcked(b.gated)
	if b.gated < len(b.evs) {
		d.detRetire(b.evs)
	}
}

// pendingEL counts determinants not yet quorum-durable across every
// shard: events queued for submission plus events inside unretired
// in-flight batches.
func (d *V2) pendingEL() int {
	n := 0
	for _, sh := range d.elShards {
		n += len(sh.queue)
		for i := range sh.w.slots {
			if !sh.w.slots[i].done {
				n += len(sh.w.slots[i].item.evs)
			}
		}
	}
	return n
}

// elStalled evaluates the ELHighWater/ELLowWater hysteresis band and
// latches the degraded state across the threshold crossings, counting
// each transition once.
func (d *V2) elStalled() bool {
	hi := d.cfg.ELHighWater
	if hi <= 0 {
		return false
	}
	lo := d.cfg.ELLowWater
	if lo <= 0 || lo >= hi {
		lo = hi / 2
	}
	n := d.pendingEL()
	if d.elDegraded {
		if n <= lo {
			d.elDegraded = false
			d.stats.DegradedResumes++
		}
	} else if n >= hi {
		d.elDegraded = true
		d.stats.DegradedStalls++
	}
	return d.elDegraded
}

func (d *V2) submitEvent(ev core.Event) {
	if !d.hasEL() {
		return
	}
	sh := d.elShardFor(ev.Sender, d.cfg.Rank)
	sh.queue = append(sh.queue, ev)
	d.pumpEL(sh)
}

// noteHistory retains a committed determinant for shard rebuilds: when
// a shard loses its quorum or rejoins empty, the daemon — the
// authoritative producer of its own reception history — re-submits the
// retained events of the moved channels (gated already satisfied, so as
// ungated backfill batches). Only kept in sharded mode; pruned at
// checkpoint retirement, below whose horizon no restart fetch reaches.
func (d *V2) noteHistory(ev core.Event) {
	if d.elHistory == nil {
		return
	}
	d.elHistory[ev.Sender] = append(d.elHistory[ev.Sender], ev)
}

// pruneHistory drops retained determinants at or below a durable
// checkpoint's clock horizon: a restart restores at least that clock
// and fetches only events above it.
func (d *V2) pruneHistory(clock uint64) {
	for p, hist := range d.elHistory {
		kept := hist[:0]
		for _, ev := range hist {
			if ev.RecvClock > clock {
				kept = append(kept, ev)
			}
		}
		if len(kept) == 0 {
			delete(d.elHistory, p)
		} else {
			d.elHistory[p] = kept
		}
	}
}

// --- Fleet rebalancing (KELShardDown / KELShardUp) ------------------------

// elShardDown applies a dispatcher notice that shard k lost its write
// quorum: the shard's key range reroutes to its ring successor for new
// submissions, everything queued or in flight on the shard re-submits
// through the new owners (an unretired batch may have died below quorum
// with the group), and the retained history of the moved channels is
// backfilled so determinants the dead group alone held stay fetchable.
func (d *V2) elShardDown(k int) {
	if d.elMap == nil || k < 0 || k >= len(d.elShards) || d.elDead[k] {
		return
	}
	// Live owners before the failure, to identify the moved channels.
	before := make(map[int]int, len(d.elHistory))
	for p := range d.elHistory {
		before[p] = d.elMap.OwnerLive(p, d.cfg.Rank, d.elDead)
	}
	d.elDead[k] = true
	d.stats.ShardRebalances++
	sh := d.elShards[k]
	queue, inFlight := sh.queue, sh.w.reset()
	sh.queue = nil
	for _, ev := range queue {
		nsh := d.elShardFor(ev.Sender, d.cfg.Rank)
		nsh.queue = append(nsh.queue, ev)
	}
	for i := range inFlight {
		d.resubmitBatch(&inFlight[i].item)
	}
	for p, hist := range d.elHistory {
		if before[p] != k || len(hist) == 0 {
			continue
		}
		nsh := d.elShardFor(p, d.cfg.Rank)
		if nsh == sh {
			continue // whole fleet down; submissions would land nowhere new
		}
		d.sendEvents(nsh, append([]core.Event(nil), hist...), 0, originBackfill)
	}
	for _, nsh := range d.elShards {
		d.pumpEL(nsh)
	}
}

// resubmitBatch re-routes one displaced batch's events to their current
// owners, preserving the gating semantics: a pessimistic batch's events
// stay uncredited until the re-submission retires, so the WAITLOGGED
// accounting carries over exactly; ungated and relay batches re-submit
// ungated. Own events re-count as backfill, not as fresh logging.
func (d *V2) resubmitBatch(b *elBatch) {
	receiver := d.cfg.Rank
	if b.origin >= 0 {
		receiver = b.origin
	}
	groups := make(map[*elShard][]core.Event)
	for _, ev := range b.evs {
		nsh := d.elShardFor(ev.Sender, receiver)
		groups[nsh] = append(groups[nsh], ev)
	}
	for _, nsh := range d.elShards {
		evs := groups[nsh]
		if len(evs) == 0 {
			continue
		}
		gated := 0
		if b.gated > 0 {
			gated = len(evs)
		}
		origin := b.origin
		if origin == originOwn {
			origin = originBackfill
		}
		d.sendEvents(nsh, evs, gated, origin)
	}
}

// elShardUp applies a dispatcher notice that shard k regained its
// quorum: its key range routes back, and the retained history of the
// returning channels is backfilled — the respawned group may hold
// nothing, and its own anti-entropy resync can only copy what some
// replica still has.
func (d *V2) elShardUp(k int) {
	if d.elMap == nil || !d.elDead[k] {
		return
	}
	// Owners while k was out, to identify the channels coming back.
	before := make(map[int]int, len(d.elHistory))
	for p := range d.elHistory {
		before[p] = d.elMap.OwnerLive(p, d.cfg.Rank, d.elDead)
	}
	delete(d.elDead, k)
	d.stats.ShardRejoins++
	sh := d.elShards[k]
	for p, hist := range d.elHistory {
		if len(hist) == 0 {
			continue
		}
		if d.elMap.OwnerLive(p, d.cfg.Rank, d.elDead) != k || before[p] == k {
			continue
		}
		d.sendEvents(sh, append([]core.Event(nil), hist...), 0, originBackfill)
	}
}

// --- Pull recovery --------------------------------------------------------

// beginStarve arms the pull timer: if the daemon is still starved when
// it fires, every peer is asked to re-send from our delivered horizon
// (the same announcement a restarted node makes), recovering messages a
// lossy fabric dropped. Duplicates are discarded by the clock/sequence
// dedup on the receive path.
func (d *V2) beginStarve() {
	to := timeout(d.cfg.PullTimeout, 0) // default: disabled
	if to <= 0 || d.pullTimer != 0 {
		return
	}
	bo := transport.Backoff{Base: to}
	d.pullTimer = d.after(bo.Delay(d.pullAttempts), d.pullExpired)
}

func (d *V2) endStarve() {
	if d.pullTimer != 0 {
		d.cancel(d.pullTimer)
		d.pullTimer = 0
	}
	d.pullAttempts = 0
}

func (d *V2) pullExpired() {
	d.pullTimer = 0
	d.pullAttempts++
	d.stats.Pulls++
	for q := 0; q < d.cfg.Size; q++ {
		if q == d.cfg.Rank {
			continue
		}
		d.ep.Send(q, wire.KRestart1, wire.EncodeU64(d.st.RestartAnnouncement(q)))
	}
	d.beginStarve()
}

// --- Rank requests -------------------------------------------------------

func (d *V2) handleReq(r rankReq) {
	switch r.op {
	case opInit:
		d.reply(rankResp{rank: d.cfg.Rank, size: d.cfg.Size, appState: d.appState, restarted: d.restored || d.st.Replaying()})
	case opSend:
		d.doSend(r.to, r.data)
	case opRecv:
		d.doRecv()
	case opProbe:
		d.doProbe()
	case opCkpt:
		d.doCheckpoint(r.data)
	case opFinish:
		d.doFinish()
	}
}

func (d *V2) doFinish() {
	// A finalize with suppressed determinants still volatile would leave
	// permanent holes in the logged channel history; flush and drain
	// them first (one epoch tail per run).
	d.flushDetEpoch()
	d.drainDetPending()
	if d.cfg.Dispatcher >= 0 {
		d.ep.Send(d.cfg.Dispatcher, wire.KFinalize, nil)
		// Retransmit the finalize until the dispatcher confirms it:
		// losing it would leave the run waiting on a node that has in
		// fact completed. Bounded — a dead dispatcher must not keep the
		// virtual timeline alive forever.
		if to := d.elAckTimeout(); to > 0 {
			bo := transport.Backoff{Base: to}
			var rearm func(attempt int)
			rearm = func(attempt int) {
				if d.finAcked || attempt >= finalizeRetries {
					return
				}
				d.finTimer = d.after(bo.Delay(attempt), func() {
					d.finTimer = 0
					if d.finAcked {
						return
					}
					d.ep.Send(d.cfg.Dispatcher, wire.KFinalize, nil)
					d.stats.Retransmits++
					rearm(attempt + 1)
				})
			}
			rearm(0)
		}
	}
	d.finished = true
	d.reply(rankResp{})
}

func (d *V2) reply(r rankResp) {
	d.rsp.SendAfter(d.cfg.UnixDelay, r)
}

func (d *V2) doSend(to int, data []byte) {
	if to == d.cfg.Rank {
		panic("daemon: device-level self send (the MPI layer must short-circuit self messages)")
	}
	id, seq, transmit := d.st.PrepareSend(to, 0, data)

	// Sender-based logging cost: copying the payload into the SAVED
	// log, plus the Unix-socket copy for store-and-forwarded eager
	// payloads, spilling to disk past the memory budget (§5.2: LU's
	// poor performance; the daemon "becomes a competitor of the MPI
	// process for CPU resources").
	if n := len(data); n > 0 {
		cost := time.Duration(n) * d.cfg.LogCopyPerByte
		if d.cfg.PipelineLimit <= 0 || n <= d.cfg.PipelineLimit {
			cost += time.Duration(n) * d.cfg.UnixCopyPerByte
		}
		if d.cfg.LogMemLimit > 0 && d.st.LogBytes() > d.cfg.LogMemLimit {
			cost += time.Duration(n) * d.cfg.DiskCopyPerByte
		}
		if d.cfg.LogHardLimit > 0 && d.st.LogBytes() > d.cfg.LogHardLimit {
			d.stats.LogOverflowed = true
		}
		if cost > 0 {
			d.rt.Sleep(cost)
		}
	}

	// WAITLOGGED(): no payload leaves before the event logger has
	// acknowledged every reception event submitted so far.
	if d.st.SendBlocked() && !d.cfg.NoSendGating {
		d.stats.ELWaits++
		waitFrom := d.rt.Now()
		unacked := uint64(d.st.UnackedEvents())
		for d.st.SendBlocked() {
			e := d.next()
			if e.isFrame {
				d.handleFrame(e.frame)
			} else if e.isTimer {
				d.handleTimer(e.timer)
			} else {
				panic(fmt.Sprintf("daemon: rank %d: concurrent rank request during send", d.cfg.Rank))
			}
		}
		d.stats.ELWaitNS += int64(d.rt.Now() - waitFrom)
		d.tr.Record(d.rt.Now(), trace.EvWaitLogged, 0, 0, uint64(d.rt.Now()-waitFrom), unacked)
	}

	if transmit {
		if d.st.SendBlocked() {
			// A payload is leaving while reception events are still
			// below their write quorum — every path that can do this
			// (only the NoSendGating ablation today) is counted so the
			// auditor can assert the invariant held.
			d.stats.BelowQuorumAcks++
		}
		hdr := wire.PayloadHeader{SenderClock: id.Clock, PairSeq: seq}
		if d.tr != nil {
			hdr.Span = trace.PackSpan(d.cfg.Rank, id.Clock)
		}
		// Every payload carries the suppressed determinants still short
		// of durability: the receiver caches and relays them, so any
		// causal successor of a suppressed delivery also carries the
		// evidence needed to reconstruct it.
		if len(d.detPending) > 0 {
			hdr.Dets = d.detPending
			d.stats.DetPiggybacked += int64(len(d.detPending))
		}
		d.ep.Send(to, wire.KPayload, wire.AppendPayload(wire.GetBuf(wire.PayloadSizeH(hdr, len(data))), hdr, data))
		d.tr.Record(d.rt.Now(), trace.EvSend, hdr.Span, uint64(len(hdr.Dets)), uint64(to), uint64(len(data)))
		d.stats.SentMsgs++
		d.stats.SentBytes += int64(len(data))
		d.schedSent += uint64(len(data))
	}
	d.reply(rankResp{})
}

func (d *V2) doRecv() {
	if d.st.Replaying() {
		for {
			if m, rev, ok := d.st.TakeStashed(); ok {
				d.endStarve()
				d.stats.Replayed++
				d.tr.Record(d.rt.Now(), trace.EvReplay,
					trace.PackSpan(d.cfg.Rank, rev.RecvClock),
					trace.PackSpan(m.From, m.Clock), uint64(m.From), m.Seq)
				if !d.st.Replaying() {
					d.arrived = append(d.arrived, d.st.DrainStash()...)
				}
				d.replyPayload(m.From, m.Data)
				return
			}
			// A clock hole in the replay can only be a delivery whose
			// suppressed determinant died with the crash; fill it by
			// regenerating the delivery fresh — a new, pessimistically
			// gated event that must reach the EL like any other.
			if m, rev, ok := d.st.RegenerateReplay(); ok {
				d.endStarve()
				d.stats.DetRegenerated++
				gated := uint64(0)
				if d.hasEL() {
					gated = 1
					d.stats.DetForced++
				}
				d.tr.Record(d.rt.Now(), trace.EvDeliver,
					trace.PackSpan(d.cfg.Rank, rev.RecvClock),
					trace.PackSpan(m.From, m.Clock), m.Seq, gated)
				d.noteHistory(rev)
				d.submitEvent(rev)
				d.replyPayload(m.From, m.Data)
				return
			}
			d.beginStarve()
			e := d.next()
			if e.isFrame {
				d.handleFrame(e.frame)
			} else if e.isTimer {
				d.handleTimer(e.timer)
			}
		}
	}
	if len(d.arrived) == 0 {
		// Starving: the application is blocked anyway, so ship the
		// suppressed-determinant epoch early — durability for free.
		d.flushDetEpoch()
	}
	// elStalled is the degraded-mode gate: with the EL quorum
	// unreachable the daemon refuses to commit further receptions, so
	// the application blocks here and stops feeding the resend queues.
	// Retransmission timers keep the loop turning, and the first acks
	// from a healed logger drain the backlog and lift the gate.
	for len(d.arrived) == 0 || d.elStalled() {
		d.beginStarve()
		e := d.next()
		if e.isFrame {
			d.handleFrame(e.frame)
		} else if e.isTimer {
			d.handleTimer(e.timer)
		}
	}
	d.endStarve()
	m := d.arrived[0]
	d.arrived = d.arrived[1:]
	// The nondeterminism signals are captured by the delivery path
	// itself, before the commit resets the probe count, and recorded
	// honestly on EvDetSuppressed whatever the classifier decides — the
	// happens-before auditor convicts a classifier that suppressed a
	// delivery these signals mark nondeterministic.
	probes := d.st.ProbeCount()
	competing := 0
	for i := range d.arrived {
		if d.arrived[i].From != m.From {
			competing++
		}
	}
	suppress := d.classify(m.From, probes, competing)
	var ev core.Event
	gated := uint64(0)
	if suppress {
		ev = d.st.CommitSuppressed(m.From, m.Clock, m.Seq)
		gated = 2 // suppressed: epoch-batched + piggybacked, no send gate
	} else {
		ev = d.st.Commit(m.From, m.Clock, m.Seq)
		if d.hasEL() {
			gated = 1 // the determinant joins the WAITLOGGED gate
		}
	}
	d.noteHistory(ev)
	if d.tr != nil {
		d.tr.Record(d.rt.Now(), trace.EvDeliver,
			trace.PackSpan(d.cfg.Rank, ev.RecvClock),
			trace.PackSpan(m.From, m.Clock), m.Seq, gated)
	}
	if suppress {
		d.tr.Record(d.rt.Now(), trace.EvDetSuppressed,
			trace.PackSpan(d.cfg.Rank, ev.RecvClock),
			trace.PackSpan(m.From, m.Clock), uint64(competing), uint64(probes))
		d.suppressEvent(ev)
	} else {
		if gated == 1 {
			d.stats.DetForced++
		}
		d.submitEvent(ev)
	}
	d.replyPayload(m.From, m.Data)
}

// replyPayload delivers a payload to the MPI process, charging the
// Unix-socket copy for store-and-forwarded eager messages.
func (d *V2) replyPayload(from int, data []byte) {
	if n := len(data); n > 0 && d.cfg.UnixCopyPerByte > 0 &&
		(d.cfg.PipelineLimit <= 0 || n <= d.cfg.PipelineLimit) {
		d.rt.Sleep(time.Duration(n) * d.cfg.UnixCopyPerByte)
	}
	d.reply(rankResp{from: from, data: data})
}

func (d *V2) doProbe() {
	// Opportunistically drain arrived frames first.
	for {
		e, ok := d.in.TryRecv()
		if !ok {
			break
		}
		if e.closed {
			panic(killedPanic{})
		}
		if e.isFrame {
			d.handleFrame(e.frame)
		} else if e.isTimer {
			d.handleTimer(e.timer)
		} else {
			panic("daemon: concurrent rank request during probe")
		}
	}
	if d.st.Replaying() {
		// The log dictates the exact probe outcomes (§4.5: "in order
		// to replay exactly the same execution").
		if d.st.ReplayProbeMiss() {
			d.reply(rankResp{flag: false})
			return
		}
		for !d.st.ReplayReady() {
			d.beginStarve()
			e := d.next()
			if e.isFrame {
				d.handleFrame(e.frame)
			} else if e.isTimer {
				d.handleTimer(e.timer)
			}
		}
		d.endStarve()
		d.reply(rankResp{flag: true})
		return
	}
	if len(d.arrived) > 0 {
		d.reply(rankResp{flag: true})
		return
	}
	d.st.ProbeMiss()
	d.reply(rankResp{flag: false})
}

// --- Checkpoint transfer ring ---------------------------------------------

// defCkptChunk is the default chunk size of the chunked transfer.
const defCkptChunk = 16 << 10

func (d *V2) ckptChunkSize() int {
	if d.cfg.CkptChunkSize == 0 {
		return defCkptChunk
	}
	return d.cfg.CkptChunkSize // negative: monolithic saves
}

// ckptChunk is one retained chunk frame of an in-flight transfer. The
// frame buffer is shared with every (re)transmission of the chunk and
// is therefore never recycled — the same ownership rule the monolithic
// KCkptSave payload had.
type ckptChunk struct {
	frame []byte
	acked uint64 // replica ack bitmask (replicaGroup bits)
}

// ckptXfer is one in-flight checkpoint of the cs window. Its slot's ack
// mask holds the replicas that sent a KCkptSaveAck — after a monolithic
// save, or after their store verified and materialized a completed chunk
// assembly — and so hold the full image; per-chunk acks only steer
// retransmission. The full protocol snapshot is retained for three jobs
// that outlive the delta encoding: the KCkptNote GC horizons and the
// next delta's base marks at retirement, and the escalation path — after
// repeated silence the daemon abandons the chunked delta and ships a
// monolithic full image, so liveness never depends on a replica holding
// the delta's base.
type ckptXfer struct {
	sn        *core.Snapshot
	clock     uint64 // receive clock at capture: the rebalancing-history prune horizon
	appState  []byte
	chunks    []ckptChunk
	full      []byte // encoded monolithic KCkptSave payload, lazily built
	escalated bool
	isDelta   bool
}

func (d *V2) doCheckpoint(appState []byte) {
	d.ckptFlag.Store(false)
	if !d.hasCS() {
		d.reply(rankResp{})
		return
	}
	// Drain suppressed determinants before capturing the snapshot:
	// replay regeneration only reaches above the restored clock, so a
	// determinant that stayed volatile below this checkpoint's horizon
	// would be a permanent hole in the logged channel history. The
	// drain is synchronous but rare — checkpoint cadence, not message
	// cadence.
	d.flushDetEpoch()
	d.drainDetPending()
	d.ckptSeq++
	seq := d.ckptSeq
	sn := d.st.Snapshot()
	d.schedSent, d.schedRecv = 0, 0

	// Delta capture: once a checkpoint has been retired, its SeqTo
	// marks bound what the store already holds — entries at or below a
	// mark live inside the base image and need not travel again.
	var marks map[int]uint64
	var baseSeq uint64
	if !d.cfg.CkptNoDelta && d.ckptBase != 0 && d.ckptMarks != nil {
		marks, baseSeq = d.ckptMarks, d.ckptBase
	}
	var protoSize int
	if marks != nil {
		protoSize = core.SnapshotDeltaSize(sn, marks)
	} else {
		protoSize = core.SnapshotSize(sn)
	}
	proto := core.AppendSnapshotDelta(wire.GetBuf(protoSize), sn, marks)
	im := &ckpt.Image{Rank: d.cfg.Rank, Seq: seq, BaseSeq: baseSeq, AppState: appState, Proto: proto}
	img := ckpt.AppendImage(wire.GetBuf(ckpt.ImageSize(im)), im)
	wire.PutBuf(proto) // copied into img

	x := ckptXfer{sn: sn, clock: d.st.Clock(), appState: appState, isDelta: baseSeq != 0}
	if cs := d.ckptChunkSize(); cs > 0 {
		n := (len(img) + cs - 1) / cs
		x.chunks = make([]ckptChunk, n)
		for i := range x.chunks {
			lo := i * cs
			hi := min(lo+cs, len(img))
			body := img[lo:hi]
			x.chunks[i].frame = wire.AppendCkptChunk(
				wire.GetBuf(wire.CkptChunkSize(len(body))), seq, uint32(i), uint32(n), body)
		}
	} else {
		// Monolithic mode: the whole image as one legacy KCkptSave.
		x.escalated = true
		x.full = wire.EncodeCkptSave(seq, img)
	}
	d.stats.Checkpoints++
	d.stats.CkptBytes += int64(len(img))
	if x.isDelta {
		d.stats.DeltaCkpts++
	}
	wire.PutBuf(img) // copied into the chunk frames / the full payload

	// The transfer is asynchronous: execution continues while the image
	// streams to the checkpoint servers (the paper's fork trick), and
	// unacknowledged chunks are retransmitted like event batches.
	d.cs.push(seq, x)
	d.reply(rankResp{})
}

// sendXfer ships a transfer to one server still short of the full
// image: the monolithic payload when escalated, else every chunk the
// server has not acked, in ascending chunk order. After
// ckptEscalateAfter silent retransmit rounds the transfer escalates
// first, so a replica that cannot complete the chunked delta is handed
// an image with no chain to follow.
func (d *V2) sendXfer(s *slot[ckptXfer], t int) {
	x := &s.item
	if !x.escalated && s.attempts >= ckptEscalateAfter {
		d.escalateCkpt(s)
	}
	if x.escalated {
		d.ep.Send(t, wire.KCkptSave, x.full)
		return
	}
	bit := d.cs.bits[t]
	for i := range x.chunks {
		if x.chunks[i].acked&(1<<bit) != 0 {
			continue
		}
		if s.attempts == 0 {
			d.tr.Record(d.rt.Now(), trace.EvCkptChunk, 0, 0, s.seq, uint64(i))
		} else {
			d.stats.ChunkRetransmits++
		}
		d.ep.Send(t, wire.KCkptChunk, x.chunks[i].frame)
	}
}

// ckptRetired applies a transfer leaving the front of the window, in
// submission order: it advances ckptDone, installs itself as the next
// delta base, and broadcasts the §4.6.1 KCkptNote GC horizons.
func (d *V2) ckptRetired(s *slot[ckptXfer]) {
	x := &s.item
	if s.seq <= d.ckptDone {
		return
	}
	d.ckptDone = s.seq
	d.ckptBase = s.seq
	d.ckptMarks = x.sn.SeqTo
	// Events below a durable checkpoint's clock horizon are replayed
	// from the image, never from the EL — the rebalancing history can
	// drop them.
	d.pruneHistory(x.clock)
	d.tr.Record(d.rt.Now(), trace.EvCkptDurable, 0, 0, s.seq, uint64(len(x.chunks)))
	for q := 0; q < d.cfg.Size; q++ {
		if q == d.cfg.Rank {
			continue
		}
		// The §4.6.1 GC horizon: deliveries from q up to HR[q] are
		// inside a durable checkpoint, so q may reclaim the SAVED
		// copies. Recorded before the send so the note always
		// happens-before the peer's EvGCApply.
		d.tr.Record(d.rt.Now(), trace.EvGCNote, 0, 0, uint64(q), x.sn.HR[q])
		d.ep.Send(q, wire.KCkptNote, wire.EncodeU64(x.sn.HR[q]))
	}
}

// escalateCkpt abandons the chunked delta for a transfer the servers
// will not complete — a replica missing the delta's base, or chunks
// vanishing faster than selective retransmit can replace them — and
// encodes the retained full snapshot as one monolithic KCkptSave. The
// store accepts it unconditionally (no chain to follow), restoring the
// pre-delta liveness guarantee.
func (d *V2) escalateCkpt(s *slot[ckptXfer]) {
	x := &s.item
	x.escalated = true
	if x.full != nil {
		return
	}
	proto := core.AppendSnapshot(wire.GetBuf(core.SnapshotSize(x.sn)), x.sn)
	im := &ckpt.Image{Rank: d.cfg.Rank, Seq: s.seq, AppState: x.appState, Proto: proto}
	img := ckpt.AppendImage(wire.GetBuf(ckpt.ImageSize(im)), im)
	wire.PutBuf(proto)
	x.full = wire.EncodeCkptSave(s.seq, img)
	d.stats.CkptBytes += int64(len(img)) // the full image ships after all
	wire.PutBuf(img)
}
