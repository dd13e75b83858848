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
	// defFetchTimeout is the backoff base of every restart-time gather:
	// a restarting daemon cannot block without a deadline.
	defFetchTimeout = 25 * time.Millisecond
	// defRestartRetries bounds the retransmissions of a restart-time
	// exchange per replica or peer: a peer silent for that long is
	// presumed crashed — its own recovery will resynchronize us.
	defRestartRetries = 6
	finalizeRetries   = 8
	// ckptEscalateAfter is the number of silent retransmit rounds after
	// which a chunked checkpoint transfer falls back to one full image
	// in a single KCkptSave (see escalateCkpt).
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

	finAcked bool
	finTimer uint64
	stats    Stats

	// parked is the rank request in service, from its arrival to its
	// reply. A request that cannot finish on arrival stays here, and run
	// re-evaluates it after every frame or timer it dispatches.
	parked parkedReq

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
	// submission order. xferFrames is sendXfer's batch scratch.
	cs         window[ckptXfer]
	xferFrames []transport.Parts

	// Pull recovery: when the daemon starves waiting for a deliverable
	// message on a lossy fabric, it re-announces its delivered horizon
	// so peers re-send anything that was dropped.
	pullTimer    uint64
	pullAttempts int

	// elDegraded latches the bounded-memory stall while pending
	// determinants sit inside the elHighWater hysteresis band.
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
		sh.w.init(d, newReplicaGroup(cfg.Rank, grp, cfg.ELQuorum), defELAckTimeout, d.sendEventFrame)
		d.elShards = append(d.elShards, sh)
		for _, t := range sh.w.targets {
			d.elNodeShard[t] = sh
		}
	}
	if len(d.elShards) > 1 {
		d.elMap = shard.New(len(d.elShards), shard.Seed)
		d.elDead = make(map[int]bool)
		d.elHistory = make(map[int][]core.Event)
	}
	d.cs.init(d, newReplicaGroup(cfg.Rank, serviceGroup(cfg.CSReplicas, cfg.CkptServer), cfg.CSQuorum),
		defCkptAckTimeout, d.sendXfer)
	d.ep = fab.Attach(cfg.Rank, fmt.Sprintf("cn%d", cfg.Rank))
	d.in = vtime.NewMailbox[dEvent](rt, fmt.Sprintf("v2d%d", cfg.Rank))
	d.rsp = vtime.NewMailbox[rankResp](rt, fmt.Sprintf("v2r%d", cfg.Rank))
	pump(rt, fmt.Sprintf("pump-cn%d", cfg.Rank), d.ep, d.in)
	rt.Go(fmt.Sprintf("daemon-cn%d", cfg.Rank), d.run)
	return &proxy{rank: cfg.Rank, delay: cfg.Cost.UnixOverhead, in: d.in, resp: d.rsp, ckpt: &d.ckptFlag}, d
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

// --- Determinant suppression ----------------------------------------------

// Suppression bounds; see Config.DetMode.
const (
	// defDetEpoch is the epoch size of suppressed-determinant batching:
	// after this many suppressed events the buffer flushes to the event
	// loggers as one batch.
	defDetEpoch = 16
	// defDetPiggyMax bounds the suppressed determinants pending
	// durability: every outgoing payload carries all of them, so the
	// bound caps the piggyback block.
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
		if len(d.detPending) >= defDetPiggyMax {
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
	if len(d.detEpoch) >= defDetEpoch {
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
	d.submitRouted(evs, d.cfg.Rank, false, originOwn)
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
	if d.hasEL() {
		// Relayed determinants describe the origin's reception channels:
		// routed by (sender, origin) they share the shard its own
		// submissions and its restart fetch use.
		d.submitRouted(fresh, origin, false, origin)
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
		d.dispatch(e)
		if !e.isReq {
			// A request is evaluated on arrival; only a frame or a timer
			// can release the parked one.
			d.resume()
		}
	}
}

// dispatch hands one inbox event to its handler. The MPI process blocks
// on every call, so a rank request while another is in service is a
// broken caller.
func (d *V2) dispatch(e dEvent) {
	switch {
	case e.isFrame:
		d.handleFrame(e.frame)
	case e.isTimer:
		d.handleTimer(e.timer)
	case d.parked.op != opNone:
		panic(fmt.Sprintf("daemon: rank %d: concurrent rank request", d.cfg.Rank))
	default:
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

// recover is the restart of figure 2, run as a pipeline: the image
// manifest from a read quorum; then at once the chunks from the
// replicas holding that image and the determinants above its clock from
// every event-logger replica; the image restored; RESTART1 to every
// peer, so the re-sent payloads travel while the determinants are
// merged; and the replay list handed to the protocol state. Frames and
// rank requests that arrive meanwhile wait in recoverPending and
// recoverReqs. Each phase boundary is an EvRestartPhase trace event.
func (d *V2) recover() {
	d.recovering = true
	d.restored = false
	recoverFrom := d.rt.Now()
	d.tr.Record(recoverFrom, trace.EvRestartBegin, 0, 0, d.cfg.Incarnation, 0)
	phase := func(p uint64) {
		d.tr.Record(d.rt.Now(), trace.EvRestartPhase, 0, 0, p, uint64(d.rt.Now()-recoverFrom))
	}

	// Phase A1: fetch the latest checkpoint image, if any. A manifest
	// whose image cannot be assembled (the replicas moved on to a newer
	// image meanwhile, or died) is gathered again. The first manifest
	// quorum starts phase A2's event fetch at the image's clock.
	var evf eventFetch
	if d.hasCS() {
		im, ok := d.fetchImage(&evf)
		for !ok {
			im, ok = d.fetchImage(&evf)
		}
		if im != nil {
			d.restoreImage(im)
		}
	}
	phase(trace.PhaseImage)

	// Phase B: ask every peer to re-send from what we have delivered —
	// one RESTART1 each, never waited on, as in the paper. It carries HR,
	// which the image restored and nothing below touches, so it goes out
	// before the determinants are merged: the peers' re-sends travel
	// meanwhile and wait in recoverPending. The RESTART2 replies are
	// handled on the normal path. On a lossy link the pull timer
	// (Config.PullTimeout) repairs a lost announcement or reply:
	// whichever side then starves for a message re-announces its horizon.
	d.announce()
	phase(trace.PhaseAnnounce)

	// Phase A2: the reception events to replay.
	evs := d.fetchEvents(&evf)
	// Phase A2b (suppression only): merge the determinants our peers
	// cached off our piggybacks. A suppressed determinant can be relayed
	// but not yet EL-durable when we fetch — the peer's cache is the
	// only place it exists, and this bounded best-effort gather closes
	// that window. Whatever is in neither the EL nor any living cache is
	// a determinant nothing alive depends on; replay regenerates its
	// delivery instead.
	holeTolerant := d.detMode() != DetOff
	if holeTolerant && d.cfg.Size > 1 {
		evs = d.mergeDetFlush(evs)
	}
	// The fetched determinants re-seed the rebalancing history: after a
	// restart this daemon must again be able to backfill a successor
	// shard with everything it has committed since its checkpoint.
	for _, ev := range evs {
		d.noteHistory(ev)
	}
	d.stats.ReplayDropped += int64(d.st.StartRecoveryWith(evs, holeTolerant))
	phase(trace.PhaseEvents)

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

// fetchImage is the restart-time image fetch: gather image manifests
// from a read quorum — R−Q+1 replies intersect every write quorum, so at
// least one describes the newest durable image — group the replicas by
// (seq, image CRC) so chunks are only mixed across byte-identical
// copies, start the event fetch at the newest image's clock, then pull
// that image's chunks in parallel. Every stored image is served this
// way, escalated saves included: the store cuts it at the requested
// size. It returns nil, true when no replica of the read quorum
// holds an image, and ok=false when the manifest's image could not be
// assembled — the caller gathers manifests again. A damaged image is
// never a dead end: servers only ack verified copies, so a write quorum
// of intact ones exists.
func (d *V2) fetchImage(evf *eventFetch) (im *ckpt.Image, ok bool) {
	cs := d.ckptChunkSize()
	d.stats.ManifestFetches++
	req := wire.EncodeU32(uint32(cs))
	g := &d.cs.replicaGroup
	manifests := make(map[int]wire.CkptManifest, len(g.targets))
	d.gather(g.targets, defRestartRetries+1,
		func(missing []int, _ int) int {
			for _, t := range missing {
				d.ep.Send(t, wire.KCkptManifestReq, req)
			}
			return len(missing)
		},
		func(f transport.Frame) (int, bool) {
			if f.Kind != wire.KCkptManifest {
				return 0, false
			}
			if _, inGroup := g.bits[f.From]; !inGroup {
				return -1, true
			}
			m, err := wire.DecodeCkptManifest(f.Data)
			if err != nil || (m.Present && m.ChunkSize != uint32(cs)) {
				d.stats.Malformed++
				return -1, true
			}
			manifests[f.From] = m
			return f.From, true
		},
		func() bool { return len(manifests) >= g.readQuorum() },
		func() bool { return len(manifests) > 0 })
	if len(manifests) < g.readQuorum() {
		d.stats.DegradedReads++
	}

	type group struct {
		seq uint64
		crc uint32
	}
	servers := make(map[group][]int)
	var best group
	found := false
	for _, t := range g.targets { // in group order: a deterministic chunk→replica assignment
		m, ok := manifests[t]
		if !ok || !m.Present {
			continue
		}
		k := group{m.Seq, m.ImageCRC}
		servers[k] = append(servers[k], t)
		if !found || k.seq > best.seq || (k.seq == best.seq && len(servers[k]) > len(servers[best])) {
			best, found = k, true
		}
	}
	if !found {
		d.askEvents(evf, 0)
		return nil, true
	}
	from := servers[best]
	m := manifests[from[0]]
	d.askEvents(evf, m.Clock)
	img := d.fetchChunks(m, from)
	if img == nil {
		return nil, false
	}
	im, err := ckpt.DecodeImage(img)
	if err != nil || im.BaseSeq != 0 {
		d.stats.CorruptImages++
		return nil, false
	}
	return im, true
}

// fetchChunks pulls every chunk the manifest describes from the group's
// replicas — all holding byte-identical images, so any replica can serve
// any chunk. Each round cuts the chunks into one contiguous segment per
// replica, rotating the assignment by the round, and asks each replica
// for its share of the chunks still missing as one range request per
// contiguous run: the first round is one request per replica, and a
// retry re-requests only chunks missing or received damaged. Each chunk
// is validated against its manifest CRC and length and copied straight
// to its offset in the one image buffer, which only this daemon holds.
func (d *V2) fetchChunks(m wire.CkptManifest, from []int) []byte {
	n := m.Chunks()
	img := make([]byte, m.Size)
	got := make([]bool, n)
	left := n
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	replica := func(i, attempt int) int { return (i*len(from)/n + attempt) % len(from) }
	missing := d.gather(ids, defRestartRetries+1,
		func(missing []int, attempt int) (sent int) {
			for j := 0; j < len(missing); sent++ {
				r := replica(missing[j], attempt)
				k := j + 1
				for k < len(missing) && missing[k] == missing[k-1]+1 && replica(missing[k], attempt) == r {
					k++
				}
				d.ep.Send(from[r], wire.KCkptChunkFetch, wire.AppendCkptRangeFetch(wire.GetBuf(wire.CkptChunkFetchLen),
					m.Seq, uint32(missing[j]), uint32(k-j), m.ChunkSize))
				j = k
			}
			return sent
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
			if got[idx] {
				return -1, true // duplicate
			}
			off := int(idx) * int(m.ChunkSize)
			if len(body) != min(int(m.ChunkSize), len(img)-off) || crc32.ChecksumIEEE(body) != m.ChunkCRCs[idx] {
				// Cut at another size, damaged past the frame CRC, or a
				// different image's bytes: drop it and re-fetch just this
				// chunk.
				d.stats.CorruptImages++
				return -1, true
			}
			copy(img[off:], body)
			got[idx] = true
			left--
			return int(idx), true
		},
		func() bool { return left == 0 },
		func() bool { return true })
	if len(missing) > 0 {
		return nil
	}
	if crc32.ChecksumIEEE(img) != m.ImageCRC {
		d.stats.CorruptImages++
		return nil
	}
	return img
}

// eventFetch is a restart's determinant fetch. Its first round goes to
// every event-logger replica as soon as the image manifest names the
// clock the image was taken at, so the replies travel beside the chunks;
// every request of one fetch asks above that one clock, so any reply
// answers any of them.
type eventFetch struct {
	asked bool          // the first round is out
	clock uint64        // what every request asks above
	sent  time.Duration // when the first round went out
}

// askEvents sends the first round of the event fetch, asking above
// clock, unless it is already out.
func (d *V2) askEvents(f *eventFetch, clock uint64) {
	if f.asked || !d.hasEL() {
		return
	}
	*f = eventFetch{asked: true, clock: clock, sent: d.rt.Now()}
	req := wire.EncodeU64(clock)
	for _, sh := range d.elShards {
		for _, t := range sh.w.targets {
			d.ep.Send(t, wire.KEventFetch, req)
		}
	}
}

// fetchEvents downloads the reception events to replay: one gather over
// every replica of every event-logger shard at once, settling when each
// shard has a read quorum. The replies are merged so that no event acked
// at a write quorum is lost even when Q−1 of the replicas answering are
// stale. The union is shard-aware: a determinant is fetchable wherever
// its channel was logged, including a successor shard that absorbed a
// rebalanced range. With one shard the fetch never settles for nothing
// (floor 1): a restarting daemon cannot make progress without its event
// list, so it retries until a replica answers. In a fleet a shard that
// is entirely dead may answer with nothing: its surviving data, if any,
// lives on its successor or comes back through the daemons' history
// backfill, and one dead group must not wedge every restart in the
// system. After bounded retries a shard settles for whatever reached its
// floor — a daemon waiting forever on crashed replicas would stall the
// whole run — and each shard below its read quorum counts as a
// DegradedRead, so experiments report when the intersection guarantee
// was forfeited.
//
// Replies to the first round that landed while the image was fetched
// are taken out of recoverPending; each reply is decoded once. A first
// round asked above the restored clock — its image could not be
// assembled and an older one was restored — lacks determinants the
// replay needs: its replies are discarded, up to one retransmit base
// after it went out, and the fetch asks again at the restored clock.
func (d *V2) fetchEvents(f *eventFetch) []core.Event {
	if !d.hasEL() {
		return nil
	}
	if h := d.st.Clock(); !f.asked || f.clock > h {
		if f.asked {
			d.dropEventReplies(f.sent + defFetchTimeout)
		}
		*f = eventFetch{clock: h}
	}
	replies := make(map[int][]core.Event)
	accept := func(fr transport.Frame) (int, bool) {
		if fr.Kind != wire.KEventFetched {
			return 0, false
		}
		if _, inFleet := d.elNodeShard[fr.From]; !inFleet {
			return -1, true
		}
		evs, err := wire.DecodeEvents(fr.Data)
		if err != nil {
			d.stats.Malformed++
			return -1, true
		}
		replies[fr.From] = evs
		return fr.From, true
	}
	if f.asked {
		kept := d.recoverPending[:0]
		for _, fr := range d.recoverPending {
			if _, mine := accept(fr); !mine {
				kept = append(kept, fr)
			}
		}
		d.recoverPending = kept
	}
	answered := func(sh *elShard) int {
		n := 0
		for _, t := range sh.w.targets {
			if _, ok := replies[t]; ok {
				n++
			}
		}
		return n
	}
	floor := 1
	if len(d.elShards) > 1 {
		floor = 0
	}
	every := func(enough func(*elShard) bool) bool {
		for _, sh := range d.elShards {
			if !enough(sh) {
				return false
			}
		}
		return true
	}
	var ids []int
	for _, sh := range d.elShards {
		ids = append(ids, sh.w.targets...)
	}
	req := wire.EncodeU64(f.clock)
	d.gather(ids, defRestartRetries+1,
		func(missing []int, attempt int) (sent int) {
			if attempt == 0 && f.asked {
				return 0 // the first round went out beside the chunk requests
			}
			for _, t := range missing {
				if sh := d.elNodeShard[t]; answered(sh) < sh.w.readQuorum() {
					d.ep.Send(t, wire.KEventFetch, req)
					sent++
				}
			}
			return sent
		},
		accept,
		func() bool { return every(func(sh *elShard) bool { return answered(sh) >= sh.w.readQuorum() }) },
		func() bool { return every(func(sh *elShard) bool { return answered(sh) >= floor }) })
	var lists [][]core.Event
	for _, sh := range d.elShards {
		if answered(sh) < sh.w.readQuorum() {
			d.stats.DegradedReads++
		}
		for _, t := range sh.w.targets {
			if evs, ok := replies[t]; ok {
				lists = append(lists, evs)
			}
		}
	}
	return core.MergeReplicaEvents(lists)
}

// dropEventReplies discards the event-fetch replies received so far and
// those arriving until the given instant, keeping every other frame for
// the normal handler.
func (d *V2) dropEventReplies(until time.Duration) {
	kept := d.recoverPending[:0]
	for _, f := range d.recoverPending {
		if f.Kind != wire.KEventFetched {
			kept = append(kept, f)
		}
	}
	d.recoverPending = kept
	for d.rt.Now() < until {
		f, ok := d.awaitAnyFrame(until - d.rt.Now())
		if !ok {
			return
		}
		if f.Kind != wire.KEventFetched {
			d.recoverPending = append(d.recoverPending, f)
		}
	}
}

// mergeDetFlush broadcasts KDetFlushReq to every peer and merges the
// cached determinants they return into the EL-fetched replay list,
// EL events winning any clock collision. Bounded and best-effort: dead
// peers (or peers simultaneously in recovery, whose replies are
// buffered behind their own fetch) must not stall our restart.
func (d *V2) mergeDetFlush(evs []core.Event) []core.Event {
	peers := make([]int, 0, d.cfg.Size-1)
	for q := 0; q < d.cfg.Size; q++ {
		if q != d.cfg.Rank {
			peers = append(peers, q)
		}
	}
	seen := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		seen[ev.RecvClock] = true
	}
	flushed := make(map[int][]core.Event, len(peers))
	d.gather(peers, 3,
		func(missing []int, _ int) int {
			for _, q := range missing {
				d.ep.Send(q, wire.KDetFlushReq, nil)
			}
			return len(missing)
		},
		func(f transport.Frame) (int, bool) {
			if f.Kind != wire.KDetFlushResp {
				return 0, false
			}
			if f.From < 0 || f.From >= d.cfg.Size || f.From == d.cfg.Rank {
				return -1, true
			}
			dets, err := wire.DecodeEvents(f.Data)
			if err != nil {
				d.stats.Malformed++
				return -1, true
			}
			flushed[f.From] = dets
			return f.From, true
		},
		func() bool { return len(flushed) == len(peers) },
		func() bool { return true })
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
		if err != nil || hdr.PairSeq == 0 {
			// Every V2 sender sequences its channels from 1: a payload
			// without a seq has no place in the channel order.
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
		// for this seq — a completed chunk assembly or an escalated
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

// transmitSaved re-sends saved payload copies after a peer restart, as
// one SendFrames batch: each frame a payload header with the SAVED
// entry's own bytes as its body. Retransmissions reuse the original
// message's span id: they re-emit a message whose first transmission
// already passed the WAITLOGGED gate.
func (d *V2) transmitSaved(to int, msgs []core.SavedMsg) {
	if len(msgs) == 0 {
		return
	}
	// Retransmissions carry the pending suppressed determinants too: a
	// restarting peer is exactly who benefits from the receiver-side
	// cache being current.
	hdr := wire.PayloadHeader{Dets: d.detPending}
	if d.tr != nil {
		hdr.Span = trace.PackSpan(d.cfg.Rank, msgs[0].Clock)
	}
	heads := make([]byte, 0, len(msgs)*wire.PayloadSizeH(hdr, 0))
	frames := make([]transport.Parts, len(msgs))
	for i, m := range msgs {
		hdr.SenderClock, hdr.PairSeq, hdr.DevKind = m.Clock, m.Seq, m.Kind
		if d.tr != nil {
			hdr.Span = trace.PackSpan(d.cfg.Rank, m.Clock)
		}
		start := len(heads)
		heads = wire.AppendPayloadHeader(heads, hdr, m.Data)
		frames[i] = transport.Parts{Head: heads[start:len(heads):len(heads)], Body: m.Data}
		d.stats.DetPiggybacked += int64(len(hdr.Dets))
		d.tr.Record(d.rt.Now(), trace.EvResend, hdr.Span, uint64(len(hdr.Dets)), uint64(to), uint64(len(m.Data)))
		d.stats.Resent++
	}
	transport.SendFrames(d.ep, to, wire.KPayload, frames)
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
// to Config.ELWindow batches may be outstanding per shard, further events
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

// pumpEL flushes a shard's queue into one new batch when its window has
// a free slot (ELWindow 0: always) — the adaptive close of the pipeline:
// batch size adapts to however many events accumulated while the window
// was full.
func (d *V2) pumpEL(sh *elShard) {
	if len(sh.queue) == 0 || (d.cfg.ELWindow > 0 && len(sh.w.slots) >= d.cfg.ELWindow) {
		return
	}
	evs := sh.queue
	sh.queue = nil
	d.sendEvents(sh, evs, len(evs), originOwn)
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

// elHighWater bounds the daemon's memory while its event-logger quorum
// is unreachable. Determinants that cannot reach quorum pile up
// (in-flight batches plus the submission queue); at elHighWater pending
// determinants the daemon stops committing new receptions — the
// application stalls in recv, so it also stops producing — and resumes
// once retransmissions drain the backlog to elHighWater/2. The
// WAITLOGGED gate already stalls *senders* under a dead logger; the
// watermark extends the same pressure to receive-heavy ranks, whose
// resend queues would otherwise grow without bound for the whole outage.
const elHighWater = 512

// elStalled evaluates the hysteresis band between elHighWater and half
// of it and latches the degraded state across the threshold crossings,
// counting each transition once.
func (d *V2) elStalled() bool {
	n := d.pendingEL()
	if d.elDegraded {
		if n <= elHighWater/2 {
			d.elDegraded = false
			d.stats.DegradedResumes++
		}
	} else if n >= elHighWater {
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
	receiver, origin := d.cfg.Rank, b.origin
	if origin >= 0 {
		receiver = origin
	} else {
		origin = originBackfill
	}
	d.submitRouted(b.evs, receiver, b.gated > 0, origin)
}

// submitRouted opens one batch per shard for the events whose channel
// (sender → receiver) that shard owns under the current dead set, in
// shard order, so each determinant lands where a restart fetch will look
// for it. Gated batches credit all their events against WAITLOGGED on
// retirement; the rest credit none. A single shard owns every channel
// and takes the events as one batch.
func (d *V2) submitRouted(evs []core.Event, receiver int, gated bool, origin int) {
	credit := func(evs []core.Event) int {
		if gated {
			return len(evs)
		}
		return 0
	}
	if len(d.elShards) == 1 {
		d.sendEvents(d.elShards[0], evs, credit(evs), origin)
		return
	}
	groups := make(map[*elShard][]core.Event)
	for _, ev := range evs {
		sh := d.elShardFor(ev.Sender, receiver)
		groups[sh] = append(groups[sh], ev)
	}
	for _, sh := range d.elShards {
		if g := groups[sh]; len(g) > 0 {
			d.sendEvents(sh, g, credit(g), origin)
		}
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
	if d.cfg.PullTimeout <= 0 || d.pullTimer != 0 {
		return // disabled by default
	}
	bo := transport.Backoff{Base: d.cfg.PullTimeout}
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
	d.announce()
	d.beginStarve()
}

// announce sends every peer a RESTART1 carrying what we have delivered
// from it, asking it to re-send anything beyond.
func (d *V2) announce() {
	for q := 0; q < d.cfg.Size; q++ {
		if q != d.cfg.Rank {
			d.ep.Send(q, wire.KRestart1, wire.EncodeU64(d.st.RestartAnnouncement(q)))
		}
	}
}

// --- Rank requests -------------------------------------------------------

// parkedReq is the rank request in service (opNone: none) with what its
// continuation needs. A send keeps the message PrepareSend logged and,
// when it is held at WAITLOGGED, when and behind how many events it
// started to wait.
type parkedReq struct {
	rankReq
	clock, seq      uint64
	transmit, gated bool
	since           time.Duration
	unacked         uint64
}

func (d *V2) handleReq(r rankReq) {
	d.parked = parkedReq{rankReq: r}
	switch r.op {
	case opInit:
		d.reply(rankResp{rank: d.cfg.Rank, size: d.cfg.Size, appState: d.appState, restarted: d.restored || d.st.Replaying()})
	case opSend:
		d.doSend()
	case opRecv:
		d.doRecv()
	case opProbe:
		d.doProbe()
	case opCkpt:
		d.doCheckpoint()
	case opFinish:
		d.doFinish()
	}
}

// resume re-evaluates the parked request, in the order its arrival
// evaluated it; the request stays parked until it replies.
func (d *V2) resume() {
	switch d.parked.op {
	case opSend:
		d.sendLogged()
	case opRecv:
		d.deliver()
	case opProbe:
		d.probeReplayed()
	case opCkpt:
		d.capture()
	case opFinish:
		d.finish()
	}
}

func (d *V2) reply(r rankResp) {
	d.parked = parkedReq{}
	d.rsp.SendAfter(d.cfg.Cost.UnixOverhead, r)
}

// doFinish closes the run. A finalize with suppressed determinants still
// volatile would leave permanent holes in the logged channel history (the
// post-run audits demand a gap-free one), so the epoch tail is flushed
// and finish waits for every suppressed determinant to be quorum-durable.
func (d *V2) doFinish() {
	d.flushDetEpoch()
	d.finish()
}

func (d *V2) finish() {
	if len(d.detPending) > 0 {
		return
	}
	if d.cfg.Dispatcher >= 0 {
		d.ep.Send(d.cfg.Dispatcher, wire.KFinalize, nil)
		// Retransmit the finalize until the dispatcher confirms it:
		// losing it would leave the run waiting on a node that has in
		// fact completed. Bounded — a dead dispatcher must not keep the
		// virtual timeline alive forever.
		bo := transport.Backoff{Base: defELAckTimeout}
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
	d.reply(rankResp{})
}

func (d *V2) doSend() {
	p := &d.parked
	if p.to == d.cfg.Rank {
		panic("daemon: device-level self send (the MPI layer must short-circuit self messages)")
	}
	id, seq, transmit := d.st.PrepareSend(p.to, 0, p.data)
	p.clock, p.seq, p.transmit = id.Clock, seq, transmit

	// Sender-based logging cost: copying the payload into the SAVED
	// log, plus the Unix-socket copy for store-and-forwarded eager
	// payloads, spilling to disk past the memory budget (§5.2: LU's
	// poor performance; the daemon "becomes a competitor of the MPI
	// process for CPU resources").
	c, n := &d.cfg.Cost, len(p.data)
	cost := time.Duration(n)*c.LogCopyPerByte + unixCopy(c, n)
	if c.LogMemLimit > 0 && d.st.LogBytes() > c.LogMemLimit {
		cost += time.Duration(n) * c.DiskCopyPerByte
	}
	if cost > 0 {
		d.rt.Sleep(cost)
	}

	// WAITLOGGED(): no payload leaves before the event logger has
	// acknowledged every reception event submitted so far.
	if d.st.SendBlocked() && !d.cfg.NoSendGating {
		d.stats.ELWaits++
		p.gated, p.since, p.unacked = true, d.rt.Now(), uint64(d.st.UnackedEvents())
	}
	d.sendLogged()
}

// sendLogged transmits the parked send once WAITLOGGED lets it go.
func (d *V2) sendLogged() {
	p := &d.parked
	if p.gated {
		if d.st.SendBlocked() {
			return
		}
		d.stats.ELWaitNS += int64(d.rt.Now() - p.since)
		d.tr.Record(d.rt.Now(), trace.EvWaitLogged, 0, 0, uint64(d.rt.Now()-p.since), p.unacked)
	}
	if p.transmit {
		if d.st.SendBlocked() {
			// A payload is leaving while reception events are still
			// below their write quorum — every path that can do this
			// (only the NoSendGating ablation today) is counted so the
			// auditor can assert the invariant held.
			d.stats.BelowQuorumAcks++
		}
		hdr := wire.PayloadHeader{SenderClock: p.clock, PairSeq: p.seq}
		if d.tr != nil {
			hdr.Span = trace.PackSpan(d.cfg.Rank, p.clock)
		}
		// Every payload carries the suppressed determinants still short
		// of durability: the receiver caches and relays them, so any
		// causal successor of a suppressed delivery also carries the
		// evidence needed to reconstruct it.
		if len(d.detPending) > 0 {
			hdr.Dets = d.detPending
			d.stats.DetPiggybacked += int64(len(d.detPending))
		}
		// The frame leaves in two parts, a fresh head and the SAVED
		// entry itself, so the sender keeps one buffer per payload.
		head := wire.AppendPayloadHeader(wire.GetBuf(wire.PayloadSizeH(hdr, 0)), hdr, p.data)
		transport.SendParts(d.ep, p.to, wire.KPayload, transport.Parts{Head: head, Body: p.data})
		d.tr.Record(d.rt.Now(), trace.EvSend, hdr.Span, uint64(len(hdr.Dets)), uint64(p.to), uint64(len(p.data)))
		d.stats.SentMsgs++
		d.stats.SentBytes += int64(len(p.data))
		d.schedSent += uint64(len(p.data))
	}
	d.reply(rankResp{})
}

func (d *V2) doRecv() {
	if !d.st.Replaying() && len(d.arrived) == 0 {
		// Starving: the application is blocked anyway, so ship the
		// suppressed-determinant epoch early — durability for free.
		d.flushDetEpoch()
	}
	d.deliver()
}

// deliver hands the MPI process its next message. With none
// deliverable it arms the pull timer and the receive stays parked.
func (d *V2) deliver() {
	if d.st.Replaying() {
		d.deliverReplay()
		return
	}
	// elStalled is the degraded-mode gate: with the EL quorum
	// unreachable the daemon refuses to commit further receptions, so
	// the application blocks here and stops feeding the resend queues.
	// Retransmission timers keep the loop turning, and the first acks
	// from a healed logger drain the backlog and lift the gate.
	if len(d.arrived) == 0 || d.elStalled() {
		d.beginStarve()
		return
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

// deliverReplay hands over the next logged reception once its message
// has been re-sent to us.
func (d *V2) deliverReplay() {
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
}

// replyPayload delivers a payload to the MPI process, charging the
// Unix-socket copy for store-and-forwarded eager messages.
func (d *V2) replyPayload(from int, data []byte) {
	if c := unixCopy(&d.cfg.Cost, len(data)); c > 0 {
		d.rt.Sleep(c)
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
		d.dispatch(e)
	}
	if d.st.Replaying() {
		// The log dictates the exact probe outcomes (§4.5: "in order
		// to replay exactly the same execution").
		if d.st.ReplayProbeMiss() {
			d.reply(rankResp{flag: false})
			return
		}
		d.probeReplayed()
		return
	}
	if len(d.arrived) > 0 {
		d.reply(rankResp{flag: true})
		return
	}
	d.st.ProbeMiss()
	d.reply(rankResp{flag: false})
}

// probeReplayed answers a replayed successful probe once the probed
// message has physically arrived.
func (d *V2) probeReplayed() {
	if !d.st.ReplayReady() {
		d.beginStarve()
		return
	}
	d.endStarve()
	d.reply(rankResp{flag: true})
}

// --- Checkpoint transfer ring ---------------------------------------------

// defCkptChunk is the default chunk size of the chunked transfer.
const defCkptChunk = 16 << 10

func (d *V2) ckptChunkSize() int {
	if d.cfg.CkptChunkSize <= 0 {
		return defCkptChunk
	}
	return d.cfg.CkptChunkSize
}

// ckptChunk is one chunk of an in-flight transfer: its frame header and
// the slice of the transfer's image it carries. Every (re)transmission
// writes the two as one frame, so the image is the only copy of the
// chunk's bytes; it stays alive, and is never recycled, while the
// transfer is in the window — the same ownership rule the escalated
// KCkptSave payload has.
type ckptChunk struct {
	hdr   [wire.CkptChunkHeaderLen]byte
	body  []byte
	acked uint64 // replica ack bitmask (replicaGroup bits)
}

// ckptXfer is one in-flight checkpoint of the cs window. Its slot's ack
// mask holds the replicas that sent a KCkptSaveAck — after an escalated
// save, or after their store verified and materialized a completed chunk
// assembly — and so hold the full image; per-chunk acks only steer
// retransmission. The full protocol snapshot is retained for three jobs
// that outlive the delta encoding: the KCkptNote GC horizons and the
// next delta's base marks at retirement, and the escalation path — after
// repeated silence the daemon abandons the chunked delta and ships the
// full image in one KCkptSave, so liveness never depends on a replica
// holding the delta's base.
type ckptXfer struct {
	sn       *core.Snapshot
	clock    uint64 // receive clock at capture: the rebalancing-history prune horizon
	appState []byte
	chunks   []ckptChunk
	full     []byte // the KCkptSave payload; nil until escalateCkpt
	isDelta  bool
}

func (d *V2) doCheckpoint() {
	d.ckptFlag.Store(false)
	if !d.hasCS() {
		d.reply(rankResp{})
		return
	}
	d.flushDetEpoch()
	d.capture()
}

// capture takes the checkpoint once every suppressed determinant is
// quorum-durable: replay regeneration only reaches above the restored
// clock, so a determinant that stayed volatile below this checkpoint's
// horizon would be a permanent hole in the logged channel history. The
// wait is rare — checkpoint cadence, not message cadence — and the EL
// retransmit timers keep the exchange turning meanwhile.
func (d *V2) capture() {
	if len(d.detPending) > 0 {
		return
	}
	appState := d.parked.data
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
	im := &ckpt.Image{Rank: d.cfg.Rank, Seq: seq, BaseSeq: baseSeq, AppState: appState}
	x := ckptXfer{sn: sn, clock: d.st.Clock(), appState: appState, isDelta: baseSeq != 0}
	size := ckpt.SnapshotImageSize(im, sn, marks)
	// The snapshot is encoded straight into the image, and each chunk
	// borrows its slice of it: one copy of the state, however many
	// chunks and retransmissions.
	img := ckpt.AppendSnapshotImage(make([]byte, 0, size), im, sn, marks)
	cs := d.ckptChunkSize()
	n := (size + cs - 1) / cs
	x.chunks = make([]ckptChunk, n)
	for i := range x.chunks {
		c := &x.chunks[i]
		c.body = img[i*cs : min((i+1)*cs, size)]
		wire.AppendCkptChunkHeader(c.hdr[:0], seq, uint32(i), uint32(n), c.body)
	}
	d.stats.Checkpoints++
	d.stats.CkptBytes += int64(size)
	if x.isDelta {
		d.stats.DeltaCkpts++
	}

	// The rank waits until push has handed every replica its batch of
	// chunks (one SendFrames each; on TCP, queued for the server's
	// writer), not for the bytes to be written nor for the acks: the
	// chunks stream while execution goes on, as the paper's forked
	// checkpoint does, and unacknowledged chunks are retransmitted like
	// event batches.
	d.cs.push(seq, x)
	d.reply(rankResp{})
}

// sendXfer ships a transfer to one server still short of the full
// image: the whole image in one KCkptSave when escalated, else every
// chunk the server has not acked, in ascending chunk order, as one
// SendFrames batch. After ckptEscalateAfter silent retransmit rounds
// the transfer escalates first, so a replica that cannot complete the
// chunked delta is handed an image with no chain to follow.
func (d *V2) sendXfer(s *slot[ckptXfer], t int) {
	x := &s.item
	if x.full == nil && s.attempts >= ckptEscalateAfter {
		d.escalateCkpt(s)
	}
	if x.full != nil {
		d.ep.Send(t, wire.KCkptSave, x.full)
		return
	}
	bit := d.cs.bits[t]
	frames := d.xferFrames[:0]
	for i := range x.chunks {
		c := &x.chunks[i]
		if c.acked&(1<<bit) != 0 {
			continue
		}
		if s.attempts == 0 {
			d.tr.Record(d.rt.Now(), trace.EvCkptChunk, 0, 0, s.seq, uint64(i))
		} else {
			d.stats.ChunkRetransmits++
		}
		frames = append(frames, transport.Parts{Head: c.hdr[:], Body: c.body})
	}
	if len(frames) > 0 {
		transport.SendFrames(d.ep, t, wire.KCkptChunk, frames)
	}
	clear(frames) // do not pin the image past its transfer
	d.xferFrames = frames[:0]
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
// encodes the retained full snapshot as one KCkptSave. The store accepts
// it unconditionally (no chain to follow), restoring the pre-delta
// liveness guarantee.
func (d *V2) escalateCkpt(s *slot[ckptXfer]) {
	x := &s.item
	x.full = ckptSave(&ckpt.Image{Rank: d.cfg.Rank, Seq: s.seq, AppState: x.appState}, x.sn)
	d.stats.CkptBytes += int64(len(x.full) - 8) // the full image ships after all
}

// ckptSave builds the KCkptSave payload for im whose snapshot is sn: the
// 8-byte seq and the full image in one exactly sized buffer, with the
// snapshot encoded in place.
func ckptSave(im *ckpt.Image, sn *core.Snapshot) []byte {
	buf := wire.AppendU64(make([]byte, 0, 8+ckpt.SnapshotImageSize(im, sn, nil)), im.Seq)
	return ckpt.AppendSnapshotImage(buf, im, sn, nil)
}
