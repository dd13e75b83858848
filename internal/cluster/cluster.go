// Package cluster assembles complete MPICH-V2 / P4 / V1 systems inside
// the virtual-time simulator: computing nodes with their daemons and MPI
// processes, the event logger, the checkpoint server, the checkpoint
// scheduler, and the dispatcher with its fault-injection plan. It is the
// harness every experiment and integration test drives.
package cluster

import (
	"fmt"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/core"
	"mpichv/internal/daemon"
	"mpichv/internal/dispatcher"
	"mpichv/internal/eventlog"
	"mpichv/internal/mpi"
	"mpichv/internal/netsim"
	"mpichv/internal/sched"
	"mpichv/internal/shard"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
)

// Impl selects the MPI implementation.
type Impl int

// The three implementations the paper compares.
const (
	V2 Impl = iota
	P4
	V1
)

// String names the implementation.
func (i Impl) String() string {
	switch i {
	case V2:
		return "MPICH-V2"
	case P4:
		return "MPICH-P4"
	case V1:
		return "MPICH-V1"
	}
	return "?"
}

// Node id layout. Computing nodes use their rank; services sit in the
// auxiliary range (slower machines in the paper's testbed).
const (
	ELNode    = 1000
	CSNode    = 1001
	SchedNode = 1002
	DispNode  = 1003
	ELBase    = 1100 // additional event loggers when Config.EventLoggers > 1
	CSBase    = 1200 // additional checkpoint servers when Config.CkptServers > 1
	CMBase    = 2000
)

// elNodeFor maps a rank to its event logger's node id (§4.5: "every
// communication daemon must be connected to exactly one event logger").
func elNodeFor(rank, nEL int) int {
	if nEL <= 1 {
		return ELNode
	}
	return ELBase + rank%nEL
}

// csNodeFor maps a rank to its checkpoint server's node id ("a set of
// reliable remote checkpoint servers", §2).
func csNodeFor(rank, nCS int) int {
	if nCS <= 1 {
		return CSNode
	}
	return CSBase + rank%nCS
}

// Program is an MPI application: it runs once per rank.
type Program func(p *mpi.Proc)

// Config describes one system run.
type Config struct {
	Impl Impl
	N    int // number of MPI processes

	// Params is the network/time model; zero value means Params2003.
	Params netsim.Params

	// EventLoggers is the number of event loggers (default 1); ranks
	// are assigned round-robin. Loggers never talk to each other
	// (§4.5).
	EventLoggers int

	// ELReplicas switches the event-log service from partitioned
	// frontends over one store to a replica group of that many servers
	// (at ELBase+i), each with its OWN independent store. Every daemon
	// submits each event batch to all replicas and WAITLOGGED is
	// released only once ELQuorum of them acked; a respawned replica
	// comes back empty and anti-entropy resyncs from its peers.
	// Overrides EventLoggers when > 0.
	ELReplicas int
	// ELQuorum is the write quorum (default: majority, R/2+1).
	ELQuorum int
	// CSReplicas/CSQuorum mirror the scheme for the checkpoint service
	// (effective only with Checkpointing; CSReplicas defaults to
	// ELReplicas so one knob turns on full replication).
	CSReplicas int
	CSQuorum   int

	// ELShards splits the event-logger service into that many replica
	// groups (shards). Each shard is its own ELReplicas/ELQuorum quorum
	// group; the daemons place every channel (sender, receiver) on a
	// shard through the deterministic consistent-hash ring seeded by
	// shard.Seed, gate WAITLOGGED per shard, and union the shards' logs
	// at restart. When a shard loses its write quorum the dispatcher
	// broadcasts the outage and its key range rides on the ring
	// successor until the respawns bring it back (ELReplicas defaults
	// to 1 per shard). 0 or 1 means the unsharded layouts above.
	ELShards int
	// CSShards mirrors the split for the checkpoint service: each rank
	// checkpoints to the replica group its rank hashes to (on a ring
	// seeded by shard.Seed+1).
	CSShards int
	// ShardRespawnDelay is the extra time a killed service node (of any
	// layout, sharded or not) takes to re-provision beyond fault
	// detection. Zero keeps respawn at the detection instant, which
	// heals a shard before its outage broadcast fires.
	ShardRespawnDelay time.Duration

	// Checkpointing runs the checkpoint server and scheduler.
	Checkpointing bool
	// CkptServers is the number of checkpoint servers (default 1);
	// ranks are assigned round-robin.
	CkptServers int
	// ELWindow bounds the event batches each daemon keeps in flight per
	// event-logger shard; events that arrive while the window is full
	// ship as one batch when a slot frees (the asynchronous-submission
	// optimization of §4.5). 0 = unbounded, 1 = stop-and-wait batching.
	// See daemon.Config.ELWindow.
	ELWindow int
	// DetMode selects the determinant-suppression policy of V2 daemons
	// (daemon.DetOff/DetAdaptive/DetAggressive); see
	// daemon.Config.DetMode.
	DetMode int
	// Policy is the checkpoint scheduling policy (default round
	// robin).
	Policy sched.Policy
	// SchedPeriod is the scheduler round period.
	SchedPeriod time.Duration

	// CMFanIn is how many computing nodes share one Channel Memory in
	// a V1 run (default 1, the configuration of the paper's
	// bandwidth/latency comparison).
	CMFanIn int

	// Faults is the injection plan.
	Faults []dispatcher.Fault
	// DetectionDelay before the dispatcher notices a death (default
	// 100 ms, a conservative socket-error latency).
	DetectionDelay time.Duration

	// EagerLimit overrides Params.EagerLimit when nonzero.
	EagerLimit int

	// NoSendGating disables the WAITLOGGED barrier on V2 daemons
	// (ablation benchmarks only; breaks the fault-tolerance
	// guarantee).
	NoSendGating bool

	// Chaos injects deterministic per-frame link faults (drop,
	// duplication, jitter, corruption, partitions) by wrapping the
	// fabric in a transport.ChaosFabric. The zero value leaves the
	// fabric reliable.
	Chaos transport.ChaosPolicy

	// PullTimeout overrides the V2 daemons' starvation-pull timer, the
	// repair for lost frames — lost RESTART1/RESTART2 announcements
	// included. Zero means automatic: 50 ms when Chaos can lose frames,
	// disabled on a reliable fabric (the paper's configuration);
	// negative disables explicitly.
	PullTimeout time.Duration

	// CkptChunk is the chunked checkpoint transfer's chunk size in
	// bytes (0 = daemon default, negative = monolithic saves); see
	// daemon.Config.CkptChunkSize.
	CkptChunk int
	// CkptNoDelta ships full images on every checkpoint (ablation);
	// see daemon.Config.CkptNoDelta.
	CkptNoDelta bool

	// Trace enables causal tracing: every V2 daemon records its
	// protocol transitions into a per-rank ring (shared across that
	// rank's incarnations) and Result.Trace carries the merged,
	// time-ordered trace for the happens-before auditor and the
	// critical-path extractor. Payload frames grow by a span-id field
	// while tracing; disabled (the default), the wire format and the
	// send path are byte-for-byte identical to an untraced build.
	Trace bool
	// TraceCap overrides the per-rank ring capacity
	// (trace.DefaultRecorderCap when zero).
	TraceCap int
}

// Result carries everything the experiments measure.
type Result struct {
	Elapsed  time.Duration  // virtual time until every rank finalized
	PerRank  []*trace.Stats // per-rank MPI call decomposition (last incarnation)
	Daemons  []daemon.Stats // per-rank daemon counters (last incarnation)
	Restarts int
	Kills    int

	// ScheduleHash is the simulator's FNV-1a schedule hash
	// (vtime.Sim.ScheduleHash) at the instant every rank had finalized:
	// equal configs and programs give equal hashes, so an unchanged hash
	// witnesses that a refactor left the run's schedule untouched.
	ScheduleHash uint64

	// Service outage accounting.
	ServiceKills    int
	ServiceRestarts int

	ELLogged    int64 // reception events stored by the event loggers
	CkptSaves   int64
	CkptBytes   int64
	NetMessages int64
	NetBytes    int64

	// Robustness machinery accounting, summed over the last
	// incarnation of every daemon plus the service stores.
	Retransmits  int64 // timed-out requests re-sent
	Pulls        int64 // starvation-triggered pull announcements
	Malformed    int64 // undecodable frames seen by daemons and services
	ELDuplicates int64 // re-submitted events deduplicated by the loggers

	// Sharded-fleet accounting (zero outside ELShards > 1).
	ELShardN        int   // configured EL shard count
	ShardDowns      int   // dispatcher shard-outage broadcasts
	ShardUps        int   // dispatcher shard-recovery broadcasts
	ShardRebalances int64 // daemon reroutes of a dead shard's key range
	ShardRejoins    int64 // daemon route-home transitions on shard recovery
	ShardBackfilled int64 // history determinants re-logged to successors/rejoiners

	// Quorum replication accounting (zero outside quorum mode).
	ELReplicaN      int   // configured replica count R
	ELWriteQuorum   int   // configured write quorum Q
	QuorumAcks      int64 // batches/saves completed at their write quorum
	BelowQuorumAcks int64 // payloads sent below quorum — must stay 0 with gating on
	DegradedReads   int64 // restart fetches settled below the read quorum
	CorruptImages   int64 // fetched checkpoint images rejected by integrity checks
	ReplayDropped   int64 // replay events truncated at a channel-sequence gap
	StaleRejects    int64 // checkpoint saves refused for regressing the stored seq
	Resyncs         int64 // replica anti-entropy rounds completed
	SyncedEvents    int64 // events + images replicas pulled from peers while resyncing

	// Incremental chunked checkpointing accounting. CkptShippedBytes is
	// what the daemons pushed onto the wire (delta-reduced); CkptBytes
	// above is what the stores hold after materialization.
	CkptShippedBytes int64
	DeltaCkpts       int64 // checkpoints shipped as deltas
	ChunkRetransmits int64 // checkpoint chunks re-sent after a timeout
	ManifestFetches  int64 // restart-time manifest gathers (one per image fetch attempt)
	ChainCompactions int64 // superseded chain images compacted by the stores
	ChainBreaks      int64 // deltas that arrived at a store missing their base

	// Determinant-suppression accounting (zero with DetMode off),
	// summed over the last incarnation of every daemon.
	DetSuppressed  int64 // determinants kept off the WAITLOGGED gate
	DetForced      int64 // determinants logged on the full pessimistic path
	DetPiggybacked int64 // suppressed determinants carried on payload frames
	DetRelayed     int64 // foreign determinants relayed to the EL by receivers
	DetRegenerated int64 // replay holes filled by regenerating a delivery
	DetPoisoned    int64 // channels latched back to pessimistic logging

	// Frames touched by the chaos fabric (zero without Chaos).
	ChaosDropped     int64
	ChaosDuplicated  int64
	ChaosDelayed     int64
	ChaosCorrupted   int64
	ChaosTruncated   int64
	ChaosPartitioned int64

	// Deliveries[r] is rank r's delivery sequence as recorded by the
	// event loggers, ordered by reception clock — the protocol's source
	// of truth for re-execution. Within one run, a replayed process
	// follows it exactly. Across runs, each sender→receiver channel
	// delivers the same gap-free message sequence, but the interleaving
	// of different senders is the reception nondeterminism the log
	// exists to capture and may legitimately differ. In quorum mode it
	// is the deduplicated union of all replica logs.
	Deliveries [][]core.Event

	// ELReplicaDeliveries[i][r] is replica i's copy of rank r's
	// delivery log (quorum mode only) — the raw per-store view the
	// recovery auditor cross-checks for quorum-survivable divergence.
	ELReplicaDeliveries [][][]core.Event

	// Trace is the merged causal trace of the run (Config.Trace only):
	// the input of trace.AuditHB and trace.ExtractCriticalPath.
	Trace *trace.Trace

	// Metrics is the run's uniform metrics registry: every subsystem's
	// counters under a stable namespace (daemon.*, el.*, ckpt.*,
	// chaos.*, run.*), plus trace-derived histograms (waitlogged stall
	// durations, payload sizes, restart durations) when tracing was
	// enabled. This is what vbench -json exports.
	Metrics *trace.Registry
}

// Run executes the program on a fresh simulated system and returns the
// measurements. It is deterministic: the same config and program produce
// the same result.
func Run(cfg Config, prog Program) Result {
	var res Result
	sim := vtime.NewSim()
	sim.Run(func() {
		res = runInSim(sim, cfg, prog)
	})
	return res
}

func runInSim(sim *vtime.Sim, cfg Config, prog Program) Result {
	if cfg.Params.Bandwidth == 0 {
		cfg.Params = netsim.Params2003()
	}
	if cfg.Impl == P4 {
		cfg.Params.HalfDuplexPairs = true
	}
	if cfg.EagerLimit > 0 {
		cfg.Params.EagerLimit = cfg.EagerLimit
	}
	if cfg.DetectionDelay <= 0 {
		cfg.DetectionDelay = 100 * time.Millisecond
	}
	if cfg.CMFanIn <= 0 {
		cfg.CMFanIn = 1
	}
	if cfg.Policy == nil {
		cfg.Policy = &sched.RoundRobin{}
	}
	if cfg.ELShards > 1 && cfg.ELReplicas <= 0 {
		cfg.ELReplicas = 1
	}
	if cfg.CSShards > 1 && cfg.Checkpointing && cfg.CSReplicas <= 0 {
		cfg.CSReplicas = 1
	}
	if cfg.ELReplicas > 0 {
		if cfg.ELQuorum <= 0 {
			cfg.ELQuorum = cfg.ELReplicas/2 + 1
		}
		if cfg.ELQuorum > cfg.ELReplicas {
			cfg.ELQuorum = cfg.ELReplicas
		}
		if cfg.Checkpointing && cfg.CSReplicas <= 0 {
			cfg.CSReplicas = cfg.ELReplicas
		}
	}
	if cfg.CSReplicas > 0 {
		if cfg.CSQuorum <= 0 {
			cfg.CSQuorum = cfg.CSReplicas/2 + 1
		}
		if cfg.CSQuorum > cfg.CSReplicas {
			cfg.CSQuorum = cfg.CSReplicas
		}
	}

	classify := func(id int) netsim.Class {
		if id >= ELNode && id < CMBase {
			return netsim.ClassService
		}
		return netsim.ClassCompute
	}
	net := netsim.New(sim, cfg.Params)
	var fab transport.Fabric = transport.NewSimFabric(sim, net, classify)
	var chaos *transport.ChaosFabric
	if cfg.Chaos.Active() {
		chaos = transport.NewChaosFabric(sim, fab, cfg.Chaos)
		fab = chaos
	}

	h := &harness{sim: sim, cfg: cfg, fab: fab, prog: prog}
	h.perRank = make([]*trace.Stats, cfg.N)
	h.daemons = make([]daemon.Stats, cfg.N)
	h.v2ds = make([]*daemon.V2, cfg.N)
	h.spawns = make([]uint64, cfg.N)
	if cfg.Trace {
		// One recorder per rank for the life of the run: respawned
		// incarnations append to their predecessor's ring, so the
		// auditor sees the rank's whole history across crashes.
		h.recorders = make([]*trace.Recorder, cfg.N)
		for r := range h.recorders {
			h.recorders[r] = trace.NewRecorder(r, cfg.TraceCap)
		}
	}

	// Services. In the partitioned configurations (EventLoggers /
	// CkptServers) every frontend of a kind shares one stable store, and
	// each daemon talks to its one frontend as a replica group of one:
	// a respawned frontend serves exactly what its predecessor stored —
	// the paper's reliable-service assumption, with only the frontend
	// process being volatile, and the only place in the tree that
	// assumption lives. With ELReplicas/CSReplicas each replica owns an
	// INDEPENDENT store: a killed replica loses it, and the respawn
	// comes back empty and anti-entropy resyncs from its peers.
	switch cfg.Impl {
	case V2:
		if cfg.ELShards > 1 {
			// Sharded fleet: shard k's replica group lives at
			// ELBase + k*stride + i, each group an independent quorum.
			stride := cfg.ELReplicas
			if cfg.ELShards*stride > CSBase-ELBase {
				panic(fmt.Sprintf("cluster: %d EL shards × %d replicas exceed the %d-node service range",
					cfg.ELShards, stride, CSBase-ELBase))
			}
			h.elQ = cfg.ELQuorum
			h.elStores = make(map[int]*eventlog.Store)
			h.elShardGroups = make([][]int, cfg.ELShards)
			h.elShardOf = make(map[int]int)
			for k := 0; k < cfg.ELShards; k++ {
				for i := 0; i < stride; i++ {
					n := ELBase + k*stride + i
					h.elShardGroups[k] = append(h.elShardGroups[k], n)
					h.elShardOf[n] = k
					h.elNodes = append(h.elNodes, n)
				}
			}
		} else if cfg.ELReplicas > 0 {
			h.elQ = cfg.ELQuorum
			h.elStores = make(map[int]*eventlog.Store)
			for i := 0; i < cfg.ELReplicas; i++ {
				h.elNodes = append(h.elNodes, ELBase+i)
			}
		} else if cfg.EventLoggers <= 1 {
			h.elNodes = []int{ELNode}
		} else {
			for i := 0; i < cfg.EventLoggers; i++ {
				h.elNodes = append(h.elNodes, ELBase+i)
			}
		}
		if h.elStores == nil {
			h.elStore = eventlog.NewStore()
		}
		for _, n := range h.elNodes {
			h.startEL(n, false)
		}
		if cfg.Checkpointing {
			if cfg.CSShards > 1 {
				stride := cfg.CSReplicas
				if cfg.CSShards*stride > CMBase-CSBase {
					panic(fmt.Sprintf("cluster: %d CS shards × %d replicas exceed the %d-node service range",
						cfg.CSShards, stride, CMBase-CSBase))
				}
				h.csQ = cfg.CSQuorum
				h.csStores = make(map[int]*ckpt.Store)
				h.csShardGroups = make([][]int, cfg.CSShards)
				h.csRing = shard.New(cfg.CSShards, shard.Seed+1)
				for k := 0; k < cfg.CSShards; k++ {
					for i := 0; i < stride; i++ {
						n := CSBase + k*stride + i
						h.csShardGroups[k] = append(h.csShardGroups[k], n)
						h.csNodes = append(h.csNodes, n)
					}
				}
			} else if cfg.CSReplicas > 0 {
				h.csQ = cfg.CSQuorum
				h.csStores = make(map[int]*ckpt.Store)
				for i := 0; i < cfg.CSReplicas; i++ {
					h.csNodes = append(h.csNodes, CSBase+i)
				}
			} else if cfg.CkptServers <= 1 {
				h.csNodes = []int{CSNode}
			} else {
				for i := 0; i < cfg.CkptServers; i++ {
					h.csNodes = append(h.csNodes, CSBase+i)
				}
			}
			if h.csStores == nil {
				h.csStore = ckpt.NewStore()
			}
			for _, n := range h.csNodes {
				h.startCS(n, false)
			}
			sched.Start(sim, fab, sched.Config{
				Node:   SchedNode,
				Ranks:  ranks(cfg.N),
				Policy: cfg.Policy,
				Period: cfg.SchedPeriod,
			})
		}
	case V1:
		ncm := (cfg.N + cfg.CMFanIn - 1) / cfg.CMFanIn
		for i := 0; i < ncm; i++ {
			daemon.StartChannelMemory(sim, fab, CMBase+i)
		}
	}

	// Dispatcher with the fault plan; it also monitors the service
	// frontends and respawns crashed ones over their stores.
	dpcfg := dispatcher.Config{
		Node:           DispNode,
		Ranks:          cfg.N,
		Faults:         cfg.Faults,
		DetectionDelay: cfg.DetectionDelay,
		Kill:           func(rank int) { fab.Kill(rank) },
		Respawn:        func(rank int) { h.spawn(rank, true) },
		Services:       append(append([]int{}, h.elNodes...), h.csNodes...),
		RespawnService: h.respawnService,

		ServiceRespawnDelay: cfg.ShardRespawnDelay,
	}
	if len(h.elShardGroups) > 1 {
		dpcfg.ELShardOf = h.elShardOf
		dpcfg.ELShardQuorum = cfg.ELQuorum
	}
	h.disp = dispatcher.Start(sim, fab, dpcfg)

	start := sim.Now()
	for r := 0; r < cfg.N; r++ {
		h.spawn(r, false)
	}

	// Wait for completion.
	if _, ok := h.disp.Done().Recv(); !ok {
		panic("cluster: dispatcher terminated before completion")
	}

	res := Result{
		Elapsed:         sim.Now() - start,
		PerRank:         h.perRank,
		Daemons:         h.daemons,
		Restarts:        h.disp.Restarts,
		Kills:           h.disp.Kills,
		ScheduleHash:    sim.ScheduleHash(),
		ServiceKills:    h.disp.ServiceKills,
		ServiceRestarts: h.disp.ServiceRestarts,
		NetMessages:     net.Messages,
		NetBytes:        net.Bytes,
	}
	for r := 0; r < cfg.N; r++ {
		if h.v2ds[r] != nil {
			res.Daemons[r] = h.v2ds[r].Stats()
		}
	}
	for _, st := range res.Daemons {
		res.Retransmits += st.Retransmits
		res.Pulls += st.Pulls
		res.Malformed += st.Malformed
		res.QuorumAcks += st.QuorumAcks
		res.BelowQuorumAcks += st.BelowQuorumAcks
		res.DegradedReads += st.DegradedReads
		res.CorruptImages += st.CorruptImages
		res.ReplayDropped += st.ReplayDropped
		res.CkptShippedBytes += st.CkptBytes
		res.DeltaCkpts += st.DeltaCkpts
		res.ChunkRetransmits += st.ChunkRetransmits
		res.ManifestFetches += st.ManifestFetches
		res.DetSuppressed += st.DetSuppressed
		res.DetForced += st.DetForced
		res.DetPiggybacked += st.DetPiggybacked
		res.DetRelayed += st.DetRelayed
		res.DetRegenerated += st.DetRegenerated
		res.DetPoisoned += st.DetPoisoned
		res.ShardRebalances += st.ShardRebalances
		res.ShardRejoins += st.ShardRejoins
		res.ShardBackfilled += st.ShardBackfilled
	}
	res.ELShardN = len(h.elShardGroups)
	res.ShardDowns = h.disp.ShardDowns
	res.ShardUps = h.disp.ShardUps
	res.ELReplicaN = cfg.ELReplicas
	res.ELWriteQuorum = cfg.ELQuorum
	switch {
	case h.elStores != nil:
		res.ELReplicaDeliveries = make([][][]core.Event, 0, len(h.elNodes))
		for _, n := range h.elNodes {
			st := h.elStores[n]
			s := st.Stats()
			res.ELLogged += s.Logged
			res.ELDuplicates += s.Duplicates
			res.Malformed += s.Malformed
			res.Resyncs += s.Resyncs
			res.SyncedEvents += s.SyncedIn
			per := make([][]core.Event, cfg.N)
			for r := 0; r < cfg.N; r++ {
				per[r] = st.Events(r, 0)
			}
			res.ELReplicaDeliveries = append(res.ELReplicaDeliveries, per)
		}
		res.Deliveries = mergeReplicaDeliveries(cfg.N, res.ELReplicaDeliveries)
	case h.elStore != nil:
		s := h.elStore.Stats()
		res.ELLogged = s.Logged
		res.ELDuplicates = s.Duplicates
		res.Malformed += s.Malformed
		res.Deliveries = make([][]core.Event, cfg.N)
		for r := 0; r < cfg.N; r++ {
			res.Deliveries[r] = h.elStore.Events(r, 0)
		}
	}
	switch {
	case h.csStores != nil:
		for _, n := range h.csNodes {
			s := h.csStores[n].Stats()
			res.CkptSaves += s.Saves
			res.CkptBytes += s.SavedBytes
			res.Malformed += s.Malformed
			res.StaleRejects += s.StaleRejects
			res.Resyncs += s.Resyncs
			res.SyncedEvents += s.SyncedIn
			res.ChainCompactions += s.ChainCompactions
			res.ChainBreaks += s.ChainBreaks
		}
	case h.csStore != nil:
		s := h.csStore.Stats()
		res.CkptSaves = s.Saves
		res.CkptBytes = s.SavedBytes
		res.Malformed += s.Malformed
		res.StaleRejects = s.StaleRejects
		res.ChainCompactions = s.ChainCompactions
		res.ChainBreaks = s.ChainBreaks
	}
	if chaos != nil {
		res.ChaosDropped = chaos.Dropped
		res.ChaosDuplicated = chaos.Duplicated
		res.ChaosDelayed = chaos.Delayed
		res.ChaosCorrupted = chaos.Corrupted
		res.ChaosTruncated = chaos.Truncated
		res.ChaosPartitioned = chaos.Partitioned
	}
	if h.recorders != nil {
		res.Trace = trace.Merge(h.recorders...)
	}

	// Uniform metrics export: every subsystem folds its counters into
	// one registry under its namespace, plus run-level gauges and the
	// trace-derived histograms.
	reg := trace.NewRegistry()
	for _, st := range res.Daemons {
		st.AddTo(reg)
	}
	switch {
	case h.elStores != nil:
		for _, n := range h.elNodes {
			h.elStores[n].Stats().AddTo(reg)
		}
	case h.elStore != nil:
		h.elStore.Stats().AddTo(reg)
	}
	switch {
	case h.csStores != nil:
		for _, n := range h.csNodes {
			h.csStores[n].Stats().AddTo(reg)
		}
	case h.csStore != nil:
		h.csStore.Stats().AddTo(reg)
	}
	if chaos != nil {
		chaos.AddTo(reg)
	}
	// Fold the fabric's own counters when it exports any (the TCP
	// fabric's redials, retransmits, dropped frames — "tcp.*"). The
	// chaos wrapper was folded above, so skip it to avoid a double
	// count when the fabric and the wrapper are the same object.
	if am, ok := h.fab.(interface{ AddTo(*trace.Registry) }); ok {
		if chaos == nil || h.fab != transport.Fabric(chaos) {
			am.AddTo(reg)
		}
	}
	reg.Gauge("run.elapsed_us").Set(float64(res.Elapsed) / float64(time.Microsecond))
	reg.Gauge("run.ranks").Set(float64(cfg.N))
	reg.Counter("run.kills").Add(int64(res.Kills))
	reg.Counter("run.restarts").Add(int64(res.Restarts))
	reg.Counter("run.service_kills").Add(int64(res.ServiceKills))
	reg.Counter("run.service_restarts").Add(int64(res.ServiceRestarts))
	reg.Counter("run.shard_downs").Add(int64(res.ShardDowns))
	reg.Counter("run.shard_ups").Add(int64(res.ShardUps))
	reg.Counter("net.messages").Add(res.NetMessages)
	reg.Counter("net.bytes").Add(res.NetBytes)
	if res.Trace != nil {
		wait := reg.Histogram("daemon.waitlogged_us")
		payload := reg.Histogram("daemon.payload_bytes")
		restart := reg.Histogram("daemon.restart_us")
		for i := range res.Trace.Evs {
			ev := &res.Trace.Evs[i]
			switch ev.Kind {
			case trace.EvWaitLogged:
				wait.Observe(float64(ev.A) / float64(time.Microsecond))
			case trace.EvSend:
				payload.Observe(float64(ev.B))
			case trace.EvRestartEnd:
				restart.Observe(float64(ev.B) / float64(time.Microsecond))
			}
		}
		reg.Counter("trace.events").Add(int64(len(res.Trace.Evs)))
		reg.Counter("trace.dropped").Add(res.Trace.Dropped)
	}
	res.Metrics = reg
	return res
}

func ranks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

type harness struct {
	sim  *vtime.Sim
	cfg  Config
	fab  transport.Fabric
	prog Program

	elNodes  []int
	csNodes  []int
	elStore  *eventlog.Store // shared stable store (partitioned frontends)
	csStore  *ckpt.Store
	elStores map[int]*eventlog.Store // per-replica stores, node → latest incarnation (replica groups)
	csStores map[int]*ckpt.Store
	elQ, csQ int // write quorums; > 0 selects independent per-replica stores
	disp     *dispatcher.Dispatcher

	// Sharded-fleet layout (Config.ELShards / CSShards > 1).
	elShardGroups [][]int // shard → its replica node ids
	csShardGroups [][]int
	elShardOf     map[int]int // EL node → shard index (dispatcher liveness tracking)
	csRing        *shard.Ring // rank → CS shard placement

	perRank   []*trace.Stats
	daemons   []daemon.Stats
	v2ds      []*daemon.V2
	spawns    []uint64          // per-rank incarnation counters
	recorders []*trace.Recorder // per-rank trace rings (Config.Trace only)
}

// startEL / startCS attach one service frontend: over the shared stable
// store when partitioned, over a fresh independent store (resyncing from
// peers when asked) in a replica group.
func (h *harness) startEL(node int, resync bool) {
	ep := h.fab.Attach(node, fmt.Sprintf("event-logger@%d", node))
	if h.elQ > 0 {
		st := eventlog.NewStore()
		h.elStores[node] = st
		srv := eventlog.NewServerWithStore(h.sim, ep, h.cfg.Params.ELService, st)
		// Anti-entropy stays within the replica group: in a sharded
		// fleet a replica's peers are its shard siblings, not the whole
		// fleet — shards never talk to each other.
		srv.Peers = othersOf(node, groupOf(node, h.elShardGroups, h.elNodes))
		srv.Resync = resync
		srv.Start()
		return
	}
	eventlog.NewServerWithStore(h.sim, ep, h.cfg.Params.ELService, h.elStore).Start()
}

func (h *harness) startCS(node int, resync bool) {
	ep := h.fab.Attach(node, fmt.Sprintf("ckpt-server@%d", node))
	if h.csQ > 0 {
		st := ckpt.NewStore()
		h.csStores[node] = st
		srv := ckpt.NewServerWithStore(h.sim, ep, st)
		srv.Peers = othersOf(node, groupOf(node, h.csShardGroups, h.csNodes))
		srv.Resync = resync
		srv.Start()
		return
	}
	ckpt.NewServerWithStore(h.sim, ep, h.csStore).Start()
}

// groupOf returns the shard replica group containing node, or all (the
// unsharded fleet) when no groups are configured.
func groupOf(node int, groups [][]int, all []int) []int {
	for _, g := range groups {
		for _, n := range g {
			if n == node {
				return g
			}
		}
	}
	return all
}

// respawnService restarts a crashed service frontend on its node id. A
// replica-group member starts over an empty store and resyncs.
func (h *harness) respawnService(node int) {
	for _, n := range h.elNodes {
		if n == node {
			h.startEL(node, h.elQ > 0)
			return
		}
	}
	for _, n := range h.csNodes {
		if n == node {
			h.startCS(node, h.csQ > 0)
			return
		}
	}
}

// othersOf returns every node in nodes except self.
func othersOf(self int, nodes []int) []int {
	out := make([]int, 0, len(nodes)-1)
	for _, n := range nodes {
		if n != self {
			out = append(out, n)
		}
	}
	return out
}

// mergeReplicaDeliveries folds the replica logs into one per-rank view
// with the vote a restarting daemon applies to its read quorum
// (core.MergeReplicaEvents), so the merged view is what recovery would
// actually replay.
func mergeReplicaDeliveries(n int, replicas [][][]core.Event) [][]core.Event {
	out := make([][]core.Event, n)
	copies := make([][]core.Event, len(replicas))
	for r := range out {
		for i, per := range replicas {
			copies[i] = per[r]
		}
		out[r] = core.MergeReplicaEvents(copies)
	}
	return out
}

// spawn starts (or restarts) the daemon and MPI process of one rank.
func (h *harness) spawn(rank int, restarted bool) {
	cfg := h.cfg
	dcfg := daemon.Config{
		Rank:        rank,
		Size:        cfg.N,
		EventLogger: -1,
		CkptServer:  -1,
		Scheduler:   -1,
		Dispatcher:  DispNode,
		Cost:        cfg.Params,
		Restarted:   restarted,
		Incarnation: h.spawns[rank],
	}
	h.spawns[rank]++
	var dev daemon.Device
	switch cfg.Impl {
	case V2:
		if len(h.elShardGroups) > 0 {
			dcfg.ELShardGroups = h.elShardGroups
			dcfg.ELQuorum = cfg.ELQuorum
		} else if cfg.ELReplicas > 0 {
			dcfg.ELReplicas = append([]int(nil), h.elNodes...)
			dcfg.ELQuorum = cfg.ELQuorum
		} else {
			nEL := cfg.EventLoggers
			if nEL < 1 {
				nEL = 1
			}
			dcfg.EventLogger = elNodeFor(rank, nEL)
		}
		dcfg.Scheduler = SchedNode
		if cfg.Checkpointing {
			if h.csRing != nil {
				// Each rank checkpoints to the one CS shard its rank
				// hashes to — checkpoint load spreads across shards
				// without any cross-shard protocol, since an image
				// belongs to exactly one rank.
				dcfg.CSReplicas = h.csShardGroups[h.csRing.Owner(rank, rank)]
				dcfg.CSQuorum = cfg.CSQuorum
			} else if cfg.CSReplicas > 0 {
				dcfg.CSReplicas = append([]int(nil), h.csNodes...)
				dcfg.CSQuorum = cfg.CSQuorum
			} else {
				nCS := cfg.CkptServers
				if nCS < 1 {
					nCS = 1
				}
				dcfg.CkptServer = csNodeFor(rank, nCS)
			}
		}
		// On a fabric that can lose frames, the paper's fire-and-forget
		// RESTART1 and the push-only receive path are not live; enable
		// the starvation pull with a conservative base.
		dcfg.PullTimeout = cfg.PullTimeout
		if cfg.Chaos.Lossy() && dcfg.PullTimeout == 0 {
			dcfg.PullTimeout = 50 * time.Millisecond
		}
		dcfg.ELWindow = cfg.ELWindow
		dcfg.DetMode = cfg.DetMode
		dcfg.NoSendGating = cfg.NoSendGating
		dcfg.CkptChunkSize = cfg.CkptChunk
		dcfg.CkptNoDelta = cfg.CkptNoDelta
		if h.recorders != nil {
			dcfg.Tracer = h.recorders[rank]
		}
		var d2 *daemon.V2
		dev, d2 = daemon.StartV2(h.sim, h.fab, dcfg)
		h.v2ds[rank] = d2
	case P4:
		dev, _ = daemon.StartP4(h.sim, h.fab, dcfg, cfg.Params.Bandwidth)
	case V1:
		dev, _ = daemon.StartV1(h.sim, h.fab, dcfg, func(r int) int { return CMBase + r/cfg.CMFanIn })
	}

	opts := mpi.Options{
		EagerLimit:   cfg.Params.EagerLimit,
		EagerInIsend: cfg.Impl == P4,
		FlopRate:     cfg.Params.FlopRate,
	}
	h.sim.Go(fmt.Sprintf("rank%d", rank), func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(daemon.Killed); ok {
					return // the node crashed; the dispatcher respawns it
				}
				panic(r)
			}
		}()
		p := mpi.Start(dev, h.sim, opts)
		h.prog(p)
		p.Finalize()
		h.perRank[rank] = p.Stats()
	})
}
