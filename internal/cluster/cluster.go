// Package cluster assembles complete MPICH-V2 / P4 / V1 systems inside
// the virtual-time simulator: computing nodes with their daemons and MPI
// processes, the event logger, the checkpoint server, the checkpoint
// scheduler, and the dispatcher with its fault-injection plan. It is the
// harness every experiment and integration test drives.
package cluster

import (
	"fmt"
	"slices"
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
	"mpichv/internal/walog"
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

	// ELReplicas switches the event-log service from durable
	// partitioned loggers to a replica group of that many servers (at
	// ELBase+i), each with its own volatile store. Every daemon
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

	NetMessages int64
	NetBytes    int64

	// Dispatcher broadcasts of a shard's outage and recovery (zero
	// outside ELShards > 1).
	ShardDowns int
	ShardUps   int

	// Each subsystem's counters, summed. Daemon is the field-wise sum
	// of Daemons (the last incarnation of every rank); EL and CS sum
	// every incarnation of every event-logger and checkpoint-server
	// store; Chaos is what the chaos fabric injected (zero without
	// Config.Chaos).
	Daemon daemon.Stats
	EL     eventlog.Stats
	CS     ckpt.Stats
	Chaos  transport.ChaosCounters

	// Deliveries[r] is rank r's delivery sequence as recorded by the
	// event loggers, ordered by reception clock — the protocol's source
	// of truth for re-execution. Within one run, a replayed process
	// follows it exactly. Across runs, each sender→receiver channel
	// delivers the same gap-free message sequence, but the interleaving
	// of different senders is the reception nondeterminism the log
	// exists to capture and may legitimately differ. It is the merge of
	// every event logger's store that a restart read quorum applies.
	Deliveries [][]core.Event

	// ELReplicaDeliveries[i][r] is event-logger node i's copy of rank
	// r's delivery log — the raw per-store view the recovery auditor
	// cross-checks for quorum-survivable divergence.
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

	// Services. Every service node owns a store over its own simulated
	// disk. A node in no replica group (the lone logger or server, or a
	// partitioned frontend) is the paper's reliable node: its respawn
	// replays its disk. Replica-group members (ELReplicas/CSReplicas,
	// shards) are volatile by model: a respawn comes back on an empty
	// disk and anti-entropy resyncs from its group.
	h.elStores = make(map[int][]*eventlog.Store)
	h.csStores = make(map[int][]*ckpt.Store)
	h.disks = make(map[int]*walog.MemFile)
	switch cfg.Impl {
	case V2:
		h.elNodes, h.elGroups = layout("EL", ELNode, ELBase, CSBase, cfg.EventLoggers, cfg.ELReplicas, cfg.ELShards)
		for _, n := range h.elNodes {
			h.startEL(n)
		}
		if cfg.Checkpointing {
			h.csNodes, h.csGroups = layout("CS", CSNode, CSBase, CMBase, cfg.CkptServers, cfg.CSReplicas, cfg.CSShards)
			if cfg.CSShards > 1 {
				h.csRing = shard.New(cfg.CSShards, shard.Seed+1)
			}
			for _, n := range h.csNodes {
				h.startCS(n)
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
	// nodes and respawns crashed ones.
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
	if len(h.elGroups) > 1 {
		dpcfg.ELShardOf = make(map[int]int)
		for k, g := range h.elGroups {
			for _, n := range g {
				dpcfg.ELShardOf[n] = k
			}
		}
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
		ShardDowns:      h.disp.ShardDowns,
		ShardUps:        h.disp.ShardUps,
	}
	for r := 0; r < cfg.N; r++ {
		if h.v2ds[r] != nil {
			res.Daemons[r] = h.v2ds[r].Stats()
		}
	}
	for _, st := range res.Daemons {
		trace.SumStats(&res.Daemon, st)
	}
	// Counters sum every incarnation of every node; the delivery logs
	// are each node's latest store, merged as a restart read would.
	for _, n := range h.elNodes {
		for _, st := range h.elStores[n] {
			trace.SumStats(&res.EL, st.Stats())
		}
		st := h.elStores[n][len(h.elStores[n])-1]
		per := make([][]core.Event, cfg.N)
		for r := range per {
			per[r] = st.Events(r, 0)
		}
		res.ELReplicaDeliveries = append(res.ELReplicaDeliveries, per)
	}
	if len(h.elNodes) > 0 {
		res.Deliveries = MergeReplicaDeliveries(cfg.N, res.ELReplicaDeliveries)
	}
	for _, n := range h.csNodes {
		for _, st := range h.csStores[n] {
			trace.SumStats(&res.CS, st.Stats())
		}
	}
	if chaos != nil {
		res.Chaos = chaos.ChaosCounters
	}
	if h.recorders != nil {
		res.Trace = trace.Merge(h.recorders...)
	}

	// Uniform metrics export: every subsystem folds its counters into
	// one registry under its namespace, plus run-level gauges and the
	// trace-derived histograms.
	reg := trace.NewRegistry()
	if len(res.Daemons) > 0 {
		reg.AddStats("daemon", res.Daemon)
	}
	if len(h.elNodes) > 0 {
		reg.AddStats("el", res.EL)
	}
	if len(h.csNodes) > 0 {
		reg.AddStats("ckpt", res.CS)
	}
	if chaos != nil {
		reg.AddStats("chaos", res.Chaos)
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

	// Service nodes, their replica groups (a node in none is durable),
	// every incarnation's store per node, and each node's disk.
	elNodes, csNodes   []int
	elGroups, csGroups [][]int
	elStores           map[int][]*eventlog.Store
	csStores           map[int][]*ckpt.Store
	disks              map[int]*walog.MemFile
	csRing             *shard.Ring // rank → CS shard placement (CSShards > 1)
	disp               *dispatcher.Dispatcher

	perRank   []*trace.Stats
	daemons   []daemon.Stats
	v2ds      []*daemon.V2
	spawns    []uint64          // per-rank incarnation counters
	recorders []*trace.Recorder // per-rank trace rings (Config.Trace only)
}

// layout places one service kind's nodes and replica groups: shards of
// replicas at base + k*replicas + i, one replica group at base + i,
// partitioned frontends at base + i (no groups), or the lone node.
func layout(kind string, lone, base, limit, partitions, replicas, shards int) ([]int, [][]int) {
	if replicas <= 0 {
		if partitions <= 1 {
			return []int{lone}, nil
		}
		nodes := make([]int, partitions)
		for i := range nodes {
			nodes[i] = base + i
		}
		return nodes, nil
	}
	shards = max(shards, 1)
	if shards*replicas > limit-base {
		panic(fmt.Sprintf("cluster: %d %s shards × %d replicas exceed the %d-node service range",
			shards, kind, replicas, limit-base))
	}
	var nodes []int
	groups := make([][]int, shards)
	for k := range groups {
		for i := 0; i < replicas; i++ {
			n := base + k*replicas + i
			groups[k] = append(groups[k], n)
			nodes = append(nodes, n)
		}
	}
	return nodes, groups
}

// startEL / startCS start one incarnation of a service node: a fresh
// store that replays the node's disk, and a server over it. The first
// start and a durable node's respawn keep the disk; a replica's respawn
// gets an empty one and resyncs from its group (anti-entropy stays
// within the group: shards never talk to each other).
func (h *harness) startEL(node int) {
	ep := h.fab.Attach(node, fmt.Sprintf("event-logger@%d", node))
	disk, peers, resync := h.disk(node, h.elGroups, len(h.elStores[node]) > 0)
	st := eventlog.NewStore()
	st.AttachWAL(disk, walog.TornConfig{}) // a MemFile replays without error
	h.elStores[node] = append(h.elStores[node], st)
	srv := eventlog.NewServerWithStore(h.sim, ep, h.cfg.Params.ELService, st)
	srv.Peers, srv.Resync = peers, resync
	srv.Start()
}

func (h *harness) startCS(node int) {
	ep := h.fab.Attach(node, fmt.Sprintf("ckpt-server@%d", node))
	disk, peers, resync := h.disk(node, h.csGroups, len(h.csStores[node]) > 0)
	st := ckpt.NewStore()
	st.AttachWAL(disk, walog.TornConfig{}) // a MemFile replays without error
	h.csStores[node] = append(h.csStores[node], st)
	srv := ckpt.NewServerWithStore(h.sim, ep, st)
	srv.Peers, srv.Resync = peers, resync
	srv.Start()
}

// disk returns the disk a service node's next incarnation replays, the
// node's replica peers, and whether it must resync from them.
func (h *harness) disk(node int, groups [][]int, respawn bool) (*walog.MemFile, []int, bool) {
	var group []int
	for _, g := range groups {
		if slices.Contains(g, node) {
			group = g
		}
	}
	resync := group != nil && respawn
	if h.disks[node] == nil || resync {
		h.disks[node] = new(walog.MemFile)
	}
	return h.disks[node], othersOf(node, group), resync
}

// respawnService restarts a crashed service node.
func (h *harness) respawnService(node int) {
	if _, ok := h.elStores[node]; ok {
		h.startEL(node)
	} else {
		h.startCS(node)
	}
}

// othersOf returns every node in nodes except self.
func othersOf(self int, nodes []int) []int {
	var out []int
	for _, n := range nodes {
		if n != self {
			out = append(out, n)
		}
	}
	return out
}

// MergeReplicaDeliveries folds an event-logger group's per-replica
// copies, replicas[i][r] being replica i's log of rank r, into one
// per-rank view with the vote a restarting daemon applies to its read
// quorum (core.MergeReplicaEvents), so the merged view is what recovery
// would actually replay. Result{Deliveries: merged, ELReplicaDeliveries:
// replicas} is Audit's input; the simulator and the out-of-process soak
// both build it here, and the vote makes it independent of the order
// the copies are listed in.
func MergeReplicaDeliveries(n int, replicas [][][]core.Event) [][]core.Event {
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
		if cfg.ELShards > 1 {
			dcfg.ELShardGroups = h.elGroups
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
				dcfg.CSReplicas = h.csGroups[h.csRing.Owner(rank, rank)]
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
		if cfg.Chaos.Lossy() {
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
