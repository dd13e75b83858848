// Package dispatcher implements the execution monitor of the paper's
// mpirun (§4.7): it launches the computing nodes, watches them (a socket
// disconnection is a trusty fault detector in the synchronous-network
// model), and re-launches crashed programs. Fault injection is folded in
// here because the dispatcher is the component that observes faults: a
// scheduled fault kills the node's endpoint, and the dispatcher notices
// after the configured detection delay.
//
// Beyond computing nodes, the dispatcher also monitors the service
// nodes (event loggers, checkpoint servers): a crashed service is
// respawned over its stable store after the same detection delay,
// while the daemons bridge the outage with their retransmit machinery.
package dispatcher

import (
	"math"
	"time"

	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// Fault is one scheduled node kill. Rank may name a computing node or a
// monitored service node; either is respawned after the detection delay.
type Fault struct {
	Time time.Duration // virtual time at which the node dies
	Rank int
}

// Config parameterizes a Dispatcher.
type Config struct {
	Node  int // dispatcher's node id
	Ranks int // number of computing nodes

	// Faults is the injection plan (sorted or not).
	Faults []Fault
	// DetectionDelay is the time between a death and the dispatcher
	// noticing the broken socket.
	DetectionDelay time.Duration

	// Kill abruptly detaches a node (typically fabric.Kill).
	Kill func(rank int)
	// Respawn restarts a crashed node (new daemon + new MPI process
	// with Restarted=true).
	Respawn func(rank int)

	// Services lists service node ids (event loggers, checkpoint
	// servers) the dispatcher also monitors; a fault against one is
	// answered by RespawnService rather than Respawn.
	Services []int
	// RespawnService restarts a crashed service frontend over its
	// surviving stable store.
	RespawnService func(node int)

	// ELShardOf maps an event-logger node id to its fleet shard index.
	// When set, the dispatcher tracks per-shard replica liveness: the
	// moment a shard's live count drops below ELShardQuorum it
	// broadcasts KELShardDown to every computing node (the daemons
	// reroute the shard's channel range to its ring successor), and
	// when respawns bring the count back it broadcasts KELShardUp (the
	// daemons route the range home and backfill the rejoined shard).
	// Respawned computing nodes are brought up to date with the current
	// down-set, since the broadcast they missed died with them.
	ELShardOf     map[int]int
	ELShardQuorum int // live replicas a shard needs to hold its write quorum
	// ServiceRespawnDelay is the extra time a service respawn takes
	// beyond fault detection (provisioning a replacement node). Zero
	// keeps the legacy timing: respawn right at detection.
	ServiceRespawnDelay time.Duration
}

// Dispatcher monitors one run.
type Dispatcher struct {
	rt  vtime.Runtime
	cfg Config
	ep  transport.Endpoint
	in  *vtime.Mailbox[event]

	services  map[int]bool
	finalized map[int]bool
	done      *vtime.Mailbox[struct{}]

	shardAlive map[int]int  // shard → live replica count
	shardDown  map[int]bool // shards currently broadcast as down

	Restarts        int
	Kills           int
	ServiceKills    int
	ServiceRestarts int
	ShardDowns      int
	ShardUps        int
}

type event struct {
	frame    transport.Frame
	isFrame  bool
	fault    int  // rank to kill now
	respawn  int  // rank to respawn now
	isNotice bool // detection fired: re-evaluate shard quorum state
	notice   int  // shard index under evaluation
}

// Start attaches and runs the dispatcher. Done() signals when every rank
// has finalized.
func Start(rt vtime.Runtime, fab transport.Fabric, cfg Config) *Dispatcher {
	d := &Dispatcher{
		rt:        rt,
		cfg:       cfg,
		ep:        fab.Attach(cfg.Node, "dispatcher"),
		in:        vtime.NewMailbox[event](rt, "dispatcher"),
		services:  make(map[int]bool, len(cfg.Services)),
		finalized: make(map[int]bool),
		done:      vtime.NewMailbox[struct{}](rt, "dispatcher-done"),
	}
	for _, s := range cfg.Services {
		d.services[s] = true
	}
	if len(cfg.ELShardOf) > 0 {
		d.shardAlive = make(map[int]int)
		d.shardDown = make(map[int]bool)
		for _, k := range cfg.ELShardOf {
			d.shardAlive[k]++
		}
	}
	rt.Go("dispatcher-pump", func() {
		for {
			f, ok := d.ep.Inbox().Recv()
			if !ok {
				return
			}
			if !d.in.Send(event{isFrame: true, frame: f}) {
				return
			}
		}
	})
	for _, f := range cfg.Faults {
		f := f
		d.in.SendAfter(f.Time, event{fault: f.Rank, respawn: -1})
	}
	rt.Go("dispatcher", d.run)
	return d
}

// Done returns a mailbox receiving one item when all ranks finalized.
func (d *Dispatcher) Done() *vtime.Mailbox[struct{}] { return d.done }

func (d *Dispatcher) run() {
	for {
		e, ok := d.in.Recv()
		if !ok {
			return
		}
		switch {
		case e.isFrame:
			if e.frame.Kind == wire.KFinalize {
				if !d.finalized[e.frame.From] {
					d.finalized[e.frame.From] = true
					if len(d.finalized) == d.cfg.Ranks {
						d.done.Send(struct{}{})
					}
				}
				// Always confirm, even a duplicate: on a lossy fabric
				// the retransmission means the daemon never saw the
				// first ack.
				d.ep.Send(e.frame.From, wire.KFinalizeAck, nil)
			}
		case e.isNotice:
			// Detection fired for a shard replica death: if the losses
			// leave the shard short of its write quorum, tell every
			// computing node to reroute the shard's channel range.
			if d.shardAlive[e.notice] < d.cfg.ELShardQuorum && !d.shardDown[e.notice] {
				d.shardDown[e.notice] = true
				d.ShardDowns++
				d.bcastShard(wire.KELShardDown, e.notice)
			}
		case e.respawn >= 0:
			if d.services[e.respawn] {
				d.ServiceRestarts++
				if d.cfg.RespawnService != nil {
					d.cfg.RespawnService(e.respawn)
				}
				if k, ok := d.shardIdx(e.respawn); ok {
					d.shardAlive[k]++
					// The shard regained its quorum: route its range home.
					// The daemons' history backfill restores what the dead
					// replicas lost.
					if d.shardAlive[k] >= d.cfg.ELShardQuorum && d.shardDown[k] {
						delete(d.shardDown, k)
						d.ShardUps++
						d.bcastShard(wire.KELShardUp, k)
					}
				}
				continue
			}
			d.Restarts++
			d.cfg.Respawn(e.respawn)
			// The respawned daemon missed any shard-down broadcast that
			// predates it; replay the current down-set so it routes
			// around dead shards from its first submission.
			for k := range d.shardDown {
				d.ep.Send(e.respawn, wire.KELShardDown, wire.EncodeU32(uint32(k)))
			}
		default:
			if d.services[e.fault] {
				d.ServiceKills++
				d.cfg.Kill(e.fault)
				if k, ok := d.shardIdx(e.fault); ok {
					d.shardAlive[k]--
					d.in.SendAfter(d.cfg.DetectionDelay, event{isNotice: true, notice: k, fault: -1, respawn: -1})
				}
				d.in.SendAfter(d.cfg.DetectionDelay+d.cfg.ServiceRespawnDelay, event{respawn: e.fault, fault: -1})
				continue
			}
			if e.fault < 0 || e.fault >= d.cfg.Ranks {
				continue // a fault plan entry naming an unknown node
			}
			// A fault fires only against nodes still computing; a
			// finalized MPI process has no state left to lose (its
			// daemon keeps serving saved messages, as the paper's
			// daemons keep running until mpirun cleans the pool).
			if d.finalized[e.fault] {
				continue
			}
			d.Kills++
			d.cfg.Kill(e.fault)
			d.in.SendAfter(d.cfg.DetectionDelay, event{respawn: e.fault, fault: -1})
		}
	}
}

// shardIdx maps a service node to its EL fleet shard, if it is one.
func (d *Dispatcher) shardIdx(node int) (int, bool) {
	if d.shardAlive == nil {
		return 0, false
	}
	k, ok := d.cfg.ELShardOf[node]
	return k, ok
}

// bcastShard announces a shard liveness transition to every computing
// node.
func (d *Dispatcher) bcastShard(kind uint8, k int) {
	for r := 0; r < d.cfg.Ranks; r++ {
		d.ep.Send(r, kind, wire.EncodeU32(uint32(k)))
	}
}

// RandomFaults draws a reproducible Poisson fault plan: kills arrive at
// the given rate (faults per second of virtual time) over the horizon,
// each against a target chosen uniformly from targets. The same seed
// always yields the same plan, which is what lets a chaos experiment be
// re-run bit-identically.
func RandomFaults(seed uint64, rate float64, horizon time.Duration, targets []int) []Fault {
	if rate <= 0 || horizon <= 0 || len(targets) == 0 {
		return nil
	}
	rng := seed
	next := func() float64 {
		rng = rng*2862933555777941757 + 3037000493
		return float64(rng>>11) / float64(1<<53)
	}
	var plan []Fault
	t := time.Duration(0)
	for {
		u := next()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := time.Duration(-math.Log(u) / rate * float64(time.Second))
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		t += gap
		if t >= horizon {
			return plan
		}
		plan = append(plan, Fault{Time: t, Rank: targets[int(next()*float64(len(targets)))%len(targets)]})
	}
}

// DoubleFaults draws a reproducible plan of correlated fault pairs: each
// Poisson arrival kills one target and, within window, a second distinct
// one — landing the second death while the first victim is typically
// still mid-recovery (fetching its image, or between RESTART1 and
// RESTART2). This is the overlap the single-fault plans of RandomFaults
// almost never produce, and exactly the case quorum replication must
// survive. Same seed, same plan.
func DoubleFaults(seed uint64, rate float64, horizon, window time.Duration, targets []int) []Fault {
	if rate <= 0 || horizon <= 0 || len(targets) == 0 {
		return nil
	}
	rng := seed ^ 0x5bf0_3635
	next := func() float64 {
		rng = rng*2862933555777941757 + 3037000493
		return float64(rng>>11) / float64(1<<53)
	}
	if window <= 0 {
		window = 50 * time.Millisecond
	}
	var plan []Fault
	t := time.Duration(0)
	for {
		u := next()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := time.Duration(-math.Log(u) / rate * float64(time.Second))
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		t += gap
		if t >= horizon {
			return plan
		}
		first := targets[int(next()*float64(len(targets)))%len(targets)]
		plan = append(plan, Fault{Time: t, Rank: first})
		if len(targets) < 2 {
			continue
		}
		second := first
		for second == first {
			second = targets[int(next()*float64(len(targets)))%len(targets)]
		}
		offset := time.Duration(next() * float64(window))
		if t+offset < horizon {
			plan = append(plan, Fault{Time: t + offset, Rank: second})
		}
	}
}
