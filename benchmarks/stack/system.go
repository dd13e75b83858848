package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/daemon"
	"mpichv/internal/eventlog"
	"mpichv/internal/mpi"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/walog"
)

// Node ids follow the deployed layout (deploy.ELID, CSID, SchedID), so
// the wiring below is the wiring deploy.ServeWith does, mirrored in one
// process.
const (
	elBase  = 1000
	csBase  = 1100
	schedID = 1200
)

// stackSpec names one stack of the ladder: which daemon, which fabric,
// which services. Everything daemon.Config offers beyond that stays at
// its zero value, so the deployed defaults are what is measured.
type stackSpec struct {
	ranks    int
	p4       bool // MPICH-P4 baseline daemons: no logging, no services
	mem      bool // transport.MemFabric in place of loopback TCP
	els, elq int  // event-logger replicas and write quorum; 0 = no logger
	css, csq int  // checkpoint-server replicas and write quorum
	wal      bool // services keep write-ahead logs under the work directory
	detMode  int  // the one knob a ladder rung sets: daemon.DetAdaptive
}

// The two service planes the workloads run on.
func pingpongStack() stackSpec { return stackSpec{ranks: 2, els: 1, elq: 1, wal: true} }
func servicePlane() stackSpec {
	return stackSpec{ranks: 4, els: 3, elq: 2, css: 2, csq: 2, wal: true}
}

// system is one assembled stack: fabric, services and one daemon per
// rank, all goroutines of this process, all traffic over the fabric.
type system struct {
	spec     stackSpec
	rt       *vtime.Real
	fab      transport.Fabric
	tcp      *transport.TCPFabric // nil on MemFabric
	elStores []*eventlog.Store
	csStores []*ckpt.Store
	sched    transport.Endpoint // the harness plays checkpoint scheduler

	mu      sync.Mutex
	v2      []*daemon.V2 // every incarnation started, in start order
	apps    sync.WaitGroup
	crashed []string // app goroutines that ended in an unexpected panic
}

func serviceIDs(base, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = base + i
	}
	return ids
}

func without(ids []int, id int) []int {
	var out []int
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// newSystem binds listeners, opens WALs and starts the services. dir
// holds the WALs; tr, when non-nil, decorates the fabric for a traced
// run.
func newSystem(spec stackSpec, dir string, tr *tracer) (*system, error) {
	s := &system{spec: spec, rt: vtime.NewReal()}
	if spec.mem {
		s.fab = transport.NewMemFabric(s.rt)
	} else {
		// Port 0 everywhere: Attach records the port the kernel picked,
		// and every node is attached before anything dials.
		addrs := map[int]string{schedID: "127.0.0.1:0"}
		for r := 0; r < spec.ranks; r++ {
			addrs[r] = "127.0.0.1:0"
		}
		for _, id := range append(serviceIDs(elBase, spec.els), serviceIDs(csBase, spec.css)...) {
			addrs[id] = "127.0.0.1:0"
		}
		s.tcp = transport.NewTCPFabric(s.rt, addrs)
		s.fab = s.tcp
	}
	if tr != nil {
		s.fab = tr.wrap(s.fab)
	}
	els := serviceIDs(elBase, spec.els)
	for _, id := range els {
		st := eventlog.NewStore()
		if spec.wal {
			if _, err := st.OpenWAL(filepath.Join(dir, fmt.Sprintf("el-%d.wal", id)), walog.TornConfig{}); err != nil {
				return nil, fmt.Errorf("event logger %d: open WAL: %w", id, err)
			}
		}
		srv := eventlog.NewServerWithStore(s.rt, s.fab.Attach(id, "event-logger"), 0, st)
		srv.Peers = without(els, id)
		srv.Start()
		s.elStores = append(s.elStores, st)
	}
	css := serviceIDs(csBase, spec.css)
	for _, id := range css {
		st := ckpt.NewStore()
		if spec.wal {
			if _, err := st.OpenWAL(filepath.Join(dir, fmt.Sprintf("cs-%d.wal", id)), walog.TornConfig{}); err != nil {
				return nil, fmt.Errorf("checkpoint server %d: open WAL: %w", id, err)
			}
		}
		srv := ckpt.NewServerWithStore(s.rt, s.fab.Attach(id, "ckpt-server"), st)
		srv.Peers = without(css, id)
		srv.Start()
		s.csStores = append(s.csStores, st)
	}
	if spec.css > 0 {
		s.sched = s.fab.Attach(schedID, "sched")
	}
	return s, nil
}

// startDaemon attaches the daemon of one rank. Only the fields named in
// the README's daemon.Config rule are set.
func (s *system) startDaemon(rank int, restarted bool, incarnation uint64) daemon.Device {
	cfg := daemon.Config{
		Rank: rank, Size: s.spec.ranks,
		EventLogger: -1, CkptServer: -1, Scheduler: -1, Dispatcher: -1,
		Restarted: restarted, Incarnation: incarnation,
		DetMode: s.spec.detMode,
	}
	if s.spec.p4 {
		dev, _ := daemon.StartP4(s.rt, s.fab, cfg, 0)
		return dev
	}
	if s.spec.els > 0 {
		cfg.ELReplicas, cfg.ELQuorum = serviceIDs(elBase, s.spec.els), s.spec.elq
	}
	if s.spec.css > 0 {
		cfg.CSReplicas, cfg.CSQuorum = serviceIDs(csBase, s.spec.css), s.spec.csq
		cfg.Scheduler = schedID
	}
	dev, d := daemon.StartV2(s.rt, s.fab, cfg)
	s.mu.Lock()
	s.v2 = append(s.v2, d)
	s.mu.Unlock()
	return dev
}

// runApp runs one MPI process over dev until app returns or its daemon
// is killed under it.
func (s *system) runApp(rank int, dev daemon.Device, app func(*mpi.Proc)) {
	s.apps.Add(1)
	s.rt.Go(fmt.Sprintf("rank%d", rank), func() {
		defer s.apps.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(daemon.Killed); !ok {
					s.mu.Lock()
					s.crashed = append(s.crashed, fmt.Sprintf("rank %d: %v", rank, r))
					s.mu.Unlock()
				}
			}
		}()
		p := mpi.Start(dev, s.rt, mpi.Options{})
		app(p)
		p.Finalize()
	})
}

// launch attaches every daemon first and only then starts the apps, so
// no rank dials a peer whose listener is not bound yet.
func (s *system) launch(app func(*mpi.Proc)) {
	devs := make([]daemon.Device, s.spec.ranks)
	for r := range devs {
		devs[r] = s.startDaemon(r, false, 0)
	}
	for r, dev := range devs {
		s.runApp(r, dev, app)
	}
}

// respawn replaces a killed rank by its next incarnation, which runs
// the recovery protocol before serving its app.
func (s *system) respawn(rank int, incarnation uint64, app func(*mpi.Proc)) {
	s.runApp(rank, s.startDaemon(rank, true, incarnation), app)
}

// waitApps waits for every app goroutine, or reports false at the
// deadline: a hang becomes failed operations, not a stuck benchmark.
func (s *system) waitApps(deadline time.Time) bool {
	done := make(chan struct{})
	go func() { s.apps.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(time.Until(deadline)):
		return false
	}
}

// stop kills every node and waits for the goroutines of the runtime to
// unwind, after which daemon counters can be read without a race.
func (s *system) stop() {
	for r := 0; r < s.spec.ranks; r++ {
		s.fab.Kill(r)
	}
	for _, id := range append(serviceIDs(elBase, s.spec.els), serviceIDs(csBase, s.spec.css)...) {
		s.fab.Kill(id)
	}
	if s.sched != nil {
		s.fab.Kill(schedID)
	}
	done := make(chan struct{})
	go func() { s.rt.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	for _, st := range s.elStores {
		st.CloseWAL()
	}
	for _, st := range s.csStores {
		st.CloseWAL()
	}
}

// quiesce waits until the loggers have stopped growing for 20 ms and, in
// a fault-free run, hold the same number of events: the determinants of
// the last deliveries may still be on their way when the apps return,
// and a logger goroutine can wait a scheduler quantum behind a
// checkpoint server that is materializing an image.
func (s *system) quiesce() {
	settled := func() (total int64, level bool) {
		level = true
		for i, st := range s.elStores {
			n := st.Stats().Logged
			level = level && (i == 0 || n == total/int64(i))
			total += n
		}
		return total, level
	}
	prev, calm := int64(-1), 0
	for tries := 0; tries < 400 && calm < 4; tries++ {
		time.Sleep(5 * time.Millisecond)
		total, level := settled()
		if total == prev && (level || tries > 100) {
			calm++
		} else {
			calm = 0
		}
		prev = total
	}
}

// addStats folds the counters the benchmark reports. Call after stop.
func addStats(t *daemon.Stats, x daemon.Stats) {
	t.SentMsgs += x.SentMsgs
	t.RecvMsgs += x.RecvMsgs
	t.EventsLogged += x.EventsLogged
	t.ELWaits += x.ELWaits
	t.ELWaitNS += x.ELWaitNS
	t.Checkpoints += x.Checkpoints
	t.CkptBytes += x.CkptBytes
	t.Replayed += x.Replayed
	t.Resent += x.Resent
	t.GCFreedBytes += x.GCFreedBytes
	t.Retransmits += x.Retransmits
	t.ChunkRetransmits += x.ChunkRetransmits
}
