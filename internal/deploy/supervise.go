package deploy

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpichv/internal/trace"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
)

// Event is one supervision decision, timestamped for the recovery-
// latency series: a spawn, an observed exit, a DoneMarker, an injected
// kill/stall, a stale heartbeat, or a restart budget running out.
type Event struct {
	T    time.Time
	ID   int // node id (CN rank or service id)
	Inc  uint64
	Kind string // spawn | exit | done | kill | stall | resume | hb-stale | rejoin | give-up
	Info string
}

// LapSample is one "VRUN-LAP n" line from a worker: rank ID completed
// its n-th application iteration at T.
type LapSample struct {
	T   time.Time
	ID  int
	Inc uint64
	N   int
}

// SupervisorConfig describes one supervised deployment.
type SupervisorConfig struct {
	ProgramPath string
	Exe         string // worker executable (must call MaybeServe)
	AppName     string
	// Template carries the per-worker ServeOpts knobs (Epoch, TraceDir,
	// WALDir, disk faults, heartbeat cadence, daemon knobs); ID,
	// Restarted and Incarnation are filled per spawn.
	Template ServeOpts
	// MaxSpawn bounds spawns per node id (default 10); exceeding it is
	// a give-up: supervision ends with an error.
	MaxSpawn int
	// Restart is the crash→respawn backoff (default 100ms base, 2s max).
	Restart transport.Backoff
	// ExtraEnv is appended to every worker's environment (app knobs).
	ExtraEnv []string
	Log      io.Writer
}

type supWorker struct {
	node    Node
	inc     uint64
	cmd     *exec.Cmd
	lastHB  time.Time
	done    bool // DoneMarker seen for this incarnation
	stalled bool
}

type supExit struct {
	id  int
	inc uint64
	err error
}

// Supervisor spawns the workers of a program file, watches their
// stdout line protocol, kills workers whose heartbeat goes stale (the
// §4.7 fault detector, generalized from socket disconnection), respawns
// crashed nodes with the recovery flag under a bounded exponential
// backoff and a restart budget, and injects process faults (SIGKILL,
// SIGSTOP freezes) on demand or from a seeded plan.
type Supervisor struct {
	cfg SupervisorConfig
	pg  *Program

	mu       sync.Mutex
	workers  map[int]*supWorker
	spawns   map[int]int
	events   []Event
	laps     []LapSample
	tcp      map[int]map[uint64]transport.TCPStats
	finished map[int]bool
	stopped  bool
	err      error

	exits     chan supExit
	doneCh    chan struct{}
	quitHB    chan struct{}
	allExited chan struct{} // closed once stopped and every worker's exit was seen
	exitOnce  sync.Once
	doneOnce  sync.Once
	wg        sync.WaitGroup // stdout scanners + supervise loop
}

// StartSupervisor launches every node of the program and begins
// supervision. Wait on Done for completion and call Stop to tear down.
func StartSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	pg, err := ParseFile(cfg.ProgramPath)
	if err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = os.Stdout
	}
	if cfg.MaxSpawn <= 0 {
		cfg.MaxSpawn = 10
	}
	if cfg.Restart.Base <= 0 {
		cfg.Restart = transport.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	}
	s := &Supervisor{
		cfg:       cfg,
		pg:        pg,
		workers:   make(map[int]*supWorker),
		spawns:    make(map[int]int),
		tcp:       make(map[int]map[uint64]transport.TCPStats),
		finished:  make(map[int]bool),
		exits:     make(chan supExit, 256),
		doneCh:    make(chan struct{}),
		quitHB:    make(chan struct{}),
		allExited: make(chan struct{}),
	}
	for _, n := range pg.Nodes {
		if n.Role != RoleCN {
			if err := s.spawn(n, false); err != nil {
				s.Stop()
				return nil, err
			}
		}
	}
	time.Sleep(300 * time.Millisecond) // let the services bind
	for _, n := range pg.CNs() {
		if err := s.spawn(n, false); err != nil {
			s.Stop()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.superviseLoop()
	if cfg.Template.Heartbeat > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

func (s *Supervisor) logf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Log, "sup: "+format+"\n", args...)
}

func (s *Supervisor) event(id int, inc uint64, kind, info string) {
	s.events = append(s.events, Event{T: time.Now(), ID: id, Inc: inc, Kind: kind, Info: info})
}

// spawn starts one worker process (caller must not hold s.mu).
func (s *Supervisor) spawn(n Node, restarted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	s.spawns[n.ID]++
	if s.spawns[n.ID] > s.cfg.MaxSpawn {
		s.event(n.ID, 0, "give-up", fmt.Sprintf("exceeded %d spawns", s.cfg.MaxSpawn))
		s.err = fmt.Errorf("deploy: node %d exceeded %d spawns", n.ID, s.cfg.MaxSpawn)
		s.doneOnce.Do(func() { close(s.doneCh) })
		return s.err
	}
	inc := uint64(s.spawns[n.ID] - 1)

	opts := s.cfg.Template
	opts.ID = n.ID
	opts.AppName = s.cfg.AppName
	opts.Restarted = restarted
	opts.Incarnation = inc

	cmd := exec.Command(s.cfg.Exe)
	cmd.Env = append(append(os.Environ(), s.cfg.ExtraEnv...), opts.Env(s.cfg.ProgramPath)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	w := &supWorker{node: n, inc: inc, cmd: cmd, lastHB: time.Now()}
	s.workers[n.ID] = w
	s.event(n.ID, inc, "spawn", string(n.Role))
	s.logf("spawned %s %d (pid %d, incarnation %d, restarted=%v)", n.Role, n.ID, cmd.Process.Pid, inc, restarted)

	s.wg.Add(1)
	go s.scan(w, stdout)
	return nil
}

// scan consumes one worker's stdout until it exits, dispatching the
// line protocol, then reports the exit.
func (s *Supervisor) scan(w *supWorker, stdout io.Reader) {
	defer s.wg.Done()
	sc := bufio.NewScanner(stdout)
	id, inc := w.node.ID, w.inc
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == DoneMarker:
			s.mu.Lock()
			w.done = true
			first := !s.finished[id]
			// Only computing nodes count toward run completion; a
			// service echoing the marker must not end the run early.
			if id < ELID {
				s.finished[id] = true
			}
			s.event(id, inc, "done", "")
			if len(s.finished) == len(s.pg.CNs()) && !s.stopped && s.err == nil {
				s.doneOnce.Do(func() { close(s.doneCh) })
			}
			s.mu.Unlock()
			if first {
				s.logf("rank %d finalized", id)
			}
		case strings.HasPrefix(line, HBMarker+" "):
			s.mu.Lock()
			w.lastHB = time.Now()
			s.mu.Unlock()
		case strings.HasPrefix(line, RejoinMarker+" "):
			role := strings.TrimSpace(line[len(RejoinMarker)+1:])
			s.mu.Lock()
			s.event(id, inc, "rejoin", role)
			s.mu.Unlock()
			s.logf("%s %d (incarnation %d) rejoined", role, id, inc)
		case strings.HasPrefix(line, TCPMarker+" "):
			if v, ok := parseTCPLine(line); ok {
				s.mu.Lock()
				m := s.tcp[id]
				if m == nil {
					m = make(map[uint64]transport.TCPStats)
					s.tcp[id] = m
				}
				m[inc] = v
				s.mu.Unlock()
			}
		case strings.HasPrefix(line, LapMarker+" "):
			if n, err := strconv.Atoi(strings.TrimSpace(line[len(LapMarker)+1:])); err == nil {
				s.mu.Lock()
				s.laps = append(s.laps, LapSample{T: time.Now(), ID: id, Inc: inc, N: n})
				s.mu.Unlock()
			}
		default:
			fmt.Fprintf(s.cfg.Log, "[%d] %s\n", id, line)
		}
	}
	err := w.cmd.Wait()
	s.exits <- supExit{id: id, inc: inc, err: err}
}

// superviseLoop restarts crashed workers until stopped, then confirms
// every worker's exit has been observed (releasing Stop).
func (s *Supervisor) superviseLoop() {
	defer s.wg.Done()
	for ex := range s.exits {
		s.mu.Lock()
		w := s.workers[ex.id]
		if w == nil || w.inc != ex.inc {
			s.checkAllExitedLocked()
			s.mu.Unlock()
			continue
		}
		delete(s.workers, ex.id)
		s.event(ex.id, ex.inc, "exit", fmt.Sprint(ex.err))
		stopped := s.stopped || s.err != nil
		attempt := s.spawns[ex.id] - 1
		node := w.node
		s.checkAllExitedLocked()
		s.mu.Unlock()
		if stopped {
			continue
		}
		s.logf("node %d (incarnation %d) died: %v; respawning", ex.id, ex.inc, ex.err)
		// Crash→respawn delay: detection slack plus port release, aged
		// by the shared bounded exponential backoff.
		time.Sleep(s.cfg.Restart.Delay(attempt))
		// Every respawn carries the recovery flag; the launched process
		// decides what it means from its role — computing nodes replay
		// from their checkpoint and event list, services reload their
		// WAL and (replicated roles) resync from their surviving peers.
		if err := s.spawn(node, true); err != nil {
			s.logf("respawn of node %d failed: %v", ex.id, err)
		}
	}
}

// checkAllExitedLocked fires allExited once supervision is stopped and
// no worker remains; Stop blocks on it before closing the exit stream.
func (s *Supervisor) checkAllExitedLocked() {
	if s.stopped && len(s.workers) == 0 {
		s.exitOnce.Do(func() { close(s.allExited) })
	}
}

// heartbeatLoop is the fault detector: a worker whose heartbeat is
// older than 3 heartbeat periods is declared crashed and killed (its
// exit then flows through the normal respawn path). SIGSTOPped workers
// are exempt while an injected stall is pending — the injector owns
// their fate.
func (s *Supervisor) heartbeatLoop() {
	defer s.wg.Done()
	hb := s.cfg.Template.Heartbeat
	tick := time.NewTicker(hb)
	defer tick.Stop()
	for {
		select {
		case <-s.quitHB:
			return
		case <-tick.C:
		}
		s.mu.Lock()
		now := time.Now()
		for id, w := range s.workers {
			if w.stalled || now.Sub(w.lastHB) <= 3*hb {
				continue
			}
			s.event(id, w.inc, "hb-stale", now.Sub(w.lastHB).String())
			s.logf("node %d heartbeat stale (%v); killing", id, now.Sub(w.lastHB).Round(time.Millisecond))
			if w.cmd.Process != nil {
				w.cmd.Process.Kill()
			}
			w.lastHB = now // one kill per staleness episode
		}
		s.mu.Unlock()
	}
}

// Kill SIGKILLs the current incarnation of node id — the paper's
// volatile-node fault, injected.
func (s *Supervisor) Kill(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil || w.cmd.Process == nil {
		return false
	}
	s.event(id, w.inc, "kill", "")
	s.logf("injecting SIGKILL into node %d (incarnation %d)", id, w.inc)
	w.cmd.Process.Kill()
	return true
}

// Stall SIGSTOPs node id for d, then SIGCONTs it: a frozen process
// whose sockets stay open — the half-open failure mode a pure
// disconnection detector cannot see.
func (s *Supervisor) Stall(id int, d time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil || w.cmd.Process == nil {
		return false
	}
	inc := w.inc
	s.event(id, inc, "stall", d.String())
	s.logf("freezing node %d for %v", id, d)
	w.stalled = true
	w.cmd.Process.Signal(syscall.SIGSTOP)
	time.AfterFunc(d, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		cur := s.workers[id]
		if cur == nil || cur.inc != inc {
			return
		}
		cur.stalled = false
		cur.lastHB = time.Now() // fresh grace period after the freeze
		cur.cmd.Process.Signal(syscall.SIGCONT)
		s.event(id, inc, "resume", "")
	})
	return true
}

// Done is closed when every computing node finalized, or supervision
// failed (see Err).
func (s *Supervisor) Done() <-chan struct{} { return s.doneCh }

// Err reports why supervision ended early (restart budget exhausted).
func (s *Supervisor) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Events returns a copy of the supervision event log.
func (s *Supervisor) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Laps returns a copy of the collected lap samples.
func (s *Supervisor) Laps() []LapSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]LapSample(nil), s.laps...)
}

// TCPTotals sums, over every (node, incarnation), the last TCPMarker
// sample that incarnation reported: the whole deployment's transport
// counters. (An incarnation's counters start at zero, so
// last-per-incarnation sums are exact up to the final heartbeat before
// each death.)
func (s *Supervisor) TCPTotals() transport.TCPStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t transport.TCPStats
	for _, m := range s.tcp {
		for _, v := range m {
			trace.SumStats(&t, v)
		}
	}
	return t
}

// Spawns returns how many times node id was spawned.
func (s *Supervisor) Spawns(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawns[id]
}

// PID returns the OS pid of node id's current incarnation (0 when the
// node has no live worker). Tests use it to inject raw signals —
// e.g. a SIGSTOP the supervisor did not orchestrate, so its staleness
// detector has to find the frozen worker on its own.
func (s *Supervisor) PID(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil || w.cmd.Process == nil {
		return 0
	}
	return w.cmd.Process.Pid
}

// Program returns the parsed program file under supervision.
func (s *Supervisor) Program() *Program { return s.pg }

// Stop kills every worker and waits for supervision to wind down.
// Idempotent.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	already := s.stopped
	if !already {
		s.stopped = true
		for _, w := range s.workers {
			if w.cmd.Process != nil {
				w.cmd.Process.Signal(syscall.SIGCONT) // unfreeze so Kill lands
				w.cmd.Process.Kill()
			}
		}
		s.checkAllExitedLocked()
	}
	s.mu.Unlock()
	if already {
		s.wg.Wait()
		return
	}

	// The supervise loop confirms every worker's exit, then we can
	// close the exit stream (every scanner has already sent).
	select {
	case <-s.allExited:
	case <-time.After(10 * time.Second):
	}
	close(s.exits)
	close(s.quitHB)
	s.wg.Wait()
}

// Fault is one entry of a seeded fault plan.
type Fault struct {
	After    time.Duration
	Target   int    // node id
	Kind     string // "kill" | "stall"
	StallFor time.Duration
}

// FaultPlanConfig parameterizes PlanFaults.
type FaultPlanConfig struct {
	Seed    uint64
	Targets []int // candidate node ids (usually the CN ranks)
	// RoleTargets, when non-empty, supersedes Targets for kills: each
	// inner slice is one role's node ids (the configurable kill-set),
	// and kill i lands in group i mod len(RoleTargets) — a round-robin
	// across the groups, so with Kills >= len(RoleTargets) every role
	// in the kill-set loses at least one node. The target inside the
	// group and the offsets stay seed-drawn. Stalls draw uniformly from
	// the union of all groups.
	RoleTargets [][]int
	Kills       int
	Stalls      int
	MinAfter    time.Duration // earliest fault (let the system warm up)
	Over        time.Duration // faults spread uniformly in [MinAfter, MinAfter+Over)
	StallFor    time.Duration // freeze length (default 1s)
}

// PlanFaults derives a process-fault schedule from a seed: the same
// seed, targets and counts always produce the same kills and stalls at
// the same offsets — the knob that makes a soak run reproducible.
func PlanFaults(cfg FaultPlanConfig) []Fault {
	groups := cfg.RoleTargets
	if len(groups) == 0 && len(cfg.Targets) > 0 {
		groups = [][]int{cfg.Targets}
	}
	var all []int
	for _, g := range groups {
		all = append(all, g...)
	}
	if len(all) == 0 || cfg.Kills+cfg.Stalls == 0 {
		return nil
	}
	if cfg.Over <= 0 {
		cfg.Over = 10 * time.Second
	}
	if cfg.StallFor <= 0 {
		cfg.StallFor = time.Second
	}
	rng := vtime.NewStream(cfg.Seed)
	var out []Fault
	for i := 0; i < cfg.Kills+cfg.Stalls; i++ {
		f := Fault{
			After: cfg.MinAfter + time.Duration(rng.Float()*float64(cfg.Over)),
			Kind:  "kill",
		}
		pool := all
		if i < cfg.Kills {
			pool = groups[i%len(groups)]
		} else {
			f.Kind = "stall"
			f.StallFor = cfg.StallFor
		}
		f.Target = pool[int(rng.Float()*float64(len(pool)))%len(pool)]
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].After < out[j].After })
	return out
}

// Inject arms the plan against the supervisor: each fault fires at its
// offset from now. Returns a stop function cancelling pending faults.
func (s *Supervisor) Inject(plan []Fault) (stop func()) {
	timers := make([]*time.Timer, 0, len(plan))
	for _, f := range plan {
		f := f
		timers = append(timers, time.AfterFunc(f.After, func() {
			switch f.Kind {
			case "kill":
				s.Kill(f.Target)
			case "stall":
				s.Stall(f.Target, f.StallFor)
			}
		}))
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}
}
