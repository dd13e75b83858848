package deploy

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/daemon"
	"mpichv/internal/eventlog"
	"mpichv/internal/mpi"
	"mpichv/internal/sched"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/walog"
)

// Worker line protocol: a served process talks to its supervisor over
// stdout with these prefixes (everything else is application output).
const (
	// HBMarker precedes a unix-millisecond timestamp; the supervisor
	// treats a stale heartbeat like a socket disconnection (§4.7) and
	// kills the worker.
	HBMarker = "VRUN-HB"
	// TCPMarker precedes every TCPStats counter in declaration order
	// (tcpLine, parseTCPLine); the soak driver sums the last sample of
	// each incarnation into its report.
	TCPMarker = "VRUN-TCP"
	// LapMarker precedes a completed-iteration count printed by
	// long-running apps (see the soakring app); the soak driver turns
	// the series into a goodput curve.
	LapMarker = "VRUN-LAP"
	// RejoinMarker precedes a role name; a *restarted* service worker
	// prints it once it is back in service — after its WAL replay and,
	// for replicated roles, after anti-entropy resync pulled the events
	// or images it missed while dead. The soak driver uses it to close
	// the replica-outage window that the kill opened.
	RejoinMarker = "VRUN-REJOIN"
)

// ServeOpts fully describes one worker process of a deployed run. The
// zero value of every optional field turns its feature off: no shared
// epoch, no WALs, no traces, no heartbeat, no pull timer.
type ServeOpts struct {
	Program   *Program
	ID        int
	App       App
	AppName   string
	Restarted bool
	Out       io.Writer

	// Epoch, when non-zero, is the shared wall-clock zero of the whole
	// deployment: every worker's virtual clock reads Now()==0 at Epoch,
	// so trace timestamps from different processes are comparable and
	// the happens-before auditor can merge them. Zero keeps a private
	// per-process epoch (legacy behavior, traces not merged).
	Epoch time.Time

	// Incarnation is how many times this rank has been respawned; it
	// namespaces daemon sequence numbers and the trace snapshot file.
	Incarnation uint64

	// TraceDir, when set, arms a shared causal-trace recorder on the
	// daemon and flushes atomic snapshots to
	// TraceDir/trace-r<rank>-i<incarnation>.mvtr so the trace survives
	// a SIGKILL. CN roles only.
	TraceDir string

	// WALDir, when set, makes the EL/CS stores durable: they replay
	// WALDir/el.wal / WALDir/cs.wal on start and append every accepted
	// record, so a killed service restarts with its state.
	WALDir string

	// DiskFaultEvery/DiskFaultSeed arm deterministic torn-write
	// injection on the WALs (see walog.TornConfig). Zero disables.
	DiskFaultEvery int
	DiskFaultSeed  uint64

	// Heartbeat, when positive, prints "VRUN-HB <unixms>" and a
	// "VRUN-TCP <counters>" sample to Out at this cadence, from every
	// role. The supervisor kills workers whose heartbeat goes stale.
	Heartbeat time.Duration

	// PullTimeout arms the daemon's starvation pull timer for running
	// against a faulty network (CN roles); see daemon.Config.PullTimeout.
	PullTimeout time.Duration

	// DetMode names the daemon's determinant-suppression policy (see
	// ParseDetMode). CN roles only.
	DetMode string
}

// ParseDetMode resolves a determinant-suppression policy name of the
// real path: "off" (or empty) and "adaptive". daemon.DetAggressive is
// deliberately unsound and stays with the simulator's negative tests.
func ParseDetMode(name string) (int, error) {
	switch name {
	case "", "off":
		return daemon.DetOff, nil
	case "adaptive":
		return daemon.DetAdaptive, nil
	}
	return 0, fmt.Errorf("deploy: unknown determinant-suppression mode %q (off, adaptive)", name)
}

func (o *ServeOpts) runtime() *vtime.Real {
	if o.Epoch.IsZero() {
		return vtime.NewReal()
	}
	return vtime.NewRealAt(o.Epoch)
}

// tcpLine renders a TCPMarker line: the marker, then every TCPStats
// counter in declaration order.
func tcpLine(st transport.TCPStats) string {
	b := []byte(TCPMarker)
	for _, v := range trace.StatsFields(&st) {
		b = strconv.AppendInt(append(b, ' '), *v, 10)
	}
	return string(b)
}

// parseTCPLine reads a tcpLine back. It reports false for any other
// line, and for a line whose counter count or syntax does not match.
func parseTCPLine(line string) (transport.TCPStats, bool) {
	var st transport.TCPStats
	f := strings.Fields(line)
	dst := trace.StatsFields(&st)
	if len(f) != len(dst)+1 || f[0] != TCPMarker {
		return st, false
	}
	for i, x := range f[1:] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return transport.TCPStats{}, false
		}
		*dst[i] = n
	}
	return st, true
}

// startHeartbeat emits liveness and transport-counter samples until the
// process dies. Lines are short enough to be atomic on a pipe, so they
// interleave safely with application output.
func (o *ServeOpts) startHeartbeat(fab *transport.TCPFabric) {
	if o.Heartbeat <= 0 {
		return
	}
	go func() {
		tick := time.NewTicker(o.Heartbeat)
		defer tick.Stop()
		for range tick.C {
			fmt.Fprintf(o.Out, "%s %d\n", HBMarker, time.Now().UnixMilli())
			fmt.Fprintln(o.Out, tcpLine(fab.Stats()))
		}
	}()
}

// attachWAL replays a service node's own log, WALDir/<role>-<id>.wal,
// into its store and arms it; without a WALDir the store is volatile.
// Every replica keeps its own durable prefix (independent stores, as
// in §8's quorum model).
func (o *ServeOpts) attachWAL(node *Node, attach func(walog.Log, walog.TornConfig) (walog.LoadResult, error)) error {
	if o.WALDir == "" {
		return nil
	}
	path := filepath.Join(o.WALDir, fmt.Sprintf("%s-%d.wal", node.Role, node.ID))
	if _, err := attach(walog.Path(path), walog.TornConfig{Seed: o.DiskFaultSeed, Every: o.DiskFaultEvery}); err != nil {
		return fmt.Errorf("deploy: %s wal: %w", node.Role, err)
	}
	return nil
}

// announceRejoin prints the rejoin marker once ready reports true —
// immediately when ready is nil (the role has no resync to wait for).
// Only restarted workers announce: an initial spawn has no outage
// window to close.
func (o *ServeOpts) announceRejoin(role Role, ready func() bool) {
	if !o.Restarted {
		return
	}
	go func() {
		for ready != nil && !ready() {
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Fprintf(o.Out, "%s %s\n", RejoinMarker, role)
	}()
}

// peersOf returns the other replica ids of a service node's role group.
func peersOf(pg *Program, node *Node) []int {
	var peers []int
	for _, n := range pg.OfRole(node.Role) {
		if n.ID != node.ID {
			peers = append(peers, n.ID)
		}
	}
	return peers
}

// ServeWith runs one node of the program in this process, with the full
// fault-injection surface: bind/advertise address split, shared epoch,
// durable service stores with torn-write injection, crash-surviving
// trace snapshots, heartbeats, and the daemon's pull timer.
// Computing nodes run the app, print DoneMarker, and keep serving;
// service nodes serve forever.
func ServeWith(o ServeOpts) error {
	pg := o.Program
	if o.Out == nil {
		o.Out = os.Stdout
	}
	var node *Node
	for i := range pg.Nodes {
		if pg.Nodes[i].ID == o.ID {
			node = &pg.Nodes[i]
		}
	}
	if node == nil {
		return fmt.Errorf("deploy: node id %d not in program file", o.ID)
	}
	detMode, err := ParseDetMode(o.DetMode)
	if err != nil {
		return err
	}

	rt := o.runtime()
	fab := transport.NewTCPFabric(rt, pg.AddrMap())
	if node.Bind != "" {
		fab.SetBind(node.ID, node.Bind)
	}
	o.startHeartbeat(fab)

	switch node.Role {
	case RoleEL:
		// A respawned service replays its WAL into a fresh store, then
		// anti-entropy pulls what its group committed while it was dead.
		st := eventlog.NewStore()
		if err := o.attachWAL(node, st.AttachWAL); err != nil {
			return err
		}
		srv := eventlog.NewServerWithStore(rt, fab.Attach(node.ID, "event-logger"), 0, st)
		srv.Peers, srv.Resync = peersOf(pg, node), o.Restarted
		srv.Start()
		o.announceRejoin(RoleEL, srv.Synced)
		select {}
	case RoleCS:
		st := ckpt.NewStore()
		if err := o.attachWAL(node, st.AttachWAL); err != nil {
			return err
		}
		srv := ckpt.NewServerWithStore(rt, fab.Attach(node.ID, "ckpt-server"), st)
		srv.Peers, srv.Resync = peersOf(pg, node), o.Restarted
		srv.Start()
		o.announceRejoin(RoleCS, srv.Synced)
		select {}
	case RoleSched:
		var ranks []int
		for _, n := range pg.CNs() {
			ranks = append(ranks, n.ID)
		}
		sched.Start(rt, fab, sched.Config{
			Node:   node.ID,
			Ranks:  ranks,
			Policy: &sched.RoundRobin{},
			Period: 2 * time.Second,
		})
		// The scheduler is soft-state by design: its policy position is
		// rebuilt from the first poll round, so a respawn is back in
		// service as soon as its endpoint is bound.
		o.announceRejoin(RoleSched, nil)
		select {}
	case RoleCN:
		cfg := daemon.Config{
			Rank:        o.ID,
			Size:        len(pg.CNs()),
			EventLogger: -1,
			CkptServer:  -1,
			Scheduler:   -1,
			Dispatcher:  -1,
			Restarted:   o.Restarted,
			Incarnation: o.Incarnation,
			PullTimeout: o.PullTimeout,
			DetMode:     detMode,
		}
		// Each service role is one replica group, however many nodes hold
		// it: the daemon's default write quorum is the majority, and
		// restart reads merge the complement.
		cfg.ELReplicas = pg.IDsOfRole(RoleEL)
		cfg.CSReplicas = pg.IDsOfRole(RoleCS)
		if sc, ok := pg.Find(RoleSched); ok {
			cfg.Scheduler = sc.ID
		}
		if o.TraceDir != "" {
			rec := trace.NewRecorder(o.ID, 1<<15)
			rec.SetShared()
			cfg.Tracer = rec
			path := filepath.Join(o.TraceDir,
				fmt.Sprintf("trace-r%d-i%d.mvtr", o.ID, o.Incarnation))
			go func() {
				iv := o.Heartbeat
				if iv <= 0 {
					iv = 500 * time.Millisecond
				}
				tick := time.NewTicker(iv)
				defer tick.Stop()
				for range tick.C {
					// Atomic (tmp+rename): a kill mid-flush leaves the
					// previous snapshot, never a torn one.
					trace.WriteSnapshot(path, rec)
				}
			}()
		}
		dev, _ := daemon.StartV2(rt, fab, cfg)
		p := mpi.Start(dev, rt, mpi.Options{})
		o.App(p)
		p.Finalize()
		fmt.Fprintln(o.Out, DoneMarker)
		select {}
	}
	return fmt.Errorf("deploy: unhandled role %q", node.Role)
}

// Environment round-trip: the supervisor passes a worker its ServeOpts
// through the environment rather than flags, so any binary that calls
// MaybeServe at the top of main can host a worker — including the soak
// driver itself re-exec'd.
const (
	envServe     = "MPICHV_SERVE"
	envProgram   = "MPICHV_PG"
	envApp       = "MPICHV_APP"
	envRestarted = "MPICHV_RESTARTED"
	envEpoch     = "MPICHV_EPOCH"
	envInc       = "MPICHV_INC"
	envTraceDir  = "MPICHV_TRACEDIR"
	envWALDir    = "MPICHV_WALDIR"
	envDiskEvery = "MPICHV_DISK_EVERY"
	envDiskSeed  = "MPICHV_DISK_SEED"
	envHB        = "MPICHV_HB_MS"
	envPull      = "MPICHV_PULL_MS"
	envDetMode   = "MPICHV_DETMODE"
)

// Env encodes the opts as environment assignments for a worker spawned
// to serve node id from the program file at pgPath.
func (o *ServeOpts) Env(pgPath string) []string {
	env := []string{
		envServe + "=" + strconv.Itoa(o.ID),
		envProgram + "=" + pgPath,
		envApp + "=" + o.AppName,
		envInc + "=" + strconv.FormatUint(o.Incarnation, 10),
	}
	if o.Restarted {
		env = append(env, envRestarted+"=1")
	}
	if !o.Epoch.IsZero() {
		env = append(env, envEpoch+"="+strconv.FormatInt(o.Epoch.UnixNano(), 10))
	}
	if o.TraceDir != "" {
		env = append(env, envTraceDir+"="+o.TraceDir)
	}
	if o.WALDir != "" {
		env = append(env, envWALDir+"="+o.WALDir)
	}
	if o.DiskFaultEvery > 0 {
		env = append(env,
			envDiskEvery+"="+strconv.Itoa(o.DiskFaultEvery),
			envDiskSeed+"="+strconv.FormatUint(o.DiskFaultSeed, 10))
	}
	if o.Heartbeat > 0 {
		env = append(env, envHB+"="+strconv.FormatInt(o.Heartbeat.Milliseconds(), 10))
	}
	if o.PullTimeout > 0 {
		env = append(env, envPull+"="+strconv.FormatInt(o.PullTimeout.Milliseconds(), 10))
	}
	if o.DetMode != "" {
		env = append(env, envDetMode+"="+o.DetMode)
	}
	return env
}

func envInt(key string) int {
	n, _ := strconv.Atoi(os.Getenv(key))
	return n
}

// MaybeServe turns the calling process into a worker when MPICHV_SERVE
// is set, and returns immediately otherwise. Call it at the top of any
// main that the supervisor may use as a worker executable; lookup
// resolves the app name (computing nodes only — services pass a nil
// app). On serve errors the process exits non-zero; a serving process
// never returns.
func MaybeServe(lookup func(name string) (App, bool)) {
	idStr := os.Getenv(envServe)
	if idStr == "" {
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		fail(fmt.Errorf("bad %s=%q", envServe, idStr))
	}
	pg, err := ParseFile(os.Getenv(envProgram))
	if err != nil {
		fail(err)
	}
	o := ServeOpts{
		Program:        pg,
		ID:             id,
		AppName:        os.Getenv(envApp),
		Restarted:      os.Getenv(envRestarted) == "1",
		Out:            os.Stdout,
		TraceDir:       os.Getenv(envTraceDir),
		WALDir:         os.Getenv(envWALDir),
		DiskFaultEvery: envInt(envDiskEvery),
		Heartbeat:      time.Duration(envInt(envHB)) * time.Millisecond,
		PullTimeout:    time.Duration(envInt(envPull)) * time.Millisecond,
		DetMode:        os.Getenv(envDetMode),
	}
	if ns, err := strconv.ParseInt(os.Getenv(envEpoch), 10, 64); err == nil && ns > 0 {
		o.Epoch = time.Unix(0, ns)
	}
	o.Incarnation, _ = strconv.ParseUint(os.Getenv(envInc), 10, 64)
	o.DiskFaultSeed, _ = strconv.ParseUint(os.Getenv(envDiskSeed), 10, 64)
	if id < ELID { // computing node: needs the app
		app, ok := lookup(o.AppName)
		if !ok {
			fail(fmt.Errorf("unknown app %q", o.AppName))
		}
		o.App = app
	}
	fail(ServeWith(o)) // ServeWith only returns on error
}
