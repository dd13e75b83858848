package deploy

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/core"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// FreePorts reserves n distinct loopback addresses by briefly listening
// on ephemeral ports. All listeners are held open simultaneously, so
// the addresses are pairwise distinct; the usual reuse race is harmless
// on a loopback-only test box.
func FreePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// SoakConfig sizes one soak run: a real multi-process deployment over
// loopback TCP, every computing node (and, with ProxyServices, every
// service node) fronted by a fault-injecting proxy, with a seeded
// schedule of process kills and freezes aimed at a configurable
// kill-set of roles.
type SoakConfig struct {
	// Exe is the worker executable; it must call deploy.MaybeServe at
	// the top of main.
	Exe     string
	AppName string // default "soakring"
	CNs     int    // computing nodes (default 3)
	ELs     int    // event-logger replicas (default 1; >1 = write quorum of majority)
	CSs     int    // checkpoint-server replicas (default 1)

	// Soak app sizing (exported to workers through the environment).
	Laps    int // laps per rank (default 20)
	HoldMS  int // per-rank token hold (default 25)
	Payload int // token payload bytes (default 256)

	// Seed drives the fault plan, the proxies' chaos variates, and the
	// disk-fault injector: one number reproduces the whole run.
	Seed uint64

	// Process fault schedule.
	Kills    int           // SIGKILLs (default 2)
	Stalls   int           // SIGSTOP freezes
	MinAfter time.Duration // earliest fault (default 2s)
	Over     time.Duration // fault window width (default 6s)
	StallFor time.Duration // freeze length (default 1s)

	// KillRoles is the kill-set: the roles the seeded fault plan may
	// target (default computing nodes only, the pre-service-plane
	// behavior). Kills round-robin across the named roles, so with
	// Kills >= len(KillRoles) every role in the set loses at least one
	// node; stalls draw from the union. Roles with no nodes in the
	// program are skipped.
	KillRoles []Role

	// Proxy is the socket-level chaos applied to every CN's inbound
	// traffic. The zero value proxies bytes through unmodified.
	Proxy transport.ProxyPolicy
	// ProxyServices fronts the EL/CS/scheduler listeners with chaos
	// proxies too, so service links (determinant submissions, quorum
	// acks, anti-entropy resync, checkpoint chunks) cross the injector
	// — not just CN↔CN traffic. Audit reads bypass the proxies via the
	// bind addresses.
	ProxyServices bool

	// DiskFaultEvery arms torn-write injection on the EL/CS WALs.
	DiskFaultEvery int

	// DetMode names the CN daemons' determinant-suppression policy
	// (see ParseDetMode).
	DetMode string

	Heartbeat time.Duration // worker heartbeat cadence (default 100ms)
	Timeout   time.Duration // wall-clock safety limit (default 2m)
	MaxSpawn  int           // restart budget per node (default 10)
	Dir       string        // scratch dir (default: a fresh temp dir)
	Log       io.Writer     // driver log (default io.Discard)
}

// Recovery is one crash→recovery episode of a node, any role.
type Recovery struct {
	ID   int    `json:"id"`
	Role string `json:"role"`
	Inc  uint64 `json:"incarnation"` // incarnation that died
	// RespawnMS is exit → replacement spawned.
	RespawnMS int64 `json:"respawn_ms"`
	// BackToWorkMS is exit → first lap of any later incarnation
	// (computing nodes; -1 otherwise or when none followed).
	BackToWorkMS int64 `json:"back_to_work_ms"`
	// RejoinMS is the replica-outage window of a service node: exit →
	// rejoin marker of a later incarnation (WAL replayed and, for
	// replicated roles, anti-entropy resync complete). -1 for computing
	// nodes or when the window never closed.
	RejoinMS int64 `json:"rejoin_ms"`
}

// SoakReport is the JSON-serializable outcome of a soak run.
type SoakReport struct {
	Seed       uint64   `json:"seed"`
	OK         bool     `json:"ok"`
	Failures   []string `json:"failures,omitempty"`
	DurationMS int64    `json:"duration_ms"`

	CNs         int   `json:"cns"`
	ELs         int   `json:"els"`
	CSs         int   `json:"css"`
	LapsPerRank int   `json:"laps_per_rank"`
	LapsDone    int   `json:"laps_done"` // lap completions observed (all ranks)
	Goodput     []int `json:"goodput"`   // lap completions per 1s bucket

	Kills      int            `json:"kills"`
	RoleKills  map[string]int `json:"role_kills,omitempty"` // kills that landed, per role
	Stalls     int            `json:"stalls"`
	Respawns   int            `json:"respawns"`
	Recoveries []Recovery     `json:"recoveries,omitempty"`
	Plan       []string       `json:"plan,omitempty"` // human-readable fault schedule

	MidAudits      int    `json:"mid_audits"`      // post-recovery audit passes
	AuditEvents    int    `json:"audit_events"`    // determinants in the final audit
	AuditSummary   string `json:"audit"`           // final no-orphans verdict
	HBSummary      string `json:"hb_audit"`        // final happens-before verdict
	LeakGoroutines int    `json:"leak_goroutines"` // residual goroutines after teardown

	TCP     transport.TCPStats `json:"tcp"`               // Σ last sample per (node, incarnation)
	Metrics map[string]int64   `json:"metrics,omitempty"` // proxy counters, per-role latency totals
}

func (c *SoakConfig) defaults() {
	if c.AppName == "" {
		c.AppName = "soakring"
	}
	if c.CNs <= 0 {
		c.CNs = 3
	}
	if c.ELs <= 0 {
		c.ELs = 1
	}
	if c.CSs <= 0 {
		c.CSs = 1
	}
	if c.Laps <= 0 {
		c.Laps = 20
	}
	if c.HoldMS <= 0 {
		c.HoldMS = 25
	}
	if c.Payload <= 0 {
		c.Payload = 256
	}
	if c.Kills < 0 {
		c.Kills = 0
	}
	if len(c.KillRoles) == 0 {
		c.KillRoles = []Role{RoleCN}
	}
	if c.MinAfter <= 0 {
		c.MinAfter = 2 * time.Second
	}
	if c.Over <= 0 {
		c.Over = 6 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.MaxSpawn <= 0 {
		c.MaxSpawn = 10
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
}

// elEndpoint is one event-logger replica as the auditor reaches it: its
// node id and a proxy-free address (the bind side when the replica's
// advertised address is a chaos proxy).
type elEndpoint struct {
	id   int
	addr string
}

// fetchELEvents pulls the determinant store of every event-logger
// replica over a throwaway TCP endpoint and returns one copy per
// answering replica, copies[i][r] being the i-th answer's log of rank r:
// the input of cluster.MergeReplicaDeliveries, which votes on slots the
// replicas hold in divergent versions as a restart does. A replica's
// later replies are dropped, so no replica votes twice. The read is
// quorum-aware: silent replicas are re-asked on every tick, and the
// first tick that finds at least `need` replicas answered (= R−Q+1, the
// smallest set intersecting every write quorum) ends the collection, so
// a killed or still-resyncing replica cannot block the audit.
func fetchELEvents(els []elEndpoint, cns int, need int, timeout time.Duration) ([][][]core.Event, error) {
	const auditorID = 1900
	addrMap := map[int]string{auditorID: "127.0.0.1:0"}
	for _, el := range els {
		addrMap[el.id] = el.addr
	}
	rt := vtime.NewReal()
	fab := transport.NewTCPFabric(rt, addrMap)
	ep := fab.Attach(auditorID, "soak-audit")
	defer ep.Close()

	frames := make(chan transport.Frame, 16)
	go func() {
		for {
			f, ok := ep.Inbox().Recv()
			if !ok {
				close(frames)
				return
			}
			frames <- f
		}
	}()

	req := wire.EncodeSyncMarks(map[int]uint64{})
	responded := make(map[int]bool)
	var copies [][][]core.Event
	ask := func() {
		for _, el := range els {
			if !responded[el.id] {
				ep.Send(el.id, wire.KELSyncReq, req)
			}
		}
	}
	ask()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for len(responded) < len(els) {
		select {
		case f, ok := <-frames:
			if !ok {
				return nil, fmt.Errorf("soak: audit endpoint closed")
			}
			if f.Kind != wire.KELSyncResp || responded[f.From] {
				continue
			}
			dec, err := wire.DecodeNodeEvents(f.Data)
			if err != nil {
				return nil, fmt.Errorf("soak: bad sync response: %w", err)
			}
			responded[f.From] = true
			per := make([][]core.Event, cns)
			for node, evs := range dec {
				if node >= 0 && node < cns {
					per[node] = evs
				}
			}
			copies = append(copies, per)
		case <-tick.C:
			if len(responded) >= need {
				return copies, nil
			}
			ask()
		case <-deadline.C:
			if len(responded) >= need {
				return copies, nil
			}
			return nil, fmt.Errorf("soak: only %d of %d event-logger replicas answered (read quorum %d) after %v",
				len(responded), len(els), need, timeout)
		}
	}
	return copies, nil
}

// knownCommits maps the fetched determinants to trace span ids: a
// determinant in the EL *is* a durable commit, so it anchors replays
// whose local EvDetDurable record died with a crashed incarnation.
func knownCommits(dels [][]core.Event) map[uint64]bool {
	known := make(map[uint64]bool)
	for rank, evs := range dels {
		for _, ev := range evs {
			known[trace.PackSpan(rank, ev.RecvClock)] = true
		}
	}
	return known
}

// auditOnce runs both post-run checks over one read of the event-logger
// group (read-quorum-gated): the no-orphans audit of the replicas'
// majority-merged view — what a restart would replay, with the
// divergent slots it resolved counted as superseded — and the
// happens-before audit over the merged crash-surviving trace snapshots,
// whose known commits come from that same view.
func auditOnce(els []elEndpoint, need int, traceDir string, cns int) (cluster.AuditReport, trace.HBReport, error) {
	copies, err := fetchELEvents(els, cns, need, 5*time.Second)
	if err != nil {
		return cluster.AuditReport{}, trace.HBReport{}, err
	}
	res := cluster.Result{Deliveries: cluster.MergeReplicaDeliveries(cns, copies), ELReplicaDeliveries: copies}
	rep := cluster.Audit(res)
	tr, err := trace.BuildTrace(filepath.Join(traceDir, "trace-*.mvtr"))
	if err != nil {
		return rep, trace.HBReport{}, err
	}
	hb := trace.AuditHBWith(tr, trace.AuditHBOpts{
		KnownCommits: knownCommits(res.Deliveries),
		CrashTail:    true,
	})
	return rep, hb, nil
}

// RunSoak deploys the program as real OS processes over loopback TCP —
// every computing node (and optionally every service) behind a
// fault-injecting proxy — executes the seeded kill/stall schedule over
// the configured role kill-set, and audits the survivors: the same seed
// reproduces the same fault schedule and the same chaos variates.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg.defaults()
	rep := &SoakReport{
		Seed: cfg.Seed, CNs: cfg.CNs, ELs: cfg.ELs, CSs: cfg.CSs,
		LapsPerRank: cfg.Laps, RoleKills: make(map[string]int),
	}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	goroutinesBefore := runtime.NumGoroutine()

	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "mpichv-soak-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	traceDir := filepath.Join(dir, "trace")
	walDir := filepath.Join(dir, "wal")
	for _, d := range []string{traceDir, walDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}

	// Address plan: every node gets an advertised (front) and a bind
	// address; the bind side is written into the program file — and a
	// proxy spawned — only for the nodes whose links cross the
	// injector: all CNs, plus the services when ProxyServices is set.
	services := cfg.ELs + cfg.CSs + 1
	addrs, err := FreePorts(2 * (cfg.CNs + services))
	if err != nil {
		return nil, err
	}
	type planned struct {
		id          int
		role        Role
		front, bind string
		proxied     bool
	}
	var nodes []planned
	next := 0
	take := func() (string, string) {
		front, bind := addrs[next], addrs[next+1]
		next += 2
		return front, bind
	}
	for i := 0; i < cfg.ELs; i++ {
		front, bind := take()
		nodes = append(nodes, planned{ELID + i, RoleEL, front, bind, cfg.ProxyServices})
	}
	for i := 0; i < cfg.CSs; i++ {
		front, bind := take()
		nodes = append(nodes, planned{CSID + i, RoleCS, front, bind, cfg.ProxyServices})
	}
	{
		front, bind := take()
		nodes = append(nodes, planned{SchedID, RoleSched, front, bind, cfg.ProxyServices})
	}
	for i := 0; i < cfg.CNs; i++ {
		front, bind := take()
		nodes = append(nodes, planned{i, RoleCN, front, bind, true})
	}
	var pg strings.Builder
	for _, n := range nodes {
		if n.proxied {
			fmt.Fprintf(&pg, "%s %s %s\n", n.role, n.front, n.bind)
		} else {
			fmt.Fprintf(&pg, "%s %s\n", n.role, n.front)
		}
	}
	pgPath := filepath.Join(dir, "soak.pg")
	if err := os.WriteFile(pgPath, []byte(pg.String()), 0o644); err != nil {
		return nil, err
	}

	// The audit side-steps the proxies: it reads each EL replica at its
	// bind address when the front is a chaos proxy.
	var els []elEndpoint
	for _, n := range nodes {
		if n.role != RoleEL {
			continue
		}
		addr := n.front
		if n.proxied {
			addr = n.bind
		}
		els = append(els, elEndpoint{id: n.id, addr: addr})
	}
	elQ := len(els)/2 + 1
	readNeed := len(els) - elQ + 1

	// The shared epoch: every worker's virtual clock and the proxies'
	// partition windows count from here.
	epoch := time.Now()
	rt := vtime.NewRealAt(epoch)

	// One chaos proxy per proxied node, owning the advertised address
	// and forwarding to the bind address. Distinct sub-seeds keep the
	// proxies' variate streams independent but reproducible.
	var proxies []*transport.ChaosProxy
	defer func() {
		for _, px := range proxies {
			px.Close()
		}
	}()
	for i, n := range nodes {
		if !n.proxied {
			continue
		}
		pol := cfg.Proxy
		pol.Seed = cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15
		px, err := transport.NewChaosProxy(rt, n.id, n.front, n.bind, pol)
		if err != nil {
			return nil, fmt.Errorf("soak: proxy for node %d: %w", n.id, err)
		}
		proxies = append(proxies, px)
	}

	sup, err := StartSupervisor(SupervisorConfig{
		ProgramPath: pgPath,
		Exe:         cfg.Exe,
		AppName:     cfg.AppName,
		Template: ServeOpts{
			Epoch:          epoch,
			TraceDir:       traceDir,
			WALDir:         walDir,
			DiskFaultEvery: cfg.DiskFaultEvery,
			DiskFaultSeed:  cfg.Seed,
			Heartbeat:      cfg.Heartbeat,
			PullTimeout:    250 * time.Millisecond,
			DetMode:        cfg.DetMode,
		},
		MaxSpawn: cfg.MaxSpawn,
		ExtraEnv: []string{
			"MPICHV_SOAK_LAPS=" + strconv.Itoa(cfg.Laps),
			"MPICHV_SOAK_HOLD_MS=" + strconv.Itoa(cfg.HoldMS),
			"MPICHV_SOAK_PAYLOAD=" + strconv.Itoa(cfg.Payload),
		},
		Log: cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	defer sup.Stop()
	start := time.Now()
	roleOf := func(id int) string { return string(sup.Program().RoleOf(id)) }

	// The kill-set: one target group per configured role, in the order
	// given, so kills round-robin across roles. Roles with no nodes in
	// this program drop out of the plan (and out of the coverage check).
	var roleGroups [][]int
	var activeKillRoles []Role
	for _, role := range cfg.KillRoles {
		ids := sup.Program().IDsOfRole(role)
		if len(ids) > 0 {
			roleGroups = append(roleGroups, ids)
			activeKillRoles = append(activeKillRoles, role)
		}
	}
	plan := PlanFaults(FaultPlanConfig{
		Seed:        cfg.Seed,
		RoleTargets: roleGroups,
		Kills:       cfg.Kills,
		Stalls:      cfg.Stalls,
		MinAfter:    cfg.MinAfter,
		Over:        cfg.Over,
		StallFor:    cfg.StallFor,
	})
	for _, f := range plan {
		rep.Plan = append(rep.Plan, fmt.Sprintf("%s %s/%d @%dms", f.Kind, roleOf(f.Target), f.Target, f.After.Milliseconds()))
	}
	stopInject := sup.Inject(plan)
	defer stopInject()

	// Wait for completion, re-running both audits after every observed
	// recovery (a respawn with incarnation > 0) — computing node or
	// service. Mid-run audits may see transient holes while
	// retransmissions drain or a replica resyncs, so each retries until
	// green; only never-converging audits count as failures. The
	// post-quiesce final audit below stays authoritative.
	audited := make(map[string]bool)
	timeout := time.After(cfg.Timeout)
	poll := time.NewTicker(time.Second)
	timedOut := false
waitLoop:
	for {
		select {
		case <-sup.Done():
			break waitLoop
		case <-timeout:
			timedOut = true
			fail("soak timed out after %v", cfg.Timeout)
			break waitLoop
		case <-poll.C:
			for _, ev := range sup.Events() {
				if ev.Kind != "spawn" || ev.Inc == 0 {
					continue
				}
				key := fmt.Sprintf("%d/%d", ev.ID, ev.Inc)
				if audited[key] {
					continue
				}
				audited[key] = true
				green := false
				var last string
				for attempt := 0; attempt < 10; attempt++ {
					a, hb, err := auditOnce(els, readNeed, traceDir, cfg.CNs)
					if err == nil && a.OK() && hb.OK() {
						green = true
						break
					}
					last = fmt.Sprintf("audit=%v hb=%v err=%v", a.Summary(), hb.Summary(), err)
					time.Sleep(300 * time.Millisecond)
				}
				rep.MidAudits++
				if !green {
					fail("post-recovery audit for node %s never converged: %s", key, last)
				}
			}
		}
	}
	poll.Stop()
	rep.DurationMS = time.Since(start).Milliseconds()
	stopInject()

	// Quiesce: let in-flight retransmissions and the last heartbeat
	// land, plus one trace-snapshot flush interval.
	time.Sleep(2*cfg.Heartbeat + 500*time.Millisecond)

	// Authoritative final audits.
	audit, hb, err := auditOnce(els, readNeed, traceDir, cfg.CNs)
	rep.AuditEvents = audit.Events
	if err != nil {
		fail("final audit: %v", err)
	} else {
		rep.AuditSummary = audit.Summary()
		rep.HBSummary = hb.Summary()
		if !audit.OK() {
			fail("no-orphans audit failed: %s", audit.Summary())
			for _, o := range audit.Orphans {
				fail("orphan: %s", o)
			}
		}
		if !hb.OK() {
			fail("happens-before audit failed: %s", hb.Summary())
		}
	}
	if err := sup.Err(); err != nil {
		fail("supervision: %v", err)
	}

	// Fold the supervision record into the report.
	events := sup.Events()
	laps := sup.Laps()
	rep.LapsDone = len(laps)
	for _, l := range laps {
		b := int(l.T.Sub(start) / time.Second)
		for len(rep.Goodput) <= b {
			rep.Goodput = append(rep.Goodput, 0)
		}
		rep.Goodput[b]++
	}
	for _, ev := range events {
		switch ev.Kind {
		case "kill":
			rep.Kills++
			rep.RoleKills[roleOf(ev.ID)]++
		case "stall":
			rep.Stalls++
		case "spawn":
			if ev.Inc > 0 {
				rep.Respawns++
			}
		}
	}
	for i, ev := range events {
		if ev.Kind != "exit" {
			continue
		}
		r := Recovery{ID: ev.ID, Role: roleOf(ev.ID), Inc: ev.Inc,
			RespawnMS: -1, BackToWorkMS: -1, RejoinMS: -1}
		for _, later := range events[i+1:] {
			if later.ID != ev.ID {
				continue
			}
			if later.Kind == "spawn" && r.RespawnMS < 0 {
				r.RespawnMS = later.T.Sub(ev.T).Milliseconds()
			}
			if later.Kind == "rejoin" && r.RejoinMS < 0 {
				r.RejoinMS = later.T.Sub(ev.T).Milliseconds()
			}
		}
		if ev.ID < ELID {
			for _, l := range laps {
				if l.ID == ev.ID && l.T.After(ev.T) {
					r.BackToWorkMS = l.T.Sub(ev.T).Milliseconds()
					break
				}
			}
		}
		// Exits during teardown (no successor spawn) are not recoveries.
		if r.RespawnMS >= 0 {
			rep.Recoveries = append(rep.Recoveries, r)
		}
	}
	if !timedOut && cfg.Kills > 0 && rep.Kills < cfg.Kills {
		fail("only %d of %d planned kills fired", rep.Kills, cfg.Kills)
	}
	// Role coverage: the round-robin plan guarantees every active role
	// at least one kill when the quota allows; a hole means a kill was
	// planned but never landed (e.g. the target was already dead).
	if !timedOut && cfg.Kills >= len(activeKillRoles) {
		for _, role := range activeKillRoles {
			if rep.RoleKills[string(role)] == 0 {
				fail("kill-set role %s was never killed", role)
			}
		}
	}

	rep.TCP = sup.TCPTotals()
	reg := trace.NewRegistry()
	for _, px := range proxies {
		reg.AddStats("proxy", px.Counters())
	}
	// Per-role recovery latency and outage-window totals, alongside the
	// proxy counters: mean respawn latency for role r is
	// soak.respawn_ms_total.r / soak.respawns.r, and a service role's
	// replica-outage window (exit → rejoined, resync complete) is
	// soak.outage_ms_total.r / soak.rejoins.r.
	for _, r := range rep.Recoveries {
		reg.Counter("soak.respawns." + r.Role).Add(1)
		reg.Counter("soak.respawn_ms_total." + r.Role).Add(r.RespawnMS)
		if r.BackToWorkMS >= 0 {
			reg.Counter("soak.back_to_work." + r.Role).Add(1)
			reg.Counter("soak.back_to_work_ms_total." + r.Role).Add(r.BackToWorkMS)
		}
		if r.RejoinMS >= 0 {
			reg.Counter("soak.rejoins." + r.Role).Add(1)
			reg.Counter("soak.outage_ms_total." + r.Role).Add(r.RejoinMS)
		}
	}
	rep.Metrics = reg.Snapshot().Counters

	// Teardown, then verify the driver leaked no goroutines: proxies,
	// supervisor loops and audit endpoints must all wind down.
	sup.Stop()
	for _, px := range proxies {
		px.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		rep.LeakGoroutines = runtime.NumGoroutine() - goroutinesBefore
		if rep.LeakGoroutines <= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if rep.LeakGoroutines > 5 {
		fail("driver leaked %d goroutines", rep.LeakGoroutines)
	}

	rep.OK = len(rep.Failures) == 0
	return rep, nil
}
