package deploy

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mpichv/internal/daemon"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
)

// workerTCP is the TCP sample every fake worker reports. Its counters
// are 1, 2, 4, …: each distinct, so a field lost, moved or mixed with
// another on its way through the heartbeat line shows in the totals.
var workerTCP = func() transport.TCPStats {
	var st transport.TCPStats
	for i, f := range trace.StatsFields(&st) {
		*f = 1 << i
	}
	return st
}()

// tcpTimes returns st with every counter multiplied by k.
func tcpTimes(st transport.TCPStats, k int64) transport.TCPStats {
	for _, f := range trace.StatsFields(&st) {
		*f *= k
	}
	return st
}

// TestTCPLineRoundTrip: the heartbeat's TCP line carries every TCPStats
// counter, each back in its own field, and the supervisor's parser
// rejects a line with too few or too many counters, or a bad one.
func TestTCPLineRoundTrip(t *testing.T) {
	line := tcpLine(workerTCP)
	if n := len(strings.Fields(line)); n != 1+len(trace.StatsFields(&transport.TCPStats{})) {
		t.Fatalf("%q: %d fields, want the marker and one per counter", line, n)
	}
	if got, ok := parseTCPLine(line); !ok || got != workerTCP {
		t.Fatalf("parseTCPLine(%q) = %+v, %v; want %+v", line, got, ok, workerTCP)
	}
	for _, bad := range []string{
		TCPMarker + " 1 2 3 4 5 6",
		TCPMarker + " 1 2 3 4 5 6 7 8",
		TCPMarker + " 1 2 3 x 5 6 7",
		LapMarker + " 1 2 3 4 5 6 7",
	} {
		if got, ok := parseTCPLine(bad); ok {
			t.Errorf("parseTCPLine(%q) = %+v, accepted", bad, got)
		}
	}
}

// TestMain doubles the test binary as a fake worker: the supervisor
// re-execs it with DEPLOY_TEST_WORKER set and gets a process with a
// scripted behavior instead of a real MPICH-V2 node. This isolates the
// supervision machinery (spawn, heartbeat, budget, restart) from the
// protocol stack.
func TestMain(m *testing.M) {
	switch os.Getenv("DEPLOY_TEST_WORKER") {
	case "":
		// Normal test run.
	case "crash":
		os.Exit(3)
	case "serve":
		fmt.Println(tcpLine(workerTCP))
		fmt.Println("VRUN-LAP 1")
		fmt.Println(DoneMarker)
		for {
			fmt.Printf("%s %d\n", HBMarker, time.Now().UnixMilli())
			time.Sleep(20 * time.Millisecond)
		}
	case "mute":
		// One heartbeat, then silence while staying alive: the
		// half-dead worker only a staleness detector can catch.
		fmt.Printf("%s %d\n", HBMarker, time.Now().UnixMilli())
		select {}
	case "mixed":
		// Role-aware fake: computing nodes finalize immediately,
		// services idle under heartbeats; a restarted service announces
		// its rejoin the way a real one does after WAL replay + resync.
		id, _ := strconv.Atoi(os.Getenv("MPICHV_SERVE"))
		if id < ELID {
			fmt.Println(tcpLine(workerTCP))
			fmt.Println("VRUN-LAP 1")
			fmt.Println(DoneMarker)
		} else if os.Getenv("MPICHV_RESTARTED") == "1" {
			role := RoleEL
			switch {
			case id >= SchedID:
				role = RoleSched
			case id >= CSID:
				role = RoleCS
			}
			fmt.Printf("%s %s\n", RejoinMarker, role)
		}
		for {
			fmt.Printf("%s %d\n", HBMarker, time.Now().UnixMilli())
			time.Sleep(20 * time.Millisecond)
		}
	case "crash-service":
		// Computing nodes are healthy; every service crash-loops — the
		// shape that must exhaust a *service* node's restart budget.
		if id, _ := strconv.Atoi(os.Getenv("MPICHV_SERVE")); id >= ELID {
			os.Exit(3)
		}
		fmt.Println(DoneMarker)
		for {
			fmt.Printf("%s %d\n", HBMarker, time.Now().UnixMilli())
			time.Sleep(20 * time.Millisecond)
		}
	}
	os.Exit(m.Run())
}

// fakeProgramSvc writes a program file with a configurable service
// plane: els event-logger replicas, css checkpoint servers, optionally
// a scheduler, and cns computing nodes.
func fakeProgramSvc(t *testing.T, els, css int, sched bool, cns int) string {
	t.Helper()
	var b strings.Builder
	port := 1
	for i := 0; i < els; i++ {
		fmt.Fprintf(&b, "el 127.0.0.1:%d\n", port)
		port++
	}
	for i := 0; i < css; i++ {
		fmt.Fprintf(&b, "cs 127.0.0.1:%d\n", port)
		port++
	}
	if sched {
		fmt.Fprintf(&b, "sc 127.0.0.1:%d\n", port)
		port++
	}
	for i := 0; i < cns; i++ {
		fmt.Fprintf(&b, "cn 127.0.0.1:%d\n", port)
		port++
	}
	path := filepath.Join(t.TempDir(), "fake.pg")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fakeProgram(t *testing.T, cns int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("el 127.0.0.1:1\n")
	for i := 0; i < cns; i++ {
		fmt.Fprintf(&b, "cn 127.0.0.1:%d\n", 2+i)
	}
	path := filepath.Join(t.TempDir(), "fake.pg")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testExe(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestSupervisorBudgetExhaustion: a worker that always crashes must be
// respawned exactly MaxSpawn times under the backoff, then supervision
// gives up with an error instead of spinning forever.
func TestSupervisorBudgetExhaustion(t *testing.T) {
	sup, err := StartSupervisor(SupervisorConfig{
		ProgramPath: fakeProgram(t, 1),
		Exe:         testExe(t),
		AppName:     "none",
		MaxSpawn:    3,
		Restart:     transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ExtraEnv:    []string{"DEPLOY_TEST_WORKER=crash"},
		Log:         testWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	select {
	case <-sup.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("supervisor never gave up on the crash-looping worker")
	}
	if sup.Err() == nil {
		t.Fatal("budget exhaustion did not surface as an error")
	}
	gaveUp := false
	for _, ev := range sup.Events() {
		if ev.Kind == "give-up" {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatalf("no give-up event in %+v", sup.Events())
	}
}

// TestSupervisorDoneAndCounters: healthy workers drive the run to Done;
// the lap and TCP counter lines fold into the supervisor's record, an
// injected kill triggers exactly one respawn, and teardown leaks no
// goroutines.
func TestSupervisorDoneAndCounters(t *testing.T) {
	before := runtime.NumGoroutine()
	sup, err := StartSupervisor(SupervisorConfig{
		ProgramPath: fakeProgram(t, 2),
		Exe:         testExe(t),
		AppName:     "none",
		Template:    ServeOpts{Heartbeat: 50 * time.Millisecond},
		Restart:     transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ExtraEnv:    []string{"DEPLOY_TEST_WORKER=serve"},
		Log:         testWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sup.Done():
	case <-time.After(15 * time.Second):
		sup.Stop()
		t.Fatal("healthy workers never reached Done")
	}
	if sup.Err() != nil {
		t.Fatalf("unexpected supervision error: %v", sup.Err())
	}

	// Inject a kill: rank 0's replacement must come up (restarted).
	if !sup.Kill(0) {
		t.Fatal("Kill(0) found no worker")
	}
	deadline := time.Now().Add(10 * time.Second)
	for sup.Spawns(0) < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := sup.Spawns(0); got != 2 {
		t.Fatalf("spawns(0) = %d after kill, want 2", got)
	}

	if laps := sup.Laps(); len(laps) < 2 { // one per initial worker at least
		t.Fatalf("laps = %v, want one per worker", laps)
	}
	// Every incarnation reported workerTCP once, and at least the two
	// initial workers did so before Done: the totals are k×workerTCP,
	// field by field, for some k ≥ 2.
	tot := sup.TCPTotals()
	want := tcpTimes(workerTCP, tot.Dials)
	if tot.Dials < 2 || tot != want {
		t.Fatalf("TCP totals not folded per incarnation: %+v, want %+v", tot, want)
	}

	sup.Stop()
	waitGoroutines(t, before)
}

// TestSupervisorHeartbeatStaleness: a live-but-silent worker is killed
// by the staleness detector and respawned — §4.7 fault detection when
// the socket never disconnects.
func TestSupervisorHeartbeatStaleness(t *testing.T) {
	sup, err := StartSupervisor(SupervisorConfig{
		ProgramPath: fakeProgram(t, 1),
		Exe:         testExe(t),
		AppName:     "none",
		Template:    ServeOpts{Heartbeat: 40 * time.Millisecond},
		MaxSpawn:    2,
		Restart:     transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ExtraEnv:    []string{"DEPLOY_TEST_WORKER=mute"},
		Log:         testWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		stale := false
		for _, ev := range sup.Events() {
			if ev.Kind == "hb-stale" {
				stale = true
			}
		}
		if stale && sup.Spawns(0) >= 2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("staleness detector never fired: %+v", sup.Events())
}

// TestPlanFaultsDeterministic: the fault schedule is a pure function of
// the seed.
func TestPlanFaultsDeterministic(t *testing.T) {
	cfg := FaultPlanConfig{Seed: 7, Targets: []int{0, 1, 2}, Kills: 3, Stalls: 2}
	a := PlanFaults(cfg)
	b := PlanFaults(cfg)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("plan sizes %d/%d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 8
	c := PlanFaults(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
	kills := 0
	for _, f := range a {
		if f.Kind == "kill" {
			kills++
		}
	}
	if kills != 3 {
		t.Fatalf("plan has %d kills, want 3", kills)
	}
}

// TestServeOptsEnvRoundTrip: every knob survives the environment
// encoding the supervisor hands its workers.
func TestServeOptsEnvRoundTrip(t *testing.T) {
	o := ServeOpts{
		ID:             2,
		AppName:        "soakring",
		Restarted:      true,
		Epoch:          time.Unix(0, 1234567890),
		Incarnation:    3,
		TraceDir:       "/tmp/tr",
		WALDir:         "/tmp/wal",
		DiskFaultEvery: 5,
		DiskFaultSeed:  99,
		Heartbeat:      150 * time.Millisecond,
		DetMode:        "adaptive",
	}
	env := o.Env("/tmp/p.pg")
	want := []string{
		"MPICHV_SERVE=2", "MPICHV_PG=/tmp/p.pg", "MPICHV_APP=soakring",
		"MPICHV_RESTARTED=1", "MPICHV_EPOCH=1234567890", "MPICHV_INC=3",
		"MPICHV_TRACEDIR=/tmp/tr", "MPICHV_WALDIR=/tmp/wal",
		"MPICHV_DISK_EVERY=5", "MPICHV_DISK_SEED=99",
		"MPICHV_HB_MS=150", "MPICHV_DETMODE=adaptive",
	}
	got := strings.Join(env, "\n")
	for _, kv := range want {
		if !strings.Contains(got, kv) {
			t.Errorf("env missing %q:\n%s", kv, got)
		}
	}
}

// TestDetModeRealPathOnly: a deployed daemon runs suppression off or
// adaptive. Any other name — the unsound aggressive policy, or an
// integer that used to pass through the environment unchecked — fails
// the worker at start instead of reaching the daemon.
func TestDetModeRealPathOnly(t *testing.T) {
	for name, want := range map[string]int{"": daemon.DetOff, "off": daemon.DetOff, "adaptive": daemon.DetAdaptive} {
		if got, err := ParseDetMode(name); err != nil || got != want {
			t.Errorf("ParseDetMode(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	pg, err := ParseFile(fakeProgram(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aggressive", "2", "7"} {
		if _, err := ParseDetMode(name); err == nil {
			t.Errorf("ParseDetMode(%q) accepted", name)
		}
		if err := ServeWith(ServeOpts{Program: pg, ID: 0, DetMode: name}); err == nil || !strings.Contains(err.Error(), "determinant-suppression") {
			t.Errorf("ServeWith with DetMode %q: err = %v, want a refusal at start", name, err)
		}
	}
}

// TestParseBindField: the optional third program-file field becomes the
// node's bind address (proxy interposition), and the advertised address
// map is unchanged by it.
func TestParseBindField(t *testing.T) {
	src := "el 127.0.0.1:9000\ncn 127.0.0.1:9100 127.0.0.1:9200\ncn 127.0.0.1:9101\n"
	pg, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	cns := pg.CNs()
	if cns[0].Bind != "127.0.0.1:9200" || cns[1].Bind != "" {
		t.Fatalf("binds = %q, %q", cns[0].Bind, cns[1].Bind)
	}
	if m := pg.AddrMap(); m[0] != "127.0.0.1:9100" {
		t.Fatalf("advertised addr = %q, want the proxy front", m[0])
	}
}

func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSupervisorServiceKillRespawnRejoin: killing each service role —
// an EL replica, a CS mirror, the scheduler — must produce a respawn
// carrying the recovery flag, and the restarted service must announce
// its rejoin (the marker a real service emits once its WAL is replayed
// and, for replicated roles, anti-entropy resync is complete).
func TestSupervisorServiceKillRespawnRejoin(t *testing.T) {
	sup, err := StartSupervisor(SupervisorConfig{
		ProgramPath: fakeProgramSvc(t, 1, 1, true, 1),
		Exe:         testExe(t),
		AppName:     "none",
		MaxSpawn:    8,
		Restart:     transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ExtraEnv:    []string{"DEPLOY_TEST_WORKER=mixed"},
		Log:         testWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	select {
	case <-sup.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("computing node never finalized")
	}

	for _, tc := range []struct {
		id   int
		role Role
	}{{ELID, RoleEL}, {CSID, RoleCS}, {SchedID, RoleSched}} {
		if !sup.Kill(tc.id) {
			t.Fatalf("Kill(%d) found no worker", tc.id)
		}
		deadline := time.Now().Add(10 * time.Second)
		rejoined := false
		for !rejoined && time.Now().Before(deadline) {
			for _, ev := range sup.Events() {
				if ev.Kind == "rejoin" && ev.ID == tc.id {
					if ev.Info != string(tc.role) {
						t.Fatalf("rejoin of node %d reports role %q, want %q", tc.id, ev.Info, tc.role)
					}
					rejoined = true
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !rejoined {
			t.Fatalf("%s %d never rejoined after kill: %+v", tc.role, tc.id, sup.Events())
		}
		if got := sup.Spawns(tc.id); got < 2 {
			t.Fatalf("spawns(%d) = %d after kill, want >= 2", tc.id, got)
		}
	}
}

// TestSupervisorServiceBudgetExhaustion: a crash-looping *service* must
// burn its per-node restart budget and end supervision with an error,
// exactly like a crash-looping computing node.
func TestSupervisorServiceBudgetExhaustion(t *testing.T) {
	sup, err := StartSupervisor(SupervisorConfig{
		ProgramPath: fakeProgramSvc(t, 1, 0, false, 1),
		Exe:         testExe(t),
		AppName:     "none",
		MaxSpawn:    3,
		Restart:     transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ExtraEnv:    []string{"DEPLOY_TEST_WORKER=crash-service"},
		Log:         testWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range sup.Events() {
			if ev.Kind == "give-up" {
				if ev.ID < ELID {
					t.Fatalf("give-up on node %d, want a service id", ev.ID)
				}
				if sup.Err() == nil {
					t.Fatal("give-up did not surface as a supervision error")
				}
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("service budget exhaustion never surfaced: %+v", sup.Events())
}

// TestSupervisorELRawSIGSTOPStaleness: an EL replica frozen by a raw
// SIGSTOP (not an orchestrated stall, so the supervisor has no advance
// notice) stops heartbeating; the staleness detector must declare it
// crashed, kill it and respawn a replacement.
func TestSupervisorELRawSIGSTOPStaleness(t *testing.T) {
	sup, err := StartSupervisor(SupervisorConfig{
		ProgramPath: fakeProgramSvc(t, 1, 0, false, 1),
		Exe:         testExe(t),
		AppName:     "none",
		Template:    ServeOpts{Heartbeat: 40 * time.Millisecond},
		MaxSpawn:    4,
		Restart:     transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ExtraEnv:    []string{"DEPLOY_TEST_WORKER=mixed"},
		Log:         testWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	pid := sup.PID(ELID)
	if pid == 0 {
		t.Fatal("no live EL worker")
	}
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		stale := false
		for _, ev := range sup.Events() {
			if ev.Kind == "hb-stale" && ev.ID == ELID {
				stale = true
			}
		}
		if stale && sup.Spawns(ELID) >= 2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("staleness detector never caught the frozen EL: %+v", sup.Events())
}

// TestPlanFaultsRoleRoundRobin: with a role kill-set, kills round-robin
// across the groups — Kills >= groups guarantees every role is hit —
// while stalls draw from the union, and the schedule stays a pure
// function of the seed.
func TestPlanFaultsRoleRoundRobin(t *testing.T) {
	groups := [][]int{{0, 1, 2}, {ELID, ELID + 1, ELID + 2}, {CSID, CSID + 1}, {SchedID}}
	cfg := FaultPlanConfig{Seed: 11, RoleTargets: groups, Kills: 4, Stalls: 3,
		MinAfter: time.Second, Over: 4 * time.Second}
	groupOf := func(id int) int {
		for gi, g := range groups {
			for _, t := range g {
				if t == id {
					return gi
				}
			}
		}
		return -1
	}
	plan := PlanFaults(cfg)
	if len(plan) != 7 {
		t.Fatalf("plan has %d faults, want 7", len(plan))
	}
	hit := make(map[int]int)
	for _, f := range plan {
		gi := groupOf(f.Target)
		if gi < 0 {
			t.Fatalf("fault targets unknown node %d", f.Target)
		}
		if f.Kind == "kill" {
			hit[gi]++
		}
	}
	for gi := range groups {
		if hit[gi] != 1 {
			t.Fatalf("group %d got %d kills, want exactly 1 (round-robin): %+v", gi, hit[gi], plan)
		}
	}
	b := PlanFaults(cfg)
	for i := range plan {
		if plan[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

// testWriter routes supervisor logs into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
