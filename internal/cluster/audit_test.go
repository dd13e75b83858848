package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mpichv/internal/core"
	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
	"mpichv/internal/nas"
	"mpichv/internal/transport"
)

// deliveriesOf builds a synthetic Result for auditing.
func deliveriesOf(perRank ...[]core.Event) Result {
	return Result{Deliveries: perRank}
}

func TestAuditAcceptsCleanLog(t *testing.T) {
	rep := Audit(deliveriesOf([]core.Event{
		{Sender: 1, SenderClock: 1, RecvClock: 2, Seq: 1},
		{Sender: 2, SenderClock: 1, RecvClock: 3, Seq: 1},
		{Sender: 1, SenderClock: 4, RecvClock: 5, Seq: 2},
	}))
	if !rep.OK() {
		t.Fatalf("clean log rejected: %s", rep.Summary())
	}
	if rep.Events != 3 {
		t.Errorf("Events = %d, want 3", rep.Events)
	}
}

func TestAuditDetectsOrphanHole(t *testing.T) {
	// Channel sequence 2 is missing while 3 is present: some delivery
	// happened, was observable, and no replica can replay it.
	rep := Audit(deliveriesOf([]core.Event{
		{Sender: 1, SenderClock: 1, RecvClock: 2, Seq: 1},
		{Sender: 1, SenderClock: 5, RecvClock: 7, Seq: 3},
	}))
	if len(rep.Orphans) != 1 {
		t.Fatalf("orphans = %v, want exactly one", rep.Orphans)
	}
	if rep.OK() {
		t.Error("report with an orphan claims OK")
	}
}

func TestAuditDetectsClockAndFIFOViolations(t *testing.T) {
	rep := Audit(deliveriesOf([]core.Event{
		{Sender: 1, SenderClock: 3, RecvClock: 2, Seq: 1},
		{Sender: 2, SenderClock: 1, RecvClock: 2, Seq: 1}, // duplicate reception clock
		{Sender: 1, SenderClock: 1, RecvClock: 4, Seq: 2}, // sender clock went backwards
	}))
	if len(rep.ClockViolations) == 0 {
		t.Error("duplicate reception clock not flagged")
	}
	if len(rep.FIFOViolations) == 0 {
		t.Error("out-of-order sender clocks not flagged")
	}
}

func TestAuditIgnoresUnsequencedEvents(t *testing.T) {
	// Seq 0 marks events logged before channel sequencing existed; they
	// must not produce phantom holes.
	rep := Audit(deliveriesOf([]core.Event{
		{Sender: 1, SenderClock: 1, RecvClock: 2, Seq: 0},
		{Sender: 1, SenderClock: 5, RecvClock: 7, Seq: 0},
	}))
	if !rep.OK() {
		t.Fatalf("unsequenced log rejected: %s", rep.Summary())
	}
}

func TestAuditCountsSupersededReplicaDivergence(t *testing.T) {
	// Two replicas disagree about channel-seq 2 (a crash mid-quorum left
	// a stale variant on one of them); the merged view keeps one, the
	// audit reports the divergence without failing.
	winner := core.Event{Sender: 1, SenderClock: 4, RecvClock: 6, Seq: 2}
	stale := core.Event{Sender: 1, SenderClock: 4, RecvClock: 5, Seq: 2}
	first := core.Event{Sender: 1, SenderClock: 1, RecvClock: 2, Seq: 1}
	copies := [][][]core.Event{
		{{first, winner}},
		{{first, winner}},
		{{first, stale}},
	}
	res := Result{Deliveries: MergeReplicaDeliveries(1, copies), ELReplicaDeliveries: copies}
	if got := res.Deliveries[0]; !reflect.DeepEqual(got, []core.Event{first, winner}) {
		t.Fatalf("merged view = %v, want the majority version", got)
	}
	rep := Audit(res)
	if !rep.OK() {
		t.Fatalf("quorum-absorbed divergence rejected: %s", rep.Summary())
	}
	if rep.Superseded != 1 {
		t.Errorf("Superseded = %d, want 1", rep.Superseded)
	}
}

// TestMergeReplicaDeliveriesOrderIndependent feeds every order of three
// replica groups' copies, some with divergent suffixes, through the
// helper that builds the audit input for the simulator and the soak:
// the merged view and the verdict must not depend on the order in which
// the replicas are listed (or, out of process, answered).
func TestMergeReplicaDeliveriesOrderIndependent(t *testing.T) {
	const ranks = 2
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	superseded := 0
	for seed := int64(1); seed <= 40; seed++ {
		replicas := divergentReplicas(rand.New(rand.NewSource(seed)), ranks)
		var want [][]core.Event
		var wantRep AuditReport
		for i, p := range perms {
			copies := [][][]core.Event{replicas[p[0]], replicas[p[1]], replicas[p[2]]}
			res := Result{Deliveries: MergeReplicaDeliveries(ranks, copies), ELReplicaDeliveries: copies}
			rep := Audit(res)
			if i == 0 {
				want, wantRep = res.Deliveries, rep
				superseded += rep.Superseded
				continue
			}
			if !reflect.DeepEqual(res.Deliveries, want) {
				t.Fatalf("seed %d order %v: merged view differs from order %v", seed, p, perms[0])
			}
			if !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("seed %d order %v: %s, order %v: %s", seed, p, rep.Summary(), perms[0], wantRep.Summary())
			}
		}
	}
	if superseded == 0 {
		t.Fatal("no seed produced a divergent slot; the test checks nothing")
	}
}

// divergentReplicas draws three event-logger replicas' copies of every
// rank's log, replicas[i][r], as a group holds them after an
// incarnation died mid-quorum: each copy is a prefix of one fault-free
// history, and some copies then continue with a re-delivered suffix
// that other senders, clocks and probe counts make divergent.
func divergentReplicas(rng *rand.Rand, ranks int) [][][]core.Event {
	const senders = 3
	history := func(clock uint64, seqs map[int]uint64, n int) []core.Event {
		var evs []core.Event
		for i := 0; i < n; i++ {
			clock++
			s := rng.Intn(senders)
			seqs[s]++
			evs = append(evs, core.Event{Sender: s, SenderClock: 10 * seqs[s], RecvClock: clock,
				Probes: uint32(rng.Intn(2)), Seq: seqs[s]})
		}
		return evs
	}
	replicas := make([][][]core.Event, 3)
	for i := range replicas {
		replicas[i] = make([][]core.Event, ranks)
	}
	for r := 0; r < ranks; r++ {
		base := history(0, map[int]uint64{}, 5+rng.Intn(20))
		for i := range replicas {
			cut := rng.Intn(len(base) + 1)
			evs := append([]core.Event(nil), base[:cut]...)
			if cut > 0 && rng.Intn(2) == 0 {
				at := rng.Intn(cut)
				seqs := map[int]uint64{}
				for _, ev := range evs[:at] {
					seqs[ev.Sender] = ev.Seq
				}
				var clock uint64
				if at > 0 {
					clock = evs[at-1].RecvClock
				}
				evs = append(evs[:at], history(clock+uint64(rng.Intn(2)), seqs, rng.Intn(8))...)
			}
			replicas[i][r] = evs
		}
	}
	return replicas
}

// TestAuditSeededQuorumChaosRuns is the no-orphans property test: 20
// seeded chaos schedules over a quorum-replicated (R=3, Q=2) system,
// each with Poisson node kills that may hit compute nodes AND event-log
// replicas, plus frame drop/duplication/truncation. Every run must
// finish with the fault-free result, zero sends below the write quorum,
// and an audit with no orphans and no clock gaps.
func TestAuditSeededQuorumChaosRuns(t *testing.T) {
	const n, rounds = 6, 12
	_, wantFinals, _ := chaosRing(Config{Impl: V2, N: n}, rounds)

	targets := append(ranks(n), ELBase, ELBase+1, ELBase+2)
	for seed := uint64(1); seed <= 20; seed++ {
		x := (seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		u := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x>>11) / float64(1<<53)
		}
		pol := transport.ChaosPolicy{
			Seed:      seed,
			Drop:      0.002 + 0.01*u(),
			Duplicate: 0.01 * u(),
			Truncate:  0.004 * u(),
		}
		faults := dispatcher.RandomFaults(seed, 30, 120*time.Millisecond, targets)

		// Cycle the EL window across seeds so the no-orphans property is
		// exercised with an unbounded window (every event ships alone),
		// stop-and-wait batching, and a pipelined window of adaptive
		// batches.
		cfg := Config{
			Impl: V2, N: n,
			ELReplicas:     3,
			Chaos:          pol,
			Faults:         faults,
			DetectionDelay: 2 * time.Millisecond,
			Trace:          true,
		}
		switch seed % 3 {
		case 1:
			cfg.ELWindow = 1
		case 2:
			cfg.ELWindow = 8
		}
		res, finals, _ := chaosRing(cfg, rounds)

		for r := 0; r < n; r++ {
			if finals[r] != wantFinals[r] {
				t.Errorf("seed %d: rank %d final = %d, want %d (kills=%d/%d)",
					seed, r, finals[r], wantFinals[r], res.Kills, res.ServiceKills)
			}
		}
		if res.Daemon.BelowQuorumAcks != 0 {
			t.Errorf("seed %d: %d sends escaped below the write quorum", seed, res.Daemon.BelowQuorumAcks)
		}
		rep := Audit(res)
		if !rep.OK() {
			t.Errorf("seed %d: %s", seed, rep.Summary())
			for _, v := range append(append(rep.Orphans, rep.ClockViolations...), rep.FIFOViolations...) {
				t.Logf("seed %d: %s", seed, v)
			}
		}
		if hb := AuditTrace(res); !hb.OK() {
			t.Errorf("seed %d: %s", seed, hb.Summary())
		}
		t.Logf("seed %d: kills=%d svc=%d resyncs=%d synced=%d superseded=%d dropped=%d trunc=%d",
			seed, res.Kills, res.ServiceKills, res.EL.Resyncs+res.CS.Resyncs, res.EL.SyncedIn+res.CS.SyncedIn,
			rep.Superseded, res.Chaos.Dropped, res.Chaos.Truncated)
	}
}

// TestDoubleFaultMidRestart kills a second node while the first is
// still recovering and its peers are answering its RESTART1: the first
// victim's recovery must not deadlock on a peer that died under it, and both
// recoveries — running concurrently over the same replica group — must
// converge to the fault-free result.
func TestDoubleFaultMidRestart(t *testing.T) {
	const n, rounds = 4, 30
	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		ELReplicas:     3,
		DetectionDelay: 2 * time.Millisecond,
		Faults: []dispatcher.Fault{
			{Time: 6 * time.Millisecond, Rank: 1},
			// Rank 1 is respawned at ~8ms and announces its restart; rank
			// 2 dies right in the middle of answering it.
			{Time: 8200 * time.Microsecond, Rank: 2},
		},
		Trace: true,
	}, ringProgram(rounds, finals))
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
	if res.Daemon.BelowQuorumAcks != 0 {
		t.Errorf("%d sends escaped below the write quorum", res.Daemon.BelowQuorumAcks)
	}
	if rep := Audit(res); !rep.OK() {
		t.Errorf("%s", rep.Summary())
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
}

// TestDoubleFaultPlansOverlap sanity-checks the generator: pairs land
// within the window and never target the same node twice.
func TestDoubleFaultPlansOverlap(t *testing.T) {
	plan := dispatcher.DoubleFaults(7, 4, time.Second, 20*time.Millisecond, []int{0, 1, 2, 3})
	if len(plan) < 4 {
		t.Fatalf("plan too small: %d faults", len(plan))
	}
	pairs := 0
	for i := 1; i < len(plan); i++ {
		if gap := plan[i].Time - plan[i-1].Time; gap >= 0 && gap <= 20*time.Millisecond {
			if plan[i].Rank == plan[i-1].Rank {
				t.Errorf("fault %d repeats target %d within the window", i, plan[i].Rank)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Error("no overlapping fault pairs generated")
	}
	again := dispatcher.DoubleFaults(7, 4, time.Second, 20*time.Millisecond, []int{0, 1, 2, 3})
	if len(again) != len(plan) {
		t.Errorf("same seed produced %d faults, then %d", len(plan), len(again))
	}
}

// TestQuorumBTAcceptance is the replication acceptance scenario: BT.A
// with R=3/Q=2 event-log and checkpoint replication, one event-log
// replica killed mid-run (its respawn must anti-entropy resync), a
// compute node killed twice, and a fabric that truncates ~1% of frames
// — so checkpoint images get damaged in flight and must be caught by
// the CRC framing and re-fetched or re-saved. The run must verify, no
// send may leave below the write quorum, and the audit must be clean.
func TestQuorumBTAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("BT quorum acceptance is slow in short mode")
	}
	const n = 4
	bm := nas.BT("A")
	run := func(cfg Config) ([]nas.Result, Result) {
		results := make([]nas.Result, n)
		res := Run(cfg, func(p *mpi.Proc) {
			results[p.Rank()] = bm.Run(p, bm)
		})
		return results, res
	}

	clean, _ := run(Config{Impl: V2, N: n})

	faulty, res := run(Config{
		Impl: V2, N: n,
		ELReplicas:     3,
		ELWindow:       4, // acceptance runs with pipelined determinant logging
		Checkpointing:  true,
		SchedPeriod:    5 * time.Millisecond,
		DetectionDelay: 3 * time.Millisecond,
		Chaos: transport.ChaosPolicy{
			Seed:     2003,
			Drop:     0.005,
			Truncate: 0.01,
		},
		// BT.A runs ~10.5 virtual seconds; the kills land mid-run so
		// real state exists to recover (the replica's respawn must have
		// events to anti-entropy back, the compute restart a checkpoint
		// and a replay log to fetch through the read quorum).
		Faults: []dispatcher.Fault{
			{Time: 2 * time.Second, Rank: 2},
			{Time: 2050 * time.Millisecond, Rank: 2}, // lands mid-recovery
			{Time: 5 * time.Second, Rank: ELBase + 1},
		},
		Trace:    true,
		TraceCap: 1 << 18, // BT.A is chatty; keep the audit total
	})

	for r := 0; r < n; r++ {
		if !clean[r].Verified {
			t.Fatalf("fault-free BT.A rank %d did not verify", r)
		}
		if !faulty[r].Verified {
			t.Errorf("chaotic BT.A rank %d did not verify (value %v)", r, faulty[r].Value)
		}
		if faulty[r].Value != clean[r].Value {
			t.Errorf("rank %d value %v differs from fault-free %v", r, faulty[r].Value, clean[r].Value)
		}
	}
	if res.ServiceKills != 1 || res.ServiceRestarts != 1 {
		t.Errorf("service kills/restarts = %d/%d, want 1/1", res.ServiceKills, res.ServiceRestarts)
	}
	if res.Chaos.Truncated == 0 {
		t.Error("chaos truncated no frames; the integrity path went unexercised")
	}
	if res.Daemon.BelowQuorumAcks != 0 {
		t.Errorf("%d sends escaped below the write quorum", res.Daemon.BelowQuorumAcks)
	}
	if res.EL.Resyncs+res.CS.Resyncs == 0 {
		t.Error("the respawned replica never resynced")
	}
	if res.EL.SyncedIn+res.CS.SyncedIn == 0 {
		t.Error("the respawned replica pulled nothing back from its peers")
	}
	rep := Audit(res)
	if !rep.OK() {
		t.Errorf("%s", rep.Summary())
		for _, v := range append(append(rep.Orphans, rep.ClockViolations...), rep.FIFOViolations...) {
			t.Log(v)
		}
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	} else if hb.Incomplete {
		t.Error("trace wrapped; raise TraceCap so the audit is total")
	}
	t.Logf("%s; trunc=%d resyncs=%d synced=%d stale=%d corrupt=%d replaydrop=%d",
		rep.Summary(), res.Chaos.Truncated, res.EL.Resyncs+res.CS.Resyncs, res.EL.SyncedIn+res.CS.SyncedIn,
		res.CS.StaleRejects, res.Daemon.CorruptImages, res.Daemon.ReplayDropped)
}
