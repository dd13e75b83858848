package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"mpichv/internal/core"
	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
	"mpichv/internal/nas"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
)

// recordingRing is ringProgram plus a per-rank record of every token
// value received, so delivery sequences can be compared across runs. A
// killed rank re-executes from scratch (or from replay), resetting its
// record — the surviving record is the one the last incarnation
// observed end to end.
func recordingRing(rounds int, finals []uint64, seqs [][]uint64) Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		seqs[p.Rank()] = nil
		var token uint64
		buf := make([]byte, 8)
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				binary.BigEndian.PutUint64(buf, token+1)
				p.Send(right, 1, buf)
				b, _ := p.Recv(left, 1)
				token = binary.BigEndian.Uint64(b)
			} else {
				b, _ := p.Recv(left, 1)
				token = binary.BigEndian.Uint64(b) + 1
				binary.BigEndian.PutUint64(buf, token)
				p.Send(right, 1, buf)
			}
			seqs[p.Rank()] = append(seqs[p.Rank()], token)
		}
		finals[p.Rank()] = token
	}
}

// chaosRing runs the recording ring under the given config and returns
// finals and per-rank token sequences.
func chaosRing(cfg Config, rounds int) (Result, []uint64, [][]uint64) {
	finals := make([]uint64, cfg.N)
	seqs := make([][]uint64, cfg.N)
	res := Run(cfg, recordingRing(rounds, finals, seqs))
	return res, finals, seqs
}

// TestChaosTokenRingProperty is the seeded property test of the chaos
// machinery: for each seed, an 8-node token ring runs under a generated
// schedule of drops, duplications, jitter and a timed partition, plus
// Poisson-random node kills — and must converge to exactly the
// delivery sequence of the fault-free run.
func TestChaosTokenRingProperty(t *testing.T) {
	const n, rounds = 8, 20
	_, wantFinals, wantSeqs := chaosRing(Config{Impl: V2, N: n}, rounds)

	for _, seed := range []uint64{1, 42, 20030817} {
		// Derive per-seed rates deterministically (splitmix-ish): every
		// seed exercises a different mix of loss, duplication and
		// reordering.
		x := (seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		u := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x>>11) / float64(1<<53)
		}
		// Partition a ring edge — only neighbours exchange frames, so
		// a random pair would rarely cut anything.
		pa := int(u() * n)
		pol := transport.ChaosPolicy{
			Seed:      seed,
			Drop:      0.005 + 0.02*u(),
			Duplicate: 0.02 * u(),
			Delay:     0.05 * u(),
			MaxDelay:  500 * time.Microsecond,
			Partitions: []transport.Partition{{
				A:     pa,
				B:     (pa + 1) % n,
				From:  time.Duration(5+10*u()) * time.Millisecond,
				Until: time.Duration(25+20*u()) * time.Millisecond,
			}},
		}
		faults := dispatcher.RandomFaults(seed, 8, 150*time.Millisecond, ranks(n))

		res, finals, seqs := chaosRing(Config{
			Impl: V2, N: n,
			Chaos:          pol,
			Faults:         faults,
			DetectionDelay: 2 * time.Millisecond,
			Trace:          true,
		}, rounds)

		if res.Chaos.Dropped+res.Chaos.Partitioned == 0 {
			t.Errorf("seed %d: chaos injected nothing (dropped=%d partitioned=%d)",
				seed, res.Chaos.Dropped, res.Chaos.Partitioned)
		}
		for r := 0; r < n; r++ {
			if finals[r] != wantFinals[r] {
				t.Errorf("seed %d: rank %d final token = %d, want %d (kills=%d)",
					seed, r, finals[r], wantFinals[r], res.Kills)
			}
			if len(seqs[r]) != len(wantSeqs[r]) {
				t.Errorf("seed %d: rank %d saw %d tokens, want %d", seed, r, len(seqs[r]), len(wantSeqs[r]))
				continue
			}
			for i := range seqs[r] {
				if seqs[r][i] != wantSeqs[r][i] {
					t.Errorf("seed %d: rank %d delivery %d = %d, want %d", seed, r, i, seqs[r][i], wantSeqs[r][i])
					break
				}
			}
		}
		if hb := AuditTrace(res); !hb.OK() {
			t.Errorf("seed %d: %s", seed, hb.Summary())
		}
		t.Logf("seed %d: kills=%d dropped=%d dup=%d delayed=%d part=%d retrans=%d pulls=%d",
			seed, res.Kills, res.Chaos.Dropped, res.Chaos.Duplicated, res.Chaos.Delayed,
			res.Chaos.Partitioned, res.Daemon.Retransmits, res.Daemon.Pulls)
	}
}

// TestLostRestartAnnouncementIsPulled: the respawned rank is cut off
// from every peer rank for 3 ms from its respawn, so the one RESTART1 it
// sends each peer is lost, and nothing waits for a RESTART2. The
// starvation pull re-announces its horizon, and the run converges to the
// fault-free delivery sequences.
func TestLostRestartAnnouncementIsPulled(t *testing.T) {
	const (
		n, rounds, victim = 4, 15, 2
		kill, detect      = 5 * time.Millisecond, 2 * time.Millisecond
	)
	_, wantFinals, wantSeqs := chaosRing(Config{Impl: V2, N: n}, rounds)
	var cuts []transport.Partition
	for q := 0; q < n; q++ {
		if q != victim {
			cuts = append(cuts, transport.Partition{A: victim, B: q,
				From: kill + detect, Until: kill + detect + 3*time.Millisecond})
		}
	}
	res, finals, seqs := chaosRing(Config{
		Impl: V2, N: n,
		DetectionDelay: detect,
		Chaos:          transport.ChaosPolicy{Partitions: cuts},
		Faults:         []dispatcher.Fault{{Time: kill, Rank: victim}},
		Trace:          true,
	}, rounds)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if res.Chaos.Partitioned != n-1 {
		t.Errorf("%d frames cut, want the %d announcements", res.Chaos.Partitioned, n-1)
	}
	if res.Daemon.Pulls == 0 {
		t.Error("no pull re-announced the lost horizon")
	}
	for r := 0; r < n; r++ {
		if finals[r] != wantFinals[r] || !slices.Equal(seqs[r], wantSeqs[r]) {
			t.Errorf("rank %d: final %d, deliveries %v; want %d, %v", r, finals[r], seqs[r], wantFinals[r], wantSeqs[r])
		}
	}
	if rep := Audit(res); !rep.OK() {
		t.Errorf("%s", rep.Summary())
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
	t.Logf("elapsed=%v cut=%d pulls=%d", res.Elapsed, res.Chaos.Partitioned, res.Daemon.Pulls)
}

func TestChaosRunsAreDeterministic(t *testing.T) {
	cfg := Config{
		Impl: V2, N: 4,
		Chaos:          transport.ChaosPolicy{Seed: 5, Drop: 0.02, Duplicate: 0.01, Delay: 0.05},
		Faults:         []dispatcher.Fault{{Time: 5 * time.Millisecond, Rank: 2}},
		DetectionDelay: 2 * time.Millisecond,
	}
	r1, f1, _ := chaosRing(cfg, 15)
	r2, f2, _ := chaosRing(cfg, 15)
	if r1.Elapsed != r2.Elapsed || f1[0] != f2[0] || r1.Chaos.Dropped != r2.Chaos.Dropped {
		t.Errorf("same seed diverged: (%v,%d,%d) vs (%v,%d,%d)",
			r1.Elapsed, f1[0], r1.Chaos.Dropped, r2.Elapsed, f2[0], r2.Chaos.Dropped)
	}
}

func TestChaosCrashDuringCheckpoint(t *testing.T) {
	// Kills land while checkpoint images are in flight on a lossy
	// fabric: save retransmission, the checkpoint store's monotonicity
	// guard, and restart from a partially acknowledged history must all
	// compose.
	const n, iters = 4, 50
	finals := make([]float64, n)
	var faults []dispatcher.Fault
	for i := 0; i < 4; i++ {
		faults = append(faults, dispatcher.Fault{
			Time: time.Duration(9+8*i) * time.Millisecond,
			Rank: i % n,
		})
	}
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		SchedPeriod:    time.Millisecond, // checkpoint constantly
		DetectionDelay: 3 * time.Millisecond,
		Chaos:          transport.ChaosPolicy{Seed: 11, Drop: 0.01, Delay: 0.03, MaxDelay: 300 * time.Microsecond},
		Faults:         faults,
		Trace:          true,
	}, ckptProgram(iters, finals))
	if res.Restarts != len(faults) {
		t.Fatalf("restarts = %d, want %d", res.Restarts, len(faults))
	}
	if res.CS.Saves == 0 {
		t.Error("no checkpoints survived the chaos")
	}
	want := ckptExpect(n, iters)
	for r, v := range finals {
		if v != want {
			t.Errorf("rank %d acc = %v, want %v", r, v, want)
		}
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
}

func TestChaosCrashDuringReplay(t *testing.T) {
	// The second fault lands while the rank is replaying from its first
	// crash, and the fabric is dropping frames throughout — including,
	// possibly, the RESTART messages themselves, which the recovery
	// retry machinery must re-send.
	const n, rounds = 4, 30
	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		DetectionDelay: 2 * time.Millisecond,
		Chaos:          transport.ChaosPolicy{Seed: 3, Drop: 0.02, Duplicate: 0.01},
		Faults: []dispatcher.Fault{
			{Time: 5 * time.Millisecond, Rank: 2},
			{Time: 9 * time.Millisecond, Rank: 2}, // during recovery/replay
		},
		Trace: true,
	}, ringProgram(rounds, finals))
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
}

func TestEventLoggerRespawn(t *testing.T) {
	// A transient event-logger crash: the dispatcher respawns the
	// logger, which replays its disk, daemons retransmit their batches
	// into the outage, and a later compute-node crash must still be
	// able to fetch its full event history.
	const n, rounds = 4, 30
	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		DetectionDelay: 2 * time.Millisecond,
		// The EL outage stalls the ring on one rank's unacknowledged
		// event; the compute kill targets a different rank so the
		// retransmit stays visible in the (last-incarnation) stats.
		Faults: []dispatcher.Fault{
			{Time: 3 * time.Millisecond, Rank: ELNode},
			{Time: 12 * time.Millisecond, Rank: 3},
		},
		Trace: true,
	}, ringProgram(rounds, finals))
	if res.ServiceKills != 1 || res.ServiceRestarts != 1 {
		t.Fatalf("service kills/restarts = %d/%d, want 1/1", res.ServiceKills, res.ServiceRestarts)
	}
	if res.Restarts != 1 {
		t.Fatalf("compute restarts = %d, want 1", res.Restarts)
	}
	if res.Daemon.Retransmits == 0 {
		t.Error("no retransmissions were needed to bridge the outage")
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
}

func TestCheckpointServerRespawn(t *testing.T) {
	// Same for the lone checkpoint server: it dies right after rank 0's
	// first checkpoint, saves retransmit into the outage, and rank 0 then
	// dies before its next checkpoint. Its only image is the one the
	// killed server stored, so the restart must find it on the respawned
	// server's disk and resume from it, not from the beginning.
	const n, iters = 4, 50
	const csKill, rankKill = 10 * time.Millisecond, 25 * time.Millisecond
	finals := make([]float64, n)
	prog := ckptProgram(iters, finals)
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		SchedPeriod:    2 * time.Millisecond,
		DetectionDelay: 3 * time.Millisecond,
		Faults: []dispatcher.Fault{
			{Time: csKill, Rank: CSNode},
			{Time: rankKill, Rank: 0},
		},
		Trace: true,
	}, func(p *mpi.Proc) {
		if blob, restarted := p.Restarted(); restarted && blob == nil {
			// The peers have reclaimed the messages the image covers, so
			// a restart from the beginning would wait for them forever.
			panic(fmt.Sprintf("rank %d restarted without its checkpoint image", p.Rank()))
		}
		prog(p)
	})
	if res.ServiceKills != 1 || res.ServiceRestarts != 1 || res.Restarts != 1 {
		t.Fatalf("service kills/restarts = %d/%d, compute restarts = %d, want 1/1, 1",
			res.ServiceKills, res.ServiceRestarts, res.Restarts)
	}
	var before, during int
	for _, ev := range res.Trace.Evs {
		if ev.Kind == trace.EvCkptDurable && ev.Rank == 0 {
			switch {
			case time.Duration(ev.T) < csKill:
				before++
			case time.Duration(ev.T) < rankKill:
				during++
			}
		}
	}
	if before == 0 || during != 0 {
		t.Fatalf("rank 0 checkpointed %d times before the server kill and %d times between the kills, want >0 and 0",
			before, during)
	}
	want := ckptExpect(n, iters)
	for r, v := range finals {
		if v != want {
			t.Errorf("rank %d acc = %v, want %v", r, v, want)
		}
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
}

// TestChaosBTAcceptance is the integration acceptance scenario: a BT.A
// run with continuous checkpointing on a fabric dropping over 1% of
// frames, during which the event logger of half the ranks is killed and
// a compute node is killed twice — the second time mid-replay. The run
// must complete with verified numerics and the same per-process
// delivery sequence as the fault-free run.
func TestChaosBTAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("BT chaos acceptance is slow in short mode")
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

	clean, cleanRes := run(Config{Impl: V2, N: n})

	faulty, res := run(Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		SchedPeriod:    5 * time.Millisecond,
		EventLoggers:   2,
		DetectionDelay: 3 * time.Millisecond,
		Chaos: transport.ChaosPolicy{
			Seed:      2003,
			Drop:      0.015,
			Duplicate: 0.005,
			Delay:     0.02,
			MaxDelay:  300 * time.Microsecond,
		},
		Faults: []dispatcher.Fault{
			{Time: 60 * time.Millisecond, Rank: ELBase},
			{Time: 100 * time.Millisecond, Rank: 2},
			{Time: 106 * time.Millisecond, Rank: 2}, // lands mid-replay
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
	if res.ServiceKills != 1 {
		t.Errorf("service kills = %d, want 1 (the event logger)", res.ServiceKills)
	}
	if res.Kills < 2 {
		t.Errorf("compute kills = %d, want ≥ 2", res.Kills)
	}
	attempted := res.NetMessages + res.Chaos.Dropped
	if res.Chaos.Dropped*100 < attempted {
		t.Errorf("dropped %d of %d frames, want ≥ 1%%", res.Chaos.Dropped, attempted)
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	} else if hb.Incomplete {
		t.Error("trace wrapped; raise TraceCap so the audit is total")
	}

	// Delivery sequences: BT's receives are directed, so each channel
	// (sender → receiver) delivers the same gap-free sequence of
	// messages in every run — chaos must not lose, duplicate or
	// reorder any of them (the identical verified numerics confirm
	// their payloads). The interleaving ACROSS senders is the genuine
	// reception nondeterminism the event logger exists to capture, and
	// legitimately differs between two independent runs, so the
	// comparison projects per channel. (The app-level interleaving
	// check lives in TestChaosTokenRingProperty, where the program
	// records what it saw.)
	compareChannels(t, n, cleanRes.Deliveries, res.Deliveries)
}

// compareChannels checks that each sender→receiver channel logged the
// same number of deliveries in both runs. Channel sequences are
// gap-free, so equal counts mean equal per-channel delivery sequences.
// Events of the last few deliveries may still be in flight when a run
// ends, hence the small tail allowance.
func compareChannels(t *testing.T, n int, want, got [][]core.Event) {
	t.Helper()
	count := func(evs []core.Event) map[int]int {
		m := make(map[int]int)
		for _, ev := range evs {
			m[ev.Sender]++
		}
		return m
	}
	for r := 0; r < n; r++ {
		a, b := count(want[r]), count(got[r])
		for s := 0; s < n; s++ {
			if d := a[s] - b[s]; d > 4 || d < -4 {
				t.Errorf("channel %d→%d delivered %d messages, fault-free delivered %d", s, r, b[s], a[s])
			}
		}
	}
}

// TestChaosCSReplicaKilledMidChunkedTransfer kills a quorum checkpoint
// replica while chunked delta images are streaming to it on a lossy
// fabric. The replica respawns EMPTY: any per-chunk acks the daemons
// still hold for it are phantom, so completion must ride only on full
// save acks — the write quorum may never count a replica that holds
// nothing. A later compute kill then restarts through the manifest
// fetch against the healed group.
func TestChaosCSReplicaKilledMidChunkedTransfer(t *testing.T) {
	const n, iters = 4, 50
	finals := make([]float64, n)
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		ELReplicas:     3, // implies CSReplicas=3, quorum 2
		SchedPeriod:    time.Millisecond,
		CkptChunk:      64, // force multi-chunk transfers
		DetectionDelay: 3 * time.Millisecond,
		Chaos:          transport.ChaosPolicy{Seed: 17, Drop: 0.01, Delay: 0.02, MaxDelay: 200 * time.Microsecond},
		Faults: []dispatcher.Fault{
			{Time: 10 * time.Millisecond, Rank: CSBase + 1},
			{Time: 30 * time.Millisecond, Rank: 2},
		},
		Trace: true,
	}, ckptProgram(iters, finals))

	if res.ServiceKills != 1 || res.ServiceRestarts != 1 {
		t.Fatalf("service kills/restarts = %d/%d, want 1/1", res.ServiceKills, res.ServiceRestarts)
	}
	if res.Restarts != 1 {
		t.Fatalf("compute restarts = %d, want 1", res.Restarts)
	}
	want := ckptExpect(n, iters)
	for r, v := range finals {
		if v != want {
			t.Errorf("rank %d acc = %v, want %v", r, v, want)
		}
	}
	if res.CS.Saves == 0 {
		t.Error("no checkpoints stored")
	}
	if res.Daemon.DeltaCkpts == 0 {
		t.Error("steady-state checkpointing never shipped a delta")
	}
	if res.Daemon.ManifestFetches == 0 {
		t.Error("restart gathered no image manifest")
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
	t.Logf("saves=%d deltas=%d shipped=%dB retrans=%d manifests=%d compactions=%d breaks=%d resyncs=%d",
		res.CS.Saves, res.Daemon.DeltaCkpts, res.Daemon.CkptBytes, res.Daemon.ChunkRetransmits,
		res.Daemon.ManifestFetches, res.CS.ChainCompactions, res.CS.ChainBreaks, res.EL.Resyncs+res.CS.Resyncs)
}

// TestChaosBrokenDeltaChainFallsBackToFullImage engineers a broken
// delta chain: a checkpoint replica respawns empty into a stream of
// deltas whose bases it never saw. The store must refuse to ack those
// (ChainBreak, no phantom durability), heal through anti-entropy, and
// a compute restart afterwards must still recover from the last
// materialized full image — the chain is a shipping optimisation, never
// the durability unit.
func TestChaosBrokenDeltaChainFallsBackToFullImage(t *testing.T) {
	const n, iters = 4, 60
	finals := make([]float64, n)
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		ELReplicas:     3,
		SchedPeriod:    time.Millisecond, // constant deltas in flight
		CkptChunk:      48,
		DetectionDelay: 2 * time.Millisecond,
		Chaos:          transport.ChaosPolicy{Seed: 23, Drop: 0.02, Delay: 0.03, MaxDelay: 400 * time.Microsecond},
		Faults: []dispatcher.Fault{
			{Time: 8 * time.Millisecond, Rank: CSBase + 2},
			{Time: 14 * time.Millisecond, Rank: CSBase},
			{Time: 28 * time.Millisecond, Rank: 1},
		},
		Trace: true,
	}, ckptProgram(iters, finals))

	if res.ServiceKills != 2 || res.ServiceRestarts != 2 {
		t.Fatalf("service kills/restarts = %d/%d, want 2/2", res.ServiceKills, res.ServiceRestarts)
	}
	if res.Restarts != 1 {
		t.Fatalf("compute restarts = %d, want 1", res.Restarts)
	}
	want := ckptExpect(n, iters)
	for r, v := range finals {
		if v != want {
			t.Errorf("rank %d acc = %v, want %v", r, v, want)
		}
	}
	if res.Daemon.DeltaCkpts == 0 {
		t.Error("no deltas were in flight; the chain-break path went unexercised")
	}
	if res.CS.ChainBreaks == 0 {
		t.Error("no replica ever saw a delta without its base; the fallback went unexercised")
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
	t.Logf("deltas=%d breaks=%d compactions=%d resyncs=%d synced=%d saves=%d",
		res.Daemon.DeltaCkpts, res.CS.ChainBreaks, res.CS.ChainCompactions,
		res.EL.Resyncs+res.CS.Resyncs, res.EL.SyncedIn+res.CS.SyncedIn, res.CS.Saves)
}

func TestLoneLoggerRestartFetchOutlastsOutage(t *testing.T) {
	// A rank dies together with the only event logger it knows, and the
	// logger stays down far longer than the bounded retries of a restart
	// fetch. The fetch of a group of one must never settle for an empty
	// reply set — that would replay nothing and orphan every process the
	// rank had sent to — but keep asking until the dispatcher has
	// respawned the logger and it has replayed its disk, then replay.
	const n, rounds = 4, 25
	clean := make([]uint64, n)
	Run(Config{Impl: V2, N: n}, ringProgram(rounds, clean))

	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		DetectionDelay:    2 * time.Millisecond,
		ShardRespawnDelay: 5 * time.Second, // seven doubling fetch rounds take ~2.4 s
		Faults: []dispatcher.Fault{
			{Time: 5 * time.Millisecond, Rank: ELNode},
			{Time: 5 * time.Millisecond, Rank: 2},
		},
		Trace: true,
	}, ringProgram(rounds, finals))
	if res.ServiceRestarts != 1 || res.Restarts != 1 {
		t.Fatalf("service/compute restarts = %d/%d, want 1/1", res.ServiceRestarts, res.Restarts)
	}
	if res.Elapsed < 5*time.Second {
		t.Fatalf("run took %v: it did not wait out the logger outage", res.Elapsed)
	}
	if got := res.Daemons[2].Retransmits; got <= 7 {
		t.Errorf("restarted rank retransmitted %d requests, want more than the bounded rounds", got)
	}
	if got := res.Daemons[2].Replayed; got == 0 {
		t.Error("restarted rank replayed nothing")
	}
	if res.Daemon.DegradedReads != 0 || res.Daemon.ReplayDropped != 0 {
		t.Errorf("degraded reads = %d, replay dropped = %d, want 0/0", res.Daemon.DegradedReads, res.Daemon.ReplayDropped)
	}
	for r := range finals {
		if finals[r] != clean[r] {
			t.Errorf("rank %d final = %d, fault-free run = %d", r, finals[r], clean[r])
		}
	}
	if a := Audit(res); !a.OK() {
		t.Errorf("%s", a.Summary())
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
}
