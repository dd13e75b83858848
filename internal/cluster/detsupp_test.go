package cluster

import (
	"encoding/binary"
	"testing"
	"time"

	"mpichv/internal/daemon"
	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
	"mpichv/internal/transport"
)

// TestDetSuppressionRingFaultFree is the smoke property: a directed
// token ring is fully deterministic, so the adaptive classifier must
// keep nearly every determinant off the WAITLOGGED gate, piggyback them
// on payload frames, and still leave the event log gap-free once the
// epoch batches drain.
func TestDetSuppressionRingFaultFree(t *testing.T) {
	const n, rounds = 6, 20
	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		DetMode: daemon.DetAdaptive,
		Trace:   true,
	}, ringProgram(rounds, finals))

	if finals[0] != ringExpect(n, rounds) {
		t.Fatalf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
	if res.Daemon.DetSuppressed == 0 {
		t.Fatal("adaptive mode suppressed nothing on a deterministic ring")
	}
	if res.Daemon.DetForced > res.Daemon.DetSuppressed/4 {
		t.Errorf("forced %d determinants vs %d suppressed; the ring should be almost entirely suppressible",
			res.Daemon.DetForced, res.Daemon.DetSuppressed)
	}
	if res.Daemon.DetPiggybacked == 0 {
		t.Error("no determinants rode outgoing payload frames")
	}
	if rep := Audit(res); !rep.OK() {
		t.Errorf("%s", rep.Summary())
	}
	hb := AuditTrace(res)
	if !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
	if hb.Suppressed == 0 {
		t.Error("trace recorded no suppressed deliveries")
	}
	t.Logf("suppressed=%d forced=%d piggybacked=%d relayed=%d epochs logged=%d",
		res.Daemon.DetSuppressed, res.Daemon.DetForced, res.Daemon.DetPiggybacked, res.Daemon.DetRelayed, res.EL.Logged)
}

// competingThenPingPong builds the canonical nondeterministic prologue:
// ranks 1 and 2 both fire payloads at rank 0 while rank 0 is busy
// computing, so by the time rank 0's daemon pops the first arrival
// (rank 1's — it was sent first) the other sender's message is provably
// sitting arrived-undelivered: a competing candidate the delivery order
// chose against. The prologue repeats reps times, then ranks 0 and 1
// ping-pong for rounds turns of purely deterministic traffic on the
// now-suspect channel.
func competingThenPingPong(reps, rounds int) Program {
	return func(p *mpi.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < reps; i++ {
			switch p.Rank() {
			case 1:
				p.Send(0, 5, buf)
				p.Recv(0, 9)
			case 2:
				// Arrive strictly after rank 1 but well inside rank 0's
				// compute window.
				p.ComputeTime(200 * time.Microsecond)
				p.Send(0, 5, buf)
				p.Recv(0, 9)
			case 0:
				// Let both payloads queue up in the daemon before the
				// first reception commits.
				p.ComputeTime(2 * time.Millisecond)
				p.Recv(1, 5) // rank 2's payload is arrived-undelivered: competing ≥ 1
				p.Recv(2, 5)
				p.Send(1, 9, buf) // acks keep the reps in lockstep
				p.Send(2, 9, buf)
			}
		}
		var token uint64
		for r := 0; r < rounds; r++ {
			switch p.Rank() {
			case 0:
				binary.BigEndian.PutUint64(buf, token+1)
				p.Send(1, 7, buf)
				b, _ := p.Recv(1, 8)
				token = binary.BigEndian.Uint64(b)
			case 1:
				b, _ := p.Recv(0, 7)
				token = binary.BigEndian.Uint64(b) + 1
				binary.BigEndian.PutUint64(buf, token)
				p.Send(0, 8, buf)
			}
		}
	}
}

// TestDetPoisonIsPermanent checks that once a channel has ever shown a
// competing arrival, the adaptive classifier must latch it back to pessimistic
// logging for good — the deterministic ping-pong that follows the
// nondeterministic prologue still logs every determinant on the gate.
func TestDetPoisonIsPermanent(t *testing.T) {
	const reps, rounds = 2, 25
	res := Run(Config{
		Impl: V2, N: 3,
		DetMode: daemon.DetAdaptive,
		Trace:   true,
	}, competingThenPingPong(reps, rounds))

	if res.Daemon.DetPoisoned == 0 {
		t.Fatal("the competing prologue never poisoned a channel")
	}
	// Every post-prologue delivery from rank 1 at rank 0 rides the
	// poisoned channel and must be forced.
	if res.Daemon.DetForced < rounds {
		t.Errorf("forced %d determinants, want ≥ %d: poisoned channel resumed suppressing", res.Daemon.DetForced, rounds)
	}
	if rep := Audit(res); !rep.OK() {
		t.Errorf("%s", rep.Summary())
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}

	// Control: without the prologue the same ping-pong poisons nothing
	// and suppresses freely.
	ctl := Run(Config{
		Impl: V2, N: 3,
		DetMode: daemon.DetAdaptive,
		Trace:   true,
	}, competingThenPingPong(0, rounds))
	if ctl.Daemon.DetPoisoned != 0 {
		t.Errorf("control run poisoned %d channels on purely directed traffic", ctl.Daemon.DetPoisoned)
	}
	if ctl.Daemon.DetSuppressed == 0 {
		t.Error("control run suppressed nothing")
	}
	t.Logf("poisoned=%d forced=%d suppressed=%d (control: forced=%d suppressed=%d)",
		res.Daemon.DetPoisoned, res.Daemon.DetForced, res.Daemon.DetSuppressed, ctl.Daemon.DetForced, ctl.Daemon.DetSuppressed)
}

// TestDetMisclassificationConvictedByAuditor is the negative safety
// test: the deliberately unsound aggressive classifier suppresses the
// determinant of a delivery with a competing arrival, and the
// happens-before auditor must convict it. The same workload under the
// adaptive classifier audits clean — the conviction is about the
// classifier, not the workload.
func TestDetMisclassificationConvictedByAuditor(t *testing.T) {
	const reps, rounds = 3, 5
	res := Run(Config{
		Impl: V2, N: 3,
		DetMode: daemon.DetAggressive,
		Trace:   true,
	}, competingThenPingPong(reps, rounds))

	hb := AuditTrace(res)
	if hb.OK() {
		t.Fatal("auditor passed a trace where nondeterministic deliveries were suppressed")
	}
	if len(hb.SuppressionViolations) == 0 {
		t.Fatalf("auditor failed for the wrong reason: %s", hb.Summary())
	}
	t.Logf("auditor convicted: %s", hb.SuppressionViolations[0])

	clean := Run(Config{
		Impl: V2, N: 3,
		DetMode: daemon.DetAdaptive,
		Trace:   true,
	}, competingThenPingPong(reps, rounds))
	if hb := AuditTrace(clean); !hb.OK() {
		t.Errorf("adaptive classifier on the same workload audits dirty: %s", hb.Summary())
	}
}

// TestDetSuppressionSeededChaosReplaysIdentically reruns the no-orphans
// chaos property with suppression on: 20 seeded schedules of node kills
// (compute and EL replicas alike) plus frame drop/duplication/
// truncation over a quorum-replicated (R=3, Q=2) system. Restarted
// ranks replay through suppressed determinants — regenerating the
// deterministic receives the EL never saw — and every run must still
// produce the fault-free token sequence on every rank, with a gap-free
// audited log and a green happens-before report.
func TestDetSuppressionSeededChaosReplaysIdentically(t *testing.T) {
	const n, rounds = 6, 12
	_, wantFinals, wantSeqs := chaosRing(Config{Impl: V2, N: n, DetMode: daemon.DetAdaptive}, rounds)

	targets := append(ranks(n), ELBase, ELBase+1, ELBase+2)
	var totalSuppressed, totalRegenerated, totalRestarts int64
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

		cfg := Config{
			Impl: V2, N: n,
			ELReplicas:     3,
			DetMode:        daemon.DetAdaptive,
			Chaos:          pol,
			Faults:         faults,
			DetectionDelay: 2 * time.Millisecond,
			Trace:          true,
		}
		// Alternate the EL window so suppression composes with both the
		// unbounded window and pipelined batching.
		if seed%2 == 0 {
			cfg.ELWindow = 8
		}
		res, finals, seqs := chaosRing(cfg, rounds)

		for r := 0; r < n; r++ {
			if finals[r] != wantFinals[r] {
				t.Errorf("seed %d: rank %d final = %d, want %d (kills=%d/%d)",
					seed, r, finals[r], wantFinals[r], res.Kills, res.ServiceKills)
			}
			if len(seqs[r]) != len(wantSeqs[r]) {
				t.Errorf("seed %d: rank %d saw %d tokens, want %d", seed, r, len(seqs[r]), len(wantSeqs[r]))
				continue
			}
			for i := range seqs[r] {
				if seqs[r][i] != wantSeqs[r][i] {
					t.Errorf("seed %d: rank %d delivery %d = %d, want %d (replay after suppression diverged)",
						seed, r, i, seqs[r][i], wantSeqs[r][i])
					break
				}
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
		totalSuppressed += res.Daemon.DetSuppressed
		totalRegenerated += res.Daemon.DetRegenerated
		totalRestarts += int64(res.Restarts)
		t.Logf("seed %d: kills=%d svc=%d suppressed=%d forced=%d regen=%d merged=%d",
			seed, res.Kills, res.ServiceKills, res.Daemon.DetSuppressed, res.Daemon.DetForced,
			res.Daemon.DetRegenerated, res.Daemon.ReplayDropped)
	}
	if totalSuppressed == 0 {
		t.Error("no seed ever suppressed a determinant; the property went unexercised")
	}
	if totalRestarts == 0 {
		t.Error("no seed ever restarted a rank; replay-after-suppression went unexercised")
	}
	t.Logf("totals: suppressed=%d regenerated=%d restarts=%d", totalSuppressed, totalRegenerated, totalRestarts)
}
