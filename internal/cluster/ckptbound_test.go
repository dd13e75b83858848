package cluster

import (
	"encoding/binary"
	"testing"
	"time"

	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
	"mpichv/internal/trace"
	"mpichv/internal/wire"
)

// ckptRing is the token ring with checkpointable state and pad bytes
// behind the token, so every hop leaves a real payload in the sender's
// SAVED log.
func ckptRing(rounds, pad int, finals []uint64) Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		var round, token uint64
		p.SetStateProvider(func() []byte {
			buf := make([]byte, 16)
			binary.BigEndian.PutUint64(buf, round)
			binary.BigEndian.PutUint64(buf[8:], token)
			return buf
		})
		if blob, restarted := p.Restarted(); restarted && blob != nil {
			round = binary.BigEndian.Uint64(blob)
			token = binary.BigEndian.Uint64(blob[8:])
		}
		buf := make([]byte, 8+pad)
		for ; round < uint64(rounds); round++ {
			p.CheckpointPoint()
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
		}
		finals[p.Rank()] = token
	}
}

// lopsided checkpoints rank 3 half as often as the others: between two
// of its checkpoints rank 2 takes two, so what rank 3 would need re-sent
// after a crash reaches back into the *base* of rank 2's latest delta —
// the entries materialization has to keep, next to the ones it drops.
type lopsided struct{ pos int }

func (l *lopsided) Name() string { return "lopsided" }

func (l *lopsided) Next([]wire.NodeStatus) int {
	order := [...]int{0, 1, 2, 3, 0, 1, 2}
	l.pos++
	return order[(l.pos-1)%len(order)]
}

// TestLongRunImagesStayFlatAndRestoreLate runs the checkpoint rotation
// ten times longer than any other checkpointing scenario here (600
// rounds against 60 iterations).
//
// The bound: stored images hold what the senders retain, so they do not
// grow with the run. Result reports totals, and the simulator is
// deterministic — a shorter run is a prefix of a longer one — so the
// mean stored image of a quarter is the difference of two runs' totals.
//
// The restore: rank 2 is crashed late, just after its second checkpoint
// since rank 3's last became durable, so it restarts from an image
// materialized from a chain of dozens of deltas, each of which dropped
// collected entries. Rank 3 is crashed with it, before the rotation
// reaches it again: its last checkpoint is the one whose note set rank
// 2's horizon, so it must be re-sent, out of the restored SAVED log,
// exactly the entries above that horizon — some of which the image
// inherited from its base. Had materialization dropped one entry too
// many, rank 3 would wait forever.
func TestLongRunImagesStayFlatAndRestoreLate(t *testing.T) {
	const n, rounds, pad = 4, 600, 1 << 10
	cfg := Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		CSReplicas:     2,
		SchedPeriod:    5 * time.Millisecond,
		DetectionDelay: 3 * time.Millisecond,
		Trace:          true,
		TraceCap:       1 << 18,
	}
	run := func(cfg Config, rounds int) (Result, []uint64) {
		finals := make([]uint64, n)
		cfg.Policy = &lopsided{}
		return Run(cfg, ckptRing(rounds, pad, finals)), finals
	}
	q1, _ := run(cfg, rounds/4)
	q3, _ := run(cfg, 3*rounds/4)
	clean, want := run(cfg, rounds)
	first := q1.CS.SavedBytes / q1.CS.Saves
	last := (clean.CS.SavedBytes - q3.CS.SavedBytes) / (clean.CS.Saves - q3.CS.Saves)
	if clean.CS.Saves-q3.CS.Saves < 20 {
		t.Fatalf("only %d checkpoints in the last quarter; the rotation is too slow to show anything", clean.CS.Saves-q3.CS.Saves)
	}
	if last*100 > first*115 {
		t.Errorf("mean stored image grew from %d bytes in the first quarter to %d in the last", first, last)
	}
	if clean.CS.ChainCompactions == 0 {
		t.Error("no chain was ever compacted; the run never exercised delta materialization")
	}

	// The faulty run is the clean run up to the first fault, so the
	// clean trace tells when each checkpoint became durable.
	var late time.Duration
	since3 := 0 // rank 2's checkpoints since rank 3's last
	for _, ev := range clean.Trace.Evs {
		if ev.Kind != trace.EvCkptDurable || ev.T > clean.Elapsed*85/100 {
			continue
		}
		switch ev.Rank {
		case 3:
			since3 = 0
		case 2:
			if since3++; since3 == 2 {
				late = ev.T + time.Millisecond
			}
		}
	}
	if late < clean.Elapsed/2 {
		t.Fatalf("rank 2's last checkpoint before 85%% of the run is at %v of %v: not a late crash", late, clean.Elapsed)
	}
	cfg.Faults = []dispatcher.Fault{
		{Time: late, Rank: 2},
		{Time: late + 500*time.Microsecond, Rank: 3},
	}
	res, got := run(cfg, rounds)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d ended on token %d, the fault-free run on %d", r, got[r], want[r])
		}
	}
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	if res.Daemons[2].Resent == 0 {
		t.Error("the restored rank re-sent nothing: its neighbour's restart never drew on the restored SAVED log")
	}
	if rep := Audit(res); !rep.OK() {
		t.Errorf("%s", rep.Summary())
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	} else if hb.Incomplete {
		t.Error("trace wrapped; raise TraceCap so the audit is total")
	}
	t.Logf("mean stored image: first quarter %d B, last quarter %d B; %d saves, %d compactions; rank 2 re-sent %d from its restored log",
		first, last, clean.CS.Saves, clean.CS.ChainCompactions, res.Daemons[2].Resent)
}
