package cluster

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
	"mpichv/internal/trace"
)

// asyncRing is vbench -exp fig10's workload: every rank circulates its
// own token at once — a non-blocking send to the right, a blocking
// receive from the left, then the send completion.
func asyncRing(size, rounds int) Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		right, left := (p.Rank()+1)%n, (p.Rank()-1+n)%n
		var token uint64
		for r := 0; r < rounds; r++ {
			buf := make([]byte, size)
			binary.BigEndian.PutUint64(buf, token+1)
			sr := p.Isend(right, 1, buf)
			b, _ := p.Recv(left, 1)
			token = binary.BigEndian.Uint64(b)
			p.Wait(sr)
		}
	}
}

// TestRestartPhaseShares prints where fig10's restart spends its time —
// image restored, RESTART1 sent, events merged, as shares of the restart
// — on fig10's ring (no checkpoints: the image phase is empty) and on the
// same ring checkpointing, and holds it to the loss-free fabric it runs
// on: no restart gather retransmits or settles below its read quorum, so
// no phase waits out a gather deadline (the shortest is the 25 ms fetch
// base less its 20 % jitter).
func TestRestartPhaseShares(t *testing.T) {
	const nodes, rounds, deadline = 8, 24, 20 * time.Millisecond
	for _, c := range []struct {
		size int
		ckpt bool
	}{{4 << 10, false}, {1 << 20, false}, {64 << 10, true}} {
		size := c.size
		prog := asyncRing(size, rounds)
		ref := Run(Config{Impl: V2, N: nodes, Checkpointing: c.ckpt, SchedPeriod: 20 * time.Millisecond}, prog)
		killT := ref.Elapsed * 95 / 100
		res := Run(Config{
			Impl: V2, N: nodes, Trace: true,
			Checkpointing: c.ckpt, SchedPeriod: 20 * time.Millisecond,
			Faults:         []dispatcher.Fault{{Time: killT, Rank: 0}},
			DetectionDelay: time.Millisecond,
		}, prog)
		if res.Restarts != 1 {
			t.Fatalf("size %d: %d restarts, want 1", size, res.Restarts)
		}
		names := []string{trace.PhaseImage: "image", trace.PhaseAnnounce: "announce", trace.PhaseEvents: "events"}
		var begin, last, total time.Duration
		var phases []time.Duration
		for _, ev := range res.Trace.Evs {
			if ev.Rank != 0 {
				continue
			}
			switch ev.Kind {
			case trace.EvRestartBegin:
				begin, last = ev.T, ev.T
			case trace.EvRestartPhase:
				if d := ev.T - last; d >= deadline {
					t.Errorf("size %d: phase %s took %v, a gather deadline's worth", size, names[ev.A], d)
				}
				phases = append(phases, ev.T-last)
				last = ev.T
			case trace.EvRestartEnd:
				total = ev.T - begin
			}
		}
		if len(phases) != 3 || total == 0 {
			t.Fatalf("size %d: phases %v over %v, want the three phases of one restart", size, phases, total)
		}
		shares := make([]string, len(phases))
		for i, d := range phases {
			shares[i] = fmt.Sprintf("%s %v (%.0f%%)", names[i+1], d, 100*float64(d)/float64(total))
		}
		t.Logf("size %d, checkpointing %v: restart %v: %s", size, c.ckpt, total, strings.Join(shares, ", "))
		if st := res.Daemons[0]; st.Retransmits != 0 || st.DegradedReads != 0 {
			t.Errorf("size %d: restarted rank: Retransmits=%d DegradedReads=%d, want 0 and 0", size, st.Retransmits, st.DegradedReads)
		}
	}
}
