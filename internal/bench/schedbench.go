package bench

import (
	"fmt"
	"io"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/mpi"
	"mpichv/internal/sched"
)

// SchedPolicies regenerates the §4.6.2 comparison: round-robin versus
// adaptive checkpoint scheduling over the four classical communication
// schemes, measured as mean checkpoint traffic and mean log occupancy.
// The paper: "the adaptive algorithm never provides a worse scheduling
// (w.r.t. bandwidth utilization) and often provides better scheduling
// (up to n times better ... for asynchronous broadcast)".
func SchedPolicies(w io.Writer, quick bool) error {
	n, ticks, period := 16, 4000, 25
	if quick {
		n, ticks = 8, 1000
	}
	t := newTable(w)
	t.row("scheme", "policy", "mean ckpt traffic", "mean log occupancy", "peak")
	results := sched.ComparePolicies(n, ticks, period)
	for _, r := range results {
		t.row(r.Scheme, r.Policy, fmt.Sprintf("%.0f", r.MeanCkptBytes),
			fmt.Sprintf("%.0f", r.MeanLogBytes), fmt.Sprintf("%.0f", r.PeakLogBytes))
	}
	t.flush()
	return nil
}

// Ablations prices the individual design choices of the V2 protocol:
//
//   - WAITLOGGED gating: the pessimistic barrier is what separates V2
//     from an optimistic logger; removing it recovers most of the
//     latency gap to P4 (and forfeits the replay guarantee).
//   - Payload routing: V1's Channel Memories versus V2's sender-based
//     direct path is the paper's headline bandwidth argument.
//   - Garbage collection: without checkpoint-driven GC, the sender logs
//     grow with the total traffic.
func Ablations(w io.Writer, quick bool) error {
	t := newTable(w)

	// 1. Send gating.
	lat := func(gating bool) time.Duration {
		var mean time.Duration
		cluster.Run(cluster.Config{Impl: cluster.V2, N: 2, NoSendGating: !gating}, func(p *mpi.Proc) {
			var t0 time.Duration
			for r := 0; r < 11; r++ {
				if p.Rank() == 0 {
					if r == 1 {
						t0 = p.Clock().Now()
					}
					p.Send(1, 7, nil)
					p.Recv(1, 8)
				} else {
					p.Recv(0, 7)
					p.Send(0, 8, nil)
				}
			}
			if p.Rank() == 0 {
				mean = (p.Clock().Now() - t0) / 10
			}
		})
		return mean / 2
	}
	withGate, withoutGate := lat(true), lat(false)
	t.row("ablation", "variant", "metric", "value")
	t.row("send-gating", "pessimistic (V2)", "one-way latency", withGate)
	t.row("send-gating", "no WAITLOGGED (optimistic-style)", "one-way latency", withoutGate)

	// 2. Payload routing (V1 channel memory vs V2 sender-based).
	ppV1 := PingPong(cluster.V1, 1<<20, 3)
	ppV2 := PingPong(cluster.V2, 1<<20, 3)
	t.row("payload-routing", "channel memory (V1)", "1MB bandwidth MB/s", fmt.Sprintf("%.2f", ppV1.MBperS))
	t.row("payload-routing", "sender-based (V2)", "1MB bandwidth MB/s", fmt.Sprintf("%.2f", ppV2.MBperS))

	// 3. Garbage collection: final log occupancy of a ring run with
	// and without checkpoint-driven GC.
	logBytes := func(ckpt bool) int64 {
		cfg := cluster.Config{Impl: cluster.V2, N: 4, Checkpointing: ckpt}
		if ckpt {
			cfg.SchedPeriod = 2 * time.Millisecond
		}
		res := cluster.Run(cfg, gcRingProgram(quick))
		return res.Daemon.SentBytes - res.Daemon.GCFreedBytes
	}
	t.row("garbage-collection", "off (no checkpoints)", "residual log bytes", logBytes(false))
	t.row("garbage-collection", "on (checkpoint-driven)", "residual log bytes", logBytes(true))

	// 4. Event batching: messages on the wire for an incast burst. An
	// unbounded EL window ships every event the moment it commits; a
	// window of one batches whatever arrives while a batch is in flight.
	msgs := func(window int) int64 {
		res := cluster.Run(cluster.Config{Impl: cluster.V2, N: 4, ELWindow: window}, incastProgram(30))
		return res.NetMessages
	}
	t.row("event-batching", "off (window 0: one frame per event)", "network messages", msgs(0))
	t.row("event-batching", "on (window 1: batch while in flight)", "network messages", msgs(1))
	t.flush()
	return nil
}

// incastProgram drains (size-1)×msgs messages on rank 0.
func incastProgram(msgs int) cluster.Program {
	return func(p *mpi.Proc) {
		if p.Rank() == 0 {
			for i := 0; i < (p.Size()-1)*msgs; i++ {
				p.Recv(mpi.AnySource, 1)
			}
		} else {
			for i := 0; i < msgs; i++ {
				p.Send(0, 1, []byte{byte(i)})
			}
		}
	}
}

func gcRingProgram(quick bool) cluster.Program {
	rounds := 150
	if quick {
		rounds = 30
	}
	return func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		buf := make([]byte, 4<<10)
		var state struct{ Round int }
		p.SetStateProvider(func() []byte { return []byte{byte(state.Round)} })
		for ; state.Round < rounds; state.Round++ {
			p.CheckpointPoint()
			p.Sendrecv(right, 1, buf, left, 1)
		}
	}
}
