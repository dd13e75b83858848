package bench

import (
	"fmt"
	"io"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/mpi"
	"mpichv/internal/transport"
)

// Ckpt experiment: the checkpoint data path, swept over SAVED-log size,
// chunk size, delta shipping and link quality. The workload is the
// steady-state the delta encoding was built for: rank 0 accumulates a
// sender-side payload log in a warm-up burst, then checkpoints
// frequently while its receiver checkpoints rarely — so the log is
// large, mostly stable, and un-GC'd. A full image re-ships that backlog
// on every checkpoint; a delta ships only the handful of entries
// appended since the last acked one. Chunk size prices the transfer
// under loss: only the missing chunks are re-sent.

// CkptPoint is one (log size, chunk, delta, drop) point of the sweep.
type CkptPoint struct {
	LogKB        int     // steady-state SAVED-log size on the sender
	Chunk        int     // chunk size in bytes; 0 = default
	Delta        bool    // delta SAVED-log shipping enabled
	Drop         float64 // frame drop probability
	Ckpts        int64   // checkpoints completed by the daemons
	Shipped      int64   // bytes the daemons pushed for those checkpoints
	BytesPerCkpt int64
	Reduction    float64 // bytes/ckpt vs delta-off at same geometry
	DeltaCkpts   int64   // checkpoints that went out as deltas
	Retrans      int64   // chunk retransmissions
	Elapsed      time.Duration
}

const (
	ckptWarmMsg  = 512 // warm-up message size: the log the base image carries
	ckptSteadyMs = 32  // steady-state message size: what each delta carries
)

// ckptBenchRun measures one point. Two ranks: rank 0 builds its SAVED
// log with warm-up sends, then runs paced request/reply rounds with a
// checkpoint safe point every round; rank 1 reaches a safe point only
// once near the end, so its KCkptNote horizon never garbage-collects
// the warm-up backlog out of rank 0's snapshots mid-sweep.
func ckptBenchRun(logBytes, chunk int, delta bool, drop float64, rounds int) CkptPoint {
	warm := logBytes / ckptWarmMsg
	pol := transport.ChaosPolicy{}
	if drop > 0 {
		pol = transport.ChaosPolicy{Seed: 41, Drop: drop}
	}
	res := cluster.Run(cluster.Config{
		Impl: cluster.V2, N: 2,
		Checkpointing: true,
		SchedPeriod:   500 * time.Microsecond,
		CkptChunk:     chunk,
		CkptNoDelta:   !delta,
		Chaos:         pol,
	}, func(p *mpi.Proc) {
		state := make([]byte, 64)
		p.SetStateProvider(func() []byte { return state })
		small := make([]byte, ckptSteadyMs)
		if p.Rank() == 0 {
			buf := make([]byte, ckptWarmMsg)
			for i := 0; i < warm; i++ {
				p.Send(1, 1, buf)
			}
			for r := 0; r < rounds; r++ {
				p.CheckpointPoint()
				p.ComputeTime(300 * time.Microsecond)
				p.Send(1, 2, small)
				p.Recv(1, 3)
			}
		} else {
			for i := 0; i < warm; i++ {
				p.Recv(0, 1)
			}
			for r := 0; r < rounds; r++ {
				if r == rounds-1 {
					p.CheckpointPoint()
				}
				p.Recv(0, 2)
				p.Send(0, 3, small)
			}
		}
	})
	pt := CkptPoint{
		LogKB:   logBytes >> 10,
		Chunk:   chunk,
		Delta:   delta,
		Drop:    drop,
		Elapsed: res.Elapsed,

		Ckpts:      res.Daemon.Checkpoints,
		Shipped:    res.Daemon.CkptBytes,
		DeltaCkpts: res.Daemon.DeltaCkpts,
		Retrans:    res.Daemon.ChunkRetransmits,
	}
	if pt.Ckpts > 0 {
		pt.BytesPerCkpt = pt.Shipped / pt.Ckpts
	}
	return pt
}

// CkptBenchData runs the sweep. Delta-off is always first at each
// (log size, chunk, drop) so it anchors the Reduction column.
func CkptBenchData(quick bool) []CkptPoint {
	logs := []int{4 << 10, 32 << 10}
	chunks := []int{0, 1024} // default (16KB), small
	drops := []float64{0, 0.01}
	// The scheduler cycle is SchedPeriod plus its 5ms status reply
	// window, and round-robin spends every other order on the receiver;
	// the steady phase must span many ~11ms sender-checkpoint intervals.
	rounds := 400
	if quick {
		logs = []int{16 << 10}
		chunks = []int{0, 1024}
		drops = []float64{0, 0.01}
		rounds = 250
	}
	var out []CkptPoint
	for _, logBytes := range logs {
		for _, chunk := range chunks {
			for _, drop := range drops {
				var base int64
				for _, delta := range []bool{false, true} {
					pt := ckptBenchRun(logBytes, chunk, delta, drop, rounds)
					if !delta {
						base = pt.BytesPerCkpt
					}
					if pt.BytesPerCkpt > 0 {
						pt.Reduction = float64(base) / float64(pt.BytesPerCkpt)
					}
					out = append(out, pt)
				}
			}
		}
	}
	return out
}

// chunkLabel renders the chunk-size axis.
func chunkLabel(c int) string {
	if c == 0 {
		return "default"
	}
	return sizeLabel(c)
}

// CkptBench regenerates the checkpoint data-path sweep.
func CkptBench(w io.Writer, quick bool) error {
	pts := CkptBenchData(quick)
	t := newTable(w)
	t.row("log", "chunk", "delta", "drop", "ckpts", "shipped", "bytes/ckpt", "vs full", "deltas", "retrans", "time")
	for _, pt := range pts {
		t.row(sizeLabel(pt.LogKB<<10), chunkLabel(pt.Chunk), pt.Delta,
			fmt.Sprintf("%.1f%%", pt.Drop*100), pt.Ckpts, pt.Shipped, pt.BytesPerCkpt,
			fmt.Sprintf("%.1fx", pt.Reduction), pt.DeltaCkpts, pt.Retrans,
			pt.Elapsed.Round(time.Microsecond))
	}
	t.flush()
	fmt.Fprintf(w, "steady-state sender log held by a rarely-checkpointing receiver; 64B app state, %dB steady messages\n", ckptSteadyMs)
	return nil
}
