package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/daemon"
	"mpichv/internal/mpi"
)

// DetSupp experiment: the critical-path cost of pessimistic determinant
// logging versus the adaptive suppression layer. The workload is a
// token ring — every hop is a reception followed immediately by a send,
// so in off mode each hop pays a full event-logger round trip inside
// WAITLOGGED before the token may leave. The adaptive classifier sees a
// deterministic directed channel (no probes, no competing arrivals) and
// keeps the determinant off the gate: it rides outgoing payloads and
// periodic epoch batches instead, and the hop collapses to pure
// transport. The aggressive row is the unsound upper bound (suppress
// everything without the safety checks) — the gap between it and
// adaptive is the price of classification.

// DetSuppPoint is one (mode, size) point of the sweep.
type DetSuppPoint struct {
	Mode    string
	Size    int
	Elapsed time.Duration
	PerMsg  time.Duration // elapsed per delivered message
	Speedup float64       // vs off at the same size
	// Gate accounting: the experiment's claim is that adaptive moves
	// determinants off the WAITLOGGED critical path, so the forced count
	// and the time actually spent blocked in the gate must both drop.
	ELWaits      int64   // sends that blocked on WAITLOGGED
	ELWaitUS     int64   // virtual µs spent blocked in WAITLOGGED
	Forced       int64   // determinants that joined the gate (pessimistic path)
	Suppressed   int64   // determinants kept off the gate
	ForcedPerMsg float64 // forced determinants per delivered message
	Piggybacked  int64   // suppressed determinants carried on payload frames
	Events       int64   // event batches' contents submitted to the EL (incl. epochs)
}

// detSuppModes maps row labels to daemon policies, in table order.
var detSuppModes = []struct {
	Name string
	Mode int
}{
	{"off", daemon.DetOff},
	{"adaptive", daemon.DetAdaptive},
	{"aggressive", daemon.DetAggressive},
}

const detSuppN = 4 // ring size

// detSuppRun measures one point.
func detSuppRun(name string, mode, size, rounds int) DetSuppPoint {
	res := cluster.Run(cluster.Config{
		Impl: cluster.V2, N: detSuppN,
		DetMode: mode,
	}, func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		buf := make([]byte, 8+size)
		var token uint64
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
		}
	})
	msgs := int64(detSuppN * rounds)
	pt := DetSuppPoint{
		Mode:    name,
		Size:    size,
		Elapsed: res.Elapsed,
		PerMsg:  res.Elapsed / time.Duration(msgs),
	}
	for _, d := range res.Daemons {
		pt.ELWaits += d.ELWaits
		pt.ELWaitUS += d.ELWaitNS / 1e3
		pt.Forced += d.DetForced
		pt.Suppressed += d.DetSuppressed
		pt.Piggybacked += d.DetPiggybacked
		pt.Events += d.EventsLogged
	}
	pt.ForcedPerMsg = float64(pt.Forced) / float64(msgs)
	return pt
}

// DetSuppData runs the sweep. Off is always first at each size so it
// anchors the Speedup column.
func DetSuppData(quick bool) []DetSuppPoint {
	sizes := []int{0, 4 << 10, 64 << 10}
	rounds := 30
	if quick {
		sizes = []int{0, 4 << 10}
		rounds = 10
	}
	var out []DetSuppPoint
	for _, size := range sizes {
		var base time.Duration
		for _, m := range detSuppModes {
			pt := detSuppRun(m.Name, m.Mode, size, rounds)
			if m.Mode == daemon.DetOff {
				base = pt.Elapsed
			}
			pt.Speedup = float64(base) / float64(pt.Elapsed)
			out = append(out, pt)
		}
	}
	return out
}

// DetSupp regenerates the determinant-suppression sweep.
func DetSupp(w io.Writer, quick bool) error {
	pts := DetSuppData(quick)
	t := newTable(w)
	t.row("size", "mode", "time", "per msg", "vs off", "el waits", "el wait µs", "forced", "forced/msg", "suppressed", "piggyback")
	for _, pt := range pts {
		t.row(sizeLabel(pt.Size), pt.Mode,
			pt.Elapsed.Round(time.Microsecond), pt.PerMsg.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", pt.Speedup), pt.ELWaits, pt.ELWaitUS,
			pt.Forced, fmt.Sprintf("%.3f", pt.ForcedPerMsg), pt.Suppressed, pt.Piggybacked)
	}
	t.flush()
	fmt.Fprintf(w, "%d-rank token ring; forced = determinants that joined the WAITLOGGED gate\n", detSuppN)
	return nil
}
