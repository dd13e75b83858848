package bench

import (
	"fmt"
	"io"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/mpi"
)

// Perf experiment: the critical-path cost of pessimistic determinant
// logging, swept over the pipelined-window depth. The workload is a
// burst-reply pattern built to stress WAITLOGGED: each round rank 0
// sends a burst of messages, and rank 1 — now holding one reception
// event per message — must get every event acked by the logger before
// its reply may leave. With stop-and-wait (window 1) the events that
// pile up behind each logger round trip ship as one batch; a deeper
// window overlaps the batches. The sweep prices the window depth at
// several message sizes.

// PerfPoint is one (size, window) point of the sweep.
type PerfPoint struct {
	Size    int
	Window  int
	Elapsed time.Duration
	PerMsg  time.Duration // elapsed per burst message
	Speedup float64       // vs window=1 at the same size
	ELWaits int64         // sends that actually blocked on WAITLOGGED
	// The per-message time splits into the EL-ack wait (what the window
	// actually pipelines) and everything else — payload serialization,
	// transport and the SAVED-log copy — which no window depth can
	// touch. A flat Speedup column at large sizes is not a broken sweep:
	// ELWaitUS shows the gate has already vanished under the
	// serialization time it overlaps with.
	ELWaitUS int64 // virtual µs spent blocked in WAITLOGGED
	OtherUS  int64 // elapsed µs outside the gate (serialization + transport)
	Events   int64 // reception events submitted to the logger
}

const perfBurst = 16 // messages per round; rank 1's reply gates on all of them

// perfRun measures one point of the sweep.
func perfRun(size, window, rounds int) PerfPoint {
	res := cluster.Run(cluster.Config{Impl: cluster.V2, N: 2, ELWindow: window}, func(p *mpi.Proc) {
		msg := make([]byte, size)
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				for i := 0; i < perfBurst; i++ {
					p.Send(1, 1, msg)
				}
				p.Recv(1, 2)
			} else {
				for i := 0; i < perfBurst; i++ {
					p.Recv(0, 1)
				}
				p.Send(0, 2, []byte{1})
			}
		}
	})
	pt := PerfPoint{
		Size:    size,
		Window:  window,
		Elapsed: res.Elapsed,
		PerMsg:  res.Elapsed / time.Duration(rounds*perfBurst),
		ELWaits: res.Daemon.ELWaits,
		Events:  res.Daemon.EventsLogged,
	}
	for _, d := range res.Daemons {
		pt.ELWaitUS += d.ELWaitNS / 1e3
	}
	pt.OtherUS = int64(res.Elapsed/time.Microsecond) - pt.ELWaitUS
	return pt
}

// PerfData runs the sweep. Window 1 — stop-and-wait — is always first
// at each size so it anchors the Speedup column.
func PerfData(quick bool) []PerfPoint {
	// The window sweep deliberately runs past the saturation point (a
	// burst of perfBurst events can keep at most perfBurst batches in
	// flight): the last useful depth shows up as the knee, not as the
	// edge of the sweep.
	sizes := []int{0, 512, 4 << 10, 64 << 10}
	windows := []int{1, 2, 4, 8, 16, 32}
	rounds := 30
	if quick {
		sizes = []int{0, 4 << 10}
		windows = []int{1, 8}
		rounds = 10
	}
	var out []PerfPoint
	for _, size := range sizes {
		var base time.Duration
		for _, w := range windows {
			pt := perfRun(size, w, rounds)
			if w == 1 {
				base = pt.Elapsed
			}
			pt.Speedup = float64(base) / float64(pt.Elapsed)
			out = append(out, pt)
		}
	}
	return out
}

// Perf regenerates the pipelined-logging sweep.
func Perf(w io.Writer, quick bool) error {
	pts := PerfData(quick)
	t := newTable(w)
	t.row("size", "window", "time", "per msg", "vs w=1", "el waits", "el wait µs", "other µs", "events")
	for _, pt := range pts {
		t.row(sizeLabel(pt.Size), pt.Window,
			pt.Elapsed.Round(time.Microsecond), pt.PerMsg.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", pt.Speedup), pt.ELWaits, pt.ELWaitUS, pt.OtherUS, pt.Events)
	}
	t.flush()
	fmt.Fprintf(w, "burst=%d messages per round; window=1 is stop-and-wait determinant logging\n", perfBurst)
	return nil
}
