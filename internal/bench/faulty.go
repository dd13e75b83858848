package bench

import (
	"fmt"
	"io"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
	"mpichv/internal/nas"
	"mpichv/internal/sched"
)

// Figure 11: BT class A on 4 computing nodes with a single reliable
// node (checkpoint server + scheduler + event logger), the system
// always checkpointing some node (random selection), and 0–9 faults
// injected during the execution. The paper's findings: low overhead
// with no fault, smooth degradation with the fault count, and a 9-fault
// execution below twice the fault-free time.

// FaultyPoint is one point of the figure 11 sweep.
type FaultyPoint struct {
	Faults   int
	Elapsed  time.Duration
	Ratio    float64 // vs the 0-fault run
	Restarts int
	Ckpts    int64
	Verified bool
}

func faultyBT() nas.Benchmark {
	b := nas.BT("A")
	b.Iters = 25 // long enough for checkpoints and faults to interleave
	return b
}

// Figure11Data runs the fault sweep.
func Figure11Data(quick bool) []FaultyPoint {
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if quick {
		counts = []int{0, 2, 5}
	}
	b := faultyBT()
	base := runFaultyBT(b, nil, 1)
	out := []FaultyPoint{base}
	for _, k := range counts {
		if k == 0 {
			continue
		}
		// Faults spread across the fault-free duration, one every
		// E0/10 (the paper injects roughly one fault every 45 s of a
		// ~450 s run).
		var faults []dispatcher.Fault
		for i := 0; i < k; i++ {
			faults = append(faults, dispatcher.Fault{
				Time: time.Duration(i+1) * base.Elapsed / 10,
				Rank: int(uint(i*2654435761) % uint(4)),
			})
		}
		pt := runFaultyBT(b, faults, uint64(k))
		pt.Ratio = float64(pt.Elapsed) / float64(base.Elapsed)
		out = append(out, pt)
	}
	out[0].Ratio = 1
	return out
}

func runFaultyBT(b nas.Benchmark, faults []dispatcher.Fault, seed uint64) FaultyPoint {
	results := make([]nas.Result, 4)
	res := cluster.Run(cluster.Config{
		Impl:          cluster.V2,
		N:             4,
		Params:        paramsFor(b),
		Checkpointing: true,
		Policy:        sched.NewRandom(seed),
		SchedPeriod:   400 * time.Millisecond, // "the system is always checkpointing a node"
		Faults:        faults,
	}, func(p *mpi.Proc) {
		results[p.Rank()] = b.Run(p, b)
	})
	pt := FaultyPoint{
		Faults:   len(faults),
		Elapsed:  res.Elapsed,
		Restarts: res.Restarts,
		Ckpts:    res.CS.Saves,
		Verified: true,
	}
	for _, r := range results {
		if !r.Verified {
			pt.Verified = false
		}
	}
	return pt
}

// Figure11 regenerates the faulty-execution experiment.
func Figure11(w io.Writer, quick bool) error {
	t := newTable(w)
	t.row("faults", "time", "vs 0-fault", "restarts", "checkpoints", "verified")
	for _, pt := range Figure11Data(quick) {
		t.row(pt.Faults, pt.Elapsed.Round(time.Millisecond), fmt.Sprintf("%.2f", pt.Ratio),
			pt.Restarts, pt.Ckpts, pt.Verified)
	}
	t.flush()
	return nil
}
