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
	"mpichv/internal/transport"
)

// Event-logger replication sweep: BT class A under a fixed chaos load
// (lossy, truncating links plus correlated double faults against the
// computing nodes, and — when there is a peer to resync from — one
// replica kill mid-run), swept over the replica count R and write
// quorum Q. The paper's single "reliable node" is the R=1/Q=1 row;
// every other row buys tolerance of R−Q replica failures with the extra
// acks the sender must wait for, and the table quantifies that price.
// Every run must still produce verified numerics and a clean recovery
// audit: the sweep doubles as the no-orphans acceptance harness.

// ELRepPoint is one (R, Q) point of the replication sweep.
type ELRepPoint struct {
	Replicas int
	Quorum   int
	Elapsed  time.Duration
	Ratio    float64 // vs the R=1/Q=1 row
	Restarts int
	SvcKills int

	QuorumAcks    int64 // batches/saves completed at their write quorum
	DegradedReads int64 // restart fetches settled below the read quorum
	StaleRejects  int64 // checkpoint saves refused for regressing the seq
	Resyncs       int64 // replica anti-entropy rounds
	Synced        int64 // events + images pulled back by resyncing replicas

	Audit    string // recovery-auditor verdict
	AuditOK  bool
	Verified bool
}

// ELRepData runs the replication sweep. Every point sees the same link
// chaos and the same compute fault plan; rows differ only by R and Q
// (and the replica kill, which needs a surviving peer, so it is skipped
// at R=1).
func ELRepData(quick bool) []ELRepPoint {
	type rq struct{ r, q int }
	configs := []rq{{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 2}}
	if quick {
		configs = []rq{{1, 1}, {3, 2}}
	}
	b := faultyBT()
	var out []ELRepPoint
	for _, c := range configs {
		pt := runELRepBT(b, c.r, c.q)
		if len(out) == 0 {
			pt.Ratio = 1
		} else {
			pt.Ratio = float64(pt.Elapsed) / float64(out[0].Elapsed)
		}
		out = append(out, pt)
	}
	return out
}

func runELRepBT(b nas.Benchmark, r, q int) ELRepPoint {
	results := make([]nas.Result, 4)
	// Correlated double faults: the second kill lands while the first
	// victim is typically still mid-restart, the overlap a single
	// reliable node cannot cover. The plan is identical for every row.
	faults := dispatcher.DoubleFaults(11, 0.2, 20*time.Second, 40*time.Millisecond, []int{0, 1, 2, 3})
	if r >= 2 {
		// Kill one replica mid-run; its respawn anti-entropies the
		// missed events back from the surviving peers.
		faults = append(faults, dispatcher.Fault{Time: 10 * time.Second, Rank: cluster.ELBase + r - 1})
	}
	res := cluster.Run(cluster.Config{
		Impl:           cluster.V2,
		N:              4,
		Params:         paramsFor(b),
		Checkpointing:  true,
		Policy:         sched.NewRandom(uint64(r*10 + q)),
		SchedPeriod:    5 * time.Millisecond,
		ELReplicas:     r,
		ELQuorum:       q,
		Faults:         faults,
		DetectionDelay: 3 * time.Millisecond,
		Chaos: transport.ChaosPolicy{
			Seed:      2003,
			Drop:      0.005,
			Duplicate: 0.002,
			Truncate:  0.01,
			Delay:     0.02,
			MaxDelay:  300 * time.Microsecond,
		},
	}, func(p *mpi.Proc) {
		results[p.Rank()] = b.Run(p, b)
	})
	audit := cluster.Audit(res)
	pt := ELRepPoint{
		Replicas:      r,
		Quorum:        q,
		Elapsed:       res.Elapsed,
		Restarts:      res.Restarts,
		SvcKills:      res.ServiceKills,
		QuorumAcks:    res.Daemon.QuorumAcks,
		DegradedReads: res.Daemon.DegradedReads,
		StaleRejects:  res.CS.StaleRejects,
		Resyncs:       res.EL.Resyncs + res.CS.Resyncs,
		Synced:        res.EL.SyncedIn + res.CS.SyncedIn,
		Audit:         audit.Summary(),
		AuditOK:       audit.OK() && res.Daemon.BelowQuorumAcks == 0,
		Verified:      true,
	}
	for _, rr := range results {
		if !rr.Verified {
			pt.Verified = false
		}
	}
	return pt
}

// ELRep regenerates the replication sweep.
func ELRep(w io.Writer, quick bool) error {
	t := newTable(w)
	t.row("R", "Q", "time", "vs R=1", "restarts", "svc kills", "quorum acks", "degraded", "stale", "resyncs", "synced", "audit", "verified")
	pts := ELRepData(quick)
	for _, pt := range pts {
		t.row(pt.Replicas, pt.Quorum, pt.Elapsed.Round(time.Millisecond),
			fmt.Sprintf("%.2f", pt.Ratio), pt.Restarts, pt.SvcKills,
			pt.QuorumAcks, pt.DegradedReads, pt.StaleRejects,
			pt.Resyncs, pt.Synced, ok(pt.AuditOK), pt.Verified)
	}
	t.flush()
	for _, pt := range pts {
		fmt.Fprintf(w, "R=%d Q=%d: %s\n", pt.Replicas, pt.Quorum, pt.Audit)
	}
	return nil
}

func ok(b bool) string {
	if b {
		return "ok"
	}
	return "FAILED"
}
