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

// Chaos experiment: BT class A on 4 computing nodes with two event
// loggers, always-on checkpointing, a Poisson process killing compute
// nodes, one event-logger kill, and a chaos fabric dropping, duplicating
// and delaying frames at increasing rates. The paper's volatile-node
// claim is qualitative — executions survive faults — and this sweep
// quantifies the price: how much retry machinery fires and how far the
// elapsed time stretches as the links and nodes degrade, with every run
// still producing verified numerics.

// ChaosPoint is one point of the chaos sweep.
type ChaosPoint struct {
	Drop         float64 // frame drop probability
	Elapsed      time.Duration
	Ratio        float64 // vs the clean run
	Restarts     int
	SvcKills     int
	SvcRestarts  int
	Retransmits  int64
	Pulls        int64
	Dropped      int64 // frames the chaos fabric discarded
	StaleRejects int64 // checkpoint saves refused for regressing the seq
	DeltaCkpts   int64 // checkpoints shipped as deltas against an acked base
	ChunkRetrans int64 // checkpoint chunks re-sent after a timeout
	Compactions  int64 // superseded delta chains dropped by the stores
	Manifests    int64 // restart-time manifest gathers (chunked fast path)
	Audit        string
	AuditOK      bool
	Verified     bool
}

// ELOverrideReplicas/ELOverrideQuorum optionally force the replicated
// event-logger group on the chaos experiment: R independent replicas
// with write quorum Q instead of two partitioned loggers over one
// stable store, each serving half the ranks as a group of one. Set from
// vbench's -elreplicas/-elquorum flags; zero keeps the partitioned
// layout. The event-logger kill is transient in both: a lone logger's
// clients retransmit until the respawn serves the stable store again; a
// respawned replica anti-entropies its events back from the peers.
var (
	ELOverrideReplicas int
	ELOverrideQuorum   int
)

// ChaosData runs the degradation sweep. Every point uses the same fault
// plan and seed lineage so the columns differ only by link quality.
func ChaosData(quick bool) []ChaosPoint {
	drops := []float64{0, 0.002, 0.005, 0.01, 0.02, 0.05}
	if quick {
		drops = []float64{0, 0.01}
	}
	b := faultyBT()
	var out []ChaosPoint
	for i, drop := range drops {
		pt := runChaosBT(b, drop, uint64(i+1))
		if i == 0 {
			pt.Ratio = 1
		} else {
			pt.Ratio = float64(pt.Elapsed) / float64(out[0].Elapsed)
		}
		out = append(out, pt)
	}
	return out
}

func runChaosBT(b nas.Benchmark, drop float64, seed uint64) ChaosPoint {
	results := make([]nas.Result, 4)
	pol := transport.ChaosPolicy{}
	if drop > 0 {
		pol = transport.ChaosPolicy{
			Seed:      2003 + seed,
			Drop:      drop,
			Duplicate: drop / 2,
			Delay:     0.02,
			MaxDelay:  300 * time.Microsecond,
		}
	}
	// One event-logger kill plus Poisson compute kills: the acceptance
	// scenario, swept over link quality.
	faults := []dispatcher.Fault{{Time: 60 * time.Millisecond, Rank: cluster.ELBase}}
	faults = append(faults, dispatcher.RandomFaults(seed, 4, 400*time.Millisecond, []int{0, 1, 2, 3})...)
	cfg := cluster.Config{
		Impl:           cluster.V2,
		N:              4,
		Params:         paramsFor(b),
		Checkpointing:  true,
		Policy:         sched.NewRandom(seed),
		SchedPeriod:    5 * time.Millisecond,
		EventLoggers:   2,
		Faults:         faults,
		DetectionDelay: 3 * time.Millisecond,
		Chaos:          pol,
	}
	if ELOverrideReplicas > 0 {
		cfg.EventLoggers = 0
		cfg.ELReplicas = ELOverrideReplicas
		cfg.ELQuorum = ELOverrideQuorum
	}
	res := cluster.Run(cfg, func(p *mpi.Proc) {
		results[p.Rank()] = b.Run(p, b)
	})
	audit := cluster.Audit(res)
	pt := ChaosPoint{
		Drop:         drop,
		Elapsed:      res.Elapsed,
		Restarts:     res.Restarts,
		SvcKills:     res.ServiceKills,
		SvcRestarts:  res.ServiceRestarts,
		Retransmits:  res.Retransmits,
		Pulls:        res.Pulls,
		Dropped:      res.ChaosDropped,
		StaleRejects: res.StaleRejects,
		DeltaCkpts:   res.DeltaCkpts,
		ChunkRetrans: res.ChunkRetransmits,
		Compactions:  res.ChainCompactions,
		Manifests:    res.ManifestFetches,
		Audit:        audit.Summary(),
		AuditOK:      audit.OK() && res.BelowQuorumAcks == 0,
		Verified:     true,
	}
	for _, r := range results {
		if !r.Verified {
			pt.Verified = false
		}
	}
	return pt
}

// Chaos regenerates the link-degradation experiment.
func Chaos(w io.Writer, quick bool) error {
	t := newTable(w)
	t.row("drop", "time", "vs clean", "restarts", "svc k/r", "retrans", "pulls", "dropped", "stale", "deltas", "chunkrt", "compact", "manifests", "audit", "verified")
	pts := ChaosData(quick)
	for _, pt := range pts {
		t.row(fmt.Sprintf("%.1f%%", pt.Drop*100), pt.Elapsed.Round(time.Millisecond),
			fmt.Sprintf("%.2f", pt.Ratio), pt.Restarts,
			fmt.Sprintf("%d/%d", pt.SvcKills, pt.SvcRestarts),
			pt.Retransmits, pt.Pulls, pt.Dropped,
			pt.StaleRejects, pt.DeltaCkpts, pt.ChunkRetrans, pt.Compactions,
			pt.Manifests, ok(pt.AuditOK), pt.Verified)
	}
	t.flush()
	for _, pt := range pts {
		fmt.Fprintf(w, "drop=%.1f%%: %s\n", pt.Drop*100, pt.Audit)
	}
	return nil
}
