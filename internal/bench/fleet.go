package bench

import (
	"fmt"
	"io"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/mpi"
)

// Fleet experiment: determinant-log throughput scaling of the sharded
// event-logger fleet.
//
// Leg 1 (sharded fleet, virtual time): a determinant-heavy neighbor
// exchange where every reception's event must clear the EL before the
// next round's sends — the paper's pessimistic regime, with the EL's
// per-event service time (netsim.Params.ELService) as the serial
// bottleneck. Sharding the fleet splits the channel space over
// independent replica groups, so determinant throughput should scale
// near-linearly until the transport floor.
//
// Leg 2 (thousand ranks, virtual time): a 1000-rank exchange over an
// 8-shard fleet, run to completion with the no-orphans and
// happens-before auditors green — the scale claim.

// FleetPoint is one (shards, ranks) cell of the virtual-time sweep.
type FleetPoint struct {
	Shards    int
	Ranks     int
	Elapsed   time.Duration
	Events    int64   // determinants stored by the fleet
	DetPerSec float64 // determinant-log throughput, events per virtual second
	Speedup   float64 // throughput vs the 1-shard row at the same rank count
	ELWaitUS  int64   // virtual µs all ranks spent blocked in WAITLOGGED
	AuditOK   bool    // no-orphans and happens-before auditors both green
}

// FleetResult is the machine-readable artifact (BENCH_fleet.json).
type FleetResult struct {
	Sweep    []FleetPoint // leg 1: shards × fixed ranks
	Thousand FleetPoint   // leg 2: the scale row
}

// fleetProgram is the determinant-heavy workload: each round every rank
// eagerly sends a small message to its fan nearest ring neighbors, then
// receives its fan. Every reception is a pessimistic determinant, and
// the next round's first send blocks in WAITLOGGED until all of them
// cleared the fleet — so end-to-end time tracks EL service throughput.
func fleetProgram(rounds, fan int) cluster.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		buf := make([]byte, 8)
		for r := 0; r < rounds; r++ {
			for f := 1; f <= fan; f++ {
				p.Send((p.Rank()+f)%n, 1, buf)
			}
			for f := 1; f <= fan; f++ {
				p.Recv((p.Rank()-f+n)%n, 1)
			}
		}
	}
}

// fleetRun measures one sweep cell.
func fleetRun(shards, ranks, fan, rounds int) FleetPoint {
	cfg := cluster.Config{
		Impl: cluster.V2, N: ranks,
		Trace: true, TraceCap: 512,
	}
	if shards > 1 {
		cfg.ELShards = shards
	}
	res := cluster.Run(cfg, fleetProgram(rounds, fan))
	pt := FleetPoint{
		Shards:  shards,
		Ranks:   ranks,
		Elapsed: res.Elapsed,
		Events:  res.ELLogged,
		AuditOK: cluster.Audit(res).OK() && cluster.AuditTrace(res).OK(),
	}
	if res.Elapsed > 0 {
		pt.DetPerSec = float64(res.ELLogged) / res.Elapsed.Seconds()
	}
	for _, d := range res.Daemons {
		pt.ELWaitUS += d.ELWaitNS / 1e3
	}
	return pt
}

// FleetSweepData runs leg 1 (and leg 2 as the returned thousand row).
func FleetSweepData(quick bool) ([]FleetPoint, FleetPoint) {
	shardCounts := []int{1, 2, 4, 8}
	ranks, fan, rounds := 32, 8, 12
	thousandRanks, thousandShards := 1000, 8
	if quick {
		shardCounts = []int{1, 2, 4}
		ranks, fan, rounds = 16, 8, 6
		thousandRanks, thousandShards = 200, 4
	}
	var sweep []FleetPoint
	var base float64
	for _, s := range shardCounts {
		pt := fleetRun(s, ranks, fan, rounds)
		if s == 1 {
			base = pt.DetPerSec
		}
		if base > 0 {
			pt.Speedup = pt.DetPerSec / base
		}
		sweep = append(sweep, pt)
	}
	thousand := fleetRun(thousandShards, thousandRanks, 1, 2)
	return sweep, thousand
}

// FleetData assembles the whole artifact.
func FleetData(quick bool) FleetResult {
	sweep, thousand := FleetSweepData(quick)
	return FleetResult{Sweep: sweep, Thousand: thousand}
}

// Fleet regenerates the sharded-fleet scaling tables.
func Fleet(w io.Writer, quick bool) error {
	data := FleetData(quick)
	t := newTable(w)
	t.row("shards", "ranks", "time", "events", "dets/s", "vs 1 shard", "el wait µs", "audit")
	rows := append(append([]FleetPoint(nil), data.Sweep...), data.Thousand)
	for _, pt := range rows {
		audit := "OK"
		if !pt.AuditOK {
			audit = "FAILED"
		}
		vs := "-"
		if pt.Speedup > 0 {
			vs = fmt.Sprintf("%.2fx", pt.Speedup)
		}
		t.row(pt.Shards, pt.Ranks, pt.Elapsed.Round(time.Microsecond),
			pt.Events, fmt.Sprintf("%.0f", pt.DetPerSec), vs, pt.ELWaitUS, audit)
	}
	t.flush()
	fmt.Fprintf(w, "fleet sweep: %d-rank neighbor exchange; the last row is the %d-rank scale run\n",
		data.Sweep[0].Ranks, data.Thousand.Ranks)
	return nil
}
