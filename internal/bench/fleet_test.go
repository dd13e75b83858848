package bench

import "testing"

// TestFleetShape is the bench-fleet smoke gate: sharding the event-logger
// fleet must buy real determinant throughput (≥2× at 4 shards vs 1 on the
// quick workload), with every row audit-green.
func TestFleetShape(t *testing.T) {
	const ranks, fan, rounds = 16, 8, 6
	base := fleetRun(1, ranks, fan, rounds)
	four := fleetRun(4, ranks, fan, rounds)
	for _, pt := range []FleetPoint{base, four} {
		if !pt.AuditOK {
			t.Fatalf("%d shards: audits failed", pt.Shards)
		}
		if pt.Events == 0 {
			t.Fatalf("%d shards: no determinants logged", pt.Shards)
		}
	}
	if four.DetPerSec < 2*base.DetPerSec {
		t.Errorf("4-shard determinant throughput %.0f/s < 2× the 1-shard %.0f/s",
			four.DetPerSec, base.DetPerSec)
	}
	t.Logf("dets/s: 1 shard %.0f, 4 shards %.0f (%.2fx)",
		base.DetPerSec, four.DetPerSec, four.DetPerSec/base.DetPerSec)
}
