package cluster

import (
	"testing"
	"time"

	"mpichv/internal/dispatcher"
	"mpichv/internal/shard"
)

// TestFleetShardedTopologies: the sharded event-logger fleet must keep
// every piecewise-determinism invariant in every topology — single
// replicas per shard, full quorum groups per shard, and a sharded
// checkpoint fleet on top — and the channel ranges must actually spread
// over the shards instead of collapsing onto one group.
func TestFleetShardedTopologies(t *testing.T) {
	const n, rounds = 8, 12
	cases := []struct {
		name   string
		cfg    Config
		minUse int // replicas that must hold at least one event
	}{
		{"2shards-1replica", Config{ELShards: 2}, 2},
		{"4shards-1replica", Config{ELShards: 4}, 3},
		{"4shards-3replicas-q2", Config{ELShards: 4, ELReplicas: 3, ELQuorum: 2}, 6},
		{"4shards-ckpt-2csshards", Config{
			ELShards: 4, CSShards: 2,
			Checkpointing: true, SchedPeriod: 5 * time.Millisecond,
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Impl = V2
			cfg.N = n
			cfg.Trace = true
			finals := make([]uint64, n)
			res := Run(cfg, ringProgram(rounds, finals))
			if want := ringExpect(n, rounds); finals[0] != want {
				t.Errorf("token = %d, want %d", finals[0], want)
			}
			if res.EL.Logged == 0 {
				t.Fatal("no events logged")
			}
			used := 0
			for _, per := range res.ELReplicaDeliveries {
				for r := range per {
					if len(per[r]) > 0 {
						used++
						break
					}
				}
			}
			if used < tc.minUse {
				t.Errorf("events landed on %d replicas, want ≥ %d — fleet not spreading", used, tc.minUse)
			}
			if rep := Audit(res); !rep.OK() {
				t.Errorf("%s", rep.Summary())
			}
			if hb := AuditTrace(res); !hb.OK() {
				t.Errorf("%s", hb.Summary())
			}
		})
	}
}

// TestFleetShardKillMidRun is the fleet-failure acceptance case: every
// replica of one EL shard is killed mid-run, the dispatcher broadcasts
// the outage, the daemons reroute the shard's key range to its ring
// successor and backfill the displaced history, a compute rank then
// crashes and must reconstruct a gap-free replay from the cross-shard
// union — and when the shard's replicas respawn (empty), it rejoins and
// is backfilled. The recovery auditor must find no orphans.
func TestFleetShardKillMidRun(t *testing.T) {
	const (
		n, rounds = 8, 40
		shards    = 4
		replicas  = 3
	)
	// Kill the shard that owns the ring channel 0 → 1, so the outage is
	// guaranteed to displace live traffic.
	victim := shard.New(shards, shard.Seed).Owner(0, 1)
	var faults []dispatcher.Fault
	for i := 0; i < replicas; i++ {
		faults = append(faults, dispatcher.Fault{
			Time: 5 * time.Millisecond, Rank: ELBase + victim*replicas + i,
		})
	}
	faults = append(faults, dispatcher.Fault{Time: 15 * time.Millisecond, Rank: 3})

	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		ELShards: shards, ELReplicas: replicas, ELQuorum: 2,
		DetectionDelay:    2 * time.Millisecond,
		ShardRespawnDelay: 25 * time.Millisecond,
		Faults:            faults,
		Trace:             true,
	}, ringProgram(rounds, finals))

	if res.ServiceKills != replicas {
		t.Fatalf("service kills = %d, want %d", res.ServiceKills, replicas)
	}
	if res.Restarts < 1 {
		t.Fatalf("compute restarts = %d, want ≥ 1", res.Restarts)
	}
	if res.ShardDowns < 1 || res.ShardUps < 1 {
		t.Errorf("shard downs/ups = %d/%d, want ≥ 1 each", res.ShardDowns, res.ShardUps)
	}
	if res.Daemon.ShardRebalances == 0 {
		t.Error("no daemon rerouted the dead shard's key range")
	}
	if res.Daemon.ShardRejoins == 0 {
		t.Error("no daemon routed the key range home on shard recovery")
	}
	if res.Daemon.ShardBackfilled == 0 {
		t.Error("no history determinants were backfilled")
	}
	if want := ringExpect(n, rounds); finals[0] != want {
		t.Errorf("token = %d, want %d", finals[0], want)
	}
	if rep := Audit(res); !rep.OK() {
		t.Errorf("%s", rep.Summary())
	}
	if hb := AuditTrace(res); !hb.OK() {
		t.Errorf("%s", hb.Summary())
	}
	t.Logf("downs=%d ups=%d rebalances=%d rejoins=%d backfilled=%d restarts=%d logged=%d",
		res.ShardDowns, res.ShardUps, res.Daemon.ShardRebalances, res.Daemon.ShardRejoins,
		res.Daemon.ShardBackfilled, res.Restarts, res.EL.Logged)
}

// TestFleetShardedDeterminism: two identical sharded runs produce the
// same virtual-time result — the fleet layer adds no nondeterminism.
func TestFleetShardedDeterminism(t *testing.T) {
	run := func() time.Duration {
		finals := make([]uint64, 6)
		res := Run(Config{
			Impl: V2, N: 6,
			ELShards: 3,
		}, ringProgram(10, finals))
		return res.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("sharded runs diverged: %v vs %v", a, b)
	}
}
