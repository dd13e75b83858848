package cluster

import (
	"testing"
	"time"

	"mpichv/internal/daemon"
	"mpichv/internal/dispatcher"
	"mpichv/internal/transport"
)

// TestScheduleHashPinned is the refactor witness of the simulator: each
// configuration's schedule hash is pinned. A change that keeps every
// pinned hash made the same scheduling decisions at the same virtual
// instants for these workloads; a change that moves one must say why and
// re-pin it. Outside -short it runs after the package's BT tests, so it
// also fails if a run's schedule depends on what the process ran before.
func TestScheduleHashPinned(t *testing.T) {
	ring := func(rounds int) func(n int) Program {
		return func(n int) Program { return ringProgram(rounds, make([]uint64, n)) }
	}
	cases := []struct {
		name string
		cfg  Config
		prog func(n int) Program
		want uint64
	}{
		{"ring", Config{N: 4}, ring(20), 0x1047b15031c5e6be},
		{"ckpt-kill", Config{
			N: 4, Checkpointing: true, SchedPeriod: 2 * time.Millisecond,
			Faults: []dispatcher.Fault{{Time: 20 * time.Millisecond, Rank: 1}},
		}, func(n int) Program { return ckptProgram(60, make([]float64, n)) }, 0xf72b68448ca882c5},
		{"quorum-chaos-kill", Config{
			N: 4, ELReplicas: 3, DetectionDelay: 2 * time.Millisecond,
			Chaos:  transport.ChaosPolicy{Seed: 5, Drop: 0.02, Duplicate: 0.01, Delay: 0.05},
			Faults: []dispatcher.Fault{{Time: 5 * time.Millisecond, Rank: 2}},
		}, ring(15), 0x8bed76b8cdfd64e2},
		{"detadaptive", Config{N: 4, DetMode: daemon.DetAdaptive}, ring(20), 0x26c0a48eda714b48},
		{"fleet-4shards", Config{N: 8, ELShards: 4, ShardSeed: 42}, ring(12), 0xc744301d12d3a5d6},
		{"incast-window1", Config{
			N: 4, ELWindow: 1,
			Faults: []dispatcher.Fault{{Time: 3 * time.Millisecond, Rank: 0}},
		}, func(n int) Program { return incastProgram(make([]int64, n)) }, 0x70a6e3fb8fde5ece},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Impl = V2
			got := Run(cfg, tc.prog(cfg.N)).ScheduleHash
			if got != tc.want {
				t.Errorf("schedule hash %#016x, pinned %#016x", got, tc.want)
			}
		})
	}
}
