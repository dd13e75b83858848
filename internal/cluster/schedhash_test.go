package cluster

import (
	"encoding/binary"
	"testing"
	"time"

	"mpichv/internal/daemon"
	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
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
	ckptKill := Config{
		N: 4, Checkpointing: true, SchedPeriod: 2 * time.Millisecond,
		Faults: []dispatcher.Fault{{Time: 20 * time.Millisecond, Rank: 1}},
	}
	ckptKillAdaptive := ckptKill
	ckptKillAdaptive.DetMode = daemon.DetAdaptive
	// Partitioned loggers under suppression: relayed determinants, a
	// restart fetch from a rank's own logger, then a logger kill whose
	// respawn must serve what its predecessor stored.
	partitionedELKill := ckptKillAdaptive
	partitionedELKill.EventLoggers = 2
	partitionedELKill.Faults = []dispatcher.Fault{{Time: 20 * time.Millisecond, Rank: 1}, {Time: 40 * time.Millisecond, Rank: ELBase}}
	ckpt := func(n int) Program { return ckptProgram(60, make([]float64, n)) }
	cases := []struct {
		name string
		cfg  Config
		prog func(n int) Program
		want uint64
	}{
		{"ring", Config{N: 4}, ring(20), 0x1047b15031c5e6be},
		{"ckpt-kill", ckptKill, ckpt, 0x078655f50125c076},
		// Lossy: the restart announces once and the pull repairs what the
		// fabric drops.
		{"quorum-chaos-kill", Config{
			N: 4, ELReplicas: 3, DetectionDelay: 2 * time.Millisecond,
			Chaos:  transport.ChaosPolicy{Seed: 5, Drop: 0.02, Duplicate: 0.01, Delay: 0.05},
			Faults: []dispatcher.Fault{{Time: 5 * time.Millisecond, Rank: 2}},
		}, ring(15), 0xf407e216637a4df1},
		{"detadaptive", Config{N: 4, DetMode: daemon.DetAdaptive}, ring(20), 0x26c0a48eda714b48},
		{"fleet-4shards", Config{N: 8, ELShards: 4}, ring(12), 0xc744301d12d3a5d6},
		{"incast-window1", Config{
			N: 4, ELWindow: 1,
			Faults: []dispatcher.Fault{{Time: 3 * time.Millisecond, Rank: 0}},
		}, func(n int) Program { return incastProgram(make([]int64, n)) }, 0x10c6a7401f1b6ee7},
		// The Channel Memory path and the Unix-socket copy costs of V1,
		// and P4, which runs in the MPI process.
		{"v1-ring", Config{N: 4, Impl: V1}, ring(20), 0xc22b2569eecd8e84},
		{"p4-ring", Config{N: 4, Impl: P4}, ring(20), 0x5f96275f53f6d7a2},
		// Suppression with checkpoints and a kill: the determinant drain
		// before each capture, and the replay receive after the restart.
		{"ckpt-kill-detadaptive", ckptKillAdaptive, ckpt, 0xd7bf5e9ae9543041},
		// A probing ring with a kill: the restarted rank replays the
		// logged probe outcomes and waits for the probed messages.
		{"probe-kill", Config{
			N:      4,
			Faults: []dispatcher.Fault{{Time: 2 * time.Millisecond, Rank: 2}},
		}, func(n int) Program { return probeRingProgram(15, make([]uint64, n)) }, 0x785852096c0ab344},
		{"partitioned-el-kill-detadaptive", partitionedELKill, ckpt, 0xe7da6d4094b2e6e5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Run(tc.cfg, tc.prog(tc.cfg.N)).ScheduleHash
			if got != tc.want {
				t.Errorf("schedule hash %#016x, pinned %#016x", got, tc.want)
			}
		})
	}
}

// probeRingProgram shifts a counter around the ring: every round each
// rank sends to its right, then polls Iprobe until the message from its
// left is in. The daemons answer probes, and a replay must reproduce the
// logged probe outcomes and wait for the probed message's re-send.
func probeRingProgram(rounds int, finals []uint64) Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		var token uint64
		buf := make([]byte, 8)
		for r := 0; r < rounds; r++ {
			binary.BigEndian.PutUint64(buf, token+1)
			p.Send(right, 1, buf)
			for {
				if _, ok := p.Iprobe(left, 1); ok {
					break
				}
				p.ComputeTime(50 * time.Microsecond)
			}
			b, _ := p.Recv(left, 1)
			token = binary.BigEndian.Uint64(b)
		}
		finals[p.Rank()] = token
	}
}
