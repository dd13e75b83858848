package dispatcher

import (
	"slices"
	"testing"
	"time"

	"mpichv/internal/netsim"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

func TestDoneAfterAllFinalize(t *testing.T) {
	sim := vtime.NewSim()
	completed := false
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		d := Start(sim, fab, Config{
			Node:    1003,
			Ranks:   3,
			Kill:    func(int) {},
			Respawn: func(int) {},
		})
		for r := 0; r < 3; r++ {
			ep := fab.Attach(r, "cn")
			ep.Send(1003, wire.KFinalize, nil)
		}
		_, ok := d.Done().Recv()
		completed = ok
	})
	if !completed {
		t.Fatal("dispatcher never signalled completion")
	}
}

func TestDuplicateFinalizeCountedOnce(t *testing.T) {
	sim := vtime.NewSim()
	done := false
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		d := Start(sim, fab, Config{Node: 1003, Ranks: 2, Kill: func(int) {}, Respawn: func(int) {}})
		ep0 := fab.Attach(0, "cn0")
		ep1 := fab.Attach(1, "cn1")
		ep0.Send(1003, wire.KFinalize, nil)
		ep0.Send(1003, wire.KFinalize, nil) // restarted rank finalizing again
		sim.Sleep(5 * time.Millisecond)
		if _, ok := d.Done().TryRecv(); ok {
			t.Error("completed with only one distinct rank finalized")
		}
		ep1.Send(1003, wire.KFinalize, nil)
		_, done = d.Done().Recv()
	})
	if !done {
		t.Fatal("never completed")
	}
}

func TestFaultKillsAndRespawnsAfterDelay(t *testing.T) {
	sim := vtime.NewSim()
	var killedAt, respawnedAt time.Duration
	var killedRank, respawnedRank int
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		d := Start(sim, fab, Config{
			Node:           1003,
			Ranks:          2,
			Faults:         []Fault{{Time: 10 * time.Millisecond, Rank: 1}},
			DetectionDelay: 5 * time.Millisecond,
			Kill: func(r int) {
				killedRank, killedAt = r, sim.Now()
			},
			Respawn: func(r int) {
				respawnedRank, respawnedAt = r, sim.Now()
				// The respawned rank finalizes immediately.
				fab.Attach(r, "cn").Send(1003, wire.KFinalize, nil)
			},
		})
		fab.Attach(0, "cn0").Send(1003, wire.KFinalize, nil)
		d.Done().Recv()
		if d.Kills != 1 || d.Restarts != 1 {
			t.Errorf("kills=%d restarts=%d", d.Kills, d.Restarts)
		}
	})
	if killedRank != 1 || respawnedRank != 1 {
		t.Errorf("killed %d, respawned %d", killedRank, respawnedRank)
	}
	if killedAt != 10*time.Millisecond {
		t.Errorf("killed at %v", killedAt)
	}
	if respawnedAt != 15*time.Millisecond {
		t.Errorf("respawned at %v, want kill+detection", respawnedAt)
	}
}

func TestFaultOnFinalizedRankIgnored(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		killed := false
		d := Start(sim, fab, Config{
			Node:           1003,
			Ranks:          1,
			Faults:         []Fault{{Time: 20 * time.Millisecond, Rank: 0}},
			DetectionDelay: time.Millisecond,
			Kill:           func(int) { killed = true },
			Respawn:        func(int) {},
		})
		fab.Attach(0, "cn0").Send(1003, wire.KFinalize, nil)
		d.Done().Recv()
		sim.Sleep(50 * time.Millisecond)
		if killed {
			t.Error("a finalized rank was killed by the fault plan")
		}
		if d.Kills != 0 {
			t.Errorf("Kills = %d", d.Kills)
		}
	})
}

// TestFaultPlansPinned pins the seeded plans: a refactor of the
// generators must keep every draw, or the chaos and elrep sweeps built
// on them move.
func TestFaultPlansPinned(t *testing.T) {
	targets := []int{0, 1, 2, 3}
	plan := func(ts ...int64) []Fault {
		var out []Fault
		for i := 0; i < len(ts); i += 2 {
			out = append(out, Fault{Time: time.Duration(ts[i]), Rank: int(ts[i+1])})
		}
		return out
	}
	cases := []struct {
		seed           uint64
		random, double []Fault
	}{
		{1,
			plan(93152053, 2, 99870678, 0, 167797388, 0, 174263021, 2, 215168727, 3, 246431957, 1, 249402246, 1),
			plan(75543654, 1, 91404587, 2, 154352170, 3, 188606441, 1, 222123350, 0, 235664183, 1, 227554051, 0, 264418584, 2)},
		{7,
			plan(122438626, 0, 123545415, 1, 195533131, 1, 218798304, 0, 299670316, 0),
			plan(183630337, 3, 195171671, 2, 260979670, 0, 299407139, 2, 269093814, 1, 280578184, 0)},
		{42,
			plan(32850653, 3, 59755465, 3, 165760255, 0, 186142961, 3, 188791586, 0, 298886214, 1),
			plan(155776258, 0, 186281404, 1, 220232119, 3, 254543217, 1, 298241776, 1)},
	}
	for _, tc := range cases {
		if got := RandomFaults(tc.seed, 20, 300*time.Millisecond, targets); !slices.Equal(got, tc.random) {
			t.Errorf("RandomFaults(seed %d) = %v, pinned %v", tc.seed, got, tc.random)
		}
		if got := DoubleFaults(tc.seed, 10, 300*time.Millisecond, 40*time.Millisecond, targets); !slices.Equal(got, tc.double) {
			t.Errorf("DoubleFaults(seed %d) = %v, pinned %v", tc.seed, got, tc.double)
		}
	}
}
