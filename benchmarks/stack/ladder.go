package main

import (
	"time"

	"mpichv/internal/daemon"
)

// rung is one stack of the ladder. Each adds one layer to the one
// before it, so the difference between two consecutive rungs is what
// that layer costs a 0-byte round trip, and the differences telescope
// to the whole. The last four branch off the pingpong_0b stack instead.
type rung struct {
	metric string
	spec   stackSpec
	size   int
}

var ladder = []rung{
	{"mpi.p4_mem_lap_p50_us", stackSpec{ranks: 2, p4: true, mem: true}, 0},
	{"transport.p4_tcp_lap_p50_us", stackSpec{ranks: 2, p4: true}, 0},
	{"daemon.v2_mem_lap_p50_us", stackSpec{ranks: 2, mem: true, els: 1, elq: 1}, 0},
	{"eventlog.v2_tcp_nowal_lap_p50_us", stackSpec{ranks: 2, els: 1, elq: 1}, 0},
	{"walog.v2_tcp_wal_lap_p50_us", pingpongStack(), 0},
	{"eventlog.v2_tcp_q3_lap_p50_us", stackSpec{ranks: 2, els: 3, elq: 2, wal: true}, 0},
	{"daemon.v2_tcp_detadaptive_lap_p50_us", stackSpec{ranks: 2, els: 1, elq: 1, wal: true, detMode: daemon.DetAdaptive}, 0},
	// The eager/rendezvous cliff of the MPI layer, one byte apart.
	{"mpi.eager_64k_lap_p50_us", pingpongStack(), 64 << 10},
	{"mpi.rndv_64k1_lap_p50_us", pingpongStack(), 64<<10 + 1},
}

// runLadder gives each rung the same slice of time and reports its
// median lap.
func runLadder(env *runEnv, slice time.Duration, m metrics) (failed int64, problems []string) {
	for _, r := range ladder {
		e := *env
		e.budget = slice
		warm := env.sz.warm0b / 4
		if r.size > 0 {
			warm = env.sz.warm256k
		}
		res := runPingpong(&e, r.spec, r.size, warm, 0, 1<<30)
		m.set(r.metric, median(nsToUs(res.laps)))
		failed += res.failed
		problems = append(problems, res.problems...)
	}
	return failed, problems
}
