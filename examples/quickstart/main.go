// Quickstart: a two-rank ping-pong on a simulated MPICH-V2 system —
// then the same run with rank 1 killed mid-flight, recovered
// transparently by the runtime.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
)

func pingPong(rtt *time.Duration) cluster.Program {
	return func(p *mpi.Proc) {
		const rounds = 50
		msg := []byte("hello, volatile world")
		t0 := p.Clock().Now()
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				p.Send(1, 7, msg)
				reply, _ := p.Recv(1, 8)
				if string(reply) != string(msg) {
					p.Abortf("round %d: corrupted reply %q", r, reply)
				}
			} else {
				b, _ := p.Recv(0, 7)
				p.Send(0, 8, b)
			}
		}
		if p.Rank() == 0 {
			*rtt = (p.Clock().Now() - t0) / rounds
		}
	}
}

func main() {
	fmt.Println("== fault-free ping-pong on MPICH-V2 ==")
	var rtt time.Duration
	res := cluster.Run(cluster.Config{Impl: cluster.V2, N: 2}, pingPong(&rtt))
	fmt.Printf("50 verified rounds, mean RTT %v, %d reception events logged\n\n", rtt, res.EL.Logged)

	fmt.Println("== same run, rank 1 killed after 3ms ==")
	res = cluster.Run(cluster.Config{
		Impl: cluster.V2, N: 2,
		Faults:         []dispatcher.Fault{{Time: 3 * time.Millisecond, Rank: 1}},
		DetectionDelay: time.Millisecond,
	}, pingPong(&rtt))
	fmt.Printf("kills=%d restarts=%d — rank 1 re-executed from its senders' logs\n", res.Kills, res.Restarts)
	fmt.Printf("the run still verified every round; mean RTT %v\n", rtt)
}
