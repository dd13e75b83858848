package cluster

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"mpichv/internal/dispatcher"
	"mpichv/internal/mpi"
	"mpichv/internal/netsim"
)

// pingPong bounces a message repeatedly and records the steady-state
// mean round trip (the first round is a warm-up: it lacks the sender's
// event-logging wait).
func pingPong(size, rounds int, out *time.Duration) Program {
	return func(p *mpi.Proc) {
		msg := make([]byte, size)
		var t0 time.Duration
		for r := 0; r < rounds+1; r++ {
			if p.Rank() == 0 {
				if r == 1 {
					t0 = p.Clock().Now()
				}
				p.Send(1, 7, msg)
				p.Recv(1, 8)
			} else {
				b, _ := p.Recv(0, 7)
				p.Send(0, 8, b)
			}
		}
		if p.Rank() == 0 {
			*out = (p.Clock().Now() - t0) / time.Duration(rounds)
		}
	}
}

func TestPingPongCompletesOnAllImpls(t *testing.T) {
	for _, impl := range []Impl{V2, P4, V1} {
		t.Run(impl.String(), func(t *testing.T) {
			var rtt time.Duration
			res := Run(Config{Impl: impl, N: 2}, pingPong(0, 10, &rtt))
			if rtt <= 0 {
				t.Fatalf("%v: no round trip measured", impl)
			}
			if res.Elapsed <= 0 {
				t.Fatalf("%v: elapsed = %v", impl, res.Elapsed)
			}
			t.Logf("%v: 0-byte RTT = %v", impl, rtt)
		})
	}
}

func TestLatencyCalibration(t *testing.T) {
	// Paper figure 6: P4 one-way 0-byte latency 77 µs, V2 237 µs; V1
	// sits in between. We allow 10% slack for protocol details.
	oneWay := func(impl Impl) time.Duration {
		var rtt time.Duration
		Run(Config{Impl: impl, N: 2}, pingPong(0, 10, &rtt))
		return rtt / 2
	}
	p4 := oneWay(P4)
	v2 := oneWay(V2)
	v1 := oneWay(V1)
	check := func(name string, got, want time.Duration) {
		lo, hi := want*90/100, want*110/100
		if got < lo || got > hi {
			t.Errorf("%s one-way latency = %v, want ≈ %v", name, got, want)
		}
	}
	check("P4", p4, 77*time.Microsecond)
	check("V2", v2, 237*time.Microsecond)
	if v1 <= p4 || v1 >= v2 {
		t.Errorf("V1 latency %v should sit between P4 %v and V2 %v", v1, p4, v2)
	}
}

func TestBandwidthShape(t *testing.T) {
	// Paper figure 5: for 1 MiB messages P4 ≈ 11.3 MB/s, V2 slightly
	// below (10.7), V1 about half.
	bw := func(impl Impl) float64 {
		var rtt time.Duration
		const size = 1 << 20
		Run(Config{Impl: impl, N: 2}, pingPong(size, 4, &rtt))
		return float64(2*size) / rtt.Seconds() / 1e6
	}
	p4, v2, v1 := bw(P4), bw(V2), bw(V1)
	t.Logf("bandwidth MB/s: P4=%.2f V2=%.2f V1=%.2f", p4, v2, v1)
	if !(v2 < p4 && p4 < 1.10*v2) {
		t.Errorf("V2 (%.2f) should be slightly below P4 (%.2f)", v2, p4)
	}
	if v1 > 0.6*p4 || v1 < 0.4*p4 {
		t.Errorf("V1 (%.2f) should be about half of P4 (%.2f)", v1, p4)
	}
}

// ringProgram passes an accumulating token around the ring for rounds
// turns and records the final value everyone agrees on.
func ringProgram(rounds int, finals []uint64) Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		var token uint64
		buf := make([]byte, 8)
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				binary.BigEndian.PutUint64(buf, token+1)
				p.Send(right, 1, buf)
				b, _ := p.Recv(left, 1)
				token = binary.BigEndian.Uint64(b)
			} else {
				b, _ := p.Recv(left, 1)
				token = binary.BigEndian.Uint64(b) + 1
				binary.BigEndian.PutUint64(buf, token)
				p.Send(right, 1, buf)
			}
		}
		finals[p.Rank()] = token
	}
}

func ringExpect(n, rounds int) (rank0 uint64) {
	// Each round adds n to the token as it passes all ranks.
	return uint64(n * rounds)
}

func TestTokenRing(t *testing.T) {
	const n, rounds = 8, 20
	finals := make([]uint64, n)
	Run(Config{Impl: V2, N: n}, ringProgram(rounds, finals))
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("rank 0 token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
}

func TestCollectivesV2(t *testing.T) {
	const n = 7 // non-power-of-two on purpose
	sums := make([]float64, n)
	gathered := make([]int, n)
	Run(Config{Impl: V2, N: n}, func(p *mpi.Proc) {
		me := float64(p.Rank() + 1)
		sums[p.Rank()] = p.AllreduceScalar(me, mpi.OpSum)

		// Bcast + Barrier + Allgather round trip.
		msg := p.Bcast(2, []byte(fmt.Sprintf("from2:%d", p.Rank())))
		if string(msg) != "from2:2" {
			p.Abortf("bcast got %q", msg)
		}
		p.Barrier()
		blocks := p.Allgather([]byte{byte(p.Rank() * 3)})
		count := 0
		for r, b := range blocks {
			if len(b) == 1 && int(b[0]) == r*3 {
				count++
			}
		}
		gathered[p.Rank()] = count

		// Alltoall: block for rank r carries our rank.
		out := make([][]byte, n)
		for r := range out {
			out[r] = []byte{byte(p.Rank()), byte(r)}
		}
		in := p.Alltoall(out)
		for r, b := range in {
			if len(b) != 2 || int(b[0]) != r || int(b[1]) != p.Rank() {
				p.Abortf("alltoall block from %d = %v", r, b)
			}
		}
	})
	want := float64(n * (n + 1) / 2)
	for r, s := range sums {
		if s != want {
			t.Errorf("rank %d allreduce = %v, want %v", r, s, want)
		}
	}
	for r, c := range gathered {
		if c != n {
			t.Errorf("rank %d allgather matched %d/%d blocks", r, c, n)
		}
	}
}

func TestRendezvousLargeMessages(t *testing.T) {
	const n = 2
	const size = 300 << 10 // over the 64 KiB eager limit
	ok := make([]bool, n)
	Run(Config{Impl: V2, N: n}, func(p *mpi.Proc) {
		if p.Rank() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 7)
			}
			p.Send(1, 5, data)
			ok[0] = true
		} else {
			b, st := p.Recv(0, 5)
			good := st.Size == size && len(b) == size
			for i := 0; good && i < size; i += 4097 {
				good = b[i] == byte(i*7)
			}
			ok[1] = good
		}
	})
	if !ok[0] || !ok[1] {
		t.Errorf("rendezvous transfer failed: %v", ok)
	}
}

func TestRestartFromScratchReExecutes(t *testing.T) {
	// No checkpointing: a killed node re-executes from the beginning,
	// replaying its receptions from the senders' logs, and the ring
	// still completes with the right token value.
	const n, rounds = 4, 30
	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		Faults: []dispatcher.Fault{{Time: 5 * time.Millisecond, Rank: 2}},
	}, ringProgram(rounds, finals))
	if res.Kills != 1 || res.Restarts != 1 {
		t.Fatalf("kills=%d restarts=%d, want 1/1", res.Kills, res.Restarts)
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("rank 0 token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
	for r := 1; r < n; r++ {
		if finals[r] == 0 {
			t.Errorf("rank %d never finished", r)
		}
	}
}

func TestMultipleConcurrentFaults(t *testing.T) {
	// n concurrent faults of n processes: every rank dies at a
	// different point; the system still converges (the paper's
	// headline property).
	const n, rounds = 4, 25
	finals := make([]uint64, n)
	var faults []dispatcher.Fault
	for r := 0; r < n; r++ {
		faults = append(faults, dispatcher.Fault{Time: time.Duration(3+2*r) * time.Millisecond, Rank: r})
	}
	res := Run(Config{Impl: V2, N: n, Faults: faults}, ringProgram(rounds, finals))
	if res.Restarts != n {
		t.Fatalf("restarts = %d, want %d", res.Restarts, n)
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("rank 0 token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
}

// ckptProgram iterates allreduces with checkpointable state.
func ckptProgram(iters int, finals []float64) Program {
	return func(p *mpi.Proc) {
		state := struct {
			Iter int
			Acc  float64
		}{}
		p.SetStateProvider(func() []byte {
			buf := make([]byte, 16)
			binary.BigEndian.PutUint64(buf, uint64(state.Iter))
			binary.BigEndian.PutUint64(buf[8:], uint64(int64(state.Acc)))
			return buf
		})
		if blob, restarted := p.Restarted(); restarted && blob != nil {
			state.Iter = int(binary.BigEndian.Uint64(blob))
			state.Acc = float64(int64(binary.BigEndian.Uint64(blob[8:])))
		}
		for ; state.Iter < iters; state.Iter++ {
			p.CheckpointPoint()
			p.Compute(1e5)
			state.Acc += p.AllreduceScalar(float64(p.Rank()+state.Iter), mpi.OpSum)
		}
		finals[p.Rank()] = state.Acc
	}
}

func ckptExpect(n, iters int) float64 {
	var acc float64
	for i := 0; i < iters; i++ {
		for r := 0; r < n; r++ {
			acc += float64(r + i)
		}
	}
	return acc
}

func TestCheckpointRestart(t *testing.T) {
	const n, iters = 4, 60
	finals := make([]float64, n)
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing: true,
		SchedPeriod:   2 * time.Millisecond,
		Faults: []dispatcher.Fault{
			{Time: 20 * time.Millisecond, Rank: 1},
			{Time: 45 * time.Millisecond, Rank: 3},
		},
	}, ckptProgram(iters, finals))
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	if res.CS.Saves == 0 {
		t.Error("no checkpoints were saved")
	}
	want := ckptExpect(n, iters)
	for r, v := range finals {
		if v != want {
			t.Errorf("rank %d acc = %v, want %v", r, v, want)
		}
	}
	t.Logf("ckpt saves=%d bytes=%d restarts=%d elapsed=%v", res.CS.Saves, res.CS.SavedBytes, res.Restarts, res.Elapsed)
}

func TestGarbageCollectionFreesLogs(t *testing.T) {
	const n, iters = 2, 40
	finals := make([]float64, n)
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing: true,
		SchedPeriod:   time.Millisecond,
	}, ckptProgram(iters, finals))
	if res.CS.Saves == 0 {
		t.Skip("no checkpoints completed in this configuration")
	}
	if res.Daemon.GCFreedBytes == 0 {
		t.Error("garbage collection never freed logged payloads")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, uint64) {
		finals := make([]uint64, 4)
		res := Run(Config{
			Impl: V2, N: 4,
			Faults: []dispatcher.Fault{{Time: 4 * time.Millisecond, Rank: 1}},
		}, ringProgram(15, finals))
		return res.Elapsed, finals[0]
	}
	e1, f1 := run()
	e2, f2 := run()
	if e1 != e2 || f1 != f2 {
		t.Errorf("nondeterministic runs: (%v,%d) vs (%v,%d)", e1, f1, e2, f2)
	}
}

func TestAnySourceOrderIsReplayed(t *testing.T) {
	// Rank 0 receives from AnySource; the arrival order is the
	// nondeterminism the event logger captures. After a crash of rank
	// 0, the re-execution must observe the same order, producing the
	// same alternating-difference checksum.
	const n, msgs = 4, 30
	var sum [2]int64
	for variant, faults := range [][]dispatcher.Fault{
		nil,
		{{Time: 3 * time.Millisecond, Rank: 0}},
	} {
		Run(Config{Impl: V2, N: n, Faults: faults}, func(p *mpi.Proc) {
			if p.Rank() == 0 {
				var acc, weight int64 = 0, 1
				for i := 0; i < n-1; i++ {
					for j := 0; j < msgs; j++ {
						b, st := p.Recv(mpi.AnySource, 3)
						acc += weight * int64(st.Source) * int64(b[0]+1)
						weight = -weight
					}
				}
				sum[variant] = acc
			} else {
				for j := 0; j < msgs; j++ {
					p.Send(0, 3, []byte{byte(j)})
				}
			}
		})
	}
	// The checksum depends on the interleaving; deterministic sims and
	// faithful replay must agree with the fault-free run.
	if sum[0] != sum[1] {
		t.Errorf("replayed AnySource order diverged: %d vs %d", sum[0], sum[1])
	}
}

func TestSlowNetworkStillCorrect(t *testing.T) {
	// Sanity under a different parameterization: 10× slower network.
	p := netsim.Params2003()
	p.Bandwidth /= 10
	p.ComputeOverhead *= 10
	finals := make([]uint64, 3)
	Run(Config{Impl: V2, N: 3, Params: p}, ringProgram(10, finals))
	if finals[0] != ringExpect(3, 10) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(3, 10))
	}
}

func TestMultipleEventLoggers(t *testing.T) {
	// §4.5: several event loggers, each daemon connected to exactly
	// one, no logger-to-logger communication. Recovery must fetch from
	// the right logger.
	const n, rounds = 4, 20
	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		EventLoggers: 2,
		Faults:       []dispatcher.Fault{{Time: 4 * time.Millisecond, Rank: 3}},
	}, ringProgram(rounds, finals))
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
	if res.EL.Logged == 0 {
		t.Error("no events logged across the loggers")
	}
}

func TestNoGatingIsFasterButUnsafe(t *testing.T) {
	// Ablation sanity: disabling WAITLOGGED must strictly reduce the
	// latency of a dependent message chain.
	run := func(gating bool) time.Duration {
		finals := make([]uint64, 3)
		res := Run(Config{Impl: V2, N: 3, NoSendGating: !gating}, ringProgram(10, finals))
		return res.Elapsed
	}
	if on, off := run(true), run(false); off >= on {
		t.Errorf("no-gating (%v) should be faster than pessimistic (%v)", off, on)
	}
}

func TestSameRankKilledTwice(t *testing.T) {
	// The second fault lands while the rank is replaying from its
	// first crash: recovery must restart cleanly from the same logs.
	const n, rounds = 4, 30
	finals := make([]uint64, n)
	res := Run(Config{
		Impl: V2, N: n,
		DetectionDelay: 2 * time.Millisecond,
		Faults: []dispatcher.Fault{
			{Time: 5 * time.Millisecond, Rank: 2},
			{Time: 8 * time.Millisecond, Rank: 2}, // during recovery/replay
		},
	}, ringProgram(rounds, finals))
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
}

func TestFaultDuringCheckpointing(t *testing.T) {
	// Faults racing the checkpoint pipeline: kills land while images
	// are in flight to the checkpoint server.
	const n, iters = 4, 50
	finals := make([]float64, n)
	var faults []dispatcher.Fault
	for i := 0; i < 6; i++ {
		faults = append(faults, dispatcher.Fault{
			Time: time.Duration(8+7*i) * time.Millisecond,
			Rank: i % n,
		})
	}
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		SchedPeriod:    time.Millisecond, // checkpoint constantly
		DetectionDelay: 3 * time.Millisecond,
		Faults:         faults,
	}, ckptProgram(iters, finals))
	if res.Restarts != 6 {
		t.Fatalf("restarts = %d, want 6", res.Restarts)
	}
	want := ckptExpect(n, iters)
	for r, v := range finals {
		if v != want {
			t.Errorf("rank %d acc = %v, want %v", r, v, want)
		}
	}
}

func TestRapidFireFaults(t *testing.T) {
	// A fault every few milliseconds, round-robin over the ranks —
	// high fault frequency is one of the paper's two volatility
	// challenges (§2).
	const n, rounds = 3, 25
	finals := make([]uint64, n)
	var faults []dispatcher.Fault
	for i := 0; i < 9; i++ {
		faults = append(faults, dispatcher.Fault{
			Time: time.Duration(4+3*i) * time.Millisecond,
			Rank: i % n,
		})
	}
	res := Run(Config{
		Impl: V2, N: n,
		DetectionDelay: time.Millisecond,
		Faults:         faults,
	}, ringProgram(rounds, finals))
	if res.Restarts == 0 {
		t.Fatal("no restarts recorded")
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
	t.Logf("survived %d kills / %d restarts", res.Kills, res.Restarts)
}

func TestMultipleCheckpointServers(t *testing.T) {
	const n, iters = 4, 60
	finals := make([]float64, n)
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing: true,
		CkptServers:   2,
		SchedPeriod:   2 * time.Millisecond,
		Faults: []dispatcher.Fault{
			{Time: 20 * time.Millisecond, Rank: 0},
			{Time: 40 * time.Millisecond, Rank: 3},
		},
	}, ckptProgram(iters, finals))
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if res.CS.Saves == 0 {
		t.Fatal("no checkpoints saved across the servers")
	}
	want := ckptExpect(n, iters)
	for r, v := range finals {
		if v != want {
			t.Errorf("rank %d acc = %v, want %v", r, v, want)
		}
	}
}

// incastProgram is a reception burst: rank 0 drains 30 messages from
// every other rank back to back, then answers each with the checksum.
func incastProgram(sums []int64) Program {
	return func(p *mpi.Proc) {
		const msgs = 30
		if p.Rank() == 0 {
			var sum int64
			for i := 0; i < (p.Size()-1)*msgs; i++ {
				b, _ := p.Recv(mpi.AnySource, 1)
				sum += int64(b[0])
			}
			for r := 1; r < p.Size(); r++ {
				p.Send(r, 2, []byte{byte(sum % 251)})
			}
			sums[0] = sum
		} else {
			for i := 0; i < msgs; i++ {
				p.Send(0, 1, []byte{byte(i)})
			}
			b, _ := p.Recv(0, 2)
			sums[p.Rank()] = int64(b[0])
		}
	}
}

func TestEventBatchingCorrectAndCheaper(t *testing.T) {
	// Batching pays off on reception bursts: an incast where rank 0
	// drains many messages back to back, then answers. With an
	// unbounded EL window (0) every event ships the moment it commits;
	// with a window of one the events that arrive while a batch is in
	// flight ship together when it is acked.
	run := func(window int) (Result, []int64) {
		sums := make([]int64, 4)
		res := Run(Config{
			Impl: V2, N: 4,
			ELWindow: window,
			Faults:   []dispatcher.Fault{{Time: 3 * time.Millisecond, Rank: 0}},
		}, incastProgram(sums))
		return res, sums
	}
	plain, sumsPlain := run(0)
	batched, sumsBatched := run(1)
	for r := range sumsPlain {
		if sumsPlain[r] != sumsBatched[r] {
			t.Fatalf("rank %d result differs: %d vs %d", r, sumsPlain[r], sumsBatched[r])
		}
	}
	if plain.EL.Logged != batched.EL.Logged {
		t.Errorf("event counts differ: %d vs %d", plain.EL.Logged, batched.EL.Logged)
	}
	if batched.NetMessages >= plain.NetMessages {
		t.Errorf("batching did not reduce messages: %d vs %d", batched.NetMessages, plain.NetMessages)
	}
	t.Logf("net messages: plain=%d batched=%d", plain.NetMessages, batched.NetMessages)
}

func TestMassiveSimultaneousNodeLoss(t *testing.T) {
	// §2's first volatility challenge: "survive massive lost of nodes"
	// — e.g. a whole sub-cluster disconnecting at once. Half of a
	// 16-node ring dies at the same instant.
	const n, rounds = 16, 15
	finals := make([]uint64, n)
	var faults []dispatcher.Fault
	for r := 0; r < n; r += 2 {
		faults = append(faults, dispatcher.Fault{Time: 6 * time.Millisecond, Rank: r})
	}
	res := Run(Config{
		Impl: V2, N: n,
		DetectionDelay: 2 * time.Millisecond,
		Faults:         faults,
	}, ringProgram(rounds, finals))
	if res.Restarts != n/2 {
		t.Fatalf("restarts = %d, want %d", res.Restarts, n/2)
	}
	if finals[0] != ringExpect(n, rounds) {
		t.Errorf("token = %d, want %d", finals[0], ringExpect(n, rounds))
	}
}
