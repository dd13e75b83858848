package transport

import (
	"runtime"
	"testing"
	"time"

	"mpichv/internal/vtime"
)

// proxyRig wires endpoint 1 (plain) and endpoint 2 (behind a chaos
// proxy) on one TCP fabric: 1 dials 2 through the proxy front, 2
// listens on the ephemeral port it bound first. Each endpoint's inbox is drained by
// a single collector goroutine so tests never race over Recv.
type proxyRig struct {
	a, b     Endpoint
	ach, bch <-chan Frame
	px       *ChaosProxy
}

func newProxyRig(t *testing.T, pol ProxyPolicy) *proxyRig {
	t.Helper()
	rt := vtime.NewReal()
	fab := NewTCPFabric(rt, map[int]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"})
	// The backend holds its listener from the moment the kernel picks
	// the port, so nothing can take the address before the proxy dials
	// it; peers are then pointed at the proxy front instead.
	b := fab.Attach(2, "proxied")
	px, err := NewChaosProxy(rt, 2, "127.0.0.1:0", fab.addr(2), pol)
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	fab.SetAddr(2, px.Addr())
	a := fab.Attach(1, "plain")
	t.Cleanup(func() {
		a.Close()
		b.Close()
		px.Close()
	})
	return &proxyRig{a: a, b: b, ach: collect(a), bch: collect(b), px: px}
}

// collect drains an endpoint's inbox into a buffered channel from a
// single goroutine; it closes the channel when the endpoint closes.
func collect(ep Endpoint) <-chan Frame {
	ch := make(chan Frame, 4096)
	go func() {
		defer close(ch)
		for {
			f, ok := ep.Inbox().Recv()
			if !ok {
				return
			}
			ch <- f
		}
	}()
	return ch
}

func recvN(ch <-chan Frame, n int, timeout time.Duration) []Frame {
	var out []Frame
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case f, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, f)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestProxyPassThrough(t *testing.T) {
	rig := newProxyRig(t, ProxyPolicy{})
	const n = 50
	for i := 0; i < n; i++ {
		if !rig.a.Send(2, 7, []byte{byte(i), 1, 2, 3}) {
			t.Fatalf("send %d failed", i)
		}
	}
	got := recvN(rig.bch, n, 5*time.Second)
	if len(got) != n {
		t.Fatalf("proxied endpoint received %d/%d frames", len(got), n)
	}
	for i, f := range got {
		if f.From != 1 || f.Kind != 7 || len(f.Data) != 4 || f.Data[0] != byte(i) {
			t.Fatalf("frame %d corrupted in clean pass-through: %+v", i, f)
		}
	}
	// The reverse path (backend → peer over the same proxied conn).
	for i := 0; i < n; i++ {
		if !rig.b.Send(1, 9, []byte{byte(i)}) {
			t.Fatalf("reverse send %d failed", i)
		}
	}
	back := recvN(rig.ach, n, 5*time.Second)
	if len(back) != n {
		t.Fatalf("reverse path delivered %d/%d", len(back), n)
	}
	if c := rig.px.Counters(); c.FramesIn == 0 || c.FramesOut == 0 {
		t.Fatalf("proxy counted FramesIn=%d FramesOut=%d", c.FramesIn, c.FramesOut)
	}
}

// TestProxyDropVocabulary: the simulated chaos vocabulary applies to
// the live stream — dropped frames vanish without desynchronizing the
// framing, truncated ones keep a consistent length header.
func TestProxyDropVocabulary(t *testing.T) {
	rig := newProxyRig(t, ProxyPolicy{
		ChaosPolicy: ChaosPolicy{Seed: 7, Drop: 0.3, Truncate: 0.2, Corrupt: 0.1},
	})
	const n = 200
	for i := 0; i < n; i++ {
		rig.a.Send(2, 7, []byte{byte(i), byte(i), byte(i), byte(i)})
	}
	time.Sleep(300 * time.Millisecond)
	pc := rig.px.Counters()
	got := recvN(rig.bch, n-int(pc.Dropped), 2*time.Second)
	if pc.Dropped == 0 || pc.Truncated == 0 || pc.Corrupted == 0 {
		t.Fatalf("faults never fired: drop=%d trunc=%d corrupt=%d", pc.Dropped, pc.Truncated, pc.Corrupted)
	}
	whole, cut, empty := 0, 0, 0
	for _, f := range got {
		switch len(f.Data) {
		case 4:
			whole++
		case 2:
			cut++
		case 0:
			empty++
		default:
			t.Fatalf("frame with impossible payload length %d", len(f.Data))
		}
	}
	if int64(cut) != pc.Truncated || int64(empty) != pc.Corrupted {
		t.Fatalf("stream damage (cut=%d empty=%d) disagrees with counters (%d, %d)",
			cut, empty, pc.Truncated, pc.Corrupted)
	}
	// The transport hello frame also crosses the proxy and may be among
	// the dropped, so allow one frame of slack in the accounting.
	if diff := (whole + cut + empty) - (n - int(pc.Dropped)); diff < 0 || diff > 1 {
		t.Fatalf("delivered %d frames, want %d (±1 for the hello)", whole+cut+empty, n-int(pc.Dropped))
	}
}

// TestProxySeedDeterminism: one connection, sequential sends — the same
// seed must injure the same frames.
func TestProxySeedDeterminism(t *testing.T) {
	run := func() (dropped, truncated int64) {
		rig := newProxyRig(t, ProxyPolicy{
			ChaosPolicy: ChaosPolicy{Seed: 99, Drop: 0.25, Truncate: 0.25},
		})
		const n = 120
		for i := 0; i < n; i++ {
			rig.a.Send(2, 7, []byte{1, 2, 3, 4})
		}
		time.Sleep(200 * time.Millisecond)
		c := rig.px.Counters()
		recvN(rig.bch, n-int(c.Dropped), time.Second) // drain what survives
		c = rig.px.Counters()
		return c.Dropped, c.Truncated
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("same seed, different schedule: drop %d vs %d, trunc %d vs %d", d1, d2, t1, t2)
	}
	if d1 == 0 || t1 == 0 {
		t.Fatalf("faults never fired (drop=%d trunc=%d)", d1, t1)
	}
}

// TestProxyPartitionIsolates: a wildcard partition toward the proxied
// node cuts inbound frames for its duration, then heals.
func TestProxyPartitionIsolates(t *testing.T) {
	rig := newProxyRig(t, ProxyPolicy{
		ChaosPolicy: ChaosPolicy{Partitions: []Partition{{A: -1, B: 2, From: 0, Until: 400 * time.Millisecond}}},
	})
	rig.a.Send(2, 7, []byte{1})
	time.Sleep(100 * time.Millisecond)
	if got := recvN(rig.bch, 1, 200*time.Millisecond); len(got) != 0 {
		t.Fatalf("frame crossed an active partition")
	}
	time.Sleep(400 * time.Millisecond) // partition lifts
	rig.a.Send(2, 7, []byte{2})
	if got := recvN(rig.bch, 1, 3*time.Second); len(got) != 1 || got[0].Data[0] != 2 {
		t.Fatalf("frame did not cross after heal: %v", got)
	}
	if rig.px.Counters().Partitioned == 0 {
		t.Fatal("partition counter never moved")
	}
}

// TestProxyResetRedials: mid-stream connection resets lose frames in
// flight but the sender's redial machinery re-establishes the path
// through the proxy, so later frames still arrive.
func TestProxyResetRedials(t *testing.T) {
	rig := newProxyRig(t, ProxyPolicy{ChaosPolicy: ChaosPolicy{Seed: 5}, Reset: 0.1})
	const n = 40
	delivered := 0
	for i := 0; i < n; i++ {
		rig.a.Send(2, 7, []byte{byte(i)})
		// Pace sends so a reset's reconnection isn't racing the next frame.
		if got := recvN(rig.bch, 1, 500*time.Millisecond); len(got) == 1 {
			delivered++
		}
	}
	pc := rig.px.Counters()
	if pc.Resets == 0 {
		t.Fatalf("resets never fired over %d frames", n)
	}
	// A reset costs at most the triggering frame plus one silently lost
	// write on the not-yet-noticed dead connection.
	if delivered == 0 || int64(delivered) < int64(n)-2*pc.Resets {
		t.Fatalf("delivered %d of %d with %d resets — redial is not recovering", delivered, n, pc.Resets)
	}
}

// TestProxyStallIsHalfOpen: a stalled direction freezes without
// closing; traffic resumes after StallFor.
func TestProxyStallIsHalfOpen(t *testing.T) {
	rig := newProxyRig(t, ProxyPolicy{Stall: 1, StallFor: 300 * time.Millisecond})
	start := time.Now()
	rig.a.Send(2, 7, []byte{1})
	got := recvN(rig.bch, 1, 5*time.Second)
	if len(got) != 1 {
		t.Fatal("stalled frame never arrived")
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("frame arrived in %v, before the stall window", elapsed)
	}
	if rig.px.Counters().Stalls == 0 {
		t.Fatal("stall counter never moved")
	}
}

// TestProxyCloseReleasesGoroutines: the proxy joins all its goroutines
// on Close — no leaked pipes or delayed writers.
func TestProxyCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		rig := newProxyRig(t, ProxyPolicy{
			ChaosPolicy: ChaosPolicy{Seed: 3, Delay: 0.5, MaxDelay: 50 * time.Millisecond},
		})
		for i := 0; i < 100; i++ {
			rig.a.Send(2, 7, []byte{byte(i)})
		}
		recvN(rig.bch, 50, 2*time.Second)
		rig.a.Close()
		rig.b.Close()
		rig.px.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
}
