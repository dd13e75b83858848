package transport

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mpichv/internal/vtime"
)

// TestTCPHelloTimeoutReapsSilentDialer: an accepted connection that
// never identifies itself is dropped after HelloTimeout instead of
// pinning a read goroutine forever, and the listener keeps serving
// well-behaved peers afterwards.
func TestTCPHelloTimeoutReapsSilentDialer(t *testing.T) {
	setDuration(t, &HelloTimeout, 200*time.Millisecond)
	fab, eps := tcpFabric(t, nil, 2)
	a, b := eps[0], eps[1]

	// A dialer that connects and says nothing.
	mute, err := net.Dial("tcp", fab.addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()

	deadline := time.Now().Add(5 * time.Second)
	for fab.Stats().HelloTimeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hello timeout never fired against a silent dialer")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The reaped connection is observable from the mute side too: the
	// endpoint closed it.
	mute.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := mute.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent connection still open after hello timeout")
	}

	// Well-behaved traffic is unaffected.
	ch := collect(b)
	if !a.Send(1, 7, []byte("hi")) {
		t.Fatal("send failed after hello-timeout reap")
	}
	if got := recvN(ch, 1, 3*time.Second); len(got) != 1 || string(got[0].Data) != "hi" {
		t.Fatalf("frame lost after reap: %v", got)
	}
}

// TestTCPStaleConnReplacedOnRestart: node 1 dies and a new incarnation
// re-attaches on the same address while node 0 keeps sending. The new
// incarnation's inbound connection must replace 0's stale cached one,
// and traffic must flow to the survivor with no deadlock.
func TestTCPStaleConnReplacedOnRestart(t *testing.T) {
	fab, eps := tcpFabric(t, nil, 2)
	a, b1 := eps[0], eps[1]

	ch1 := collect(b1)
	if !a.Send(1, 7, []byte{1}) {
		t.Fatal("warm-up send failed")
	}
	if got := recvN(ch1, 1, 3*time.Second); len(got) != 1 {
		t.Fatal("warm-up frame lost")
	}

	// Kill generation 1. Its listener port is freed; re-bind the same
	// address for generation 2, as a restarted worker would.
	addr := fab.addr(1)
	b1.Close()
	fab.SetAddr(1, addr)

	// Node 0 keeps sending through the death (frames sent while no
	// incarnation listens are dropped; later ones reach gen2) while gen2
	// attaches and dials node 0 concurrently.
	var delivered int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if a.Send(1, 7, []byte{byte(i)}) {
				atomic.AddInt64(&delivered, 1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	b2 := fab.Attach(1, "gen2")
	defer b2.Close()
	ch2 := collect(b2)
	// Gen2 dials node 0 first — the inbound hello must displace any
	// stale state for peer 1 on node 0's side.
	if !b2.Send(0, 9, []byte("reborn")) {
		t.Fatal("gen2 send failed")
	}

	<-done
	got := recvN(ch2, 1, 5*time.Second)
	if len(got) == 0 {
		t.Fatal("no frame reached the restarted incarnation")
	}
	if atomic.LoadInt64(&delivered) == 0 {
		t.Fatal("every send failed across the restart")
	}
	// Recovery is observable in one of three ways, depending on who wins
	// the race after gen1 dies: the sender redials; gen2's inbound hello
	// displaces the stale cached connection; or a send to the dead
	// incarnation fails and its frames are dropped. All three must leave
	// a trace.
	if st := fab.Stats(); st.Redials == 0 && st.StaleReplaced == 0 && st.DroppedFrames == 0 {
		t.Fatalf("restart left no trace in sender stats: %+v", st)
	}
}

// TestTCPWriteTimeoutUnwedgesSender: a half-open peer (accepts, never
// reads, window fills) must not wedge the sender — Send returns, and the
// peer's writer hits the write deadline, drops the connection and gives
// up on the frames instead of blocking, all before Close could unwedge
// it.
func TestTCPWriteTimeoutUnwedgesSender(t *testing.T) {
	setDuration(t, &WriteTimeout, 300*time.Millisecond)
	fab, eps := tcpFabric(t, map[int]string{1: halfOpenListener(t).Addr().String()}, 1)
	a := eps[0]

	big := make([]byte, 1<<20)
	done := make(chan bool, 1)
	go func() {
		ok := true
		for i := 0; i < 32 && ok; i++ {
			ok = a.Send(1, 7, big)
		}
		done <- ok
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sender wedged against a half-open peer")
	}
	waitFor(t, 60*time.Second, "write deadline never fired", func() bool { return fab.Stats().WriteTimeouts > 0 })
	waitFor(t, 60*time.Second, "the writer never gave up on the half-open peer", func() bool { return fab.Stats().DroppedFrames > 0 })
}

// halfOpenListener accepts connections and never reads them: kernel
// buffers fill and the sender's write(2) blocks.
func halfOpenListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	return ln
}

// refusedAddr is a loopback address nobody listens on for the whole
// test: a socket without SO_REUSEADDR holds the port bound but never
// listens, so dials are refused and no later bind can take the port.
func refusedAddr(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
}

// tcpFabric attaches nodes 0..n-1 at ephemeral loopback ports, beside
// the given addresses of other nodes. When the test ends it closes the
// endpoints and joins the fabric's goroutines.
func tcpFabric(t *testing.T, other map[int]string, n int) (*TCPFabric, []Endpoint) {
	t.Helper()
	rt := vtime.NewReal()
	fab := NewTCPFabric(rt, other)
	eps := make([]Endpoint, n)
	for i := range eps {
		fab.SetAddr(i, "127.0.0.1:0")
		eps[i] = fab.Attach(i, "node")
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
		rt.Wait()
	})
	return fab, eps
}

// setDuration sets *v to d until the test ends. Set before tcpFabric, it
// is restored after the fabric's goroutines, which read it, are joined.
func setDuration(t *testing.T, v *time.Duration, d time.Duration) {
	old := *v
	*v = d
	t.Cleanup(func() { *v = old })
}

// waitFor polls cond until it holds, failing the test with msg after d.
func waitFor(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// TestTCPFabricShutdownReleasesGoroutines: closing every endpoint joins
// the fabric's accept, read and writer goroutines — writers with nothing
// queued, among them one whose dial to a peer that refuses connections
// failed. The endpoints dial each other at once, and every frame
// arrives.
func TestTCPFabricShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := vtime.NewReal()
	func() {
		fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0", 3: refusedAddr(t)})
		eps := []Endpoint{fab.Attach(0, "n0"), fab.Attach(1, "n1"), fab.Attach(2, "n2")}
		chs := []<-chan Frame{collect(eps[0]), collect(eps[1]), collect(eps[2])}
		for i, ep := range eps {
			for j := range eps {
				if i != j {
					ep.Send(j, 7, []byte{byte(i), byte(j)})
				}
			}
			ep.Send(3, 7, []byte{byte(i)})
		}
		for i, ch := range chs {
			if got := recvN(ch, 2, 3*time.Second); len(got) != 2 {
				t.Errorf("endpoint %d received %d of 2 frames", i, len(got))
			}
		}
		// A writer per endpoint for each other endpoint and for the
		// dead node; one started just now may not have run yet.
		buf := make([]byte, 1<<20)
		writers := func() int {
			return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*tcpEndpoint).writeLoop(")
		}
		for deadline := time.Now().Add(5 * time.Second); writers() < 9; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d writer goroutines running, want at least 9", writers())
				break
			}
		}
		for _, ep := range eps {
			ep.Close()
		}
	}()
	joined := make(chan struct{})
	go func() { rt.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("the fabric's goroutines did not exit after Close")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// TestTCPCloseWhileAccepting: a dialer's hello that lands after Close
// swept the connection map must not be registered into it — the
// endpoint closes the newcomer instead. Dial + hello race Close a few
// hundred times; before the guard, register wrote the nil map and took
// the whole process down.
func TestTCPCloseWhileAccepting(t *testing.T) {
	for i := 0; i < 300; i++ {
		rt := vtime.NewReal()
		fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0"})
		ep := fab.Attach(0, "victim")
		addr := fab.addr(0)
		var wg sync.WaitGroup
		for from := 1; from <= 4; from++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return // the listener was already gone
				}
				defer c.Close()
				if WriteFrame(c, Frame{From: from, Kind: helloKind}) != nil {
					return
				}
				// Registered or refused, the endpoint ends up closing
				// its side; wait for that so no reader outlives the test.
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Read(make([]byte, 1)); err == nil {
					t.Error("closed endpoint sent data to a dialer")
				}
			}(from)
		}
		time.Sleep(time.Duration(i%8) * 40 * time.Microsecond)
		ep.Close()
		wg.Wait()
		// Every accept and read goroutine of the closed endpoint ends.
		rt.Wait()
	}
}

// TestTCPCrossedDials: endpoints that all send to each other at once
// dial each other at once, so each pair's two dials cross. Every frame
// arrives exactly once: a connection replaced by the other side's dial
// is drained, not closed, so the frames already written on it are read.
func TestTCPCrossedDials(t *testing.T) {
	const rounds, nodes, frames, want = 20, 5, 5, (5 - 1) * 5
	for r := 0; r < rounds; r++ {
		fab, eps := tcpFabric(t, nil, nodes)
		var chs []<-chan Frame
		for _, ep := range eps {
			chs = append(chs, collect(ep))
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, ep := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < frames; k++ {
					for j := range eps {
						if j != i {
							ep.Send(j, 7, []byte{byte(i), byte(k)})
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		for j, ch := range chs {
			got := recvN(ch, want, 5*time.Second)
			distinct := make(map[[2]byte]bool)
			for _, f := range got {
				distinct[[2]byte{f.Data[0], f.Data[1]}] = true
			}
			if len(got) != want || len(distinct) != want {
				t.Fatalf("round %d: node %d received %d frames, %d distinct, want %d; stats %+v", r, j, len(got), len(distinct), want, fab.Stats())
			}
		}
		for _, ep := range eps {
			ep.Close()
		}
	}
}
