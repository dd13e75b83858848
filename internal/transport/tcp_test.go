package transport

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpichv/internal/vtime"
)

// TestTCPHelloTimeoutReapsSilentDialer: an accepted connection that
// never identifies itself is dropped after HelloTimeout instead of
// pinning a read goroutine forever, and the listener keeps serving
// well-behaved peers afterwards.
func TestTCPHelloTimeoutReapsSilentDialer(t *testing.T) {
	old := HelloTimeout
	HelloTimeout = 200 * time.Millisecond
	defer func() { HelloTimeout = old }()

	rt := vtime.NewReal()
	fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	b := fab.Attach(1, "victim")
	a := fab.Attach(0, "peer")
	defer a.Close()
	defer b.Close()

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
	rt := vtime.NewReal()
	fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	b1 := fab.Attach(1, "gen1")
	a := fab.Attach(0, "sender")
	defer a.Close()

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

	// Node 0 keeps sending through the death (retries are expected to
	// carry the frames over fresh dials once gen2 is up) while gen2
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
	// the race after gen1 dies: the sender's write fails and it redials;
	// gen2's inbound hello displaces the stale cached connection; or the
	// stale connection's read loop reaps it first and the sends retry
	// into the refilled slot. All three must leave a trace.
	if st := fab.Stats(); st.Redials == 0 && st.StaleReplaced == 0 && st.Retransmits == 0 {
		t.Fatalf("restart left no trace in sender stats: %+v", st)
	}
}

// TestTCPWriteTimeoutUnwedgesSender: a half-open peer (accepts, never
// reads, window fills) must not wedge Send forever — the write deadline
// fires, the connection is dropped, and Send gives up after its retry
// budget instead of blocking.
func TestTCPWriteTimeoutUnwedgesSender(t *testing.T) {
	oldW := WriteTimeout
	WriteTimeout = 300 * time.Millisecond
	oldB := sendBackoff
	sendBackoff = Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}
	defer func() { WriteTimeout = oldW; sendBackoff = oldB }()

	// A raw listener that accepts and never reads: kernel buffers fill
	// and the sender's write(2) blocks.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	rt := vtime.NewReal()
	fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	a := fab.Attach(0, "sender")
	defer a.Close()

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
	if fab.Stats().WriteTimeouts == 0 {
		t.Fatal("write deadline never fired")
	}
}

// TestTCPFabricShutdownReleasesGoroutines: closing every endpoint joins
// the fabric's accept and read goroutines.
func TestTCPFabricShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		rt := vtime.NewReal()
		fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0"})
		eps := []Endpoint{fab.Attach(0, "n0"), fab.Attach(1, "n1"), fab.Attach(2, "n2")}
		chs := []<-chan Frame{collect(eps[0]), collect(eps[1]), collect(eps[2])}
		for i, ep := range eps {
			for j := range eps {
				if i != j {
					ep.Send(j, 7, []byte{byte(i), byte(j)})
				}
			}
		}
		for _, ch := range chs {
			recvN(ch, 2, 3*time.Second)
		}
		for _, ep := range eps {
			ep.Close()
		}
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
