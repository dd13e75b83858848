package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPPeerDeadDelaysOnlyItsOwnFrames: a Send to a node whose address
// refuses connections returns at once, a frame to a live peer sent right
// after it arrives within 100 ms, and the dead peer's frame is counted
// dropped after one failed dial, never retransmitted.
func TestTCPPeerDeadDelaysOnlyItsOwnFrames(t *testing.T) {
	fab, eps := tcpFabric(t, map[int]string{2: refusedAddr(t)}, 2)
	a, ch := eps[0], collect(eps[1])

	start := time.Now()
	if !a.Send(2, 7, []byte("to the dead")) {
		t.Fatal("send to a dead peer reported a local failure")
	}
	if took := time.Since(start); took >= 50*time.Millisecond {
		t.Fatalf("Send to a dead peer took %v, want < 50ms", took)
	}
	a.Send(1, 7, []byte("to the living"))
	got := recvN(ch, 1, 100*time.Millisecond)
	if len(got) != 1 || string(got[0].Data) != "to the living" {
		t.Fatalf("the live peer's frame did not arrive within 100ms (%d frames)", len(got))
	}
	waitFor(t, 10*time.Second, "the dead peer's frame was never counted dropped", func() bool {
		return fab.Stats().DroppedFrames == 1
	})
	if st := fab.Stats(); st.Dials != 1 || st.Retransmits != 0 {
		t.Fatalf("%+v; want the live peer's one dial and no retransmit", st)
	}
}

// TestTCPPeerHalfOpenDelaysOnlyItsOwnFrames: a peer that accepts and
// never reads takes a 4 MiB SendFrames without making the caller wait,
// frames to a live peer keep flowing while its writer is stuck, and the
// write deadline fires.
func TestTCPPeerHalfOpenDelaysOnlyItsOwnFrames(t *testing.T) {
	setDuration(t, &WriteTimeout, 200*time.Millisecond)
	fab, eps := tcpFabric(t, map[int]string{2: halfOpenListener(t).Addr().String()}, 2)
	a, ch := eps[0], collect(eps[1])

	body := make([]byte, 64<<10)
	frames := make([]Parts, 64) // 4 MiB
	for i := range frames {
		frames[i] = Parts{Body: body}
	}
	start := time.Now()
	if !SendFrames(a, 2, 7, frames) {
		t.Fatal("SendFrames to a half-open peer reported a local failure")
	}
	if took := time.Since(start); took >= 50*time.Millisecond {
		t.Fatalf("a 4 MiB SendFrames to a half-open peer took %v, want < 50ms", took)
	}
	for i := 0; fab.Stats().WriteTimeouts == 0; i++ {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the write deadline never fired against a half-open peer")
		}
		// Keep the half-open peer's writer busy, and check the live
		// peer's frames are not held behind it.
		SendFrames(a, 2, 7, frames[:8])
		sent := time.Now()
		a.Send(1, 7, []byte{byte(i)})
		if got := recvN(ch, 1, time.Second); len(got) != 1 || got[0].Data[0] != byte(i) {
			t.Fatalf("frame %d to the live peer did not arrive", i)
		}
		if took := time.Since(sent); took > 100*time.Millisecond {
			t.Errorf("frame %d to the live peer took %v beside a half-open peer", i, took)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPPeerHalfOpenDropsItsQueue: the first write deadline against a
// half-open peer gives it up at once. The unwritten rest of the batch and
// the batch queued behind it are dropped together and released, with no
// dial into the same stall, so a stuck peer pins no more than what is
// sent to it within one WriteTimeout.
func TestTCPPeerHalfOpenDropsItsQueue(t *testing.T) {
	setDuration(t, &WriteTimeout, 100*time.Millisecond)
	fab, eps := tcpFabric(t, map[int]string{1: halfOpenListener(t).Addr().String()}, 1)
	a := eps[0]

	body := make([]byte, 64<<10)
	first := make([]Parts, 256) // 16 MiB: more than the sockets can hold
	for i := range first {
		first[i] = Parts{Body: body}
	}
	SendFrames(a, 1, 7, first)
	waitFor(t, 10*time.Second, "the writer never took the first batch", func() bool {
		q, _ := peerState(a, 1)
		return q == 0
	})
	second := first[:64]
	SendFrames(a, 1, 7, second) // queued behind the stalled write
	waitFor(t, 10*time.Second, "the queued batch was never dropped", func() bool {
		return fab.Stats().DroppedFrames >= int64(len(second))
	})
	time.Sleep(2 * WriteTimeout) // room for a dial that must not come
	q, _ := peerState(a, 1)
	if st := fab.Stats(); st.Dials != 1 || st.WriteTimeouts != 1 || st.Retransmits != 0 || q != 0 {
		t.Fatalf("%+v, %d frames still queued; want one dial, one write deadline, no retry, an empty queue", st, q)
	}
}

// TestTCPPeerHalfOpenInlineSendGivesUp: an inline Send into a half-open
// peer's full socket buffers holds the caller for one WriteTimeout at
// most, then gives the peer up like the writer does: the frame is
// dropped, not handed to the writer to dial into the same stall.
func TestTCPPeerHalfOpenInlineSendGivesUp(t *testing.T) {
	setDuration(t, &WriteTimeout, 100*time.Millisecond)
	fab, eps := tcpFabric(t, map[int]string{1: halfOpenListener(t).Addr().String()}, 1)
	a := eps[0]

	a.Send(1, 7, nil) // the writer dials
	waitFor(t, 10*time.Second, "the writer never went idle on a fresh connection", func() bool {
		q, busy := peerState(a, 1)
		return q == 0 && !busy && fab.Stats().Dials == 1
	})
	start := time.Now()
	a.Send(1, 7, make([]byte, 16<<20)) // inline: more than the sockets can hold
	if took := time.Since(start); took > WriteTimeout+time.Second {
		t.Fatalf("an inline Send to a half-open peer held the caller %v", took)
	}
	time.Sleep(2 * WriteTimeout) // room for a dial that must not come
	if st := fab.Stats(); st.Dials != 1 || st.WriteTimeouts != 1 || st.DroppedFrames != 1 || st.Retransmits != 0 {
		t.Fatalf("%+v; want one dial, one write deadline, the frame dropped, no retry", st)
	}
}

// peerState reports how many frames ep holds for peer to, and whether a
// write to it is under way.
func peerState(ep Endpoint, to int) (queued int, busy bool) {
	e := ep.(*tcpEndpoint)
	e.mu.Lock()
	p := e.peers[to]
	e.mu.Unlock()
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.q), p.busy
}

// TestTCPPeerOrderAcrossPaths: batches of 129 16 KiB frames — a
// checkpoint image to one server — interleaved with small Sends arrive
// at each peer in the order each goroutine sent them, every frame whole
// and none twice. The small Sends take the inline path whenever the
// peer's queue is empty and queue behind the batch otherwise; every
// other round ends with a pause, so the next round's leading Sends find
// the queue drained and go inline.
func TestTCPPeerOrderAcrossPaths(t *testing.T) {
	for _, tc := range []struct{ senders, peers int }{{1, 1}, {3, 3}} {
		t.Run(fmt.Sprintf("senders=%d,peers=%d", tc.senders, tc.peers), func(t *testing.T) {
			checkPeerOrder(t, tc.senders, tc.peers)
		})
	}
}

func checkPeerOrder(t *testing.T, senders, peers int) {
	const rounds, batch, small = 4, 129, 3
	_, eps := tcpFabric(t, nil, peers+1)
	a := eps[0]
	var chs []<-chan Frame
	for _, ep := range eps[1:] {
		chs = append(chs, collect(ep))
	}
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<10) // 16 KiB, shared and never written
	// A frame's head names its sender and its place in that sender's
	// stream to the peer.
	head := func(g, seq int) []byte { return binary.BigEndian.AppendUint32([]byte{byte(g)}, uint32(seq)) }

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := make([]int, peers+1)
			for r := 0; r < rounds; r++ {
				for p := 1; p <= peers; p++ {
					sendSmall := func() {
						for i := 0; i < small; i++ {
							a.Send(p, 8, head(g, seq[p]))
							seq[p]++
						}
					}
					sendSmall()
					frames := make([]Parts, batch)
					for i := range frames {
						frames[i] = Parts{Head: head(g, seq[p]), Body: body}
						seq[p]++
					}
					SendFrames(a, p, 7, frames)
					sendSmall()
				}
				time.Sleep(time.Duration(r%2) * 10 * time.Millisecond)
			}
		}()
	}
	wg.Wait()

	per := rounds * (small + batch + small)
	for p, ch := range chs {
		got := recvN(ch, senders*per, 30*time.Second)
		if len(got) != senders*per {
			t.Fatalf("peer %d: %d frames delivered, want %d", p+1, len(got), senders*per)
		}
		next := make([]int, senders)
		for _, f := range got {
			g := int(f.Data[0])
			want, kind := head(g, next[g]), uint8(8)
			if i := next[g] % (small + batch + small); i >= small && i < small+batch {
				want, kind = append(want, body...), 7
			}
			if f.Kind != kind || !bytes.Equal(f.Data, want) {
				t.Fatalf("peer %d: sender %d's frame %d arrived damaged, twice or out of order", p+1, g, next[g])
			}
			next[g]++
		}
		select {
		case f := <-ch:
			t.Fatalf("peer %d: an extra frame from sender %d", p+1, f.Data[0])
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestTCPPeerPartsOrder: goroutines sending to one peer at once — 1 MiB
// two-part frames, small two-part frames, plain Sends and SendFrames
// batches — get every frame delivered whole, equal to Head‖Body, and in
// each sender's order. The 1 MiB frames keep the peer's connection busy
// for a while, so the other senders' frames meet a busy peer (and are
// queued behind the write in progress); each epoch starts with the peer
// idle, so the first frame of an epoch is written inline, two parts as
// they lie. The test checks that both happened.
func TestTCPPeerPartsOrder(t *testing.T) {
	const senders, epochs, rounds, batch = 3, 6, 5, 4
	_, eps := tcpFabric(t, nil, 2)
	a, ch := eps[0], collect(eps[1])
	big := bytes.Repeat([]byte("fedcba9876543210"), 1<<16) // 1 MiB, shared and never written
	small := big[:3000]
	// Frame i of sender g: its head names both, and the body and the
	// kind follow from i.
	head := func(g, i int) []byte { return binary.BigEndian.AppendUint32([]byte{byte(g)}, uint32(i)) }
	const perRound = 3 + batch
	want := func(g, i int) (uint8, Parts) {
		switch j := i % perRound; {
		case j == 0 && g == 0:
			return 1, Parts{Head: head(g, i), Body: big}
		case j == 0:
			return 2, Parts{Head: head(g, i), Body: small}
		case j == 1:
			return 3, Parts{Body: head(g, i)} // plain Send
		case j == 2:
			return 4, Parts{Head: head(g, i)} // a head and no body
		default:
			return 5, Parts{Head: head(g, i), Body: small[:i%len(small)]}
		}
	}

	var arrived [epochs]sync.WaitGroup
	var start [epochs]chan struct{}
	for e := range start {
		arrived[e].Add(senders)
		start[e] = make(chan struct{})
	}
	var busy, idle atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for e := range epochs {
				arrived[e].Done()
				<-start[e]
				for range rounds {
					for j := 0; j < 3; j++ {
						if q, b := peerState(a, 1); q > 0 || b {
							busy.Add(1)
						} else {
							idle.Add(1)
						}
						kind, p := want(g, i)
						if j == 1 {
							a.Send(1, kind, p.Body)
						} else {
							SendParts(a, 1, kind, p)
						}
						i++
					}
					frames := make([]Parts, batch)
					kind := uint8(0)
					for k := range frames {
						kind, frames[k] = want(g, i)
						i++
					}
					SendFrames(a, 1, kind, frames)
				}
			}
		}()
	}
	for e := range epochs {
		arrived[e].Wait()
		waitFor(t, 10*time.Second, "the peer never went idle", func() bool {
			q, b := peerState(a, 1)
			return q == 0 && !b
		})
		close(start[e])
	}
	wg.Wait()

	total := senders * epochs * rounds * perRound
	got := recvN(ch, total, 30*time.Second)
	if len(got) != total {
		t.Fatalf("%d frames delivered, want %d", len(got), total)
	}
	next := make([]int, senders)
	for _, f := range got {
		g := int(f.Data[0])
		kind, p := want(g, next[g])
		if f.Kind != kind || !bytes.Equal(f.Data, joined(p)) {
			t.Fatalf("sender %d's frame %d arrived damaged, twice or out of order", g, next[g])
		}
		next[g]++
	}
	select {
	case f := <-ch:
		t.Fatalf("an extra frame from sender %d", f.Data[0])
	case <-time.After(10 * time.Millisecond):
	}
	if busy.Load() == 0 || idle.Load() == 0 {
		t.Fatalf("sends met a busy peer %d times and an idle one %d times; want both", busy.Load(), idle.Load())
	}
}
