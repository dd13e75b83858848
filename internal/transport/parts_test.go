package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpichv/internal/netsim"
	"mpichv/internal/vtime"
)

// partsCases straddle the connection reader's 4 KiB buffer with the body,
// and leave either part empty.
var partsCases = []struct{ head, body int }{
	{0, 0}, {0, 100}, {28, 0}, {28, 1}, {28, 16 << 10}, {4096, 4096 + 1},
}

func parts(head, body int) Parts {
	return Parts{Head: sizedFrame(1, head).Data, Body: sizedFrame(2, body).Data}
}

// caseBatch is one frame per partsCases entry.
func caseBatch() []Parts {
	var frames []Parts
	for _, c := range partsCases {
		frames = append(frames, parts(c.head, c.body))
	}
	return frames
}

// numberedBatch builds n frames whose heads carry their index and whose
// sizes cycle through empty heads and bodies, bodies straddling the
// reader's buffer and 16 KiB chunks: a batch of 600 needs more than
// maxIovecs buffers and more than maxWritev bytes.
func numberedBatch(n int) []Parts {
	frames := make([]Parts, n)
	for i := range frames {
		head := []int{0, 28, 4096}[i%3]
		body := []int{0, 1, 100, 16 << 10, 4097}[i%5]
		f := parts(head, body)
		if len(f.Head) >= 4 {
			binary.BigEndian.PutUint32(f.Head, uint32(i))
		}
		if len(f.Body) > 0 {
			f.Body[0] = byte(i)
		}
		frames[i] = f
	}
	return frames
}

func joined(p Parts) []byte { return append(append([]byte{}, p.Head...), p.Body...) }

// withKind gives every frame of a batch the same kind.
func withKind(kind uint8, frames []Parts) []outFrame {
	out := make([]outFrame, len(frames))
	for i, p := range frames {
		out[i] = outFrame{kind, p}
	}
	return out
}

// TestSendPartsTCP: over connected TCP endpoints a batch of 1, 129 or 600
// frames arrives intact and in order, each frame as exactly Head‖Body.
func TestSendPartsTCP(t *testing.T) {
	fab, eps := tcpFabric(t, nil, 2)
	a, ch := eps[0], collect(eps[1])
	for kind, frames := range [][]Parts{caseBatch(), numberedBatch(1), numberedBatch(129), numberedBatch(600)} {
		if !SendFrames(a, 1, uint8(kind), frames) {
			t.Fatalf("batch of %d: send failed", len(frames))
		}
		got := recvN(ch, len(frames), 10*time.Second)
		if len(got) != len(frames) {
			t.Fatalf("batch of %d: delivered %d frames", len(frames), len(got))
		}
		for i, f := range got {
			if f.From != 0 || f.Kind != uint8(kind) || !bytes.Equal(f.Data, joined(frames[i])) {
				t.Fatalf("batch of %d: frame %d is not Head‖Body of frame %d", len(frames), i, i)
			}
		}
	}
	if st := fab.Stats(); st.Retransmits != 0 || st.DroppedFrames != 0 {
		t.Errorf("stats %+v, want no retransmit and no drop", st)
	}
}

// TestSendPartsCopiesOnOtherFabrics: a receiver on a fabric that hands
// over the slice itself owns what it gets — the sender reusing its parts
// after the call does not reach the delivered frames. SendParts, frame
// by frame, copies the same way.
func TestSendPartsCopiesOnOtherFabrics(t *testing.T) {
	check := func(t *testing.T, a Endpoint, recv func() Frame) {
		frames := caseBatch()
		var want [][]byte
		for _, p := range frames {
			want = append(want, joined(p))
		}
		SendFrames(a, 1, 9, frames[:len(frames)/2])
		for _, p := range frames[len(frames)/2:] {
			SendParts(a, 1, 9, p)
		}
		for _, p := range frames {
			for _, b := range [][]byte{p.Head, p.Body} {
				for i := range b {
					b[i]++
				}
			}
		}
		for i, c := range partsCases {
			if f := recv(); f.From != 0 || f.Kind != 9 || !bytes.Equal(f.Data, want[i]) {
				t.Fatalf("%d+%dB: delivered frame changed with the sender's parts", c.head, c.body)
			}
		}
	}
	t.Run("mem", func(t *testing.T) {
		fab := NewMemFabric(vtime.NewReal())
		a, b := fab.Attach(0, "a"), fab.Attach(1, "b")
		check(t, a, func() Frame { f, _ := b.Inbox().Recv(); return f })
	})
	t.Run("sim", func(t *testing.T) {
		sim := vtime.NewSim()
		sim.Run(func() {
			fab := NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
			a, b := fab.Attach(0, "a"), fab.Attach(1, "b")
			check(t, a, func() Frame { f, _ := b.Inbox().Recv(); return f })
		})
	})
}

// TestSimSendPartsTimesLikeSend: on the simulated wire a batch takes
// exactly the delivery times of the same frames joined and sent one by
// one through Send.
func TestSimSendPartsTimesLikeSend(t *testing.T) {
	var at [2][]time.Duration
	for i := range at {
		sim := vtime.NewSim()
		sim.Run(func() {
			fab := NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
			a, b := fab.Attach(0, "a"), fab.Attach(1, "b")
			frames := caseBatch()
			if i == 0 {
				for _, p := range frames {
					a.Send(1, 9, joined(p))
				}
			} else {
				SendFrames(a, 1, 9, frames)
			}
			for range frames {
				b.Inbox().Recv()
				at[i] = append(at[i], sim.Now())
			}
		})
	}
	for j := range at[0] {
		if at[0][j] != at[1][j] {
			t.Fatalf("frame %d: sent alone at %v, in a batch at %v", j, at[0][j], at[1][j])
		}
	}
}

// discardPeer is a raw loopback socket that accepts one connection and
// discards what it reads into a fixed buffer, counting the bytes, so it
// allocates nothing an allocation test could charge to the sender.
type discardPeer struct{ read atomic.Int64 }

func newDiscardPeer(t *testing.T) (addr string, peer *discardPeer) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	peer = new(discardPeer)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			peer.read.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), peer
}

// waitRead spins until the peer has read n bytes in all.
func (p *discardPeer) waitRead(t *testing.T, n int64) {
	for deadline := time.Now().Add(10 * time.Second); p.read.Load() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("peer read %d of %d bytes", p.read.Load(), n)
		}
	}
}

// TestTCPSendPartsAllocs: the sending side — the call and the peer's
// writer — allocates nothing for a 16 KiB frame sent alone, nor for a
// warm batch of 129 of them — a checkpoint image's chunks to one server.
// Each send waits until the peer has read the whole batch, so batches do
// not pile up in the queue. The peer is a raw socket that discards what
// it reads into a fixed buffer, so every allocation counted is the
// sender's.
func TestTCPSendPartsAllocs(t *testing.T) {
	addr, peer := newDiscardPeer(t)
	_, eps := tcpFabric(t, map[int]string{1: addr}, 1)
	a := eps[0]
	batch := make([]Parts, 129)
	for i := range batch {
		batch[i] = parts(28, 16<<10)
	}
	sent := int64(frameLen) // the hello
	for _, frames := range [][]Parts{batch[:1], batch} {
		size := int64(0)
		for _, p := range frames {
			size += int64(frameLen + len(p.Head) + len(p.Body))
		}
		send := func() {
			if !SendFrames(a, 1, 7, frames) {
				t.Fatal("send failed")
			}
			sent += size
			peer.waitRead(t, sent)
		}
		send() // dial and hello, and size the queue and the writer's scratch
		if got := testing.AllocsPerRun(20, send); got != 0 {
			t.Errorf("batch of %d: %.1f allocs per send, want 0", len(frames), got)
		}
	}
}

// TestTCPInlinePartsAllocs: a 256 KiB two-part frame sent to an idle,
// connected peer is written inline as it lies — no joined copy, no
// queue — so the send allocates under 1 KiB, counted in bytes. The peer
// is a raw socket that discards what it reads into a fixed buffer, and
// the collector is off while the bytes are counted, so every byte
// counted is the sender's.
func TestTCPInlinePartsAllocs(t *testing.T) {
	addr, peer := newDiscardPeer(t)
	fab, eps := tcpFabric(t, map[int]string{1: addr}, 1)
	a := eps[0]
	frame := parts(28, 256<<10)
	sent := int64(frameLen) // the hello
	send := func() {
		if q, busy := peerState(a, 1); q != 0 || busy {
			t.Fatalf("peer not idle before the send: %d queued, busy %v", q, busy)
		}
		if !SendParts(a, 1, 7, frame) {
			t.Fatal("send failed")
		}
		sent += int64(frameLen + len(frame.Head) + len(frame.Body))
		peer.waitRead(t, sent)
	}
	a.Send(1, 7, nil) // the writer dials
	sent += frameLen
	waitFor(t, 10*time.Second, "the writer never went idle on a fresh connection", func() bool {
		q, busy := peerState(a, 1)
		return q == 0 && !busy && fab.Stats().Dials == 1
	})
	send() // size the peer's frame writer for two parts

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		send()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1<<10 {
		t.Errorf("a 256 KiB two-part inline send allocated %d bytes, want < 1 KiB", got)
	}
}

// TestSendFramesDropsAfterPeerCloses: a peer that closes its connection
// in the middle of a batch loses the rest of it and the batch queued
// behind it: the fabric counts them dropped and retransmits nothing. The
// next Send dials once, and its frame is the first on the new
// connection, whole.
func TestSendFramesDropsAfterPeerCloses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n, queued = 600, 64
	body := make([]byte, 64<<10) // shared: the batch is ~39 MB on the wire, far past the socket buffers
	frames := make([]Parts, n)
	for i := range frames {
		frames[i] = Parts{Body: body}
	}
	// The peer reads 1 MiB of the first connection and closes it, then
	// hands the second over.
	read, second := make(chan int, 1), make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		whole, lr := 0, io.LimitReader(c, 1<<20)
		for _, err = ReadFrame(lr); err == nil; _, err = ReadFrame(lr) {
			whole++
		}
		c.Close()
		read <- whole - 1 // the hello is no frame of the batch
		if c, err := ln.Accept(); err == nil {
			second <- c
		}
	}()

	fab, eps := tcpFabric(t, map[int]string{1: ln.Addr().String()}, 1)
	a := eps[0]
	if !SendFrames(a, 1, 7, frames) || !SendFrames(a, 1, 7, frames[:queued]) {
		t.Fatal("send failed")
	}
	var whole int
	select {
	case whole = <-read:
	case <-time.After(30 * time.Second):
		t.Fatal("the peer never read the first connection")
	}
	waitFor(t, 30*time.Second, "the writer never gave the closed peer up", func() bool {
		q, busy := peerState(a, 1)
		return fab.Stats().DroppedFrames > 0 && q == 0 && !busy
	})
	// Frames the kernel took before the close are lost uncounted; the
	// queued batch cannot have left.
	st := fab.Stats()
	if st.DroppedFrames < queued || st.DroppedFrames > int64(n+queued-whole) || st.Retransmits != 0 {
		t.Fatalf("%+v after the peer read %d frames; want %d..%d dropped and no retransmit", st, whole, queued, n+queued-whole)
	}

	a.Send(1, 8, []byte("after"))
	var c net.Conn
	select {
	case c = <-second:
	case <-time.After(10 * time.Second):
		t.Fatal("the next Send never dialed")
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err1 := ReadFrame(c)
	f, err2 := ReadFrame(c)
	if err1 != nil || err2 != nil || hello.Kind != helloKind || f.Kind != 8 || string(f.Data) != "after" {
		t.Fatalf("the new connection carried %v (%v), then %v (%v); want the hello, then the frame", hello, err1, f, err2)
	}
	if st := fab.Stats(); st.Dials != 2 || st.Redials != 1 || st.Retransmits != 0 {
		t.Fatalf("%+v; want two dials, one a redial, and no retransmit", st)
	}
}

// callRecorder is a connection stand-in that records the bytes and the
// buffers of each call between two write deadlines, and fails once
// failAt bytes have gone through.
type callRecorder struct {
	calls  []struct{ bytes, bufs int }
	total  int
	failAt int
}

func (r *callRecorder) SetWriteDeadline(time.Time) error {
	r.calls = append(r.calls, struct{ bytes, bufs int }{})
	return nil
}

func (r *callRecorder) Write(p []byte) (int, error) {
	c := &r.calls[len(r.calls)-1]
	if r.failAt > 0 && r.total+len(p) > r.failAt {
		n := r.failAt - r.total
		r.total, c.bytes = r.failAt, c.bytes+n
		return n, errors.New("connection reset")
	}
	r.total += len(p)
	c.bytes += len(p)
	c.bufs++
	return len(p), nil
}

// TestFrameWriterBoundsEachCall: a batch goes out in calls of at most
// maxWritev bytes and maxIovecs buffers, each after a fresh deadline —
// a frame bigger than one call spans several — and on a failure the
// writer reports exactly the frames that went through whole.
func TestFrameWriterBoundsEachCall(t *testing.T) {
	big := Parts{Body: make([]byte, 3*maxWritev+5)}
	for _, tc := range []struct {
		name   string
		frames []Parts
	}{
		{"600 mixed frames", numberedBatch(600)},
		{"2000 empty frames", make([]Parts, 2000)},
		{"one frame of three calls", []Parts{big}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fw frameWriter
			rec := &callRecorder{}
			done, err := fw.writeFrames(rec, 0, withKind(1, tc.frames), time.Second)
			if err != nil || done != len(tc.frames) {
				t.Fatalf("wrote %d of %d frames: %v", done, len(tc.frames), err)
			}
			want := 0
			for _, p := range tc.frames {
				want += frameLen + len(p.Head) + len(p.Body)
			}
			if rec.total != want {
				t.Fatalf("wrote %d bytes, want %d", rec.total, want)
			}
			if min := (want + maxWritev - 1) / maxWritev; len(rec.calls) < min {
				t.Errorf("%d calls, want at least %d", len(rec.calls), min)
			}
			for i, c := range rec.calls {
				if c.bytes > maxWritev || c.bufs > maxIovecs || c.bytes == 0 {
					t.Errorf("call %d: %d bytes in %d buffers, want 1..%d in at most %d", i, c.bytes, c.bufs, maxWritev, maxIovecs)
				}
			}
		})
	}
	t.Run("a failure reports the frames written whole", func(t *testing.T) {
		frames := numberedBatch(40)
		var ends []int
		end := 0
		for _, p := range frames {
			end += frameLen + len(p.Head) + len(p.Body)
			ends = append(ends, end)
		}
		for _, failAt := range []int{1, ends[0], ends[0] + 1, ends[17] - 1, ends[17], ends[38]} {
			var fw frameWriter
			done, err := fw.writeFrames(&callRecorder{failAt: failAt}, 0, withKind(1, frames), time.Second)
			want := 0
			for want < len(ends) && ends[want] <= failAt {
				want++
			}
			if err == nil || done != want {
				t.Errorf("failure after %d bytes: %d frames reported whole (err %v), want %d", failAt, done, err, want)
			}
		}
	})
}

// TestSendFramesConcurrentBatchesStayWhole: batches and single frames
// sent on one endpoint from several goroutines at once arrive whole,
// never interleaved inside a frame, each goroutine's in its order.
func TestSendFramesConcurrentBatchesStayWhole(t *testing.T) {
	_, eps := tcpFabric(t, nil, 2)
	a, ch := eps[0], collect(eps[1])
	const senders, rounds, batch = 4, 20, 10
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<10) // 16 KiB
	frame := func(g, seq int) Parts {
		return Parts{Head: []byte{byte(g), byte(seq), byte(seq >> 8)}, Body: body[:(seq*997)%len(body)]}
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := 0
			for r := 0; r < rounds; r++ {
				frames := make([]Parts, batch)
				for i := range frames {
					frames[i] = frame(g, seq)
					seq++
				}
				SendFrames(a, 1, 7, frames)
				a.Send(1, 7, joined(frame(g, seq)))
				seq++
			}
		}()
	}
	wg.Wait()
	got := recvN(ch, senders*rounds*(batch+1), 10*time.Second)
	if len(got) != senders*rounds*(batch+1) {
		t.Fatalf("delivered %d frames, want %d", len(got), senders*rounds*(batch+1))
	}
	next := make([]int, senders)
	for _, f := range got {
		g := int(f.Data[0])
		if !bytes.Equal(f.Data, joined(frame(g, next[g]))) {
			t.Fatalf("sender %d: frame %d arrived damaged or out of order", g, next[g])
		}
		next[g]++
	}
}
