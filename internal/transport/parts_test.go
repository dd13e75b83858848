package transport

import (
	"bytes"
	"net"
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

func parts(head, body int) ([]byte, []byte) {
	return sizedFrame(1, head).Data, sizedFrame(2, body).Data
}

// TestSendPartsTCP: over connected TCP endpoints a two-part frame arrives
// as exactly head‖body.
func TestSendPartsTCP(t *testing.T) {
	rt := vtime.NewReal()
	fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	a, b := fab.Attach(0, "a"), fab.Attach(1, "b")
	defer a.Close()
	defer b.Close()
	ch := collect(b)
	for i, c := range partsCases {
		head, body := parts(c.head, c.body)
		if !SendParts(a, 1, uint8(i), head, body) {
			t.Fatalf("%d+%dB: send failed", c.head, c.body)
		}
		got := recvN(ch, 1, 5*time.Second)
		want := append(append([]byte(nil), head...), body...)
		if len(got) != 1 || got[0].From != 0 || got[0].Kind != uint8(i) || !bytes.Equal(got[0].Data, want) {
			t.Fatalf("%d+%dB: delivered %d frames, want head‖body", c.head, c.body, len(got))
		}
	}
}

// TestSendPartsCopiesOnOtherFabrics: a receiver on a fabric that hands
// over the slice itself owns what it gets — the sender reusing its parts
// after the call does not reach the delivered frame.
func TestSendPartsCopiesOnOtherFabrics(t *testing.T) {
	check := func(t *testing.T, a Endpoint, recv func() Frame) {
		for _, c := range partsCases {
			head, body := parts(c.head, c.body)
			want := append(append([]byte(nil), head...), body...)
			SendParts(a, 1, 9, head, body)
			for i := range head {
				head[i]++
			}
			for i := range body {
				body[i]++
			}
			if f := recv(); f.From != 0 || f.Kind != 9 || !bytes.Equal(f.Data, want) {
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

// TestSimSendPartsTimesLikeSend: a two-part frame takes the simulated
// wire exactly as long as the joined frame through Send.
func TestSimSendPartsTimesLikeSend(t *testing.T) {
	var at [2]time.Duration
	for i := range at {
		sim := vtime.NewSim()
		sim.Run(func() {
			fab := NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
			a, b := fab.Attach(0, "a"), fab.Attach(1, "b")
			head, body := parts(28, 16<<10)
			if i == 0 {
				a.Send(1, 9, append(append([]byte(nil), head...), body...))
			} else {
				SendParts(a, 1, 9, head, body)
			}
			b.Inbox().Recv()
			at[i] = sim.Now()
		})
	}
	if at[0] != at[1] {
		t.Fatalf("joined frame delivered at %v, two-part frame at %v", at[0], at[1])
	}
}

// TestTCPSendPartsAllocs: the sending side of a 16 KiB two-part frame
// allocates nothing. The peer is a raw socket that discards what it
// reads into a fixed buffer, so every allocation counted is the sender's.
func TestTCPSendPartsAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	rt := vtime.NewReal()
	fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	a := fab.Attach(0, "sender")
	defer a.Close()
	head, body := parts(28, 16<<10)
	send := func() {
		if !SendParts(a, 1, 7, head, body) {
			t.Fatal("send failed")
		}
	}
	send() // dial and hello
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Errorf("%d+%dB: %.1f allocs per send, want 0", len(head), len(body), got)
	}
}
