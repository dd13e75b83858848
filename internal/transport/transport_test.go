package transport

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mpichv/internal/netsim"
	"mpichv/internal/vtime"
)

func TestSimFabricDelivery(t *testing.T) {
	s := vtime.NewSim()
	s.Run(func() {
		fab := NewSimFabric(s, netsim.New(s, netsim.Params2003()), nil)
		a := fab.Attach(0, "a")
		b := fab.Attach(1, "b")
		if !a.Send(1, 7, []byte("hello")) {
			t.Fatal("Send failed")
		}
		f, ok := b.Inbox().Recv()
		if !ok {
			t.Fatal("inbox closed")
		}
		if f.From != 0 || f.Kind != 7 || string(f.Data) != "hello" {
			t.Errorf("frame = %+v", f)
		}
		bw := netsim.Params2003().Bandwidth
		tx := time.Duration(5.0 / bw * float64(time.Second))
		if s.Now() != 77*time.Microsecond+tx {
			t.Errorf("delivery at %v", s.Now())
		}
	})
}

func TestSimFabricKillDropsInFlight(t *testing.T) {
	s := vtime.NewSim()
	s.Run(func() {
		fab := NewSimFabric(s, netsim.New(s, netsim.Params2003()), nil)
		a := fab.Attach(0, "a")
		b := fab.Attach(1, "b")
		a.Send(1, 1, []byte("doomed"))
		fab.Kill(1) // crash before delivery
		s.Sleep(time.Second)
		if _, ok := b.Inbox().TryRecv(); ok {
			t.Error("killed node received a frame")
		}
		if !b.Inbox().Closed() {
			t.Error("killed node inbox not closed")
		}
		// Sends to a dead node succeed from the sender's view.
		if !a.Send(1, 1, []byte("lost")) {
			t.Error("send to dead node reported local failure")
		}
	})
}

func TestSimFabricReattachReplaces(t *testing.T) {
	s := vtime.NewSim()
	s.Run(func() {
		fab := NewSimFabric(s, netsim.New(s, netsim.Params2003()), nil)
		a := fab.Attach(0, "a")
		fab.Attach(1, "b-old")
		fab.Kill(1)
		b2 := fab.Attach(1, "b-new")
		a.Send(1, 2, []byte("fresh"))
		f, ok := b2.Inbox().Recv()
		if !ok || string(f.Data) != "fresh" {
			t.Fatalf("new endpoint did not receive: %+v ok=%v", f, ok)
		}
	})
}

func TestMemFabricRoundTrip(t *testing.T) {
	rt := vtime.NewReal()
	fab := NewMemFabric(rt)
	a := fab.Attach(0, "a")
	b := fab.Attach(1, "b")
	rt.Go("sender", func() {
		for i := 0; i < 50; i++ {
			a.Send(1, uint8(i), []byte{byte(i)})
		}
	})
	for i := 0; i < 50; i++ {
		f, ok := b.Inbox().Recv()
		if !ok || int(f.Kind) != i {
			t.Fatalf("frame %d = %+v ok=%v", i, f, ok)
		}
	}
	rt.Wait()
}

func TestFrameCodecRoundTrip(t *testing.T) {
	big := make([]byte, 3*maxUpfront+1) // read in growing steps
	for i := range big {
		big[i] = byte(i * 31)
	}
	frames := []Frame{
		{From: 0, Kind: 0, Data: nil},
		{From: 42, Kind: 255, Data: []byte("payload")},
		{From: -1, Kind: 9, Data: bytes.Repeat([]byte{0xAB}, 100000)},
		{From: 7, Kind: 3, Data: big},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.From != want.From || got.Kind != want.Kind || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestPropertyFrameCodec(t *testing.T) {
	f := func(from int32, kind uint8, data []byte) bool {
		var buf bytes.Buffer
		in := Frame{From: int(from), Kind: kind, Data: data}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		if len(out.Data) == 0 && len(in.Data) == 0 {
			out.Data, in.Data = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsCorrupt(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 1, 0})); err == nil {
		t.Error("short frame length accepted")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Error("giant frame length accepted")
	}
}

func TestTCPFabricLoopback(t *testing.T) {
	_, eps := tcpFabric(t, nil, 2)
	a, b := eps[0], eps[1]
	if !a.Send(1, 5, []byte("over tcp")) {
		t.Fatal("send failed")
	}
	f, ok := b.Inbox().Recv()
	if !ok || f.From != 0 || f.Kind != 5 || string(f.Data) != "over tcp" {
		t.Fatalf("frame = %+v ok=%v", f, ok)
	}
	// Bidirectional on the reverse path.
	if !b.Send(0, 6, []byte("back")) {
		t.Fatal("reverse send failed")
	}
	f, ok = a.Inbox().Recv()
	if !ok || f.From != 1 || string(f.Data) != "back" {
		t.Fatalf("reverse frame = %+v ok=%v", f, ok)
	}
}

func TestTCPFabricSendToDeadPeer(t *testing.T) {
	_, eps := tcpFabric(t, nil, 2)
	eps[1].Close()
	// Frame is dropped; local endpoint stays usable.
	if !eps[0].Send(1, 1, []byte("x")) {
		t.Error("send to dead peer reported local failure")
	}
}
