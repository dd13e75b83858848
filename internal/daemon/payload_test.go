package daemon

import (
	"bytes"
	"testing"

	"mpichv/internal/core"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// payloadSizes cover an empty block, a small one and the benchmark's
// 256 KiB rendezvous payload.
var payloadSizes = []int{0, 1 << 10, 256 << 10}

func block(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + seed)
	}
	return b
}

// tcpPair attaches rank 0 and a bare endpoint for rank 1 to a TCP fabric
// on loopback; when the test ends both close and the fabric's goroutines
// are joined.
func tcpPair(t *testing.T) (rt *vtime.Real, fab *transport.TCPFabric, peer transport.Endpoint) {
	rt = vtime.NewReal()
	fab = transport.NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	peer = fab.Attach(1, "peer")
	t.Cleanup(func() {
		fab.Kill(0)
		peer.Close()
		rt.Wait()
	})
	return rt, fab, peer
}

// TestV2FirstSendOverTCPIsEncodePayload: a V2 first send leaves in two
// parts — a fresh payload head and the SAVED entry itself — and arrives
// over real sockets byte-identical to the joined wire.EncodePayload
// frame, with and without piggybacked determinants, whether it was
// queued behind the dial or written inline.
func TestV2FirstSendOverTCPIsEncodePayload(t *testing.T) {
	rt, fab, peer := tcpPair(t)
	d := &V2{rt: rt, cfg: v2Config(0, 2, -1), st: core.NewState(0), timers: make(map[uint64]func()),
		rsp: vtime.NewMailbox[rankResp](rt, "rsp"), ep: fab.Attach(0, "cn0")}
	dets := []core.Event{
		{Sender: 1, SenderClock: 4, RecvClock: 2, Probes: 3, Seq: 1},
		{Sender: 1, SenderClock: 9, RecvClock: 5, Seq: 2},
	}
	clock := uint64(0)
	for _, pending := range [][]core.Event{nil, dets} {
		for _, n := range payloadSizes {
			clock++
			data := block(n, int(clock))
			d.detPending = pending
			d.handleReq(rankReq{op: opSend, to: 1, data: data})
			if _, ok := d.rsp.Recv(); !ok {
				t.Fatal("reply mailbox closed")
			}
			f, ok := peer.Inbox().Recv()
			if !ok {
				t.Fatal("peer inbox closed")
			}
			want := wire.EncodePayload(wire.PayloadHeader{SenderClock: clock, PairSeq: clock, Dets: pending}, data)
			if f.From != 0 || f.Kind != wire.KPayload || !bytes.Equal(f.Data, want) {
				t.Fatalf("%d B, %d dets: frame (%d bytes) differs from EncodePayload (%d bytes)",
					n, len(pending), len(f.Data), len(want))
			}
		}
	}
	if got, want := d.stats.DetPiggybacked, int64(len(dets)*len(payloadSizes)); got != want {
		t.Errorf("%d determinants piggybacked, want %d", got, want)
	}
}

// TestP4SendOverTCPIsEncodePayload: the P4 baseline sends its payload in
// the same two parts, and it arrives as the joined det-free frame.
func TestP4SendOverTCPIsEncodePayload(t *testing.T) {
	rt, fab, peer := tcpPair(t)
	dev, _ := StartP4(rt, fab, v2Config(0, 2, -1), 0)
	dev.Init()
	for i, n := range payloadSizes {
		data := block(n, i)
		dev.BSend(1, data)
		f, ok := peer.Inbox().Recv()
		if !ok {
			t.Fatal("peer inbox closed")
		}
		if want := wire.EncodePayload(wire.PayloadHeader{}, data); f.From != 0 || f.Kind != wire.KPayload || !bytes.Equal(f.Data, want) {
			t.Fatalf("%d B: frame (%d bytes) differs from EncodePayload (%d bytes)", n, len(f.Data), len(want))
		}
	}
}
