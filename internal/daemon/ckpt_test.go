package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"net"
	"reflect"
	"testing"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/core"
	"mpichv/internal/netsim"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// forgeCRC appends four bytes to data that bring its CRC-32 (IEEE) to
// want, by running the register backwards from want: a chunk of the
// wrong length that still matches its manifest CRC.
func forgeCRC(data []byte, want uint32) []byte {
	var inv [256]byte
	for i, v := range crc32.IEEETable {
		inv[v>>24] = byte(i)
	}
	reg := ^want
	for i := 0; i < 4; i++ {
		idx := inv[reg>>24]
		reg = (reg^crc32.IEEETable[idx])<<8 | uint32(idx)
	}
	return binary.LittleEndian.AppendUint32(bytes.Clone(data), reg^^crc32.ChecksumIEEE(data))
}

// chunkedImage encodes rank 0's image at seq with a fresh protocol
// state and the given app state, and the manifest a store cutting it at
// cs bytes per chunk serves for it.
func chunkedImage(seq uint64, app []byte, cs int) ([]byte, wire.CkptManifest) {
	img := ckpt.AppendImage(nil, &ckpt.Image{Rank: 0, Seq: seq, AppState: app,
		Proto: core.AppendSnapshot(nil, core.NewState(0).Snapshot())})
	n := (len(img) + cs - 1) / cs
	m := wire.CkptManifest{Present: true, Seq: seq, Size: uint64(len(img)), ChunkSize: uint32(cs),
		ImageCRC: crc32.ChecksumIEEE(img), ChunkCRCs: make([]uint32, n)}
	for i := range m.ChunkCRCs {
		m.ChunkCRCs[i] = crc32.ChecksumIEEE(img[i*cs : min((i+1)*cs, len(img))])
	}
	return img, m
}

// TestRestartRefetchesChunkOfWrongLength: during a restart's chunked
// image fetch, a chunk whose length disagrees with the manifest — one
// that would overrun the image, one that falls short — is rejected and
// re-fetched like a CRC mismatch, even when its CRC matches the
// manifest's, and the rank restarts from the chunked image.
func TestRestartRefetchesChunkOfWrongLength(t *testing.T) {
	const csNode, cs = 901, 64
	app := bytes.Repeat([]byte("app state "), 30)
	img, m := chunkedImage(1, app, cs)
	n := m.Chunks()
	chunk := func(i int) []byte { return img[i*cs : min((i+1)*cs, len(img))] }
	// First answers for two chunks: the last one four bytes too long
	// (past the image's end), a middle one four bytes short.
	last, mid := n-1, n/2
	forged := map[int][]byte{
		last: forgeCRC(chunk(last), m.ChunkCRCs[last]),
		mid:  forgeCRC(chunk(mid)[:cs-8], m.ChunkCRCs[mid]),
	}
	for i, b := range forged {
		if crc32.ChecksumIEEE(b) != m.ChunkCRCs[i] || len(b) == len(chunk(i)) {
			t.Fatalf("chunk %d: forged %d bytes with CRC %08x, want another length and CRC %08x",
				i, len(b), crc32.ChecksumIEEE(b), m.ChunkCRCs[i])
		}
	}

	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		ep := fab.Attach(csNode, "fake-cs")
		fetches := map[int]int{}
		sim.Go("fake-cs", func() {
			for {
				f, ok := ep.Inbox().Recv()
				if !ok {
					return
				}
				switch f.Kind {
				case wire.KCkptManifestReq:
					ep.Send(f.From, wire.KCkptManifest, wire.EncodeCkptManifest(m))
				case wire.KCkptChunkFetch:
					_, first, count, _, _ := wire.DecodeCkptChunkFetch(f.Data)
					for idx := first; idx < first+count; idx++ {
						i := int(idx)
						fetches[i]++
						body := chunk(i)
						if b, ok := forged[i]; ok && fetches[i] == 1 {
							body = b
						}
						ep.Send(f.From, wire.KCkptChunkData, wire.AppendCkptChunk(nil, 1, idx, uint32(n), body))
					}
				}
			}
		})
		cfg := v2Config(0, 1, -1)
		cfg.CkptServer, cfg.CkptChunkSize, cfg.Restarted = csNode, cs, true
		dev, d := StartV2(sim, fab, cfg)
		_, _, got, restarted := dev.Init()
		if !restarted || !bytes.Equal(got, app) {
			t.Fatalf("restarted=%v with %d bytes of app state, want the %d checkpointed", restarted, len(got), len(app))
		}
		if fetches[last] != 2 || fetches[mid] != 2 || fetches[0] != 1 {
			t.Errorf("fetches per chunk %v, want the two forged chunks twice and the rest once", fetches)
		}
		if st := d.Stats(); st.CorruptImages != 2 {
			t.Errorf("CorruptImages = %d, want 2", st.CorruptImages)
		}
		fab.Kill(0)
		ep.Close()
	})
}

// TestRestartRegathersManifest: a manifest promises an image whose
// chunks stop coming — the server moved on to a newer checkpoint — so
// the restart gathers manifests again and comes back from the newer
// image.
func TestRestartRegathersManifest(t *testing.T) {
	const csNode, cs = 901, 64
	app1, app2 := bytes.Repeat([]byte("first "), 30), bytes.Repeat([]byte("second "), 30)
	img1, m1 := chunkedImage(1, app1, cs)
	img2, m2 := chunkedImage(2, app2, cs)
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		ep := fab.Attach(csNode, "fake-cs")
		manifests := 0
		var runs [][3]uint64 // seq, first, count of each chunk request
		sim.Go("fake-cs", func() {
			for {
				f, ok := ep.Inbox().Recv()
				if !ok {
					return
				}
				switch f.Kind {
				case wire.KCkptManifestReq:
					manifests++
					m := m1
					if manifests > 1 {
						m = m2
					}
					ep.Send(f.From, wire.KCkptManifest, wire.EncodeCkptManifest(m))
				case wire.KCkptChunkFetch:
					// The restart asks for the whole image as one run.
					seq, first, count, _, _ := wire.DecodeCkptChunkFetch(f.Data)
					img, m := img2, m2
					if seq == 1 {
						img, m = img1, m1
					}
					runs = append(runs, [3]uint64{seq, uint64(first), uint64(count)})
					for idx := first; idx < first+count; idx++ {
						if seq == 1 && idx > 0 {
							break // seq 1 serves its first chunk and then nothing more
						}
						body := img[int(idx)*cs : min(int(idx+1)*cs, len(img))]
						ep.Send(f.From, wire.KCkptChunkData, wire.AppendCkptChunk(nil, seq, idx, uint32(m.Chunks()), body))
					}
				}
			}
		})
		cfg := v2Config(0, 1, -1)
		cfg.CkptServer, cfg.CkptChunkSize, cfg.Restarted = csNode, cs, true
		dev, d := StartV2(sim, fab, cfg)
		_, _, got, restarted := dev.Init()
		if !restarted || !bytes.Equal(got, app2) {
			t.Fatalf("restarted=%v with app state %.12q, want seq 2's %.12q", restarted, got, app2)
		}
		if st := d.Stats(); st.ManifestFetches != 2 || st.CorruptImages != 0 {
			t.Errorf("ManifestFetches=%d CorruptImages=%d, want 2 and 0", st.ManifestFetches, st.CorruptImages)
		}
		// Seq 1: the whole image, then every retry only what is still
		// missing — chunks 1.. of it; seq 2: the whole image at once.
		n1, n2 := uint64(m1.Chunks()), uint64(m2.Chunks())
		if len(runs) < 3 || runs[0] != [3]uint64{1, 0, n1} || runs[1] != [3]uint64{1, 1, n1 - 1} ||
			runs[len(runs)-1] != [3]uint64{2, 0, n2} {
			t.Errorf("chunk requests (seq, first, count) %v, want seq 1 whole, its retries from chunk 1, then seq 2 whole", runs)
		}
		fab.Kill(0)
		ep.Close()
	})
}

// TestRestartBeforeFirstCheckpoint: a rank restarting with no image
// stored sends one manifest gather and no other image request, and
// starts from scratch.
func TestRestartBeforeFirstCheckpoint(t *testing.T) {
	const csNode = 901
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		ep := fab.Attach(csNode, "fake-cs")
		kinds := map[string]int{}
		var asked uint32 // chunk size of the last manifest request
		sim.Go("fake-cs", func() {
			for {
				f, ok := ep.Inbox().Recv()
				if !ok {
					return
				}
				kinds[wire.KindName(f.Kind)]++
				if f.Kind == wire.KCkptManifestReq {
					asked, _ = wire.DecodeU32(f.Data)
					ep.Send(f.From, wire.KCkptManifest, wire.EncodeCkptManifest(wire.CkptManifest{}))
				}
			}
		})
		for _, chunk := range []int{0, -1} { // zero and negative both select the default chunk size
			cfg := v2Config(0, 1, -1)
			cfg.CkptServer, cfg.CkptChunkSize, cfg.Restarted = csNode, chunk, true
			dev, d := StartV2(sim, fab, cfg)
			if _, _, got, restarted := dev.Init(); restarted || got != nil {
				t.Errorf("chunk %d: restarted=%v with %d bytes of app state, want a fresh start", chunk, restarted, len(got))
			}
			sim.Sleep(time.Millisecond)
			if want := map[string]int{wire.KindName(wire.KCkptManifestReq): 1}; !maps.Equal(kinds, want) {
				t.Errorf("chunk %d: the checkpoint server saw %v, want %v", chunk, kinds, want)
			}
			if st := d.Stats(); st.ManifestFetches != 1 {
				t.Errorf("chunk %d: ManifestFetches = %d, want 1", chunk, st.ManifestFetches)
			}
			if asked != defCkptChunk {
				t.Errorf("chunk %d: manifest asked for %d-byte chunks, want %d", chunk, asked, defCkptChunk)
			}
			clear(kinds)
			fab.Kill(0)
		}
		ep.Close()
	})
}

// waitStored polls until the store's latest image for rank is seq.
func waitStored(t *testing.T, st *ckpt.Store, rank int, seq uint64) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if img, ok := st.Get(rank); ok {
			if im, err := ckpt.DecodeImage(img); err == nil && im.Seq == seq {
				return img
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("checkpoint %d of rank %d never stored", seq, rank)
	return nil
}

// TestChunkedCheckpointOverTCPRestarts: chunks written from the image
// over real sockets, a delta among them, materialize at the checkpoint
// server byte for byte as the full encoding of the snapshot the daemon
// took, and a restarted rank comes back with that state.
func TestChunkedCheckpointOverTCPRestarts(t *testing.T) {
	const csNode = 901
	rt := vtime.NewReal()
	fab := transport.NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", csNode: "127.0.0.1:0"})
	store := ckpt.NewStore()
	csEp := fab.Attach(csNode, "cs")
	defer csEp.Close()
	ckpt.NewServerWithStore(rt, csEp, store).Start()
	// Rank 1 is a bare endpoint: it takes rank 0's payloads, so they
	// enter the SAVED log, and answers nothing.
	peer := fab.Attach(1, "peer")
	defer peer.Close()

	cfg := v2Config(0, 2, -1)
	cfg.CkptServer, cfg.CkptChunkSize = csNode, 1<<10
	dev, d := StartV2(rt, fab, cfg)
	dev.Init()
	app := bytes.Repeat([]byte("app state "), 500)
	var sn *core.Snapshot
	var seq uint64
	var img []byte
	for store.Stats().DeltaSaves == 0 {
		if seq++; seq > 5 {
			t.Fatal("no checkpoint shipped as a delta")
		}
		dev.BSend(1, bytes.Repeat([]byte{byte(seq)}, 3000))
		dev.Checkpoint(app)
		sn = d.State().Snapshot()
		img = waitStored(t, store, 0, seq)
		time.Sleep(10 * time.Millisecond) // the ack retires the base of the next delta
	}
	want := ckpt.AppendImage(nil, &ckpt.Image{Rank: 0, Seq: seq, AppState: app, Proto: core.AppendSnapshot(nil, sn)})
	if !bytes.Equal(img, want) {
		t.Fatalf("stored image (%d bytes) differs from the full encoding of the snapshot (%d bytes)", len(img), len(want))
	}

	fab.Kill(0)
	cfg.Restarted, cfg.Incarnation = true, 1
	dev2, d2 := StartV2(rt, fab, cfg)
	defer fab.Kill(0)
	_, _, got, restarted := dev2.Init()
	if !restarted || !bytes.Equal(got, app) {
		t.Fatalf("restarted=%v with %d bytes of app state, want the %d checkpointed", restarted, len(got), len(app))
	}
	if !bytes.Equal(core.AppendSnapshot(nil, d2.State().Snapshot()), core.AppendSnapshot(nil, sn)) {
		t.Error("restarted protocol state differs from the checkpointed snapshot")
	}
	if st := d2.Stats(); st.ManifestFetches != 1 || st.CorruptImages != 0 || st.SentMsgs != 0 {
		t.Errorf("restart stats %+v, want one clean chunked fetch", st)
	}
}

// captureDaemon is a rank-0 V2 daemon without its actor loop, on ep, whose
// checkpoints go to the given servers (write quorum: all of them) in
// chunks of the given size; a test drives capture and the cs window by
// hand.
func captureDaemon(rt vtime.Runtime, ep transport.Endpoint, servers []int, chunk int) *V2 {
	cfg := v2Config(0, 2, -1)
	cfg.CSReplicas, cfg.CkptChunkSize = servers, chunk
	d := &V2{rt: rt, cfg: cfg, st: core.NewState(0), timers: make(map[uint64]func()),
		in: vtime.NewMailbox[dEvent](rt, "in"), rsp: vtime.NewMailbox[rankResp](rt, "rsp"), ep: ep}
	d.cs.init(d, newReplicaGroup(0, servers, len(servers)), defCkptAckTimeout, d.sendXfer)
	return d
}

// checkpointNow hands the daemon a checkpoint request and waits for the
// rank's reply.
func checkpointNow(d *V2, app []byte) {
	d.parked = parkedReq{rankReq: rankReq{op: opCkpt, data: app}}
	d.capture()
	d.rsp.Recv()
}

// batchEndpoint counts the SendFrames calls made on it, per destination,
// and passes each frame on through the inner endpoint's Send.
type batchEndpoint struct {
	transport.Endpoint
	calls map[int]int
}

func (e *batchEndpoint) SendFrames(to int, kind uint8, frames []transport.Parts) bool {
	e.calls[to]++
	for _, f := range frames {
		e.Send(to, kind, append(append([]byte(nil), f.Head...), f.Body...))
	}
	return true
}

// TestCkptRetransmitIsOneBatchOfUnackedChunks: after partial chunk acks,
// a retransmit round sends each server exactly the chunks it has not
// acked, in ascending order, in one SendFrames call; the first push was
// one call per server too.
func TestCkptRetransmitIsOneBatchOfUnackedChunks(t *testing.T) {
	servers := []int{901, 902}
	rt := vtime.NewReal()
	fab := transport.NewMemFabric(rt)
	ep := &batchEndpoint{Endpoint: fab.Attach(0, "cn0"), calls: map[int]int{}}
	inbox := map[int]*vtime.Mailbox[transport.Frame]{}
	for _, s := range servers {
		inbox[s] = fab.Attach(s, "cs").Inbox()
	}
	d := captureDaemon(rt, ep, servers, 1<<10)
	d.st.PrepareSend(1, 0, bytes.Repeat([]byte("saved "), 500))
	// received drains what a server got: the chunk indices, in order.
	received := func(s int) []uint32 {
		var idx []uint32
		for {
			f, ok := inbox[s].TryRecv()
			if !ok {
				return idx
			}
			_, i, _, _, err := wire.DecodeCkptChunk(f.Data)
			if f.Kind != wire.KCkptChunk || err != nil {
				t.Fatalf("server %d got a %s frame (%v), want chunks", s, wire.KindName(f.Kind), err)
			}
			idx = append(idx, i)
		}
	}

	checkpointNow(d, bytes.Repeat([]byte("app state "), 800))
	x := &d.cs.slots[0].item
	n := uint32(len(x.chunks))
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}
	for _, s := range servers {
		if got := received(s); !reflect.DeepEqual(got, all) || ep.calls[s] != 1 {
			t.Fatalf("first push to server %d: chunks %v in %d calls, want all %d in one", s, got, ep.calls[s], n)
		}
	}

	// Server 901 acks the even chunks, 902 the first half.
	want := map[int][]uint32{}
	for i := uint32(0); i < n; i++ {
		for _, s := range servers {
			if (s == 901 && i%2 == 0) || (s == 902 && i < n/2) {
				d.handleFrame(transport.Frame{From: s, Kind: wire.KCkptChunkAck,
					Data: wire.AppendCkptChunkAck(nil, d.cs.slots[0].seq, i)})
			} else {
				want[s] = append(want[s], i)
			}
		}
	}
	clear(ep.calls)
	d.cs.slots[0].sent = -time.Hour // overdue
	d.cs.expired()
	for _, s := range servers {
		if got := received(s); !reflect.DeepEqual(got, want[s]) || ep.calls[s] != 1 {
			t.Errorf("retransmit to server %d: chunks %v in %d calls, want %v in one", s, got, ep.calls[s], want[s])
		}
	}
	if got, w := d.stats.ChunkRetransmits, int64(len(want[901])+len(want[902])); got != w {
		t.Errorf("ChunkRetransmits = %d, want %d", got, w)
	}
	d.cs.reset()
}

// BenchmarkCapture prices one checkpoint capture on the real path — the
// snapshot, the image with a 1 MiB app state and a 1 MiB SAVED log, and
// the push of every chunk over TCP to servers that read and discard — at
// the default chunk size and at a quarter of it, to one server and to
// two (halo_ckpt's checkpoint-server layout). Allocations per op must not
// grow with the chunk count or the server count. An op ends when every
// server has read its whole batch, so batches cannot pile up in the
// queues across ops; rank-ns/op is the part of it until capture returns
// — the rank's share of the stall, while the chunks still stream.
func BenchmarkCapture(b *testing.B) {
	for _, servers := range []int{1, 2} {
		for _, chunk := range []int{defCkptChunk, defCkptChunk / 4} {
			name := fmt.Sprintf("chunk=%dKiB", chunk>>10)
			if servers > 1 {
				name += fmt.Sprintf(",servers=%d", servers)
			}
			b.Run(name, func(b *testing.B) { benchCapture(b, chunk, servers) })
		}
	}
}

// frameOverhead is what TCP framing adds to each frame: the length, the
// sender id and the kind.
const frameOverhead = 4 + 4 + 1

func benchCapture(b *testing.B, chunk, nServers int) {
	rt := vtime.NewReal()
	addrs := map[int]string{0: "127.0.0.1:0"}
	var servers []int
	read := make([]chan int64, nServers)
	for i := 0; i < nServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		read[i] = make(chan int64, 64)
		go discard(ln, read[i])
		servers = append(servers, 901+i)
		addrs[901+i] = ln.Addr().String()
	}
	fab := transport.NewTCPFabric(rt, addrs)
	ep := fab.Attach(0, "cn0")
	defer ep.Close()
	d := captureDaemon(rt, ep, servers, chunk)
	for i := 0; i < 16; i++ {
		d.st.PrepareSend(1, 0, make([]byte, 64<<10))
	}
	app := make([]byte, 1<<20)
	sent := int64(frameOverhead) // the hello
	var rank time.Duration
	capture := func() {
		start := time.Now()
		checkpointNow(d, app)
		rank += time.Since(start)
		for _, c := range d.cs.slots[0].item.chunks {
			sent += int64(frameOverhead + len(c.hdr) + len(c.body))
		}
		// Block rather than poll: a spinning waiter takes one of the
		// cores the writer and the readers need.
		for _, r := range read {
			for got, ok := int64(0), true; got < sent; {
				if got, ok = <-r; !ok {
					b.Fatal("a server stopped reading")
				}
			}
		}
		d.cs.reset() // nothing acks: drop the transfer instead of retaining it
	}
	capture() // dial
	b.SetBytes(int64(len(app)) + d.st.LogBytes())
	b.ReportAllocs()
	rank = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capture()
	}
	b.ReportMetric(float64(rank.Nanoseconds())/float64(b.N), "rank-ns/op")
}

// discard accepts one connection and reads and discards everything,
// sending the running byte count after each read; it closes read when
// the connection ends.
func discard(ln net.Listener, read chan<- int64) {
	defer close(read)
	c, err := ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	buf := make([]byte, 64<<10)
	for total := int64(0); ; {
		n, err := c.Read(buf)
		total += int64(n)
		read <- total
		if err != nil {
			return
		}
	}
}
