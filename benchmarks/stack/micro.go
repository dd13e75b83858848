package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/core"
	"mpichv/internal/eventlog"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/walog"
	"mpichv/internal/wire"
)

// The layer microbenchmarks (source S in the README): timed calls into
// public functions, and fake client endpoints talking to real servers
// over loopback TCP. Each runs for slice d; none touches a daemon.

// timeOp calls fn until d has passed and returns ns and heap
// allocations per call.
func timeOp(d time.Duration, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for i := 0; i < 64; i++ {
			fn()
		}
		n += 64
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func mbps(bytes float64, d time.Duration) float64 { return ratio(bytes/1e6, d.Seconds()) }

var sink any // keeps results of timed calls alive

type microbench struct {
	d   time.Duration
	dir string
	m   metrics
	rng splitmix64
	err error
}

func runMicro(d time.Duration, dir string, seed uint64, m metrics) error {
	b := &microbench{d: d, dir: dir, m: m, rng: splitmix64(seed)}
	for _, f := range []func(){b.wire, b.mailbox, b.tcp, b.walog, b.eventlogStore,
		b.eventlogServer, b.ckptCodec, b.ckptStore, b.ckptServer, b.core} {
		if f(); b.err != nil {
			return b.err
		}
	}
	return nil
}

func (b *microbench) wire() {
	body := b.rng.bytes(1 << 10)
	hdr := wire.PayloadHeader{SenderClock: 7, PairSeq: 3}
	buf := make([]byte, 0, wire.PayloadSizeH(hdr, len(body)))
	var allocs, a float64
	b.m["wire.payload_encode_ns"], allocs = timeOp(b.d, func() { buf = wire.AppendPayload(buf[:0], hdr, body) })
	b.m["wire.payload_decode_ns"], a = timeOp(b.d, func() { _, sink, _ = wire.DecodePayload(buf) })
	allocs += a
	evs := []core.Event{{Sender: 1, SenderClock: 9, RecvClock: 10, Seq: 4}}
	ebuf := make([]byte, 0, wire.EventLogSize(len(evs)))
	b.m["wire.eventlog_encode_ns"], a = timeOp(b.d, func() { ebuf = wire.AppendEventLog(ebuf[:0], 5, evs) })
	allocs += a
	b.m["wire.eventlog_decode_ns"], a = timeOp(b.d, func() { _, sink, _ = wire.DecodeEventLog(ebuf) })
	b.m["wire.allocs_per_op"] = (allocs + a) / 4
}

// mailbox times one hop through a vtime.Mailbox between two goroutines:
// the rank↔daemon "Unix socket" is a pair of them.
func (b *microbench) mailbox() {
	rt := vtime.NewReal()
	ping, pong := vtime.NewMailbox[int](rt, "ping"), vtime.NewMailbox[int](rt, "pong")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := ping.Recv()
			if !ok {
				return
			}
			pong.Send(v)
		}
	}()
	ns, _ := timeOp(b.d, func() { ping.Send(1); pong.Recv() })
	ping.Close()
	<-done
	b.m["vtime.mailbox_hop_ns"] = ns / 2
}

// tcpNet is a TCP fabric of plain endpoints for fake clients and real
// servers.
type tcpNet struct {
	rt  *vtime.Real
	fab *transport.TCPFabric
	ids []int
}

func newTCPNet(ids ...int) *tcpNet {
	addrs := map[int]string{}
	for _, id := range ids {
		addrs[id] = "127.0.0.1:0"
	}
	rt := vtime.NewReal()
	return &tcpNet{rt: rt, fab: transport.NewTCPFabric(rt, addrs), ids: ids}
}

func (n *tcpNet) close() {
	for _, id := range n.ids {
		n.fab.Kill(id)
	}
	n.rt.Wait()
}

func (b *microbench) tcp() {
	n := newTCPNet(1, 2)
	defer n.close()
	a, z := n.fab.Attach(1, "a"), n.fab.Attach(2, "z")
	var streamed atomic.Int64
	go func() { // z echoes empty frames and counts the rest
		for {
			f, ok := z.Inbox().Recv()
			if !ok {
				return
			}
			if len(f.Data) == 0 {
				z.Send(1, f.Kind, nil)
			} else {
				streamed.Add(int64(len(f.Data)))
			}
		}
	}()
	echo := func() { a.Send(2, wire.KHello, nil); a.Inbox().Recv() }
	echo() // dial
	var rtts []float64
	_, allocs := timeOp(b.d, func() {
		t0 := time.Now()
		echo()
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	})
	b.m["transport.tcp_frame_rtt_p50_us"] = median(rtts)
	b.m["transport.tcp_allocs_per_frame"] = allocs / 2
	// One-way stream of 64 KiB frames, closed by an echo so the last
	// byte has been read when the clock stops.
	chunk := b.rng.bytes(64 << 10)
	start := time.Now()
	for time.Since(start) < b.d {
		a.Send(2, wire.KPayload, chunk)
	}
	echo()
	b.m["transport.tcp_stream_MBps"] = mbps(float64(streamed.Load()), time.Since(start))
}

func (b *microbench) walog() {
	path := filepath.Join(b.dir, "micro.wal")
	w, err := walog.Open(path, walog.TornConfig{})
	if err != nil {
		b.err = fmt.Errorf("walog: %w", err)
		return
	}
	small, chunk := b.rng.bytes(40), b.rng.bytes(16<<10)
	b.m["walog.append_small_ns"], _ = timeOp(b.d, func() { w.Append(small) })
	ns, _ := timeOp(b.d, func() { w.Append(chunk) })
	b.m["walog.append_chunk_MBps"] = ratio(float64(len(chunk))*1e3, ns)
	if err := w.Close(); err != nil {
		b.err = fmt.Errorf("walog: %w", err)
		return
	}
	st, _ := os.Stat(path)
	start := time.Now()
	res, err := walog.Load(path, func([]byte) {})
	if err != nil || res.Torn != 0 {
		b.err = fmt.Errorf("walog: load: %v, %d torn records", err, res.Torn)
		return
	}
	b.m["walog.load_MBps"] = mbps(float64(st.Size()), time.Since(start))
	os.Remove(path)
}

func (b *microbench) eventlogStore() {
	st := eventlog.NewStore()
	clock := uint64(0)
	ev := make([]core.Event, 1)
	b.m["eventlog.store_add_ns"], _ = timeOp(b.d, func() {
		clock++
		if clock%(1<<16) == 0 {
			st = eventlog.NewStore() // keep the map at a working-set size the workloads see
		}
		ev[0] = core.Event{Sender: 1, SenderClock: clock, RecvClock: clock, Seq: clock}
		st.Add(0, ev)
	})
}

// elClient is a fake daemon: it submits one determinant and waits for
// acks of that seq from `need` distinct loggers.
type elClient struct {
	ep    transport.Endpoint
	seq   uint64
	clock uint64
}

func (c *elClient) submit(loggers []int, need int) bool {
	c.seq++
	c.clock++
	ev := []core.Event{{Sender: 1, SenderClock: c.clock, RecvClock: c.clock, Seq: c.clock}}
	for _, l := range loggers {
		c.ep.Send(l, wire.KEventLog, wire.AppendEventLog(wire.GetBuf(wire.EventLogSize(1)), c.seq, ev))
	}
	for got := 0; got < need; {
		f, ok := c.ep.Inbox().Recv()
		if !ok {
			return false
		}
		if seq, _, err := wire.DecodeEventAck(f.Data); err == nil && f.Kind == wire.KEventAck && seq == c.seq {
			got++ // acks of earlier seqs (the replicas beyond the quorum) are skipped
		}
	}
	return true
}

func (b *microbench) eventlogServer() {
	loggers := serviceIDs(elBase, 3)
	n := newTCPNet(append([]int{0, 1, 2, 3, 4}, loggers...)...)
	defer n.close()
	for _, id := range loggers {
		st := eventlog.NewStore()
		if _, err := st.OpenWAL(filepath.Join(b.dir, fmt.Sprintf("micro-el-%d.wal", id)), walog.TornConfig{}); err != nil {
			b.err = fmt.Errorf("eventlog: %w", err)
			return
		}
		defer st.CloseWAL()
		eventlog.NewServerWithStore(n.rt, n.fab.Attach(id, "event-logger"), 0, st).Start()
	}
	clients := make([]*elClient, 4)
	for i := range clients {
		clients[i] = &elClient{ep: n.fab.Attach(i, "client")}
		clients[i].submit(loggers, 3) // dial all three
	}
	sample := func(targets []int, need int) float64 {
		var us []float64
		timeOp(b.d, func() {
			t0 := time.Now()
			clients[0].submit(targets, need)
			us = append(us, float64(time.Since(t0))/1e3)
		})
		return median(us)
	}
	b.m["eventlog.submit_ack_p50_us"] = sample(loggers[:1], 1)
	b.m["eventlog.quorum_ack_p50_us"] = sample(loggers, 2)

	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *elClient) {
			defer wg.Done()
			for time.Since(start) < b.d {
				c.submit(loggers[:1], 1)
				total.Add(1)
			}
		}(c)
	}
	wg.Wait()
	b.m["eventlog.submits_per_s_4clients"] = ratio(float64(total.Load()), time.Since(start).Seconds())

	// Restart-time fetch: a rank with 16 k logged events asks for all.
	const held = 16 << 10
	fetcher := n.fab.Attach(4, "fetcher")
	evs := make([]core.Event, held)
	for i := range evs {
		c := uint64(i + 1)
		evs[i] = core.Event{Sender: 1, SenderClock: c, RecvClock: c, Seq: c}
	}
	for _, l := range loggers[:1] {
		fetcher.Send(l, wire.KEventLog, wire.EncodeEventLog(1, evs))
		fetcher.Inbox().Recv()
	}
	fetches := 0
	start = time.Now()
	for time.Since(start) < b.d {
		fetcher.Send(loggers[0], wire.KEventFetch, wire.EncodeU64(0))
		f, ok := fetcher.Inbox().Recv()
		got, err := wire.DecodeEvents(f.Data)
		if !ok || err != nil || len(got) != held {
			b.err = fmt.Errorf("eventlog: fetch returned %d events, %v", len(got), err)
			return
		}
		fetches++
	}
	b.m["eventlog.fetch_events_per_s"] = ratio(float64(fetches*held), time.Since(start).Seconds())
	for _, id := range loggers {
		os.Remove(filepath.Join(b.dir, fmt.Sprintf("micro-el-%d.wal", id)))
	}
}

// sender builds a protocol state whose SAVED log holds n blocks of
// size bytes, as a rank that has sent that much would.
func (b *microbench) sender(n, size int) *core.State {
	st := core.NewState(0)
	for i := 0; i < n; i++ {
		st.PrepareSend(1, 0, b.rng.bytes(size))
	}
	return st
}

func fullImage(st *core.State, seq uint64, app []byte) (*core.Snapshot, []byte) {
	sn := st.Snapshot()
	im := &ckpt.Image{Rank: 0, Seq: seq, AppState: app, Proto: core.AppendSnapshot(nil, sn)}
	return sn, ckpt.AppendImage(nil, im)
}

func (b *microbench) ckptCodec() {
	app := b.rng.bytes(1 << 20)
	sn := b.sender(64, 1<<10).Snapshot()
	im := &ckpt.Image{Rank: 0, Seq: 1, AppState: app, Proto: core.AppendSnapshot(nil, sn)}
	buf := make([]byte, 0, ckpt.ImageSize(im))
	ns, _ := timeOp(b.d, func() { buf = ckpt.AppendImage(buf[:0], im) })
	b.m["ckpt.image_encode_MBps"] = ratio(float64(len(buf))*1e3, ns)
	ns, _ = timeOp(b.d, func() { sink, _ = ckpt.DecodeImage(buf) })
	b.m["ckpt.image_decode_MBps"] = ratio(float64(len(buf))*1e3, ns)
}

func (b *microbench) ckptStore() {
	// Chunk landing: a 4 MiB image arrives as 16 KiB chunks; the last
	// one assembles, verifies and stores it. Building the image is the
	// daemon's work and stays outside the clock.
	app := b.rng.bytes(4 << 20)
	st := ckpt.NewStore()
	state := b.sender(4, 1<<10)
	var busy time.Duration
	var landed float64
	seq := uint64(0)
	for start := time.Now(); time.Since(start) < b.d; {
		seq++
		_, img := fullImage(state, seq, app)
		n := (len(img) + ckptChunk - 1) / ckptChunk
		t0 := time.Now()
		stored := false
		for i := 0; i < n; i++ {
			_, stored, _ = st.PutChunk(0, seq, uint32(i), uint32(n), img[i*ckptChunk:min((i+1)*ckptChunk, len(img))])
		}
		busy += time.Since(t0)
		landed += float64(len(img))
		if !stored {
			b.err = fmt.Errorf("ckpt: store did not assemble image %d", seq)
			return
		}
	}
	b.m["ckpt.put_chunk_MBps"] = mbps(landed, busy)

	// Materialization: a small delta lands on a base whose SAVED log
	// holds 16 MiB; the store decodes the base, merges and re-encodes.
	st = ckpt.NewStore()
	state = b.sender(16<<10, 1<<10)
	base, img := fullImage(state, 1, nil)
	if st.Accept(0, 1, img) != ckpt.Accepted {
		b.err = fmt.Errorf("ckpt: store refused the base image")
		return
	}
	var ms []float64
	seq = 1
	for start := time.Now(); time.Since(start) < b.d || len(ms) < 3; {
		for i := 0; i < 16; i++ {
			state.PrepareSend(1, 0, b.rng.bytes(1<<10))
		}
		sn := state.Snapshot()
		seq++
		delta := &ckpt.Image{Rank: 0, Seq: seq, BaseSeq: seq - 1, Proto: core.AppendSnapshotDelta(nil, sn, base.SeqTo)}
		img := ckpt.AppendImage(nil, delta)
		t0 := time.Now()
		verdict := st.Accept(0, seq, img)
		ms = append(ms, float64(time.Since(t0))/1e6)
		if verdict != ckpt.Accepted {
			b.err = fmt.Errorf("ckpt: store refused delta %d: verdict %d", seq, verdict)
			return
		}
		base = sn
	}
	b.m["ckpt.materialize_ms"] = median(ms)
}

// ckptChunk is the daemon's default chunk size (daemon.Config.CkptChunkSize = 0).
const ckptChunk = 16 << 10

func (b *microbench) ckptServer() {
	servers := serviceIDs(csBase, 2)
	n := newTCPNet(append([]int{0}, servers...)...)
	defer n.close()
	for _, id := range servers {
		st := ckpt.NewStore()
		path := filepath.Join(b.dir, fmt.Sprintf("micro-cs-%d.wal", id))
		if _, err := st.OpenWAL(path, walog.TornConfig{}); err != nil {
			b.err = fmt.Errorf("ckpt: %w", err)
			return
		}
		defer os.Remove(path)
		defer st.CloseWAL()
		ckpt.NewServerWithStore(n.rt, n.fab.Attach(id, "ckpt-server"), st).Start()
	}
	client := n.fab.Attach(0, "client")
	app := b.rng.bytes(4 << 20)
	state := b.sender(4, 1<<10)
	// await counts frames of one kind that name seq, skipping the rest
	// (per-chunk acks, acks of earlier saves).
	await := func(kind uint8, count int, match func([]byte) bool) bool {
		for count > 0 {
			f, ok := client.Inbox().Recv()
			if !ok {
				return false
			}
			if f.Kind == kind && match(f.Data) {
				count--
			}
		}
		return true
	}
	var ms []float64
	var img []byte
	seq := uint64(0)
	for start := time.Now(); time.Since(start) < b.d || len(ms) < 3; {
		seq++
		_, img = fullImage(state, seq, app)
		chunks := (len(img) + ckptChunk - 1) / ckptChunk
		t0 := time.Now()
		for i := 0; i < chunks; i++ {
			body := img[i*ckptChunk : min((i+1)*ckptChunk, len(img))]
			frame := wire.AppendCkptChunk(nil, seq, uint32(i), uint32(chunks), body)
			for _, s := range servers {
				client.Send(s, wire.KCkptChunk, frame)
			}
		}
		if !await(wire.KCkptSaveAck, len(servers), func(d []byte) bool { got, err := wire.DecodeU64(d); return err == nil && got == seq }) {
			b.err = fmt.Errorf("ckpt: servers closed during save %d", seq)
			return
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	b.m["ckpt.save_commit_p50_ms"] = median(ms)

	// Restart fast path: manifest, then every chunk, from one server.
	var fetched float64
	start := time.Now()
	for time.Since(start) < b.d {
		client.Send(servers[0], wire.KCkptManifestReq, wire.EncodeU32(ckptChunk))
		var man wire.CkptManifest
		if !await(wire.KCkptManifest, 1, func(d []byte) bool { m, err := wire.DecodeCkptManifest(d); man = m; return err == nil }) ||
			!man.Present || int(man.Size) != len(img) {
			b.err = fmt.Errorf("ckpt: manifest names %d bytes, image has %d", man.Size, len(img))
			return
		}
		for i := 0; i < man.Chunks(); i++ {
			client.Send(servers[0], wire.KCkptChunkFetch, wire.AppendCkptChunkFetch(nil, man.Seq, uint32(i), ckptChunk))
		}
		if !await(wire.KCkptChunkData, man.Chunks(), func(d []byte) bool {
			_, _, _, body, err := wire.DecodeCkptChunk(d)
			fetched += float64(len(body))
			return err == nil
		}) {
			b.err = fmt.Errorf("ckpt: server closed during fetch")
			return
		}
	}
	b.m["ckpt.fetch_MBps"] = mbps(fetched, time.Since(start))
}

func (b *microbench) core() {
	// One message through the protocol state machines of a sender and a
	// receiver: log it, offer it, deliver it, log the determinant.
	var snd, rcv *core.State
	data := b.rng.bytes(64)
	n := 0
	b.m["core.send_commit_ns"], _ = timeOp(b.d, func() {
		if n%(1<<16) == 0 {
			snd, rcv = core.NewState(0), core.NewState(1) // bound the SAVED log
		}
		n++
		id, seq, _ := snd.PrepareSend(1, 0, data)
		rcv.Offer(0, id.Clock, seq, 0, data)
		rcv.Commit(0, id.Clock, seq)
		rcv.EventsAcked(1)
	})

	// What a checkpoint costs the daemon before anything is sent: deep
	// copy and encoding of a 4 MiB SAVED log.
	st := b.sender(4<<10, 1<<10)
	buf := make([]byte, 0, core.SnapshotSize(st.Snapshot()))
	ns, _ := timeOp(b.d, func() { buf = core.AppendSnapshot(buf[:0], st.Snapshot()) })
	b.m["core.snapshot_encode_MBps"] = ratio(float64(len(buf))*1e3, ns)

	// Replay: a restarted receiver is handed its logged determinants and
	// the re-sent messages, and delivers them in logged order.
	const logged = 16 << 10
	snd, rcv = core.NewState(0), core.NewState(1)
	evs := make([]core.Event, logged)
	msgs := make([]core.StashedMsg, logged)
	for i := range evs {
		id, seq, _ := snd.PrepareSend(1, 0, data)
		rcv.Offer(0, id.Clock, seq, 0, data)
		evs[i] = rcv.Commit(0, id.Clock, seq)
		msgs[i] = core.StashedMsg{From: 0, Clock: id.Clock, Seq: seq, Data: data}
	}
	replayed := 0
	start := time.Now()
	for time.Since(start) < b.d {
		re := core.NewState(1)
		re.StartRecovery(evs)
		for _, m := range msgs {
			re.Offer(m.From, m.Clock, m.Seq, m.Kind, m.Data)
			if _, _, ok := re.TakeStashed(); !ok {
				b.err = fmt.Errorf("core: replay stalled at event %d", replayed%logged)
				return
			}
			replayed++
		}
	}
	b.m["core.replay_events_per_s"] = ratio(float64(replayed), time.Since(start).Seconds())
}
