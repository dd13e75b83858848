package ckpt

import (
	"bytes"
	"hash/crc32"
	"testing"
	"time"

	"mpichv/internal/core"
	"mpichv/internal/netsim"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

func makeImage(t *testing.T, rank int, seq uint64) []byte {
	t.Helper()
	st := core.NewState(rank)
	st.PrepareSend(1, 0, []byte("logged payload"))
	proto, err := st.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	im := &Image{Rank: rank, Seq: seq, AppState: []byte("app state"), Proto: proto}
	b, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestImageRoundTrip(t *testing.T) {
	b := makeImage(t, 3, 7)
	im, err := DecodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if im.Rank != 3 || im.Seq != 7 || string(im.AppState) != "app state" {
		t.Errorf("image = %+v", im)
	}
	sn, err := im.ProtoSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := core.Restore(sn)
	if st.SavedCount() != 1 || st.Clock() != 1 {
		t.Errorf("restored protocol state: saved=%d clock=%d", st.SavedCount(), st.Clock())
	}
}

func TestDecodeImageRejectsGarbage(t *testing.T) {
	if _, err := DecodeImage(bytes.Repeat([]byte{9}, 50)); err == nil {
		t.Error("garbage image decoded")
	}
}

func serverHarness(t *testing.T, fn func(s *vtime.Sim, srv *Server, client transport.Endpoint)) {
	t.Helper()
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		srv := NewServer(sim, fab.Attach(200, "cs"))
		srv.Start()
		client := fab.Attach(4, "client")
		fn(sim, srv, client)
	})
}

func recvKind(t *testing.T, ep transport.Endpoint, kind uint8) transport.Frame {
	t.Helper()
	for {
		f, ok := ep.Inbox().Recv()
		if !ok {
			t.Fatal("client inbox closed")
		}
		if f.Kind == kind {
			return f
		}
	}
}

func TestSaveAndFetch(t *testing.T) {
	img := makeImage(t, 4, 1)
	serverHarness(t, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(1, img))
		f := recvKind(t, client, wire.KCkptSaveAck)
		if seq, err := wire.DecodeU64(f.Data); err != nil || seq != 1 {
			t.Fatalf("ack seq = %d %v", seq, err)
		}
		if !srv.HasImage(4) {
			t.Fatal("server has no image for rank 4")
		}

		client.Send(200, wire.KCkptFetch, nil)
		f = recvKind(t, client, wire.KCkptImage)
		present, got, err := wire.DecodeCkptImage(f.Data)
		if err != nil || !present || !bytes.Equal(got, img) {
			t.Fatalf("fetch: present=%v err=%v equal=%v", present, err, bytes.Equal(got, img))
		}
	})
}

func TestFetchWithoutImage(t *testing.T) {
	serverHarness(t, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(200, wire.KCkptFetch, nil)
		f := recvKind(t, client, wire.KCkptImage)
		present, _, err := wire.DecodeCkptImage(f.Data)
		if err != nil || present {
			t.Fatalf("fetch on empty server: present=%v err=%v", present, err)
		}
	})
}

func TestNewerImageReplacesOlder(t *testing.T) {
	img1 := makeImage(t, 4, 1)
	img2 := makeImage(t, 4, 2)
	serverHarness(t, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(1, img1))
		recvKind(t, client, wire.KCkptSaveAck)
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(2, img2))
		recvKind(t, client, wire.KCkptSaveAck)

		client.Send(200, wire.KCkptFetch, nil)
		f := recvKind(t, client, wire.KCkptImage)
		_, got, _ := wire.DecodeCkptImage(f.Data)
		im, err := DecodeImage(got)
		if err != nil || im.Seq != 2 {
			t.Fatalf("latest image seq = %v err=%v", im, err)
		}
		if st := srv.Store.Stats(); st.Saves != 2 {
			t.Errorf("Saves = %d", st.Saves)
		}
	})
}

func TestStaleSaveIgnoredButAcked(t *testing.T) {
	// A save with an old seq (a retransmission, or a stale frame that a
	// chaotic network delayed past a newer save) must not regress the
	// stored image — but it is still acked, because the saver may be
	// retransmitting precisely because the first ack was lost.
	img1 := makeImage(t, 4, 1)
	img2 := makeImage(t, 4, 2)
	serverHarness(t, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(2, img2))
		recvKind(t, client, wire.KCkptSaveAck)
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(1, img1))
		f := recvKind(t, client, wire.KCkptSaveAck)
		if seq, _ := wire.DecodeU64(f.Data); seq != 1 {
			t.Fatalf("stale save not re-acked: seq = %d", seq)
		}
		client.Send(200, wire.KCkptFetch, nil)
		f = recvKind(t, client, wire.KCkptImage)
		_, got, _ := wire.DecodeCkptImage(f.Data)
		im, err := DecodeImage(got)
		if err != nil || im.Seq != 2 {
			t.Fatalf("stored image regressed: %v err=%v", im, err)
		}
		if st := srv.Store.Stats(); st.Saves != 1 || st.StaleRejects != 1 {
			t.Errorf("Saves=%d StaleRejects=%d, want 1 and 1", st.Saves, st.StaleRejects)
		}
	})
}

func TestDecodeImageRejectsTruncationAndBitFlips(t *testing.T) {
	b := makeImage(t, 3, 7)
	for cut := 0; cut < len(b); cut += 7 {
		if _, err := DecodeImage(b[:cut]); err == nil {
			t.Fatalf("image truncated to %d of %d bytes decoded", cut, len(b))
		}
	}
	flipped := append([]byte(nil), b...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := DecodeImage(flipped); err == nil {
		t.Error("bit-flipped image decoded")
	}
}

func TestServerRejectsDamagedSaveWithoutAck(t *testing.T) {
	// A save whose image fails integrity verification is dropped and
	// NOT acked: the daemon keeps retransmitting until an intact copy
	// lands, so the store never holds garbage.
	img := makeImage(t, 4, 1)
	serverHarness(t, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(1, img[:len(img)/2]))
		// Retransmission of the intact image.
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(1, img))
		f := recvKind(t, client, wire.KCkptSaveAck)
		if seq, _ := wire.DecodeU64(f.Data); seq != 1 {
			t.Fatalf("intact retransmission not acked: seq = %d", seq)
		}
		st := srv.Store.Stats()
		if st.Malformed != 1 || st.Saves != 1 {
			t.Errorf("Malformed=%d Saves=%d, want 1 and 1", st.Malformed, st.Saves)
		}
		got, _ := srv.Store.Get(4)
		if _, err := DecodeImage(got); err != nil {
			t.Errorf("stored image does not verify: %v", err)
		}
	})
}

func TestReplicaResyncPullsLatestImages(t *testing.T) {
	// A checkpoint replica respawned empty pulls its peers' latest
	// images and can then serve a restart fetch itself.
	img := makeImage(t, 4, 2)
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		a := NewServer(sim, fab.Attach(200, "cs-a"))
		a.Peers = []int{201}
		a.Start()
		client := fab.Attach(4, "client")
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(2, img))
		recvKind(t, client, wire.KCkptSaveAck)

		b := NewServer(sim, fab.Attach(201, "cs-b"))
		b.Peers = []int{200}
		b.Resync = true
		b.Start()
		sim.Sleep(50 * time.Millisecond)

		client.Send(201, wire.KCkptFetch, nil)
		f := recvKind(t, client, wire.KCkptImage)
		present, got, err := wire.DecodeCkptImage(f.Data)
		if err != nil || !present || !bytes.Equal(got, img) {
			t.Fatalf("resynced replica fetch: present=%v err=%v", present, err)
		}
		if st := b.Store.Stats(); st.SyncedIn != 1 {
			t.Errorf("SyncedIn = %d, want 1", st.SyncedIn)
		}
	})
}

func TestServersShareStore(t *testing.T) {
	// Two frontends over one store: an image saved through the first is
	// served by the second — the failover configuration.
	img := makeImage(t, 4, 1)
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		st := NewStore()
		NewServerWithStore(sim, fab.Attach(200, "cs-a"), st).Start()
		NewServerWithStore(sim, fab.Attach(201, "cs-b"), st).Start()
		client := fab.Attach(4, "client")
		client.Send(200, wire.KCkptSave, wire.EncodeCkptSave(1, img))
		recvKind(t, client, wire.KCkptSaveAck)
		client.Send(201, wire.KCkptFetch, nil)
		f := recvKind(t, client, wire.KCkptImage)
		present, got, err := wire.DecodeCkptImage(f.Data)
		if err != nil || !present || !bytes.Equal(got, img) {
			t.Fatalf("backup fetch: present=%v err=%v", present, err)
		}
	})
}

func TestImagesKeyedPerRank(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		srv := NewServer(sim, fab.Attach(200, "cs"))
		srv.Start()
		c4 := fab.Attach(4, "c4")
		c5 := fab.Attach(5, "c5")
		c4.Send(200, wire.KCkptSave, wire.EncodeCkptSave(1, makeImage(t, 4, 1)))
		recvKind(t, c4, wire.KCkptSaveAck)
		if srv.HasImage(5) {
			t.Error("rank 5 should have no image")
		}
		c5.Send(200, wire.KCkptFetch, nil)
		f := recvKind(t, c5, wire.KCkptImage)
		if present, _, _ := wire.DecodeCkptImage(f.Data); present {
			t.Error("rank 5 fetched rank 4's image")
		}
	})
}

// chainImages builds an encoded base image at seq1, a delta at seq2
// taken against it, and the full image the delta must materialize to —
// the snapshots are built by hand so the SAVED split across the
// base/delta boundary is explicit. Between the two, peer 0 checkpointed
// having delivered clock 3, so the sender collected "one": the delta's
// horizon says so and the materialized image must not hold it.
func chainImages(rank int, seq1, seq2 uint64) (base, delta, full []byte) {
	sn1 := &core.Snapshot{
		Rank: rank, H: 12,
		HS: map[int]uint64{0: 2}, HR: map[int]uint64{1: 1},
		SeqTo: map[int]uint64{0: 2, 1: 1}, SeqIn: map[int]uint64{1: 3},
		Saved: []core.SavedMsg{
			{To: 0, Clock: 3, Seq: 1, Kind: 1, Data: []byte("one")},
			{To: 1, Clock: 5, Seq: 1, Kind: 1, Data: []byte("two")},
			{To: 0, Clock: 7, Seq: 2, Kind: 1, Data: []byte("three")},
		},
	}
	sn2 := &core.Snapshot{
		Rank: rank, H: 30,
		HS: map[int]uint64{0: 6, 1: 2}, HR: map[int]uint64{1: 4},
		SeqTo: map[int]uint64{0: 3, 1: 2}, SeqIn: map[int]uint64{1: 9},
		Collected: map[int]uint64{0: 3},
		Saved: append(append([]core.SavedMsg(nil), sn1.Saved[1:]...),
			core.SavedMsg{To: 1, Clock: 9, Seq: 2, Kind: 1, Data: []byte("four")},
			core.SavedMsg{To: 0, Clock: 11, Seq: 3, Kind: 2, Data: []byte("five!")},
		),
	}
	enc := func(im *Image) []byte {
		b, _ := im.Encode()
		return b
	}
	base = enc(&Image{Rank: rank, Seq: seq1, AppState: []byte("app@1"),
		Proto: core.AppendSnapshot(nil, sn1)})
	delta = enc(&Image{Rank: rank, Seq: seq2, BaseSeq: seq1, AppState: []byte("app@2"),
		Proto: core.AppendSnapshotDelta(nil, sn2, sn1.SeqTo)})
	full = enc(&Image{Rank: rank, Seq: seq2, AppState: []byte("app@2"),
		Proto: core.AppendSnapshot(nil, sn2)})
	return base, delta, full
}

func TestDeltaMaterializesToFullImage(t *testing.T) {
	base, delta, full := chainImages(4, 1, 2)
	st := NewStore()
	if got := st.Accept(4, 1, base); got != Accepted {
		t.Fatalf("base: %v", got)
	}
	if got := st.Accept(4, 2, delta); got != Accepted {
		t.Fatalf("delta: %v", got)
	}
	img, ok := st.Get(4)
	if !ok || !bytes.Equal(img, full) {
		t.Error("materialized image differs from the monolithic full encoding")
	}
	s := st.Stats()
	if s.DeltaSaves != 1 || s.ChainBreaks != 0 {
		t.Errorf("DeltaSaves=%d ChainBreaks=%d, want 1, 0", s.DeltaSaves, s.ChainBreaks)
	}
	// The delta's base stays resident (another in-flight delta may name
	// it); a full image at seq 3 supersedes the whole chain.
	full3 := makeImage(t, 4, 3)
	if got := st.Accept(4, 3, full3); got != Accepted {
		t.Fatalf("full@3: %v", got)
	}
	if s := st.Stats(); s.ChainCompactions != 2 {
		t.Errorf("ChainCompactions = %d, want 2 (seqs 1 and 2)", s.ChainCompactions)
	}
}

// TestChainStaysBoundedUnderGC pins the byte-identity invariant and the
// bound it buys over a long chain driven by a live core.State: a store
// that follows 40 deltas and a store handed the full image every round
// hold identical bytes throughout, and with the peers collecting between
// rounds the image stops growing — it holds what the sender retains,
// not what it ever sent.
func TestChainStaysBoundedUnderGC(t *testing.T) {
	live := core.NewState(0)
	chain, escalated := NewStore(), NewStore()
	var marks map[int]uint64
	var sizes []int
	payload := bytes.Repeat([]byte{0xA5}, 256)
	for round := uint64(1); round <= 40; round++ {
		for i := 0; i < 32; i++ {
			live.PrepareSend(1+i%2, 0, payload)
		}
		sn := live.Snapshot()
		im := &Image{Rank: 0, Seq: round, AppState: []byte{byte(round)}, Proto: core.AppendSnapshot(nil, sn)}
		full := AppendImage(nil, im)
		sent := full
		if round > 1 {
			im.BaseSeq, im.Proto = round-1, core.AppendSnapshotDelta(nil, sn, marks)
			sent = AppendImage(nil, im)
		}
		if got := chain.Accept(0, round, sent); got != Accepted {
			t.Fatalf("round %d: chain store: %v", round, got)
		}
		if got := escalated.Accept(0, round, full); got != Accepted {
			t.Fatalf("round %d: full-image store: %v", round, got)
		}
		a, _ := chain.Get(0)
		b, _ := escalated.Get(0)
		if !bytes.Equal(a, full) || !bytes.Equal(b, full) {
			t.Fatalf("round %d: materialized image differs from the full encoding of the same snapshot", round)
		}
		sizes = append(sizes, len(a))
		marks = sn.SeqTo
		// Both peers checkpoint, each a little behind the sender.
		live.CollectGarbage(1, live.Clock()-8)
		live.CollectGarbage(2, live.Clock()-20)
	}
	if early, late := sizes[3], sizes[39]; late*10 > early*11 || late*10 < early*9 {
		t.Errorf("image is %d bytes after round 40, %d after round 4: not flat", late, early)
	}
	if s := chain.Stats(); s.DeltaSaves != 39 || s.ChainCompactions != 38 {
		t.Errorf("DeltaSaves=%d ChainCompactions=%d, want 39, 38", s.DeltaSaves, s.ChainCompactions)
	}
}

func TestDeltaChainBreakHealsViaSync(t *testing.T) {
	// A replica respawned empty receives a delta whose base it never
	// held: the delta must be refused unacked (ChainBreak) and must
	// succeed once anti-entropy delivers the base.
	base, delta, full := chainImages(4, 1, 2)
	st := NewStore()
	if got := st.Accept(4, 2, delta); got != ChainBreak {
		t.Fatalf("delta without base: %v, want ChainBreak", got)
	}
	if st.Has(4) {
		t.Fatal("broken chain stored an image")
	}
	if st.MergeEntries([]wire.CkptEntry{{Rank: 4, Seq: 1, Image: base}}) != 1 {
		t.Fatal("sync entry not merged")
	}
	if got := st.Accept(4, 2, delta); got != Accepted {
		t.Fatalf("delta after sync: %v", got)
	}
	img, _ := st.Get(4)
	if !bytes.Equal(img, full) {
		t.Error("healed chain materialized different bytes")
	}
	if s := st.Stats(); s.ChainBreaks != 1 {
		t.Errorf("ChainBreaks = %d, want 1", s.ChainBreaks)
	}
}

// putChunks slices img at cs and feeds the chunks to the store in a
// deterministic scrambled order (odd indices first), returning the
// verdict of the completing chunk.
func putChunks(st *Store, rank int, seq uint64, img []byte, cs int) (ack, full, chainBreak bool) {
	n := (len(img) + cs - 1) / cs
	order := make([]int, 0, n)
	for i := 1; i < n; i += 2 {
		order = append(order, i)
	}
	for i := 0; i < n; i += 2 {
		order = append(order, i)
	}
	for _, i := range order {
		lo := i * cs
		hi := min(lo+cs, len(img))
		ack, full, chainBreak = st.PutChunk(rank, seq, uint32(i), uint32(n), img[lo:hi])
	}
	return ack, full, chainBreak
}

func TestChunkedAssemblyByteIdentityAnyChunkSize(t *testing.T) {
	// The determinism pin of the chunked transfer: whatever the chunk
	// size and arrival order, the assembled image — and therefore the
	// core.Snapshot a restart decodes from it — is byte-identical to the
	// monolithic save.
	img := makeImage(t, 4, 1)
	for _, cs := range []int{1, 7, 997, len(img) - 1, len(img), len(img) + 100} {
		st := NewStore()
		ack, full, chainBreak := putChunks(st, 4, 1, img, cs)
		if ack || !full || chainBreak {
			t.Fatalf("cs=%d: completing chunk = (ack=%v full=%v break=%v), want full ack", cs, ack, full, chainBreak)
		}
		got, ok := st.Get(4)
		if !ok || !bytes.Equal(got, img) {
			t.Errorf("cs=%d: assembled image differs from monolithic bytes", cs)
		}
	}
}

func TestChunkedDeltaMatchesMonolithicDelta(t *testing.T) {
	base, delta, full := chainImages(4, 1, 2)
	st := NewStore()
	st.Accept(4, 1, base)
	if _, fullAck, _ := putChunks(st, 4, 2, delta, 11); !fullAck {
		t.Fatal("chunked delta did not complete")
	}
	img, _ := st.Get(4)
	if !bytes.Equal(img, full) {
		t.Error("chunked delta materialized different bytes than the monolithic path")
	}
}

func TestPartialAssemblyNeverClaimsImage(t *testing.T) {
	// A replica that dies with a partial chain must never be counted as
	// holding the image. Full-image acks are what the daemon counts;
	// chunk acks are retransmit suppression only — so the respawned
	// store may chunk-ack whatever lands, as long as it never full-acks
	// an image it cannot serve.
	img := makeImage(t, 4, 1)
	const cs = 64
	n := (len(img) + cs - 1) / cs
	if n < 3 {
		t.Fatalf("image too small for the scenario: %d chunks", n)
	}
	st := NewStore()
	for i := 0; i < n-1; i++ {
		ack, full, _ := st.PutChunk(4, 1, uint32(i), uint32(n), img[i*cs:min((i+1)*cs, len(img))])
		if !ack || full {
			t.Fatalf("chunk %d: ack=%v full=%v, want plain chunk ack", i, ack, full)
		}
	}
	if st.Has(4) || st.Manifest(4, cs).Present {
		t.Fatal("store claims an image from a partial assembly")
	}

	// The replica dies; its respawn comes back empty. The daemon,
	// remembering the old chunk acks, retransmits only the final chunk.
	respawned := NewStore()
	ack, full, _ := respawned.PutChunk(4, 1, uint32(n-1), uint32(n), img[(n-1)*cs:])
	if full {
		t.Fatal("respawned replica full-acked an image it assembled 1 chunk of")
	}
	if !ack {
		t.Error("lone chunk should still be chunk-acked (suppress its retransmit)")
	}
	if respawned.Has(4) {
		t.Fatal("respawned store claims an image")
	}
}

func TestChunkedChainBreakKeepsPartialForRetry(t *testing.T) {
	// A delta assembled on a store missing its base is not acked and the
	// partial is kept: once anti-entropy delivers the base, the daemon's
	// retransmission of any chunk re-runs acceptance.
	base, delta, full := chainImages(4, 1, 2)
	st := NewStore()
	ack, fullAck, chainBreak := putChunks(st, 4, 2, delta, 13)
	if ack || fullAck || !chainBreak {
		t.Fatalf("completing chunk on broken chain = (ack=%v full=%v break=%v), want break only", ack, fullAck, chainBreak)
	}
	st.MergeEntries([]wire.CkptEntry{{Rank: 4, Seq: 1, Image: base}})
	// The daemon retransmits an unacked chunk — a duplicate for the kept
	// partial — which re-triggers assembly against the synced base.
	n := (len(delta) + 13 - 1) / 13
	ack, fullAck, chainBreak = st.PutChunk(4, 2, 0, uint32(n), delta[:13])
	if ack || !fullAck || chainBreak {
		t.Fatalf("retry after sync = (ack=%v full=%v break=%v), want full ack", ack, fullAck, chainBreak)
	}
	img, _ := st.Get(4)
	if !bytes.Equal(img, full) {
		t.Error("healed chunked chain materialized different bytes")
	}
}

func TestManifestAndChunkAtServeVerifiableChunks(t *testing.T) {
	img := makeImage(t, 4, 3)
	st := NewStore()
	st.Accept(4, 3, img)
	const cs = 100
	m := st.Manifest(4, cs)
	if !m.Present || m.Seq != 3 || m.Size != uint64(len(img)) {
		t.Fatalf("manifest = %+v", m)
	}
	if m.ImageCRC != crc32.ChecksumIEEE(img) {
		t.Error("manifest whole-image CRC mismatch")
	}
	var rebuilt []byte
	for i := 0; i < m.Chunks(); i++ {
		frame, ok := st.ChunkAt(4, 3, uint32(i), cs)
		if !ok {
			t.Fatalf("chunk %d not served", i)
		}
		seq, idx, count, body, err := wire.DecodeCkptChunk(frame)
		if err != nil || seq != 3 || idx != uint32(i) || count != uint32(m.Chunks()) {
			t.Fatalf("chunk %d frame: seq=%d idx=%d count=%d err=%v", i, seq, idx, count, err)
		}
		if crc32.ChecksumIEEE(body) != m.ChunkCRCs[i] {
			t.Fatalf("chunk %d CRC differs from manifest", i)
		}
		rebuilt = append(rebuilt, body...)
	}
	if !bytes.Equal(rebuilt, img) {
		t.Error("chunks do not reassemble to the stored image")
	}
	// A fetch for a seq the store has moved past serves nothing — the
	// fetcher must re-gather manifests instead of mixing images.
	if _, ok := st.ChunkAt(4, 2, 0, cs); ok {
		t.Error("ChunkAt served a chunk for an absent seq")
	}
}

func TestServerChunkedSaveFullAcksOnlyOnCompletion(t *testing.T) {
	img := makeImage(t, 4, 1)
	const cs = 48
	n := (len(img) + cs - 1) / cs
	serverHarness(t, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		for i := 0; i < n; i++ {
			lo := i * cs
			hi := min(lo+cs, len(img))
			client.Send(200, wire.KCkptChunk, wire.AppendCkptChunk(nil, 1, uint32(i), uint32(n), img[lo:hi]))
			if i < n-1 {
				f := recvKind(t, client, wire.KCkptChunkAck)
				seq, idx, err := wire.DecodeCkptChunkAck(f.Data)
				if err != nil || seq != 1 || idx != uint32(i) {
					t.Fatalf("chunk ack %d: seq=%d idx=%d err=%v", i, seq, idx, err)
				}
			}
		}
		// The completing chunk is answered with a FULL ack — the only
		// ack kind the daemon counts toward the write quorum.
		f := recvKind(t, client, wire.KCkptSaveAck)
		if seq, err := wire.DecodeU64(f.Data); err != nil || seq != 1 {
			t.Fatalf("full ack: seq=%d err=%v", seq, err)
		}
		if !srv.HasImage(4) {
			t.Fatal("server holds no image after chunked save")
		}
		// A retransmitted chunk after completion (the full ack may have
		// been lost) is answered with another full ack, not a chunk ack.
		client.Send(200, wire.KCkptChunk, wire.AppendCkptChunk(nil, 1, 0, uint32(n), img[:cs]))
		f = recvKind(t, client, wire.KCkptSaveAck)
		if seq, _ := wire.DecodeU64(f.Data); seq != 1 {
			t.Fatalf("stale chunk re-ack seq = %d", seq)
		}
	})
}

func TestServerDamagedChunkNotAcked(t *testing.T) {
	img := makeImage(t, 4, 1)
	serverHarness(t, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		frame := wire.AppendCkptChunk(nil, 1, 0, 2, img[:50])
		frame[len(frame)-1] ^= 0x10
		client.Send(200, wire.KCkptChunk, frame)
		// An intact chunk after the damaged one: its ack proves the
		// server processed (and silently dropped) the damaged frame.
		client.Send(200, wire.KCkptChunk, wire.AppendCkptChunk(nil, 1, 1, 2, img[50:100]))
		f := recvKind(t, client, wire.KCkptChunkAck)
		if _, idx, _ := wire.DecodeCkptChunkAck(f.Data); idx != 1 {
			t.Fatalf("acked idx = %d, want 1 (the intact chunk)", idx)
		}
		if st := srv.Store.Stats(); st.Malformed != 1 {
			t.Errorf("Malformed = %d, want 1", st.Malformed)
		}
	})
}

func TestAppendImageZeroAlloc(t *testing.T) {
	img := makeImage(t, 4, 1)
	im, err := DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, ImageSize(im))
	if allocs := testing.AllocsPerRun(200, func() { AppendImage(dst[:0], im) }); allocs != 0 {
		t.Errorf("AppendImage: %.1f allocs/op, want 0", allocs)
	}
}
