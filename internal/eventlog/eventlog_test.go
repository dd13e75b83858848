package eventlog

import (
	"testing"
	"time"

	"mpichv/internal/core"
	"mpichv/internal/netsim"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// harness wires one event logger and one client endpoint on a simulated
// fabric.
func harness(t *testing.T, service time.Duration, fn func(s *vtime.Sim, srv *Server, client transport.Endpoint)) {
	t.Helper()
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		srv := NewServer(sim, fab.Attach(100, "el"), service)
		srv.Start()
		client := fab.Attach(1, "client")
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

func TestLogAndAck(t *testing.T) {
	harness(t, 0, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		evs := []core.Event{
			{Sender: 2, SenderClock: 1, RecvClock: 1},
			{Sender: 2, SenderClock: 2, RecvClock: 2, Probes: 3},
		}
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(7, evs))
		f := recvKind(t, client, wire.KEventAck)
		seq, cum, err := wire.DecodeEventAck(f.Data)
		if err != nil || seq != 7 {
			t.Fatalf("ack seq = %d %v", seq, err)
		}
		// Batch 7 arrived with 1..6 missing, so the cumulative mark
		// stays at the incarnation base.
		if cum != 0 {
			t.Fatalf("cum = %d, want 0 (gap 1..6 unfilled)", cum)
		}
		if st := srv.Store.Stats(); srv.Store.Count(1) != 2 || st.Logged != 2 {
			t.Errorf("stored %d events, Logged=%d", srv.Store.Count(1), st.Logged)
		}
	})
}

func TestResubmittedBatchReAckedNotRelogged(t *testing.T) {
	// A retransmission (the ack was lost) must be acked again but must
	// not store the events a second time.
	harness(t, 0, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		evs := []core.Event{{Sender: 2, SenderClock: 1, RecvClock: 1}}
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(1, evs))
		recvKind(t, client, wire.KEventAck)
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(1, evs))
		f := recvKind(t, client, wire.KEventAck)
		if seq, _, _ := wire.DecodeEventAck(f.Data); seq != 1 {
			t.Fatalf("duplicate not re-acked: seq = %d", seq)
		}
		if st := srv.Store.Stats(); srv.Store.Count(1) != 1 || st.Logged != 1 || st.Duplicates != 1 {
			t.Errorf("after duplicate: count=%d Logged=%d Duplicates=%d",
				srv.Store.Count(1), st.Logged, st.Duplicates)
		}
	})
}

func TestFetchSortsOutOfOrderSubmissions(t *testing.T) {
	// On a chaotic network batches can arrive out of order; a fetch must
	// still return the events in RecvClock order for replay.
	harness(t, 0, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(2, []core.Event{
			{Sender: 3, SenderClock: 3, RecvClock: 3}, {Sender: 3, SenderClock: 4, RecvClock: 4},
		}))
		recvKind(t, client, wire.KEventAck)
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(1, []core.Event{
			{Sender: 3, SenderClock: 1, RecvClock: 1}, {Sender: 3, SenderClock: 2, RecvClock: 2},
		}))
		recvKind(t, client, wire.KEventAck)

		client.Send(100, wire.KEventFetch, wire.EncodeU64(0))
		f := recvKind(t, client, wire.KEventFetched)
		got, err := wire.DecodeEvents(f.Data)
		if err != nil || len(got) != 4 {
			t.Fatalf("fetched %d events, err=%v; want 4", len(got), err)
		}
		for i, ev := range got {
			if ev.RecvClock != uint64(i+1) {
				t.Errorf("event %d has clock %d, want %d", i, ev.RecvClock, i+1)
			}
		}
	})
}

func TestFetchFiltersByClock(t *testing.T) {
	harness(t, 0, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		var evs []core.Event
		for i := uint64(1); i <= 10; i++ {
			evs = append(evs, core.Event{Sender: 3, SenderClock: i, RecvClock: i})
		}
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(1, evs))
		recvKind(t, client, wire.KEventAck)

		client.Send(100, wire.KEventFetch, wire.EncodeU64(7))
		f := recvKind(t, client, wire.KEventFetched)
		got, err := wire.DecodeEvents(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("fetched %d events, want 3 (clocks 8..10)", len(got))
		}
		for i, ev := range got {
			if ev.RecvClock != uint64(8+i) {
				t.Errorf("event %d clock %d", i, ev.RecvClock)
			}
		}
	})
}

func TestFetchEmptyForUnknownNode(t *testing.T) {
	harness(t, 0, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(100, wire.KEventFetch, wire.EncodeU64(0))
		f := recvKind(t, client, wire.KEventFetched)
		got, err := wire.DecodeEvents(f.Data)
		if err != nil || len(got) != 0 {
			t.Fatalf("fetch for fresh node: %v %v", got, err)
		}
	})
}

func TestEventsKeyedPerNode(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		srv := NewServer(sim, fab.Attach(100, "el"), 0)
		srv.Start()
		c1 := fab.Attach(1, "c1")
		c2 := fab.Attach(2, "c2")
		c1.Send(100, wire.KEventLog, wire.EncodeEventLog(1, []core.Event{{Sender: 9, SenderClock: 1, RecvClock: 1}}))
		c2.Send(100, wire.KEventLog, wire.EncodeEventLog(1, []core.Event{{Sender: 9, SenderClock: 1, RecvClock: 1}, {Sender: 9, SenderClock: 2, RecvClock: 2}}))
		recvKind(t, c1, wire.KEventAck)
		recvKind(t, c2, wire.KEventAck)
		if srv.Store.Count(1) != 1 || srv.Store.Count(2) != 2 {
			t.Errorf("per-node counts: %d %d", srv.Store.Count(1), srv.Store.Count(2))
		}
	})
}

func TestServiceTimeSerializesBursts(t *testing.T) {
	// With a per-event service time, two batches submitted together
	// are acked at staggered times — the queueing effect that penalizes
	// collective bursts (DESIGN.md, Params2003.ELService).
	var gap time.Duration
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		NewServer(sim, fab.Attach(100, "el"), 100*time.Microsecond).Start()
		c1 := fab.Attach(1, "c1")
		c2 := fab.Attach(2, "c2")
		// Each send owns its buffer: the server recycles KEventLog
		// frames after storing them, so frames must never share bytes.
		ev := []core.Event{{Sender: 0, SenderClock: 1, RecvClock: 1}}
		c1.Send(100, wire.KEventLog, wire.EncodeEventLog(1, ev))
		c2.Send(100, wire.KEventLog, wire.EncodeEventLog(1, ev))
		recvKind(t, c1, wire.KEventAck)
		t1 := sim.Now()
		recvKind(t, c2, wire.KEventAck)
		gap = sim.Now() - t1
	})
	if gap < 90*time.Microsecond {
		t.Errorf("second ack arrived %v after the first; want ≥ the service time", gap)
	}
}

func TestMalformedFramesCountedAndIgnored(t *testing.T) {
	harness(t, 0, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		client.Send(100, wire.KEventLog, []byte{1, 2})
		client.Send(100, wire.KEventFetch, []byte{1})
		// The server must survive and still answer good requests.
		client.Send(100, wire.KEventFetch, wire.EncodeU64(0))
		recvKind(t, client, wire.KEventFetched)
		if st := srv.Store.Stats(); st.Malformed != 2 {
			t.Errorf("Malformed = %d, want 2", st.Malformed)
		}
	})
}

func TestReplicaResyncPullsMissingEvents(t *testing.T) {
	// A replica respawned with an empty store pulls everything its
	// peers hold via anti-entropy and then serves fetches itself.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		a := NewServer(sim, fab.Attach(100, "el-a"), 0)
		a.Peers = []int{101}
		a.Start()
		client := fab.Attach(1, "client")
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(1, []core.Event{
			{Sender: 2, SenderClock: 1, RecvClock: 1, Seq: 1},
			{Sender: 2, SenderClock: 2, RecvClock: 2, Seq: 2},
		}))
		recvKind(t, client, wire.KEventAck)

		// Replica B joins late with a fresh store and resyncs from A.
		b := NewServer(sim, fab.Attach(101, "el-b"), 0)
		b.Peers = []int{100}
		b.Resync = true
		b.Start()
		sim.Sleep(50 * time.Millisecond)

		client.Send(101, wire.KEventFetch, wire.EncodeU64(0))
		f := recvKind(t, client, wire.KEventFetched)
		got, err := wire.DecodeEvents(f.Data)
		if err != nil || len(got) != 2 {
			t.Fatalf("resynced replica served %d events, err=%v; want 2", len(got), err)
		}
		st := b.Store.Stats()
		if st.SyncedIn != 2 || st.Resyncs == 0 {
			t.Errorf("resync stats: %+v", st)
		}
	})
}

func TestResyncMarksPullOnlyMissingRange(t *testing.T) {
	// A stale (not empty) replica asks only for events above its
	// high-water marks; overlap is not re-counted.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		full := NewServer(sim, fab.Attach(100, "el-a"), 0)
		full.Start()
		client := fab.Attach(1, "client")
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(1, []core.Event{
			{Sender: 2, SenderClock: 1, RecvClock: 1, Seq: 1},
			{Sender: 2, SenderClock: 2, RecvClock: 2, Seq: 2},
			{Sender: 2, SenderClock: 3, RecvClock: 3, Seq: 3},
		}))
		recvKind(t, client, wire.KEventAck)

		stale := NewStore()
		stale.Add(1, []core.Event{{Sender: 2, SenderClock: 1, RecvClock: 1, Seq: 1}})
		b := NewServerWithStore(sim, fab.Attach(101, "el-b"), 0, stale)
		b.Peers = []int{100}
		b.Resync = true
		b.Start()
		sim.Sleep(50 * time.Millisecond)

		if n := stale.Count(1); n != 3 {
			t.Fatalf("stale replica holds %d events after resync, want 3", n)
		}
		if st := stale.Stats(); st.SyncedIn != 2 {
			t.Errorf("SyncedIn = %d, want 2 (only the missing range)", st.SyncedIn)
		}
	})
}

// TestResyncedReplicaServesReadQuorumMerge: two surviving replicas hold
// *divergent* partial stores (each event reached a different write
// quorum); a replica respawned empty anti-entropies from both peers and
// must then serve the union — so a read quorum that lands on the
// rejoined replica still sees every committed determinant.
func TestResyncedReplicaServesReadQuorumMerge(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		e1 := core.Event{Sender: 2, SenderClock: 1, RecvClock: 1, Seq: 1}
		e2 := core.Event{Sender: 2, SenderClock: 2, RecvClock: 2, Seq: 2}
		e3 := core.Event{Sender: 3, SenderClock: 1, RecvClock: 3, Seq: 3}
		stA := NewStore()
		stA.Add(1, []core.Event{e1, e2}) // write quorum {A, old-C}
		stB := NewStore()
		stB.Add(1, []core.Event{e2, e3}) // write quorum {B, old-C}
		NewServerWithStore(sim, fab.Attach(100, "el-a"), 0, stA).Start()
		NewServerWithStore(sim, fab.Attach(101, "el-b"), 0, stB).Start()

		c := NewServer(sim, fab.Attach(102, "el-c"), 0)
		c.Peers = []int{100, 101}
		c.Resync = true
		c.Start()
		sim.Sleep(100 * time.Millisecond)

		if !c.Synced() {
			t.Fatal("rejoined replica never reported synced")
		}
		client := fab.Attach(1, "client")
		client.Send(102, wire.KEventFetch, wire.EncodeU64(0))
		f := recvKind(t, client, wire.KEventFetched)
		got, err := wire.DecodeEvents(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		want := []core.Event{e1, e2, e3}
		if len(got) != len(want) {
			t.Fatalf("rejoined replica served %d events, want %d (the union): %+v", len(got), len(want), got)
		}
		for i, ev := range got {
			if ev != want[i] {
				t.Fatalf("event %d = %+v, want %+v", i, ev, want[i])
			}
		}
	})
}

func TestServersShareStore(t *testing.T) {
	// Two frontends over one store: events logged through the first are
	// served by the second — the failover configuration.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		st := NewStore()
		NewServerWithStore(sim, fab.Attach(100, "el-a"), 0, st).Start()
		NewServerWithStore(sim, fab.Attach(101, "el-b"), 0, st).Start()
		client := fab.Attach(1, "client")
		client.Send(100, wire.KEventLog, wire.EncodeEventLog(1, []core.Event{{Sender: 2, SenderClock: 1, RecvClock: 1}}))
		recvKind(t, client, wire.KEventAck)
		client.Send(101, wire.KEventFetch, wire.EncodeU64(0))
		f := recvKind(t, client, wire.KEventFetched)
		got, err := wire.DecodeEvents(f.Data)
		if err != nil || len(got) != 1 {
			t.Fatalf("backup served %d events, err=%v; want 1", len(got), err)
		}
	})
}

func TestCumulativeAckTracksContiguousPrefix(t *testing.T) {
	// The mark on each ack is the highest seq with every batch of the
	// same incarnation up to it stored: out-of-order arrivals park
	// until the gap fills, and a new incarnation starts a new stream.
	harness(t, 0, func(s *vtime.Sim, srv *Server, client transport.Endpoint) {
		ev := []core.Event{{Sender: 2, SenderClock: 1, RecvClock: 1}}
		ack := func(seq uint64) (uint64, uint64) {
			t.Helper()
			client.Send(100, wire.KEventLog, wire.EncodeEventLog(seq, ev))
			got, cum, err := wire.DecodeEventAck(recvKind(t, client, wire.KEventAck).Data)
			if err != nil || got != seq {
				t.Fatalf("ack for %d = (%d, %v)", seq, got, err)
			}
			return got, cum
		}
		if _, cum := ack(1); cum != 1 {
			t.Errorf("after batch 1: cum = %d, want 1", cum)
		}
		if _, cum := ack(3); cum != 1 {
			t.Errorf("after batch 3 (2 missing): cum = %d, want 1", cum)
		}
		if _, cum := ack(2); cum != 3 {
			t.Errorf("after gap filled: cum = %d, want 3", cum)
		}
		// Same stream, duplicate batch: the mark must not regress.
		if _, cum := ack(2); cum != 3 {
			t.Errorf("after duplicate: cum = %d, want 3", cum)
		}
		// A restarted submitter logs under a new incarnation namespace;
		// its mark restarts from the incarnation base.
		base := uint64(2) << 32
		if _, cum := ack(base + 1); cum != base+1 {
			t.Errorf("new incarnation: cum = %d, want %d", cum, base+1)
		}
		if _, cum := ack(base + 3); cum != base+1 {
			t.Errorf("new incarnation gap: cum = %d, want %d", cum, base+1)
		}
	})
}
