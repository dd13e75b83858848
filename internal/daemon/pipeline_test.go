package daemon

import (
	"testing"
	"time"

	"mpichv/internal/netsim"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// silentEL records every KEventLog submission but never acks, so tests
// can fill the pipelined window and release it ack by ack from the
// root actor. The recordings are read from the root actor too — safe
// under the single-threaded token-passing simulator.
type silentEL struct {
	ep    transport.Endpoint
	seqs  []uint64
	sizes []int
}

func startSilentEL(sim *vtime.Sim, fab transport.Fabric, id int) *silentEL {
	s := &silentEL{ep: fab.Attach(id, "silent-el")}
	sim.Go("silent-el", func() {
		for {
			fr, ok := s.ep.Inbox().Recv()
			if !ok {
				return
			}
			if fr.Kind != wire.KEventLog {
				continue
			}
			seq, evs, err := wire.DecodeEventLog(fr.Data)
			if err != nil {
				continue
			}
			s.seqs = append(s.seqs, seq)
			s.sizes = append(s.sizes, len(evs))
		}
	})
	return s
}

// ack releases one batch the way a real logger would, with an explicit
// cumulative mark.
func (s *silentEL) ack(to int, seq, cum uint64) {
	s.ep.Send(to, wire.KEventAck, wire.EncodeEventAck(seq, cum))
}

// injectPayloads fakes `n` gap-free payloads from peer rank 1 so the
// daemon under test generates reception events without a second daemon
// (whose own WAITLOGGED would deadlock against a silent logger).
func injectPayloads(peer transport.Endpoint, n int) {
	for c := uint64(1); c <= uint64(n); c++ {
		hdr := wire.PayloadHeader{SenderClock: c, PairSeq: c}
		peer.Send(0, wire.KPayload, wire.EncodePayload(hdr, []byte{1}))
	}
}

func TestV2ELWindowPipelinesAndRetiresInOrder(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		el := startSilentEL(sim, fab, elNode)
		cfg := v2Config(0, 2, elNode)
		cfg.EventBatching = true
		cfg.ELWindow = 2
		cfg.ELAckTimeout = -1 // no retransmits: every frame below is deliberate
		dev0, d0 := StartV2(sim, fab, cfg)
		dev0.Init()

		peer := fab.Attach(1, "peer")
		injectPayloads(peer, 5)
		sim.Sleep(time.Millisecond)
		for i := 0; i < 5; i++ {
			dev0.BRecv()
		}
		sim.Sleep(time.Millisecond)

		// Two single-event batches fill the window; three events queue.
		if got := append([]uint64(nil), el.seqs...); len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("submitted seqs = %v, want [1 2]", got)
		}
		if n := d0.State().UnackedEvents(); n != 5 {
			t.Fatalf("unacked = %d, want 5", n)
		}

		// Acking the SECOND batch completes it but must not retire it:
		// WAITLOGGED credits events in submission order only.
		el.ack(0, 2, 0)
		sim.Sleep(time.Millisecond)
		if n := d0.State().UnackedEvents(); n != 5 {
			t.Errorf("unacked after out-of-order ack = %d, want 5", n)
		}
		if len(el.seqs) != 2 {
			t.Errorf("window slot opened on an out-of-order ack: seqs = %v", el.seqs)
		}

		// Acking the first batch retires both and frees the window; the
		// queued three events flush as one adaptive batch.
		el.ack(0, 1, 0)
		sim.Sleep(time.Millisecond)
		if n := d0.State().UnackedEvents(); n != 3 {
			t.Errorf("unacked after in-order ack = %d, want 3", n)
		}
		if len(el.seqs) != 3 || el.seqs[2] != 3 || el.sizes[2] != 3 {
			t.Errorf("queued events did not flush as batch 3×3: seqs=%v sizes=%v", el.seqs, el.sizes)
		}

		// A cumulative ack completes the tail; the barrier clears.
		el.ack(0, 3, 3)
		sim.Sleep(time.Millisecond)
		if d0.State().SendBlocked() {
			t.Errorf("still WAITLOGGED after all batches acked (unacked=%d)", d0.State().UnackedEvents())
		}
	})
}

func TestV2ELRetransmitOrderAscending(t *testing.T) {
	// Retransmissions of in-flight batches must go out in ascending seq
	// order (the ordered ring replaced a per-fire sort). Jitter can
	// legally reorder deadlines across separate timer fires, so the test
	// forces every batch overdue and triggers exactly one fire.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		el := startSilentEL(sim, fab, elNode)
		cfg := v2Config(0, 2, elNode)
		cfg.ELWindow = 8
		cfg.ELAckTimeout = time.Hour // armed, but never fires on its own
		dev0, d0 := StartV2(sim, fab, cfg)
		dev0.Init()

		peer := fab.Attach(1, "peer")
		injectPayloads(peer, 3)
		sim.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			dev0.BRecv()
		}
		sim.Sleep(time.Millisecond)
		if len(el.seqs) != 3 {
			t.Fatalf("initial submissions = %v, want 3 batches", el.seqs)
		}

		// Backdate every in-flight batch and fire the retransmit path
		// once, directly on the idle daemon (single-threaded simulator).
		el.seqs, el.sizes = nil, nil
		w := &d0.elShards[0].w
		for i := range w.slots {
			w.slots[i].sent = -10 * time.Hour
		}
		w.expired()
		sim.Sleep(time.Millisecond)

		if len(el.seqs) != 3 || el.seqs[0] != 1 || el.seqs[1] != 2 || el.seqs[2] != 3 {
			t.Errorf("retransmit order = %v, want [1 2 3]", el.seqs)
		}
		if got := d0.Stats().Retransmits; got != 3 {
			t.Errorf("Retransmits = %d, want 3", got)
		}
	})
}

func TestV2SenderLogGCUnderPipelining(t *testing.T) {
	// Garbage collection and restart replay must keep working while
	// several determinant batches are in flight: a KCkptNote shrinks the
	// SAVED log without touching the window, and the messages a peer
	// could still need to replay survive and are re-sent on RESTART1.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		startSilentEL(sim, fab, elNode)
		cfg := v2Config(0, 2, elNode)
		cfg.ELWindow = 4
		cfg.ELAckTimeout = -1
		dev0, d0 := StartV2(sim, fab, cfg)
		dev0.Init()
		peer := fab.Attach(1, "peer")

		// Four sends before any reception event: nothing gates them, and
		// each leaves a 100-byte SAVED copy.
		for i := 0; i < 4; i++ {
			dev0.BSend(1, make([]byte, 100))
		}
		if lb := d0.State().LogBytes(); lb != 400 {
			t.Fatalf("log = %d bytes, want 400", lb)
		}

		// Three receptions open three in-flight batches (silent logger).
		injectPayloads(peer, 3)
		sim.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			dev0.BRecv()
		}
		sim.Sleep(time.Millisecond)
		if n := d0.State().UnackedEvents(); n != 3 {
			t.Fatalf("unacked = %d, want 3 in-flight batches", n)
		}

		// Peer checkpointed after delivering clock 2: SAVED 1-2 free,
		// 3-4 stay for replay, and the window is untouched.
		peer.Send(0, wire.KCkptNote, wire.EncodeU64(2))
		sim.Sleep(time.Millisecond)
		if lb := d0.State().LogBytes(); lb != 200 {
			t.Errorf("log after GC = %d bytes, want 200", lb)
		}
		if freed := d0.Stats().GCFreedBytes; freed != 200 {
			t.Errorf("GCFreedBytes = %d, want 200", freed)
		}
		if n := d0.State().UnackedEvents(); n != 3 {
			t.Errorf("GC disturbed the EL window: unacked = %d, want 3", n)
		}
		if got := d0.State().DeliveredVector()[1]; got != 3 {
			t.Errorf("delivered vector for peer = %d, want 3", got)
		}

		// The peer "restarts" having delivered only clock 2; the kept
		// tail of the SAVED log must replay in order.
		peer.Send(0, wire.KRestart1, wire.EncodeU64(2))
		var clocks []uint64
		seenR2 := false
		deadline := 100 // frames, not time: the fabric is reliable here
		for len(clocks) < 2 && deadline > 0 {
			deadline--
			f, ok := peer.Inbox().Recv()
			if !ok {
				t.Fatal("peer endpoint closed")
			}
			switch f.Kind {
			case wire.KRestart2:
				seenR2 = true
			case wire.KPayload:
				if !seenR2 {
					continue // the four original sends
				}
				hdr, _, err := wire.DecodePayload(f.Data)
				if err != nil {
					t.Fatal(err)
				}
				clocks = append(clocks, hdr.SenderClock)
			}
		}
		if len(clocks) != 2 || clocks[0] != 3 || clocks[1] != 4 {
			t.Errorf("replayed clocks = %v, want [3 4]", clocks)
		}
	})
}
