package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// deliver offers and immediately commits the message with sender clock
// h and channel seq during normal execution, as the daemon does for a
// blocking receive with an empty queue.
func deliver(t *testing.T, s *State, from int, h, seq uint64, data []byte) Event {
	t.Helper()
	if act := s.Offer(from, h, seq, 0, data); act != OfferQueue {
		t.Fatalf("Offer(%d,%d,%d) = %v, want OfferQueue", from, h, seq, act)
	}
	return s.Commit(from, h, seq)
}

func TestClockTicksOnSendAndDeliver(t *testing.T) {
	s := NewState(0)
	id, _, tx := s.PrepareSend(1, 0, []byte("a"))
	if !tx || id.Clock != 1 || id.Sender != 0 {
		t.Fatalf("first send: id=%+v transmit=%v", id, tx)
	}
	ev := deliver(t, s, 1, 1, 1, []byte("b"))
	if ev.RecvClock != 2 || ev.SenderClock != 1 || ev.Sender != 1 {
		t.Errorf("event = %+v", ev)
	}
	if s.Clock() != 2 {
		t.Errorf("clock = %d, want 2", s.Clock())
	}
}

func TestWaitLoggedGating(t *testing.T) {
	s := NewState(0)
	if s.SendBlocked() {
		t.Fatal("fresh state should not block sends")
	}
	deliver(t, s, 1, 1, 1, nil)
	if !s.SendBlocked() {
		t.Fatal("send must be blocked until the event is acked")
	}
	s.EventsAcked(1)
	if s.SendBlocked() {
		t.Fatal("send still blocked after ack")
	}
}

func TestEventsAckedUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ack underflow")
		}
	}()
	NewState(0).EventsAcked(1)
}

func TestDuplicateOfferDropped(t *testing.T) {
	s := NewState(0)
	deliver(t, s, 2, 5, 1, nil)
	if act := s.Offer(2, 5, 1, 0, nil); act != OfferDrop {
		t.Fatalf("re-offer of delivered message: %v", act)
	}
	if act := s.Offer(2, 3, 2, 0, nil); act != OfferDrop {
		t.Fatalf("older clock: %v", act)
	}
	// A queued-but-undelivered message also blocks its duplicates.
	if act := s.Offer(2, 6, 2, 0, nil); act != OfferQueue {
		t.Fatalf("fresh message: %v", act)
	}
	if act := s.Offer(2, 6, 2, 0, nil); act != OfferDrop {
		t.Fatalf("duplicate of queued message: %v", act)
	}
	s.Commit(2, 6, 2)
	// A payload without a channel seq is never accepted.
	if act := s.Offer(3, 1, 0, 0, nil); act != OfferDrop {
		t.Fatalf("seq 0 on a fresh channel: %v", act)
	}
	if act := s.Offer(2, 7, 0, 0, nil); act != OfferDrop {
		t.Fatalf("seq 0 after deliveries: %v", act)
	}
}

func TestCommitOfDuplicatePanics(t *testing.T) {
	s := NewState(0)
	deliver(t, s, 1, 4, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Commit(1, 4, 1)
}

func TestProbeCountAttachedToEvent(t *testing.T) {
	s := NewState(0)
	s.ProbeMiss()
	s.ProbeMiss()
	s.ProbeMiss()
	ev := deliver(t, s, 1, 1, 1, nil)
	if ev.Probes != 3 {
		t.Errorf("probes = %d, want 3", ev.Probes)
	}
	ev = deliver(t, s, 1, 2, 2, nil)
	if ev.Probes != 0 {
		t.Errorf("probe counter not reset: %d", ev.Probes)
	}
}

func TestSavedLogAccumulatesAndGC(t *testing.T) {
	s := NewState(0)
	s.PrepareSend(1, 0, make([]byte, 100)) // clock 1
	s.PrepareSend(2, 0, make([]byte, 50))  // clock 2
	s.PrepareSend(1, 0, make([]byte, 70))  // clock 3
	if s.LogBytes() != 220 || s.SavedCount() != 3 {
		t.Fatalf("log = %d bytes / %d msgs", s.LogBytes(), s.SavedCount())
	}
	freed := s.CollectGarbage(1, 1) // peer 1 checkpointed after delivering clock 1
	if freed != 100 {
		t.Errorf("freed = %d, want 100", freed)
	}
	if s.LogBytes() != 120 || s.SavedCount() != 2 {
		t.Errorf("after GC: %d bytes / %d msgs", s.LogBytes(), s.SavedCount())
	}
	// GC for the other peer leaves peer 1's remaining message alone.
	if freed := s.CollectGarbage(2, 2); freed != 50 {
		t.Errorf("freed = %d, want 50", freed)
	}
}

func TestResendAfterRestart1(t *testing.T) {
	s := NewState(0)
	s.PrepareSend(1, 9, []byte("m1")) // clock 1
	s.PrepareSend(1, 9, []byte("m2")) // clock 2
	s.PrepareSend(2, 9, []byte("x"))  // clock 3
	s.PrepareSend(1, 9, []byte("m3")) // clock 4
	deliver(t, s, 1, 7, 1, nil)       // so HR[1] = 7

	resend, myHR := s.OnRestart1(1, 2) // peer 1 delivered up to our clock 2
	if myHR != 7 {
		t.Errorf("myHR = %d, want 7", myHR)
	}
	if len(resend) != 1 || string(resend[0].Data) != "m3" || resend[0].Clock != 4 {
		t.Fatalf("resend = %+v", resend)
	}
	// Re-executed sends at or below hp=2 to peer 1 are now suppressed.
	s2 := NewState(0)
	s2.OnRestart2(1, 2)
	if _, _, tx := s2.PrepareSend(1, 0, []byte("m1")); tx {
		t.Error("re-executed send clock 1 should be suppressed")
	}
	if _, _, tx := s2.PrepareSend(1, 0, []byte("m2")); tx {
		t.Error("re-executed send clock 2 should be suppressed")
	}
	if _, _, tx := s2.PrepareSend(1, 0, []byte("m3")); !tx {
		t.Error("send clock 3 must be transmitted")
	}
	// But all of them must be in SAVED (Lemma 1).
	if s2.SavedCount() != 3 {
		t.Errorf("SAVED count = %d, want 3", s2.SavedCount())
	}
}

func TestReplaySequence(t *testing.T) {
	s := NewState(0)
	// Original history: recv(1,c1) recv(2,c1) recv(1,c2), with a probe
	// miss before the second event.
	events := []Event{
		{Sender: 1, SenderClock: 1, RecvClock: 1, Probes: 0, Seq: 1},
		{Sender: 2, SenderClock: 1, RecvClock: 2, Probes: 1, Seq: 1},
		{Sender: 1, SenderClock: 2, RecvClock: 3, Probes: 0, Seq: 2},
	}
	s.StartRecovery(events)
	if !s.Replaying() || s.ReplayRemaining() != 3 {
		t.Fatalf("replaying=%v remaining=%d", s.Replaying(), s.ReplayRemaining())
	}

	// A copy without a channel seq is dropped, not stashed in its place.
	if act := s.Offer(1, 1, 0, 0, []byte("a")); act != OfferDrop {
		t.Fatalf("unsequenced replay offer: %v", act)
	}
	// Peer 1's two messages arrive before peer 2's: both stash; only
	// the first can be taken.
	if act := s.Offer(1, 1, 1, 0, []byte("a")); act != OfferStash {
		t.Fatalf("replay offer: %v", act)
	}
	if act := s.Offer(1, 2, 2, 0, []byte("c")); act != OfferStash {
		t.Fatalf("replay offer 2: %v", act)
	}
	m, ev, ok := s.TakeStashed()
	if !ok || string(m.Data) != "a" || ev.RecvClock != 1 {
		t.Fatalf("first replay: %+v %+v %v", m, ev, ok)
	}
	// Next logged event is from peer 2, whose message has not arrived.
	if _, _, ok := s.TakeStashed(); ok {
		t.Fatal("TakeStashed should fail until peer 2's message arrives")
	}
	// Replayed probe: the log says one miss before event 2.
	if !s.ReplayProbeMiss() {
		t.Error("first probe during replay should miss")
	}
	if s.ReplayProbeMiss() {
		t.Error("second probe should not miss (message 2 is next)")
	}
	if act := s.Offer(2, 1, 1, 0, []byte("b")); act != OfferStash {
		t.Fatal("peer 2 message should stash")
	}
	m, ev, ok = s.TakeStashed()
	if !ok || string(m.Data) != "b" || ev.RecvClock != 2 {
		t.Fatalf("second replay: %+v %+v %v", m, ev, ok)
	}
	m, ev, ok = s.TakeStashed()
	if !ok || string(m.Data) != "c" || ev.RecvClock != 3 {
		t.Fatalf("third replay: %+v %+v %v", m, ev, ok)
	}
	if s.Replaying() {
		t.Error("replay should be complete")
	}
	if s.Clock() != 3 {
		t.Errorf("clock after replay = %d, want 3", s.Clock())
	}
	// Fresh deliveries resume normal logging.
	ev = deliver(t, s, 2, 2, 2, nil)
	if ev.RecvClock != 4 || !s.SendBlocked() {
		t.Errorf("post-replay delivery: ev=%+v blocked=%v", ev, s.SendBlocked())
	}
}

func TestDrainStashAfterReplay(t *testing.T) {
	s := NewState(0)
	s.StartRecovery([]Event{{Sender: 1, SenderClock: 1, RecvClock: 1, Seq: 1}})
	// A fresh message from peer 2 and a future message from peer 1
	// arrive during replay.
	s.Offer(2, 1, 1, 0, []byte("fresh2"))
	s.Offer(1, 2, 2, 0, []byte("future1"))
	s.Offer(1, 1, 1, 0, []byte("logged"))
	if _, _, ok := s.TakeStashed(); !ok {
		t.Fatal("logged message should be takeable")
	}
	rest := s.DrainStash()
	if len(rest) != 2 {
		t.Fatalf("drained %d, want 2", len(rest))
	}
	// Ordered by clock then sender: (2,clock1) then (1,clock2).
	if rest[0].From != 2 || string(rest[0].Data) != "fresh2" {
		t.Errorf("rest[0] = %+v", rest[0])
	}
	if rest[1].From != 1 || string(rest[1].Data) != "future1" {
		t.Errorf("rest[1] = %+v", rest[1])
	}
	// Drained messages commit normally.
	for _, m := range rest {
		s.Commit(m.From, m.Clock, m.Seq)
	}
}

func TestDrainStashDuringReplayPanics(t *testing.T) {
	s := NewState(0)
	s.StartRecovery([]Event{{Sender: 1, SenderClock: 1, RecvClock: 1, Seq: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.DrainStash()
}

func TestStartRecoverySkipsPreCheckpointEvents(t *testing.T) {
	// A process restored from a checkpoint at clock 5 must only replay
	// events after clock 5.
	sn := &Snapshot{Rank: 0, H: 5, HS: map[int]uint64{}, HR: map[int]uint64{1: 3}, SeqIn: map[int]uint64{1: 2}}
	s := Restore(sn)
	s.StartRecovery([]Event{
		{Sender: 1, SenderClock: 2, RecvClock: 4, Seq: 1},
		{Sender: 1, SenderClock: 3, RecvClock: 5, Seq: 2},
		{Sender: 1, SenderClock: 4, RecvClock: 6, Seq: 3},
	})
	if s.ReplayRemaining() != 1 {
		t.Fatalf("remaining = %d, want 1", s.ReplayRemaining())
	}
	ev, _ := s.NextReplay()
	if ev.RecvClock != 6 {
		t.Errorf("next replay = %+v", ev)
	}
}

func TestReplayClockHoleRefusedAndRegenerated(t *testing.T) {
	// The logged event sits at clock 5 while the state is at clock 0:
	// deliveries in between were never logged (suppressed determinants
	// lost with the crash). TakeStashed must refuse — delivering the
	// logged message now would drift the clock — and the hole is
	// instead filled by regenerating unclaimed arrivals.
	s := NewState(0)
	s.StartRecovery([]Event{{Sender: 1, SenderClock: 3, RecvClock: 5, Seq: 1}})
	s.Offer(1, 3, 1, 0, nil) // the logged message itself: claimed, must wait
	if _, _, ok := s.TakeStashed(); ok {
		t.Fatal("TakeStashed crossed a clock hole")
	}
	if !s.ReplayBlockedByHole() {
		t.Fatal("hole not reported")
	}
	if _, _, ok := s.RegenerateReplay(); ok {
		t.Fatal("regenerated a message claimed by the logged suffix")
	}
	// An unclaimed arrival from another sender fills the hole as a
	// fresh, gated delivery.
	s.Offer(2, 7, 1, 0, nil)
	m, ev, ok := s.RegenerateReplay()
	if !ok || m.From != 2 || ev.RecvClock != 1 {
		t.Fatalf("regeneration: ok=%v m=%+v ev=%+v", ok, m, ev)
	}
	if !s.SendBlocked() {
		t.Fatal("regenerated delivery must join the WAITLOGGED gate")
	}
	if !s.Replaying() {
		t.Fatal("replay cursor must not advance on regeneration")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewState(3)
	s.PrepareSend(1, 2, []byte("hello"))
	s.Offer(2, 9, 1, 0, nil)
	s.Commit(2, 9, 1)
	s.EventsAcked(1)
	sn := s.Snapshot()
	b, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	r := Restore(sn2)
	if r.Rank() != 3 || r.Clock() != s.Clock() || r.LogBytes() != s.LogBytes() {
		t.Errorf("restored state mismatch: %+v", r)
	}
	if r.RestartAnnouncement(2) != 9 {
		t.Errorf("HR[2] = %d, want 9", r.RestartAnnouncement(2))
	}
	// Payloads are immutable once logged, so the restored log shares the
	// copy decoding made of them, and never the original state's bytes.
	if &r.saved[0].Data[0] != &sn2.Saved[0].Data[0] {
		t.Error("restored payload is a second copy of the decoded snapshot's")
	}
	if &r.saved[0].Data[0] == &s.saved[0].Data[0] {
		t.Error("restored payload aliases the original state's")
	}
}

// Property (Lemma 1): after any sequence of sends, every emitted clock
// to every peer is present in SAVED until garbage-collected, and resend
// returns exactly the suffix above the requested clock.
func TestPropertySavedLogComplete(t *testing.T) {
	f := func(dests []uint8, cut uint8) bool {
		if len(dests) == 0 || len(dests) > 128 {
			return true
		}
		s := NewState(0)
		byPeer := make(map[int][]uint64)
		for _, d := range dests {
			peer := int(d%4) + 1
			id, _, _ := s.PrepareSend(peer, 0, []byte{d})
			byPeer[peer] = append(byPeer[peer], id.Clock)
		}
		for peer, clocks := range byPeer {
			hp := uint64(cut)
			resend := s.OnRestart2(peer, hp)
			var want []uint64
			for _, c := range clocks {
				if c > hp {
					want = append(want, c)
				}
			}
			if len(resend) != len(want) {
				return false
			}
			for i := range want {
				if resend[i].Clock != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: replay of a logged history, with messages arriving in any
// permuted order and with duplicates injected, reconstructs exactly the
// original delivery sequence (the consistency Theorem 2 requires).
func TestPropertyReplayDeterminism(t *testing.T) {
	f := func(seed int64, nEvents uint8) bool {
		n := int(nEvents%20) + 1
		rng := rand.New(rand.NewSource(seed))

		// Build an original history: n deliveries from 3 peers, each
		// sending only to us, so its clock is also its channel seq.
		orig := NewState(0)
		type msg struct {
			from int
			h    uint64
			data []byte
		}
		var msgs []msg
		clock := map[int]uint64{}
		var history []Event
		for i := 0; i < n; i++ {
			from := rng.Intn(3) + 1
			clock[from]++
			m := msg{from: from, h: clock[from], data: []byte(fmt.Sprintf("%d/%d", from, clock[from]))}
			msgs = append(msgs, m)
			if rng.Intn(3) == 0 {
				orig.ProbeMiss()
			}
			if act := orig.Offer(m.from, m.h, m.h, 0, m.data); act != OfferQueue {
				return false
			}
			history = append(history, orig.Commit(m.from, m.h, m.h))
			orig.EventsAcked(1)
		}

		// Crash and replay with shuffled arrivals plus duplicates.
		re := NewState(0)
		re.StartRecovery(history)
		arrivals := append([]msg(nil), msgs...)
		for i := 0; i < len(msgs); i += 2 { // duplicates
			arrivals = append(arrivals, msgs[rng.Intn(len(msgs))])
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

		var delivered []string
		for _, m := range arrivals {
			re.Offer(m.from, m.h, m.h, 0, m.data)
			for {
				sm, _, ok := re.TakeStashed()
				if !ok {
					break
				}
				delivered = append(delivered, string(sm.Data))
			}
		}
		if re.Replaying() {
			return false
		}
		if len(delivered) != n {
			return false
		}
		for i, m := range msgs {
			if delivered[i] != string(m.data) {
				return false
			}
		}
		return re.Clock() == orig.Clock()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: GC removes exactly the messages at or below the vector and
// resend never returns a collected message afterwards.
func TestPropertyGCConsistentWithResend(t *testing.T) {
	f := func(sends []uint8, gcAt uint8) bool {
		s := NewState(0)
		for _, b := range sends {
			s.PrepareSend(1, 0, []byte{b})
		}
		s.CollectGarbage(1, uint64(gcAt))
		for _, m := range s.OnRestart2(1, 0) {
			if m.Clock <= uint64(gcAt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIndependentOfLaterMutation(t *testing.T) {
	s := NewState(0)
	s.PrepareSend(1, 0, []byte("before"))
	sn := s.Snapshot()
	s.PrepareSend(1, 0, []byte("after"))
	if len(sn.Saved) != 1 {
		t.Fatalf("snapshot grew: %d", len(sn.Saved))
	}
	r := Restore(sn)
	if r.Clock() != 1 || r.SavedCount() != 1 {
		t.Errorf("restored clock=%d saved=%d", r.Clock(), r.SavedCount())
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot(bytes.Repeat([]byte{0x7}, 40)); err == nil {
		t.Error("garbage snapshot decoded without error")
	}
}

func TestDeliveredVectorCopies(t *testing.T) {
	s := NewState(0)
	deliver(t, s, 1, 3, 1, nil)
	v := s.DeliveredVector()
	if v[1] != 3 {
		t.Fatalf("vector = %v", v)
	}
	v[1] = 99
	if s.RestartAnnouncement(1) != 3 {
		t.Error("DeliveredVector aliases internal map")
	}
}

// TestTwoCrashedPeersExchange drives two States through the concurrent-
// failure scenario of Appendix B: both crash, both restart from scratch,
// and every message each one needs arrives from the other's re-executed
// sends (SAVED repopulation, Lemma 1), with transmissions filtered by
// the RESTART1 horizons.
func TestTwoCrashedPeersExchange(t *testing.T) {
	// Original execution: a strict alternation p→q, q→p, 6 messages
	// each way, both logging all receptions.
	type wireMsg struct {
		from   int
		h, seq uint64
		data   []byte
	}
	run := func(p, q *State, deliverP, deliverQ func(wireMsg)) {
		for i := 0; i < 6; i++ {
			id, seq, tx := p.PrepareSend(1, 0, []byte{byte(i)})
			if tx {
				deliverQ(wireMsg{from: 0, h: id.Clock, seq: seq, data: []byte{byte(i)}})
			}
			id, seq, tx = q.PrepareSend(0, 0, []byte{byte(i + 100)})
			if tx {
				deliverP(wireMsg{from: 1, h: id.Clock, seq: seq, data: []byte{byte(i + 100)}})
			}
		}
	}

	p0, q0 := NewState(0), NewState(1)
	var histP, histQ []Event
	run(p0, q0,
		func(m wireMsg) {
			if p0.Offer(m.from, m.h, m.seq, 0, m.data) == OfferQueue {
				histP = append(histP, p0.Commit(m.from, m.h, m.seq))
				p0.EventsAcked(1)
			}
		},
		func(m wireMsg) {
			if q0.Offer(m.from, m.h, m.seq, 0, m.data) == OfferQueue {
				histQ = append(histQ, q0.Commit(m.from, m.h, m.seq))
				q0.EventsAcked(1)
			}
		})

	// Both crash; both restart from scratch with their logged events.
	p1, q1 := NewState(0), NewState(1)
	p1.StartRecovery(histP)
	q1.StartRecovery(histQ)
	// RESTART1 exchange: each announces HR=0 (restored from scratch).
	if rs, _ := p1.OnRestart1(1, q1.RestartAnnouncement(0)); len(rs) != 0 {
		t.Fatalf("fresh state resent %d messages", len(rs))
	}
	if rs := q1.OnRestart2(0, p1.RestartAnnouncement(1)); len(rs) != 0 {
		t.Fatalf("fresh state resent %d messages", len(rs))
	}

	// Re-execute the same program; messages flow between the replaying
	// states. Every delivery must come out in the original order.
	var replayedP, replayedQ [][]byte
	drain := func(s *State, sink *[][]byte) {
		for {
			m, _, ok := s.TakeStashed()
			if !ok {
				return
			}
			*sink = append(*sink, m.Data)
		}
	}
	run(p1, q1,
		func(m wireMsg) {
			p1.Offer(m.from, m.h, m.seq, 0, m.data)
			drain(p1, &replayedP)
		},
		func(m wireMsg) {
			q1.Offer(m.from, m.h, m.seq, 0, m.data)
			drain(q1, &replayedQ)
		})
	if p1.Replaying() || q1.Replaying() {
		t.Fatalf("replay incomplete: p=%d q=%d remaining", p1.ReplayRemaining(), q1.ReplayRemaining())
	}
	if len(replayedP) != 6 || len(replayedQ) != 6 {
		t.Fatalf("replayed %d/%d messages, want 6/6", len(replayedP), len(replayedQ))
	}
	for i := 0; i < 6; i++ {
		if replayedP[i][0] != byte(i+100) || replayedQ[i][0] != byte(i) {
			t.Errorf("replay order broken at %d: %v %v", i, replayedP[i], replayedQ[i])
		}
	}
	if p1.Clock() != p0.Clock() || q1.Clock() != q0.Clock() {
		t.Errorf("clocks diverged: p %d vs %d, q %d vs %d", p1.Clock(), p0.Clock(), q1.Clock(), q0.Clock())
	}
	// Lemma 1: the re-executed SAVED logs are complete.
	if p1.SavedCount() != p0.SavedCount() || q1.SavedCount() != q0.SavedCount() {
		t.Errorf("SAVED logs differ: p %d vs %d, q %d vs %d",
			p1.SavedCount(), p0.SavedCount(), q1.SavedCount(), q0.SavedCount())
	}
}
