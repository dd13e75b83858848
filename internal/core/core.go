// Package core implements the MPICH-V2 pessimistic sender-based
// message-logging protocol (paper §4.1 and Appendix A) as a pure state
// machine, free of I/O. The communication daemon drives it: each
// computing node owns one State and consults it on every send, arrival,
// delivery, probe, checkpoint and restart.
//
// The protocol in one paragraph: every process keeps a logical clock H
// incremented on each emission and each delivery. A sent message is
// identified by (sender rank, sender clock) and a copy of its payload is
// kept in the sender's SAVED log (volatile). On delivery, the receiver
// records the dependency event (sender, sender clock, receiver clock,
// probes since last delivery) and ships it asynchronously to the
// reliable event logger; no send may leave the node until all previously
// recorded events are acknowledged (WAITLOGGED). After a crash, the
// process restarts from its last checkpoint, downloads its event list
// from the event logger, asks every peer to re-send saved messages
// (RESTART1/RESTART2), and replays deliveries in exactly the logged
// order, discarding duplicates.
//
// Arrival versus delivery: a frame that reaches the node is Offered —
// deduplicated and either queued (normal execution) or stashed (replay,
// waiting for its logged turn). It is Committed — clock ticked, event
// recorded — only when the MPI process actually receives it. This
// mirrors the daemon/process split of §4.4 and keeps the checkpointed
// state coherent: arrived-but-undelivered messages are deliberately not
// part of any checkpoint, because their senders still hold them.
package core

import (
	"fmt"
	"sort"
)

// MsgID uniquely identifies a message: the sender's rank and the
// sender's logical clock at emission.
type MsgID struct {
	Sender int
	Clock  uint64
}

// Event is the dependency information logged for one reception (§4.5):
// "(sender's identity; sender's logical clock at emission; receiver's
// logical clock at delivery; number of probes since last delivery)".
// Seq additionally records the per-channel sequence number of the
// delivered message (1, 2, 3, … per sender), which lets recovery and
// the post-run auditor prove the logged history of every channel is
// gap-free; 0 marks a legacy/unsequenced event.
type Event struct {
	Sender      int
	SenderClock uint64
	RecvClock   uint64
	Probes      uint32
	Seq         uint64
}

// SavedMsg is one payload copy in the sender-based log.
type SavedMsg struct {
	To    int
	Clock uint64 // sender clock at emission
	Seq   uint64 // per-destination channel sequence (1, 2, 3, …)
	Kind  uint8  // device-level frame kind, replayed verbatim
	Data  []byte
}

// StashedMsg is a message received during replay ahead of its logged
// turn, or beyond the logged history.
type StashedMsg struct {
	From  int
	Clock uint64
	Seq   uint64 // per-sender channel sequence; 0 if unsequenced
	Kind  uint8
	Data  []byte
}

// OfferAction tells the daemon what to do with an incoming payload.
type OfferAction int

const (
	// OfferQueue: normal execution; append to the arrived queue and
	// Commit when the MPI process receives it.
	OfferQueue OfferAction = iota
	// OfferStash: replay in progress; the state retained the payload
	// until its logged turn (or until replay completes).
	OfferStash
	// OfferDrop: duplicate of something already seen; discard.
	OfferDrop
	// OfferHold: the message arrived ahead of an undelivered
	// predecessor on the same channel (a lossy or reordering network);
	// the state holds it until the gap fills. TakeHeld releases it.
	OfferHold
)

// State is the per-process protocol state. It is not safe for concurrent
// use; in this repository it is always owned by a single daemon actor.
type State struct {
	rank int

	h  uint64         // logical clock H_p
	hs map[int]uint64 // HS_p[q]: clock of last emission transmitted to q
	hr map[int]uint64 // HR_p[q]: sender clock of last delivery from q

	// offered[q] is the highest sender clock from q accepted this
	// incarnation (queued or stashed). It exists only in memory — a
	// crash forgets it along with the arrived queue — and suppresses
	// duplicate restart re-sends of messages that have arrived but
	// are not yet delivered. Used only for unsequenced (Seq 0) offers.
	offered map[int]uint64

	// Per-pair channel sequencing. The logical clock cannot order a
	// pair's messages for the receiver — it ticks on emissions to
	// *other* peers too, so clock gaps are invisible — but a lossy or
	// reordering network needs exactly that: the receiver must detect
	// a missing predecessor and hold later messages back, or FIFO
	// channel order (which MPI's non-overtaking rule and the replay
	// protocol both assume) silently breaks.
	seqTo  map[int]uint64                // seq of last emission to q (persistent)
	seqIn  map[int]uint64                // seq of last delivery from q (persistent)
	seqAcc map[int]uint64                // seq of last in-order acceptance from q (volatile)
	held   map[int]map[uint64]StashedMsg // out-of-order arrivals awaiting a gap fill (volatile)

	saved    []SavedMsg // SAVED_p, ascending by Clock
	logBytes int64

	// collected[q] is the §4.6.1 garbage-collection horizon towards q:
	// every SAVED entry to q at or below this sender clock has been
	// collected, and none at or below it is ever logged again. It rides
	// in every snapshot so the checkpoint store can drop the same
	// entries from the base image a delta is materialized against.
	collected map[int]uint64

	probes  uint32 // unsuccessful probes since last delivery
	unacked int    // reception events submitted to the EL, not yet acked

	// Replay state (crash recovery).
	replay    []Event
	replayPos int
	stash     map[MsgID]StashedMsg // early re-sent messages awaiting their turn
}

// NewState returns the protocol state of a fresh process.
func NewState(rank int) *State {
	return &State{
		rank:      rank,
		hs:        make(map[int]uint64),
		hr:        make(map[int]uint64),
		offered:   make(map[int]uint64),
		seqTo:     make(map[int]uint64),
		seqIn:     make(map[int]uint64),
		seqAcc:    make(map[int]uint64),
		held:      make(map[int]map[uint64]StashedMsg),
		collected: make(map[int]uint64),
		stash:     make(map[MsgID]StashedMsg),
	}
}

// Rank returns the owning process rank.
func (s *State) Rank() int { return s.rank }

// Clock returns the current logical clock H_p.
func (s *State) Clock() uint64 { return s.h }

// LogBytes returns the payload bytes currently held in the SAVED log.
func (s *State) LogBytes() int64 { return s.logBytes }

// SavedCount returns the number of messages in the SAVED log.
func (s *State) SavedCount() int { return len(s.saved) }

// --- Sending -----------------------------------------------------------

// PrepareSend implements the send(m,q) action: it ticks the clock,
// stores a copy of the payload in the SAVED log (always — Lemma 1 needs
// re-executed sends to repopulate the log), and reports whether the
// message must actually be transmitted. Transmission is suppressed when
// the receiver is known to have delivered it already (H_p < HS_p[q]
// after a RESTART1/RESTART2 exchange told us what q had seen).
func (s *State) PrepareSend(to int, kind uint8, data []byte) (id MsgID, seq uint64, transmit bool) {
	s.h++
	s.seqTo[to]++
	seq = s.seqTo[to]
	id = MsgID{Sender: s.rank, Clock: s.h}
	s.saved = append(s.saved, SavedMsg{To: to, Clock: s.h, Seq: seq, Kind: kind, Data: data})
	s.logBytes += int64(len(data))
	// Appendix A guards with H_p >= HS_p[q]; we use the strict form so
	// the boundary message (exactly the last one the receiver reported
	// delivered) is not re-transmitted — the receiver would discard it
	// as a duplicate anyway.
	if s.h > s.hs[to] {
		s.hs[to] = s.h
		return id, seq, true
	}
	return id, seq, false
}

// SendBlocked reports whether WAITLOGGED() would block: some reception
// events have been submitted to the event logger but not yet
// acknowledged. The daemon must not transmit any payload while this is
// true (§4.5: "this information must be sent and acknowledged by the
// event logger before the node can modify the state of another MPI
// process").
func (s *State) SendBlocked() bool { return s.unacked > 0 }

// EventsAcked informs the state that the event logger acknowledged n
// reception events.
func (s *State) EventsAcked(n int) {
	s.unacked -= n
	if s.unacked < 0 {
		panic(fmt.Sprintf("core: rank %d: more event acks than submissions", s.rank))
	}
}

// UnackedEvents returns the number of submitted-but-unacked events.
func (s *State) UnackedEvents() int { return s.unacked }

// --- Receiving ---------------------------------------------------------

// ProbeMiss records an unsuccessful probe; the count is attached to the
// next reception event so that re-execution can replay the exact same
// sequence of probe outcomes (§4.5).
func (s *State) ProbeMiss() { s.probes++ }

// ProbeCount returns the unsuccessful probes since the last delivery.
func (s *State) ProbeCount() uint32 { return s.probes }

// Offer classifies an arriving payload frame from peer "from" with
// sender clock h and channel sequence seq (0 = unsequenced, for
// transports guaranteed FIFO). OfferQueue: the daemon appends it to its
// arrived queue (and should then collect TakeHeld successors).
// OfferStash: the state kept it for replay. OfferHold: the state kept
// it until its channel predecessors arrive. OfferDrop: duplicate.
func (s *State) Offer(from int, h, seq uint64, kind uint8, data []byte) OfferAction {
	if h <= s.hr[from] || (seq > 0 && seq <= s.seqIn[from]) {
		return OfferDrop
	}
	if s.Replaying() {
		// During replay everything waits in the stash, keyed by the
		// exact message identity (re-sends may interleave across
		// peers): logged messages wait for their logged turn, fresh
		// messages for the end of replay.
		id := MsgID{Sender: from, Clock: h}
		if _, dup := s.stash[id]; dup {
			return OfferDrop
		}
		s.stash[id] = StashedMsg{From: from, Clock: h, Seq: seq, Kind: kind, Data: data}
		return OfferStash
	}
	if seq == 0 {
		// Unsequenced: per-sender arrivals are assumed FIFO (one TCP
		// stream per pair), so a high-water mark suppresses duplicates
		// of arrived-but-undelivered messages after a peer's restart.
		if h <= s.offered[from] {
			return OfferDrop
		}
		s.offered[from] = h
		return OfferQueue
	}
	if seq <= s.seqAcc[from] {
		return OfferDrop
	}
	if seq != s.seqAcc[from]+1 {
		// A predecessor is missing — dropped or still in flight. Hold
		// the message; the daemon's pull timer re-requests the gap
		// from the sender's SAVED log if it does not fill by itself.
		hm := s.held[from]
		if hm == nil {
			hm = make(map[uint64]StashedMsg)
			s.held[from] = hm
		}
		hm[seq] = StashedMsg{From: from, Clock: h, Seq: seq, Kind: kind, Data: data}
		return OfferHold
	}
	s.seqAcc[from] = seq
	return OfferQueue
}

// TakeHeld pops held messages from a sender that became deliverable
// after a gap fill, in channel order. Call it after every OfferQueue.
func (s *State) TakeHeld(from int) []StashedMsg {
	hm := s.held[from]
	if len(hm) == 0 {
		return nil
	}
	var out []StashedMsg
	for {
		m, ok := hm[s.seqAcc[from]+1]
		if !ok {
			return out
		}
		delete(hm, m.Seq)
		s.seqAcc[from] = m.Seq
		out = append(out, m)
	}
}

// HeldCount reports how many out-of-order messages are parked waiting
// for a gap fill.
func (s *State) HeldCount() int {
	n := 0
	for _, hm := range s.held {
		n += len(hm)
	}
	return n
}

// Commit records the delivery of a queued message to the MPI process
// during normal execution: the clock ticks and the reception event to be
// logged is returned; the state counts it as unacked until EventsAcked.
func (s *State) Commit(from int, h, seq uint64) Event {
	if s.Replaying() {
		panic(fmt.Sprintf("core: rank %d: Commit during replay", s.rank))
	}
	return s.commit(from, h, seq, true)
}

// CommitSuppressed records a delivery whose determinant the daemon
// classified deterministic: the event is still created (it must reach
// the event logger eventually — replay and the no-orphans audit need a
// gap-free channel history) but it does not join the WAITLOGGED gate.
// The daemon is responsible for shipping it off the critical path
// (epoch batch + piggyback) and must not credit it via EventsAcked.
func (s *State) CommitSuppressed(from int, h, seq uint64) Event {
	if s.Replaying() {
		panic(fmt.Sprintf("core: rank %d: CommitSuppressed during replay", s.rank))
	}
	return s.commit(from, h, seq, false)
}

func (s *State) commit(from int, h, seq uint64, gate bool) Event {
	if h <= s.hr[from] {
		panic(fmt.Sprintf("core: rank %d: Commit of already-delivered message (%d,%d)", s.rank, from, h))
	}
	s.h++
	ev := Event{Sender: from, SenderClock: h, RecvClock: s.h, Probes: s.probes, Seq: seq}
	s.probes = 0
	s.hr[from] = h
	if seq > s.seqIn[from] {
		s.seqIn[from] = seq
	}
	if gate {
		s.unacked++
	}
	return ev
}

// --- Replay ------------------------------------------------------------

// Replaying reports whether logged events remain to be replayed.
func (s *State) Replaying() bool { return s.replayPos < len(s.replay) }

// NextReplay returns the next event to replay.
func (s *State) NextReplay() (Event, bool) {
	if !s.Replaying() {
		return Event{}, false
	}
	return s.replay[s.replayPos], true
}

// ReplayRemaining returns how many logged events are still to replay.
func (s *State) ReplayRemaining() int { return len(s.replay) - s.replayPos }

// TakeStashed pops the message for the next replay event if it has
// already arrived, advancing the replay cursor. The replayed event is
// already in the event logger and must not be re-submitted. When the
// next logged event sits beyond a clock hole (a suppressed determinant
// that never reached stable storage), TakeStashed refuses — the hole
// must be filled first by RegenerateReplay.
func (s *State) TakeStashed() (StashedMsg, Event, bool) {
	ev, ok := s.NextReplay()
	if !ok || ev.RecvClock != s.h+1 {
		return StashedMsg{}, Event{}, false
	}
	id := MsgID{Sender: ev.Sender, Clock: ev.SenderClock}
	m, ok := s.stash[id]
	if !ok {
		return StashedMsg{}, Event{}, false
	}
	delete(s.stash, id)
	s.advanceReplay(ev)
	if m.Seq > 0 {
		if m.Seq > s.seqIn[ev.Sender] {
			s.seqIn[ev.Sender] = m.Seq
		}
		if m.Seq > s.seqAcc[ev.Sender] {
			s.seqAcc[ev.Sender] = m.Seq
		}
	}
	return m, ev, true
}

func (s *State) advanceReplay(ev Event) {
	// The clock must land exactly where the original execution put it;
	// a mismatch means the execution was not piecewise deterministic.
	s.h++
	if s.h != ev.RecvClock {
		panic(fmt.Sprintf("core: rank %d: replay clock drift: have %d, logged event says %d",
			s.rank, s.h, ev.RecvClock))
	}
	s.hr[ev.Sender] = ev.SenderClock
	s.probes = 0
	s.replayPos++
}

// ReplayBlockedByHole reports whether the next logged replay event sits
// beyond a clock hole: its RecvClock is more than one tick ahead, so a
// delivery between here and there was never logged. That only happens
// when a suppressed determinant died with the crashed process before its
// epoch flush or piggyback relay became durable — which in turn proves
// (causal logging) that no surviving process depends on the lost choice,
// so the hole may be filled by regenerating the delivery fresh.
func (s *State) ReplayBlockedByHole() bool {
	ev, ok := s.NextReplay()
	return ok && ev.RecvClock > s.h+1
}

// RegenerateReplay fills one clock hole in the replay: it picks a
// stashed message that is next in channel order and is not claimed by
// any remaining logged event, delivers it as a *fresh* commit (clock
// ticks, a new pessimistically-gated event is returned for submission),
// and leaves the replay cursor where it is. Candidates are chosen
// deterministically (lowest sender rank, then clock); under adaptive
// classification the lost delivery was deterministic, so the candidate
// is unique in practice and the post-run auditors check the outcome.
// Returns false when no candidate has arrived yet — the daemon should
// wait (or pull) exactly as for a missing replay message.
func (s *State) RegenerateReplay() (StashedMsg, Event, bool) {
	ev, ok := s.NextReplay()
	if !ok || ev.RecvClock <= s.h+1 {
		return StashedMsg{}, Event{}, false
	}
	// Messages claimed by the remaining logged suffix must wait for
	// their logged turn; only unclaimed arrivals can fill the hole.
	claimed := make(map[MsgID]bool, len(s.replay)-s.replayPos)
	for _, e := range s.replay[s.replayPos:] {
		claimed[MsgID{Sender: e.Sender, Clock: e.SenderClock}] = true
	}
	var best StashedMsg
	found := false
	for id, m := range s.stash {
		if claimed[id] || m.Clock <= s.hr[m.From] {
			continue
		}
		if m.Seq > 0 && m.Seq != s.seqAcc[m.From]+1 {
			continue // beyond a channel gap: a predecessor is missing
		}
		if !found || m.From < best.From || (m.From == best.From && m.Clock < best.Clock) {
			best = m
			found = true
		}
	}
	if !found {
		return StashedMsg{}, Event{}, false
	}
	delete(s.stash, MsgID{Sender: best.From, Clock: best.Clock})
	if best.Seq > 0 {
		if best.Seq > s.seqAcc[best.From] {
			s.seqAcc[best.From] = best.Seq
		}
	} else if best.Clock > s.offered[best.From] {
		s.offered[best.From] = best.Clock
	}
	// The regenerated delivery is a fresh nondeterministic-by-default
	// choice: its event joins the WAITLOGGED gate and must be submitted.
	return best, s.commit(best.From, best.Clock, best.Seq, true), true
}

// DrainStash returns (and removes) every stashed message once replay is
// complete: messages that arrived during replay but belong to the fresh
// part of the execution. They are ordered by (clock, sender) — any
// order respecting per-sender FIFO is a legal fresh execution. Calling
// it while still replaying is a bug.
func (s *State) DrainStash() []StashedMsg {
	if s.Replaying() {
		panic(fmt.Sprintf("core: rank %d: DrainStash during replay", s.rank))
	}
	all := make([]StashedMsg, 0, len(s.stash))
	for _, m := range s.stash {
		all = append(all, m)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Clock != all[j].Clock {
			return all[i].Clock < all[j].Clock
		}
		return all[i].From < all[j].From
	})
	s.stash = make(map[MsgID]StashedMsg)
	// Per-sender clock order is emission order, so sequenced messages
	// come out in channel order here — but a message beyond a channel
	// gap (its predecessor was dropped mid-replay) must wait in held,
	// exactly as on the normal path.
	out := make([]StashedMsg, 0, len(all))
	for _, m := range all {
		if m.Seq == 0 {
			if m.Clock > s.offered[m.From] {
				s.offered[m.From] = m.Clock
			}
			out = append(out, m)
			continue
		}
		switch {
		case m.Seq <= s.seqAcc[m.From]: // duplicate
		case m.Seq == s.seqAcc[m.From]+1:
			s.seqAcc[m.From] = m.Seq
			out = append(out, m)
			out = append(out, s.TakeHeld(m.From)...)
		default:
			hm := s.held[m.From]
			if hm == nil {
				hm = make(map[uint64]StashedMsg)
				s.held[m.From] = hm
			}
			hm[m.Seq] = m
		}
	}
	return out
}

// ReplayReady reports whether the message for the next replay event has
// already arrived (TakeStashed would succeed).
func (s *State) ReplayReady() bool {
	ev, ok := s.NextReplay()
	if !ok {
		return false
	}
	_, has := s.stash[MsgID{Sender: ev.Sender, Clock: ev.SenderClock}]
	return has
}

// ReplayProbeMiss tells the daemon how to answer a probe during replay:
// true means the probe must report "no message pending" (one of the
// logged unsuccessful probes); false means the probe must report the
// next replayed message, blocking until it has physically arrived.
func (s *State) ReplayProbeMiss() bool {
	ev, ok := s.NextReplay()
	if !ok {
		return false
	}
	if s.probes < ev.Probes {
		s.probes++
		return true
	}
	return false
}

// --- Restart handshake --------------------------------------------------

// StartRecovery installs the event list downloaded from the event logger
// (phase A of figure 2). Events at or below the checkpointed clock are
// skipped: they were delivered before the checkpoint was taken.
//
// The replay list is additionally truncated at the first per-channel
// sequence gap. A gap means an earlier reception's event never reached
// stable storage while a later one did — the tail beyond the gap is
// unreplayable (its clock chain would drift) but also provably
// unobserved: WAITLOGGED gating blocked every send while the missing
// event was unacked, so no other process depends on the truncated
// suffix and those messages are simply re-delivered fresh. The number
// of events cut is returned for the daemon's stats.
func (s *State) StartRecovery(events []Event) (dropped int) {
	return s.StartRecoveryWith(events, false)
}

// StartRecoveryWith is StartRecovery with a hole-tolerance switch. A
// daemon running determinant suppression passes holeTolerant=true: a
// per-channel sequence gap then no longer truncates the suffix, because
// the gap is expected — a suppressed determinant lost with the crash —
// and the replay machinery fills the corresponding clock hole by
// regenerating the delivery (RegenerateReplay) instead of drifting.
// The WAITLOGGED truncation argument does not apply to suppressed
// events (sends are not gated on them), but the piggyback protocol
// restores it: any send that left after the lost delivery carried its
// determinant, so a determinant absent from the merged fetch is a
// determinant nothing alive depends on.
func (s *State) StartRecoveryWith(events []Event, holeTolerant bool) (dropped int) {
	var replay []Event
	for _, ev := range events {
		if ev.RecvClock > s.h {
			replay = append(replay, ev)
		}
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].RecvClock < replay[j].RecvClock })
	next := make(map[int]uint64, len(s.seqIn))
	for k, v := range s.seqIn {
		next[k] = v + 1
	}
	cut := len(replay)
	for i, ev := range replay {
		if ev.Seq == 0 {
			continue // unsequenced legacy event: nothing to validate
		}
		want := next[ev.Sender]
		if want == 0 {
			want = 1
		}
		if ev.Seq != want && !holeTolerant {
			cut = i
			break
		}
		next[ev.Sender] = ev.Seq + 1
	}
	dropped = len(replay) - cut
	replay = replay[:cut]
	s.replay = replay
	s.replayPos = 0
	s.probes = 0
	s.unacked = 0 // everything we will replay is already safely logged
	// The volatile acceptance state restarts from the delivered
	// horizon; the arrived queue and held map died with the crash.
	s.seqAcc = make(map[int]uint64, len(s.seqIn))
	for k, v := range s.seqIn {
		s.seqAcc[k] = v
	}
	s.held = make(map[int]map[uint64]StashedMsg)
	return dropped
}

// RestartAnnouncement returns HR_p[q] for the RESTART1 message sent to
// peer q: the sender clock of the last message from q that this process
// (as restored from its checkpoint) is known to have delivered.
func (s *State) RestartAnnouncement(q int) uint64 { return s.hr[q] }

// OnRestart1 handles RESTART1(hp) from a restarted peer: record what the
// peer has delivered of our messages, and return the saved payloads it
// still needs, in emission order. myHR is the value to put in the
// RESTART2 reply.
func (s *State) OnRestart1(peer int, hp uint64) (resend []SavedMsg, myHR uint64) {
	return s.resendAfter(peer, hp), s.hr[peer]
}

// OnRestart2 handles RESTART2(hp): same resend rule, no reply.
func (s *State) OnRestart2(peer int, hp uint64) (resend []SavedMsg) {
	return s.resendAfter(peer, hp)
}

func (s *State) resendAfter(peer int, hp uint64) []SavedMsg {
	// Appendix A assigns HS_p[q] = HP unconditionally: if the peer
	// rolled back, our future re-executed emissions below its horizon
	// are suppressed; re-sends above it happen right here.
	s.hs[peer] = hp
	var out []SavedMsg
	for _, m := range s.saved {
		if m.To == peer && m.Clock > hp {
			out = append(out, m)
		}
	}
	return out
}

// --- Garbage collection -------------------------------------------------

// CollectGarbage implements §4.6.1: peer has checkpointed having
// delivered our messages up to clock deliveredUpTo; payload copies at or
// below it will never be requested again. Returns the bytes freed.
//
// The horizon is recorded (a late or stale note never lowers it) so that
// snapshots carry it to the checkpoint store. It is clamped to the
// current clock: a sender that rolled back to a checkpoint can be told
// of deliveries it has not re-executed yet, and the re-executed sends
// still enter the log (PrepareSend logs always) — recording the peer's
// full horizon would claim those entries collected while they are held.
func (s *State) CollectGarbage(peer int, deliveredUpTo uint64) int64 {
	if upTo := min(deliveredUpTo, s.h); upTo > s.collected[peer] {
		s.collected[peer] = upTo
	}
	var freed int64
	kept := s.saved[:0]
	for _, m := range s.saved {
		if m.To == peer && m.Clock <= deliveredUpTo {
			freed += int64(len(m.Data))
			continue
		}
		kept = append(kept, m)
	}
	s.saved = kept
	s.logBytes -= freed
	return freed
}

// DeliveredVector returns a copy of HR_p: for each peer, the sender
// clock of the last delivered message. A checkpointing node broadcasts
// it so that senders can garbage-collect.
func (s *State) DeliveredVector() map[int]uint64 {
	out := make(map[int]uint64, len(s.hr))
	for k, v := range s.hr {
		out[k] = v
	}
	return out
}
