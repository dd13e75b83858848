package daemon

import (
	"fmt"
	"math/bits"
	"time"

	"mpichv/internal/transport"
)

// replicaGroup is the only shape in which the V2 daemon addresses a
// service: a fixed set of replicas and the write quorum among them.
// Every event-logger shard and the checkpoint servers are one each; a
// lone service node is the group of one with quorum 1. bits assigns each
// replica its index in targets, which is also its bit in every ack mask
// (replacing per-ack linear scans and per-request ack sets).
type replicaGroup struct {
	targets []int
	bits    map[int]uint
	q       int
}

// newReplicaGroup resolves a configured replica list: a non-positive
// quorum means majority, and no quorum can exceed the group. Groups are
// small and static for the life of a run; 64 bits is far beyond any sane
// replication factor.
func newReplicaGroup(rank int, targets []int, q int) replicaGroup {
	if len(targets) > 64 {
		panic(fmt.Sprintf("daemon: rank %d: %d replicas exceed the 64-bit ack mask", rank, len(targets)))
	}
	if q <= 0 {
		q = len(targets)/2 + 1
	}
	if q > len(targets) {
		q = len(targets)
	}
	g := replicaGroup{targets: append([]int(nil), targets...), bits: make(map[int]uint, len(targets)), q: q}
	for i, t := range g.targets {
		g.bits[t] = uint(i)
	}
	return g
}

// readQuorum is the smallest reply set guaranteed to intersect every
// write quorum: R−Q+1.
func (g *replicaGroup) readQuorum() int { return len(g.targets) - g.q + 1 }

// slot is one in-flight request of a window; item is what the request
// carries (an event batch, a checkpoint transfer).
type slot[T any] struct {
	seq      uint64
	sent     time.Duration // last (re)transmission
	attempts int
	acked    uint64 // replicas that acknowledged, by replicaGroup bit
	done     bool   // at quorum, waiting for older slots to retire
	item     T
}

// window is the ordered quorum window every service exchange runs on.
// Requests enter ascending by seq — the submission order — and go to
// every replica of the group; a slot completes once q distinct replicas
// acknowledged it, and completed slots retire strictly from the front,
// so whatever retirement credits (WAITLOGGED, the delta base, the GC
// horizons) advances in submission order exactly as stop-and-wait would.
// One timer per window covers the earliest retransmit deadline; on
// expiry an overdue slot is re-sent only to the replicas still silent.
type window[T any] struct {
	replicaGroup
	d     *V2
	bo    transport.Backoff        // zero Base: retransmission disabled
	send  func(s *slot[T], to int) // ships s to one replica; attempts > 0 on a retransmit
	fire  func()                   // w.expired, bound once so arming allocates nothing
	slots []slot[T]
	timer uint64
}

func (w *window[T]) init(d *V2, g replicaGroup, ackTimeout time.Duration, send func(*slot[T], int)) {
	w.replicaGroup, w.d, w.send, w.fire = g, d, send, w.expired
	if ackTimeout > 0 {
		w.bo = d.backoff(ackTimeout)
	}
}

// push opens a slot: the request goes to every replica and the
// retransmit timer is armed.
func (w *window[T]) push(seq uint64, item T) {
	w.slots = append(w.slots, slot[T]{seq: seq, sent: w.d.rt.Now(), item: item})
	s := &w.slots[len(w.slots)-1]
	for _, t := range w.targets {
		w.send(s, t)
	}
	w.arm()
}

// find locates an in-flight slot by seq; the window is ascending, so the
// scan stops early. nil means a duplicate ack or a dead incarnation's.
func (w *window[T]) find(seq uint64) *slot[T] {
	for i := range w.slots {
		s := &w.slots[i]
		if s.seq > seq {
			return nil
		}
		if s.seq == seq && !s.done {
			return s
		}
	}
	return nil
}

// ack records that replica from acknowledged slot seq and — via the
// server's cumulative mark — every older slot the server has stored
// whose own ack was lost on the wire. It returns how many slots reached
// their write quorum (each counted in Stats.QuorumAcks); zero for a
// duplicate ack, an ack of a dead incarnation's request, or an ack from
// a node outside the group, none of which can count.
func (w *window[T]) ack(from int, seq, cum uint64) (completed int) {
	bit, ok := w.bits[from]
	if !ok {
		return 0
	}
	mask := uint64(1) << bit
	hi := max(seq, cum)
	for i := range w.slots {
		s := &w.slots[i]
		if s.seq > hi {
			break // ascending; nothing further can match
		}
		if s.done || (s.seq != seq && s.seq > cum) || s.acked&mask != 0 {
			continue
		}
		s.acked |= mask
		if bits.OnesCount64(s.acked) >= w.q {
			s.done = true
			completed++
		}
	}
	w.d.stats.QuorumAcks += int64(completed)
	return completed
}

// retire pops completed slots off the front, handing each to fn in
// submission order before it leaves the window.
func (w *window[T]) retire(fn func(*slot[T])) {
	n := 0
	for n < len(w.slots) && w.slots[n].done {
		fn(&w.slots[n])
		n++
	}
	if n == 0 {
		return
	}
	w.slots = append(w.slots[:0], w.slots[n:]...)
	if len(w.slots) == 0 {
		w.slots = nil
	}
}

// arm (re)arms the timer for the earliest deadline among the slots
// still short of quorum.
func (w *window[T]) arm() {
	if w.timer != 0 || w.bo.Base <= 0 {
		return
	}
	var earliest time.Duration
	first := true
	for i := range w.slots {
		s := &w.slots[i]
		if s.done {
			continue
		}
		if dl := s.sent + w.bo.Delay(s.attempts); first || dl < earliest {
			earliest, first = dl, false
		}
	}
	if first {
		return // nothing awaiting an ack
	}
	w.timer = w.d.after(max(earliest-w.d.rt.Now(), 0), w.fire)
}

// expired retransmits every slot whose deadline has passed, front to
// back so retransmissions go out in ascending seq order, each only to
// the replicas that have not acknowledged it.
func (w *window[T]) expired() {
	w.timer = 0
	now := w.d.rt.Now()
	for i := range w.slots {
		s := &w.slots[i]
		if s.done || s.sent+w.bo.Delay(s.attempts) > now {
			continue
		}
		s.attempts++
		s.sent = now
		for bit, t := range w.targets {
			if s.acked&(1<<uint(bit)) == 0 {
				w.send(s, t)
			}
		}
		w.d.stats.Retransmits++
	}
	w.arm()
}

// reset empties the window and disarms its timer, returning the
// abandoned slots (a shard declared dead re-routes them).
func (w *window[T]) reset() []slot[T] {
	if w.timer != 0 {
		w.d.cancel(w.timer)
		w.timer = 0
	}
	slots := w.slots
	w.slots = nil
	return slots
}

// gather is the restart-time exchange loop, the read side of a group:
// each round it calls send for every id still missing, then feeds
// incoming frames to accept until the round's jittered-backoff deadline.
// accept returns the id a frame satisfies (anything outside ids is
// ignored, so -1 reports a frame that made no progress) and whether the
// frame belonged to the exchange at all; foreign frames are stashed for
// the normal handler to see once recovery ends. The loop stops at need
// satisfied ids, or after rounds rounds provided at least floor are — a
// floor above zero therefore retries without bound, which is how a lone
// service is waited out until the dispatcher respawns it. The ids still
// missing are returned.
func (d *V2) gather(ids []int, need, floor, rounds int, base time.Duration,
	send func(id, attempt int), accept func(transport.Frame) (id int, mine bool)) map[int]bool {
	missing := make(map[int]bool, len(ids))
	for _, id := range ids {
		missing[id] = true
	}
	got := func() int { return len(ids) - len(missing) }
	bo := d.backoff(base)
	for attempt := 0; got() < need && (attempt < rounds || got() < floor); attempt++ {
		for _, id := range ids {
			if !missing[id] {
				continue
			}
			if attempt > 0 {
				d.stats.Retransmits++
			}
			send(id, attempt)
		}
		deadline := d.rt.Now() + bo.Delay(attempt)
		for d.rt.Now() < deadline && got() < need {
			f, ok := d.awaitAnyFrame(deadline - d.rt.Now())
			if !ok {
				break
			}
			if id, mine := accept(f); !mine {
				d.recoverPending = append(d.recoverPending, f)
			} else {
				delete(missing, id)
			}
		}
	}
	return missing
}
