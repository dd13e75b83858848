package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceMerge is MergeReplicaEvents as it stood before the linear
// merge: a map keyed by the whole event, a map keyed by slot, and a
// sort. The property test holds the linear merge to its output.
func referenceMerge(replicas [][]Event) []Event {
	count := make(map[Event]int)
	for _, evs := range replicas {
		for _, ev := range evs {
			count[ev]++
		}
	}
	type slot struct {
		sender int
		seq    uint64
	}
	best := make(map[slot]Event)
	merged := make([]Event, 0, len(count))
	for ev, n := range count {
		k := slot{ev.Sender, ev.Seq}
		cur, ok := best[k]
		if !ok || n > count[cur] ||
			(n == count[cur] && (ev.RecvClock > cur.RecvClock ||
				(ev.RecvClock == cur.RecvClock && ev.SenderClock > cur.SenderClock))) {
			best[k] = ev
		}
	}
	for _, ev := range best {
		merged = append(merged, ev)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].RecvClock != merged[j].RecvClock {
			return merged[i].RecvClock < merged[j].RecvClock
		}
		if merged[i].Sender != merged[j].Sender {
			return merged[i].Sender < merged[j].Sender
		}
		return merged[i].Seq < merged[j].Seq
	})
	return merged
}

// replicaHistories draws the copies a read quorum returns: one history
// of deliveries from a few senders, each replica holding a prefix of it
// (a stale replica), and — on some draws — a divergent suffix: a
// replica that logged a different continuation from some point on, as
// when an incarnation died mid-quorum.
func replicaHistories(rng *rand.Rand) [][]Event {
	senders := 1 + rng.Intn(4)
	n := rng.Intn(60)
	history := func(from int, clock uint64, seqs map[int]uint64, n int) []Event {
		var evs []Event
		for i := 0; i < n; i++ {
			clock++
			s := rng.Intn(senders)
			seqs[s]++
			evs = append(evs, Event{Sender: s, SenderClock: uint64(rng.Intn(50)), RecvClock: clock, Probes: uint32(rng.Intn(2)), Seq: seqs[s]})
		}
		_ = from
		return evs
	}
	base := history(0, 0, map[int]uint64{}, n)
	replicas := make([][]Event, 1+rng.Intn(3))
	for r := range replicas {
		cut := rng.Intn(len(base) + 1)
		evs := append([]Event(nil), base[:cut]...)
		if rng.Intn(3) == 0 && cut > 0 {
			// Divergent suffix: re-deliver from a point below the cut
			// with other senders, clocks and probe counts.
			at := rng.Intn(cut)
			seqs := map[int]uint64{}
			for _, ev := range evs[:at] {
				if ev.Seq > seqs[ev.Sender] {
					seqs[ev.Sender] = ev.Seq
				}
			}
			var clock uint64
			if at > 0 {
				clock = evs[at-1].RecvClock
			}
			evs = append(evs[:at], history(r, clock+uint64(rng.Intn(2)), seqs, rng.Intn(10))...)
		}
		replicas[r] = evs
	}
	return replicas
}

// probesOnlyTie reports whether two versions of one slot differ only in
// Probes with equal counts: the reference resolved those by map order.
func probesOnlyTie(replicas [][]Event) bool {
	count := map[Event]int{}
	for _, evs := range replicas {
		for _, ev := range evs {
			count[ev]++
		}
	}
	type key struct {
		sender           int
		seq, recv, clock uint64
	}
	seen := map[key]Event{}
	for ev, n := range count {
		k := key{ev.Sender, ev.Seq, ev.RecvClock, ev.SenderClock}
		if other, ok := seen[k]; ok && count[other] == n {
			return true
		}
		seen[k] = ev
	}
	return false
}

func TestMergeReplicaEventsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 5000; i++ {
		replicas := replicaHistories(rng)
		if probesOnlyTie(replicas) {
			continue
		}
		got, want := MergeReplicaEvents(replicas), referenceMerge(replicas)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: replicas %v\nmerged    %v\nreference %v", i, replicas, got, want)
		}
		checked++
	}
	if checked < 4000 {
		t.Fatalf("only %d of 5000 draws compared", checked)
	}
}

// TestMergeReplicaEventsTieBreakIsTotal: two versions of a slot that
// differ only in Probes, held by as many replicas each, resolve the same
// way whatever order the copies come in.
func TestMergeReplicaEventsTieBreakIsTotal(t *testing.T) {
	a := []Event{{Sender: 1, SenderClock: 4, RecvClock: 7, Probes: 0, Seq: 3}}
	b := []Event{{Sender: 1, SenderClock: 4, RecvClock: 7, Probes: 2, Seq: 3}}
	want := b
	for i := 0; i < 20; i++ {
		if got := MergeReplicaEvents([][]Event{a, b}); !reflect.DeepEqual(got, want) {
			t.Fatalf("a, b: %v, want %v", got, want)
		}
		if got := MergeReplicaEvents([][]Event{b, a}); !reflect.DeepEqual(got, want) {
			t.Fatalf("b, a: %v, want %v", got, want)
		}
	}
}

// TestMergeReplicaEventsSortsUnsortedCopies: a copy out of RecvClock
// order is merged as if it had been sorted.
func TestMergeReplicaEventsSortsUnsortedCopies(t *testing.T) {
	evs := []Event{{Sender: 0, RecvClock: 3, Seq: 2}, {Sender: 0, RecvClock: 1, Seq: 1}}
	got := MergeReplicaEvents([][]Event{evs, evs[1:]})
	if want := []Event{evs[1], evs[0]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	if evs[0].RecvClock != 3 {
		t.Error("the caller's copy was reordered")
	}
}

// BenchmarkMergeReplicaEvents merges what a read quorum of two replicas
// returns for a rank that delivered 2 050 messages from three senders
// since its checkpoint.
func BenchmarkMergeReplicaEvents(b *testing.B) {
	const n = 2050
	evs := make([]Event, n)
	seqs := map[int]uint64{}
	for i := range evs {
		s := i % 3
		seqs[s]++
		evs[i] = Event{Sender: s, SenderClock: uint64(2*i + 1), RecvClock: uint64(i + 1), Seq: seqs[s]}
	}
	replicas := [][]Event{evs, append([]Event(nil), evs...)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := MergeReplicaEvents(replicas); len(got) != n {
			b.Fatalf("merged %d events, want %d", len(got), n)
		}
	}
}
