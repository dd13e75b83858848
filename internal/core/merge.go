package core

import (
	"cmp"
	"slices"
)

// MergeReplicaEvents folds the copies of one rank's reception history
// held by several event-logger replicas into the list recovery replays,
// sorted by RecvClock, then Sender, then Seq. Identical events
// deduplicate; when replicas disagree about a (sender, channel-seq)
// slot — possible only when a previous incarnation died mid-quorum and
// divergent suffixes were logged across the group — the version held by
// more replicas wins (only it can have completed a write quorum and thus
// have been observable), with the higher RecvClock, then the higher
// SenderClock, then the higher Probes breaking ties, so the choice never
// depends on the order the copies arrive in. A restarting daemon merges
// its read quorum with it and the recovery auditor merges the replica
// stores with it, so the audited view is what recovery would replay by
// construction.
//
// Each copy is expected sorted by RecvClock with one event per clock, as
// an event logger serves it (an unsorted copy is sorted first). The
// copies are then merged in one pass, and the slots are only indexed
// when some sender's channel seqs fail to rise along the merged list —
// the mark of divergent suffixes.
func MergeReplicaEvents(replicas [][]Event) []Event {
	lists := make([][]Event, 0, len(replicas))
	total := 0
	for _, evs := range replicas {
		if len(evs) == 0 {
			continue
		}
		if !slices.IsSortedFunc(evs, compareEvents) {
			evs = slices.Clone(evs)
			slices.SortFunc(evs, compareEvents)
		}
		lists = append(lists, evs)
		total += len(evs)
	}
	merged := make([]Event, 0, total)
	counts := make([]int, 0, total) // replicas holding merged[i]
	for {
		next := -1
		for i, evs := range lists {
			if len(evs) > 0 && (next < 0 || compareEvents(evs[0], lists[next][0]) < 0) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		ev := lists[next][0]
		lists[next] = lists[next][1:]
		if k := len(merged) - 1; k >= 0 && merged[k] == ev {
			counts[k]++
			continue
		}
		merged = append(merged, ev)
		counts = append(counts, 1)
	}
	if !divergent(merged) {
		return merged
	}

	type slot struct {
		sender int
		seq    uint64
	}
	best := make(map[slot]int)
	for i, ev := range merged {
		k := slot{ev.Sender, ev.Seq}
		if j, ok := best[k]; !ok || outranks(ev, counts[i], merged[j], counts[j]) {
			best[k] = i
		}
	}
	out := merged[:0]
	for i, ev := range merged {
		if best[slot{ev.Sender, ev.Seq}] == i {
			out = append(out, ev)
		}
	}
	return out
}

// compareEvents orders events by RecvClock, Sender and Seq — the replay
// order — and then by the remaining fields, so identical events are
// adjacent and differing ones are never equal.
func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.RecvClock, b.RecvClock); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Sender, b.Sender); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SenderClock, b.SenderClock); c != 0 {
		return c
	}
	return cmp.Compare(a.Probes, b.Probes)
}

// divergent reports whether some sender's channel seqs fail to rise
// along evs (sorted by RecvClock): one history delivers each sender's
// messages in channel order, so only copies of different histories can
// put one slot twice, or two slots out of order, on the list.
func divergent(evs []Event) bool {
	last := make(map[int]uint64)
	for _, ev := range evs {
		if ev.Seq <= last[ev.Sender] {
			return true
		}
		last[ev.Sender] = ev.Seq
	}
	return false
}

// outranks reports whether version a, held by na replicas, wins its slot
// over version b, held by nb.
func outranks(a Event, na int, b Event, nb int) bool {
	if na != nb {
		return na > nb
	}
	if a.RecvClock != b.RecvClock {
		return a.RecvClock > b.RecvClock
	}
	if a.SenderClock != b.SenderClock {
		return a.SenderClock > b.SenderClock
	}
	return a.Probes > b.Probes
}
