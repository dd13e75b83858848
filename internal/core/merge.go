package core

import "sort"

// MergeReplicaEvents folds the copies of one rank's reception history
// held by several event-logger replicas into the list recovery replays.
// Identical events deduplicate; when replicas disagree about a (sender,
// channel-seq) slot — possible only when a previous incarnation died
// mid-quorum and divergent suffixes were logged across the group — the
// version held by more replicas wins (only it can have completed a
// write quorum and thus have been observable), with the higher
// RecvClock, then higher SenderClock, breaking ties deterministically.
// A restarting daemon merges its read quorum with it and the recovery
// auditor merges the replica stores with it, so the audited view is what
// recovery would replay by construction.
func MergeReplicaEvents(replicas [][]Event) []Event {
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
		if ev.Seq == 0 {
			merged = append(merged, ev) // unsequenced legacy event: keep as-is
			continue
		}
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
