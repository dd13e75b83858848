package cluster

import (
	"fmt"
	"sort"

	"mpichv/internal/core"
	"mpichv/internal/trace"
)

// AuditTrace runs the happens-before auditor over the run's causal
// trace. It complements Audit: Audit cross-checks the event loggers'
// merged view of deliveries, while AuditTrace checks the ordering the
// daemons actually executed — determinant durability before any
// dependent send, replay in original receiver-clock order, GC only
// behind announced checkpoint horizons. The run must have been made
// with Config.Trace set; a run without a trace audits vacuously green.
func AuditTrace(res Result) trace.HBReport {
	return trace.AuditHB(res.Trace)
}

// AuditReport is the verdict of the post-run recovery auditor: a
// machine-checkable statement that the piecewise-determinism invariants
// of the pessimistic logging protocol held for one run. An empty
// violation set means every delivery a surviving process could have
// observed is durably logged and replayable — no orphan processes.
type AuditReport struct {
	Ranks      int // ranks audited
	Events     int // events in the merged (post-supersession) logs
	Superseded int // replica-divergent (sender, channel-seq) slots resolved by majority

	// Orphans are per-channel sequence holes: a delivery that some later
	// logged delivery proves happened, yet whose own event survives on
	// no replica. A restart could not replay past it, so any process
	// depending on it would be orphaned.
	Orphans []string
	// ClockViolations are per-rank reception-clock order breaches:
	// duplicate or non-increasing RecvClocks in one rank's merged log,
	// the signature of divergent incarnations both surviving in the
	// replica group.
	ClockViolations []string
	// FIFOViolations are per-channel sender-clock order breaches: the
	// log claims a channel delivered messages out of emission order,
	// which the FIFO channel model makes impossible in a real run.
	FIFOViolations []string
}

// OK reports whether the run passed every invariant.
func (a AuditReport) OK() bool {
	return len(a.Orphans) == 0 && len(a.ClockViolations) == 0 && len(a.FIFOViolations) == 0
}

// Summary renders a one-line verdict for experiment tables and logs.
func (a AuditReport) Summary() string {
	if a.OK() {
		return fmt.Sprintf("audit OK: %d ranks, %d events, %d superseded", a.Ranks, a.Events, a.Superseded)
	}
	return fmt.Sprintf("audit FAILED: %d orphans, %d clock violations, %d fifo violations (%d ranks, %d events)",
		len(a.Orphans), len(a.ClockViolations), len(a.FIFOViolations), a.Ranks, a.Events)
}

// Audit checks the piecewise-determinism invariants over a finished
// run's event logs. It consumes the merged per-rank delivery view
// (Result.Deliveries) and the raw per-logger logs for supersession
// accounting. Every event must carry its channel sequence number: one
// with Seq 0 cannot be placed in its channel and is reported as an
// orphan.
func Audit(res Result) AuditReport {
	rep := AuditReport{Ranks: len(res.Deliveries)}

	// Supersession accounting: a (rank, sender, channel-seq) slot where
	// replicas hold differing events is the trace of an incarnation
	// that died mid-quorum; the merge kept the majority version, the
	// rest are superseded. Informational — divergence a quorum absorbs
	// is not a violation.
	type slot struct {
		sender int
		seq    uint64
	}
	for r := 0; r < len(res.Deliveries); r++ {
		variants := make(map[slot]map[core.Event]bool)
		for _, per := range res.ELReplicaDeliveries {
			for _, ev := range per[r] {
				k := slot{ev.Sender, ev.Seq}
				if variants[k] == nil {
					variants[k] = make(map[core.Event]bool)
				}
				variants[k][ev] = true
			}
		}
		for _, vs := range variants {
			rep.Superseded += len(vs) - 1
		}
	}

	for r, evs := range res.Deliveries {
		rep.Events += len(evs)

		// A rank's reception clock strictly orders its deliveries; the
		// merged log is sorted by it, so any tie is two incarnations
		// claiming the same delivery slot.
		for i := 1; i < len(evs); i++ {
			if evs[i].RecvClock <= evs[i-1].RecvClock {
				rep.ClockViolations = append(rep.ClockViolations,
					fmt.Sprintf("rank %d: deliveries %d and %d share reception clock %d",
						r, i-1, i, evs[i].RecvClock))
			}
		}

		bySender := make(map[int][]core.Event)
		for _, ev := range evs {
			bySender[ev.Sender] = append(bySender[ev.Sender], ev)
		}
		senders := make([]int, 0, len(bySender))
		for s := range bySender {
			senders = append(senders, s)
		}
		sort.Ints(senders)
		for _, s := range senders {
			ch := bySender[s]

			// FIFO: along one channel, delivery order must match
			// emission order (the sender's clock at emission).
			for i := 1; i < len(ch); i++ {
				if ch[i].SenderClock <= ch[i-1].SenderClock {
					rep.FIFOViolations = append(rep.FIFOViolations,
						fmt.Sprintf("channel %d→%d: sender clock %d delivered after %d",
							s, r, ch[i].SenderClock, ch[i-1].SenderClock))
				}
			}

			// Gap-freedom: the channel sequence numbers present must be
			// exactly {1..max}. A hole is an orphan — a later logged
			// delivery proves the missing one happened, but no replica
			// can replay it — and so is an event with no sequence number.
			seen := make(map[uint64]bool, len(ch))
			var max uint64
			for _, ev := range ch {
				if ev.Seq == 0 {
					rep.Orphans = append(rep.Orphans,
						fmt.Sprintf("channel %d→%d: delivery at reception clock %d has no sequence number", s, r, ev.RecvClock))
				}
				seen[ev.Seq] = true
				if ev.Seq > max {
					max = ev.Seq
				}
			}
			for q := uint64(1); q <= max; q++ {
				if !seen[q] {
					rep.Orphans = append(rep.Orphans,
						fmt.Sprintf("channel %d→%d: sequence %d missing (log reaches %d)", s, r, q, max))
				}
			}
		}
	}
	return rep
}
