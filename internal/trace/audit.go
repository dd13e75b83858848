package trace

import (
	"fmt"
	"strings"
	"time"
)

// HBReport is the verdict of the happens-before auditor over a
// completed trace. It checks the three causal invariants the MPICH-V2
// correctness argument rests on:
//
//  1. No payload leaves a daemon while a determinant of an earlier
//     delivery is not yet quorum-durable (the WAITLOGGED gate of
//     §4.3: logging is synchronous-before-send, so a message can
//     never causally depend on an unlogged nondeterministic choice).
//  2. Replayed deliveries are consumed in strictly ascending original
//     receiver-clock order, and every replayed delivery was actually
//     committed by a previous incarnation (§4.5 re-execution).
//  3. GC reclaims SAVED entries for a peer only after that peer
//     announced — via a KCkptNote derived from a durable checkpoint —
//     that the covered deliveries can no longer be re-requested
//     (§4.6.1).
//
// Violations carry human-readable descriptions in the style of
// cluster.Audit.
type HBReport struct {
	Ranks      int
	Events     int
	Sends      int
	Deliveries int
	Durables   int
	Replays    int

	// Suppressed: deliveries whose determinant was suppressed off the
	// critical path (EvDeliver with B=2).
	Suppressed int

	// EarlySends: payload released before the determinants of all
	// prior deliveries were quorum-logged (invariant 1).
	EarlySends []string
	// ReplayViolations: replay out of original receiver-clock order,
	// or replay of a delivery with no recorded commit (invariant 2).
	ReplayViolations []string
	// GCViolations: SAVED entries reclaimed without a covering
	// checkpoint note from the delivering peer (invariant 3).
	GCViolations []string
	// SuppressionViolations: invariant 1 relaxed for suppressed
	// determinants — a send may leave while they are not yet durable,
	// but only if the payload carries every one of them piggybacked
	// (causal logging: any dependent message transports the evidence).
	// Also convicts the classifier itself: a suppressed delivery that
	// the delivery path observed as nondeterministic (competing
	// candidates or outstanding probes at commit) is unsafe.
	SuppressionViolations []string

	// Incomplete marks a trace whose recorder rings wrapped; the
	// auditor skips checks it cannot anchor and OK() still reports
	// the violations it did find.
	Incomplete bool
}

// OK reports whether the audited trace upholds every invariant.
func (r HBReport) OK() bool {
	return len(r.EarlySends) == 0 && len(r.ReplayViolations) == 0 &&
		len(r.GCViolations) == 0 && len(r.SuppressionViolations) == 0
}

// Summary renders the report for test output.
func (r HBReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hb-audit: %d events over %d ranks (%d sends, %d deliveries, %d durable, %d replays)",
		r.Events, r.Ranks, r.Sends, r.Deliveries, r.Durables, r.Replays)
	if r.Suppressed > 0 {
		fmt.Fprintf(&b, " [%d dets suppressed]", r.Suppressed)
	}
	if r.Incomplete {
		b.WriteString(" [INCOMPLETE: recorder ring wrapped]")
	}
	section := func(name string, vs []string) {
		if len(vs) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%s (%d):", name, len(vs))
		for i, v := range vs {
			if i == 8 {
				fmt.Fprintf(&b, "\n  ... %d more", len(vs)-i)
				break
			}
			fmt.Fprintf(&b, "\n  %s", v)
		}
	}
	section("early sends", r.EarlySends)
	section("replay violations", r.ReplayViolations)
	section("gc violations", r.GCViolations)
	section("suppression violations", r.SuppressionViolations)
	return b.String()
}

// rankState tracks the per-rank auditor passes.
type rankState struct {
	// pending: forced (pessimistically logged) determinants committed
	// but not yet quorum-durable, keyed by span. A fresh EvSend while
	// this set is non-empty is an early send.
	pending map[uint64]Ev
	// pendingSuppressed: suppressed determinants committed but not yet
	// quorum-durable. These do not block sends, but every fresh EvSend
	// must piggyback all of them (EvSend.Parent carries the count).
	pendingSuppressed map[uint64]Ev
	// committed: every delivery ever committed on this rank, keyed by
	// span — the evidence replayed deliveries must anchor to.
	committed map[uint64]bool
	// lastReplay: original receiver clock of the previous replay in
	// the current incarnation.
	lastReplay uint64
}

// AuditHBOpts adapts the auditor to deployed traces, whose evidence is
// weaker than a simulated run's: a SIGKILLed worker loses the trace
// events recorded after its last snapshot flush — a suffix of its
// timeline — so an absence in the trace no longer proves an absence in
// the execution.
type AuditHBOpts struct {
	// KnownCommits are delivery spans known committed from evidence
	// outside the trace (the event loggers' durable determinant logs).
	// A replay anchoring to a known commit is legitimate even when the
	// crash ate the original EvDeliver record.
	KnownCommits map[uint64]bool
	// CrashTail, when set, tells the auditor that trace suffixes may be
	// missing (workers were SIGKILLed between snapshot flushes). Checks
	// that rest on the *presence* of a later event — a GC note observed
	// before its apply — are skipped; order checks over the events that
	// did survive still run, because snapshots are prefixes: loss never
	// reorders what remains.
	CrashTail bool
}

// AuditHB replays a merged trace and verifies the happens-before
// invariants. A nil or empty trace audits vacuously green.
func AuditHB(tr *Trace) HBReport { return AuditHBWith(tr, AuditHBOpts{}) }

// AuditHBWith is AuditHB with deployment options.
func AuditHBWith(tr *Trace, opts AuditHBOpts) HBReport {
	rep := HBReport{}
	if tr == nil {
		return rep
	}
	rep.Events = len(tr.Evs)
	rep.Incomplete = tr.Dropped > 0

	ranks := map[int32]*rankState{}
	state := func(r int32) *rankState {
		s, ok := ranks[r]
		if !ok {
			s = &rankState{pending: map[uint64]Ev{}, pendingSuppressed: map[uint64]Ev{}, committed: map[uint64]bool{}}
			ranks[r] = s
		}
		return s
	}
	// noted[q<<32|r] = highest delivered-up-to clock that rank q has
	// announced to rank r via a checkpoint note.
	noted := map[uint64]uint64{}
	nkey := func(q, r uint64) uint64 { return q<<32 | r&0xffffffff }

	for i := range tr.Evs {
		ev := &tr.Evs[i]
		s := state(ev.Rank)
		switch ev.Kind {
		case EvDeliver:
			rep.Deliveries++
			s.committed[ev.Span] = true
			switch ev.B {
			case 1: // determinant logged pessimistically: joins the gate
				s.pending[ev.Span] = *ev
			case 2: // determinant suppressed: rides piggybacked instead
				rep.Suppressed++
				s.pendingSuppressed[ev.Span] = *ev
			}
		case EvDetSuppressed:
			if (ev.A > 0 || ev.B > 0) && !rep.Incomplete {
				rep.SuppressionViolations = append(rep.SuppressionViolations, fmt.Sprintf(
					"rank %d t=%v: suppressed determinant span=%#x for a nondeterministic delivery (%d competing candidate(s), %d outstanding probe(s))",
					ev.Rank, ev.T, ev.Span, ev.A, ev.B))
			}
		case EvDetDurable:
			rep.Durables++
			delete(s.pending, ev.Span)
			delete(s.pendingSuppressed, ev.Span)
		case EvSend:
			rep.Sends++
			if len(s.pending) > 0 && !rep.Incomplete {
				// Pick one witness determinant for the message.
				var w Ev
				for _, p := range s.pending {
					w = p
					break
				}
				_, wc := UnpackSpan(w.Span)
				rep.EarlySends = append(rep.EarlySends, fmt.Sprintf(
					"rank %d t=%v: payload span=%#x to rank %d left with %d unlogged determinant(s), e.g. recv-clock %d from rank %d",
					ev.Rank, ev.T, ev.Span, ev.A, len(s.pending), wc, w.A))
			}
			if n := uint64(len(s.pendingSuppressed)); n > 0 && ev.Parent < n && !rep.Incomplete {
				rep.SuppressionViolations = append(rep.SuppressionViolations, fmt.Sprintf(
					"rank %d t=%v: payload span=%#x to rank %d left with %d suppressed determinant(s) pending but only %d piggybacked",
					ev.Rank, ev.T, ev.Span, ev.A, n, ev.Parent))
			}
		case EvReplay:
			rep.Replays++
			_, clock := UnpackSpan(ev.Span)
			if clock <= s.lastReplay {
				rep.ReplayViolations = append(rep.ReplayViolations, fmt.Sprintf(
					"rank %d t=%v: replayed recv-clock %d after %d (must be strictly ascending)",
					ev.Rank, ev.T, clock, s.lastReplay))
			}
			s.lastReplay = clock
			if !s.committed[ev.Span] && !opts.KnownCommits[ev.Span] && !rep.Incomplete {
				rep.ReplayViolations = append(rep.ReplayViolations, fmt.Sprintf(
					"rank %d t=%v: replayed span=%#x (recv-clock %d) with no recorded original commit",
					ev.Rank, ev.T, ev.Span, clock))
			}
			s.committed[ev.Span] = true
		case EvRestartBegin:
			// Crash wiped volatile state: unacked determinants are
			// gone (they will be re-fetched from the EL), and the
			// replay cursor restarts from the checkpoint.
			s.pending = map[uint64]Ev{}
			s.pendingSuppressed = map[uint64]Ev{}
			s.lastReplay = 0
		case EvGCNote:
			k := nkey(uint64(ev.Rank), ev.A)
			if ev.B > noted[k] {
				noted[k] = ev.B
			}
		case EvGCApply:
			// The peer's note lives on the *peer's* timeline; under
			// CrashTail its record may be in the lost suffix even though
			// the note was sent, so the anchor check proves nothing.
			if !rep.Incomplete && !opts.CrashTail {
				if covered := noted[nkey(ev.A, uint64(ev.Rank))]; ev.B > covered {
					rep.GCViolations = append(rep.GCViolations, fmt.Sprintf(
						"rank %d t=%v: reclaimed SAVED entries for peer %d up to clock %d, but peer only announced %d durable",
						ev.Rank, ev.T, ev.A, ev.B, covered))
				}
			}
		}
	}
	rep.Ranks = len(ranks)
	return rep
}

// CriticalPath is the per-rank decomposition of where a run's virtual
// time went, extracted from the trace plus the MPI-layer Stats: pure
// compute, EL ack stalls (WAITLOGGED), recovery (restart fetches and
// announcements), and the residual transfer/queueing time inside
// communication.
type CriticalPath struct {
	Rank     int
	Compute  time.Duration
	Comm     time.Duration // total MPI communication time
	ELWait   time.Duration // WAITLOGGED stalls inside Comm
	Recovery time.Duration // restart fetch + announcement time
	Transfer time.Duration // Comm minus ELWait minus Recovery (clamped)
}

// Total is the rank's accounted virtual time.
func (c CriticalPath) Total() time.Duration { return c.Compute + c.Comm }

// ExtractCriticalPath folds a trace and the per-rank MPI time buckets
// into per-rank critical-path rows. perRank[i] may be nil. The row
// with the largest Total is the run's critical path.
func ExtractCriticalPath(tr *Trace, perRank []*Stats) []CriticalPath {
	out := make([]CriticalPath, len(perRank))
	for r := range out {
		out[r].Rank = r
		if st := perRank[r]; st != nil {
			out[r].Compute = st.ComputeTime()
			out[r].Comm = st.CommTime()
		}
	}
	if tr != nil {
		for i := range tr.Evs {
			ev := &tr.Evs[i]
			if int(ev.Rank) >= len(out) || ev.Rank < 0 {
				continue
			}
			switch ev.Kind {
			case EvWaitLogged:
				out[ev.Rank].ELWait += time.Duration(ev.A)
			case EvRestartEnd:
				out[ev.Rank].Recovery += time.Duration(ev.B)
			}
		}
	}
	for r := range out {
		t := out[r].Comm - out[r].ELWait - out[r].Recovery
		if t < 0 {
			t = 0
		}
		out[r].Transfer = t
	}
	return out
}

// CriticalRank returns the index of the row with the largest Total.
func CriticalRank(rows []CriticalPath) int {
	best := 0
	for i := range rows {
		if rows[i].Total() > rows[best].Total() {
			best = i
		}
	}
	return best
}
