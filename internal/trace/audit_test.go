package trace

import (
	"strings"
	"testing"
	"time"
)

// mkTrace builds a trace from pre-ordered events (callers assign
// ascending timestamps themselves).
func mkTrace(evs ...Ev) *Trace { return &Trace{Evs: evs} }

func TestAuditHBNilAndEmpty(t *testing.T) {
	if rep := AuditHB(nil); !rep.OK() || rep.Events != 0 {
		t.Errorf("nil trace: %+v", rep)
	}
	if rep := AuditHB(&Trace{}); !rep.OK() {
		t.Errorf("empty trace: %+v", rep)
	}
}

func TestAuditHBCleanRun(t *testing.T) {
	// Rank 1 delivers from rank 0, logs the determinant, then sends:
	// the textbook §4.3 sequence.
	send := PackSpan(0, 1)
	det := PackSpan(1, 5)
	rep := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvSend, Rank: 0, Span: send, A: 1, B: 64},
		Ev{T: 2, Kind: EvRecvWire, Rank: 1, Span: send, A: 0, B: 64},
		Ev{T: 3, Kind: EvDeliver, Rank: 1, Span: det, Parent: send, A: 1, B: 1},
		Ev{T: 4, Kind: EvDetSubmit, Rank: 1, A: 1, B: 1},
		Ev{T: 5, Kind: EvDetDurable, Rank: 1, Span: det, A: 1},
		Ev{T: 6, Kind: EvSend, Rank: 1, Span: PackSpan(1, 6), A: 0, B: 64},
	))
	if !rep.OK() {
		t.Fatalf("clean run flagged: %s", rep.Summary())
	}
	if rep.Ranks != 2 || rep.Sends != 2 || rep.Deliveries != 1 || rep.Durables != 1 {
		t.Errorf("counts: %+v", rep)
	}
	if !strings.Contains(rep.Summary(), "2 sends") {
		t.Errorf("summary: %s", rep.Summary())
	}
}

func TestAuditHBEarlySend(t *testing.T) {
	// The injected NoSendGating bug: payload leaves while the delivery's
	// determinant is still pending at the event loggers.
	det := PackSpan(1, 5)
	rep := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvDeliver, Rank: 1, Span: det, A: 1, B: 1},
		Ev{T: 2, Kind: EvSend, Rank: 1, Span: PackSpan(1, 6), A: 0, B: 8},
		Ev{T: 3, Kind: EvDetDurable, Rank: 1, Span: det, A: 1},
	))
	if rep.OK() || len(rep.EarlySends) != 1 {
		t.Fatalf("early send not caught: %s", rep.Summary())
	}
	if !strings.Contains(rep.EarlySends[0], "recv-clock 5") {
		t.Errorf("witness missing: %s", rep.EarlySends[0])
	}
	if !strings.Contains(rep.Summary(), "early sends (1)") {
		t.Errorf("summary: %s", rep.Summary())
	}
}

func TestAuditHBResendExempt(t *testing.T) {
	// A retransmission during a peer's RESTART handshake may overlap new
	// pending determinants: its original send already passed the gate.
	det := PackSpan(1, 5)
	rep := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvDeliver, Rank: 1, Span: det, A: 1, B: 1},
		Ev{T: 2, Kind: EvResend, Rank: 1, Span: PackSpan(1, 2), A: 0, B: 8},
		Ev{T: 3, Kind: EvDetDurable, Rank: 1, Span: det, A: 1},
	))
	if !rep.OK() {
		t.Errorf("resend flagged as early send: %s", rep.Summary())
	}
}

func TestAuditHBUngatedDeliveryExempt(t *testing.T) {
	// B=0 on a delivery means the run has no event loggers: the
	// determinant never joins the WAITLOGGED gate.
	rep := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvDeliver, Rank: 1, Span: PackSpan(1, 5), A: 1, B: 0},
		Ev{T: 2, Kind: EvSend, Rank: 1, Span: PackSpan(1, 6), A: 0, B: 8},
	))
	if !rep.OK() {
		t.Errorf("ungated delivery joined the gate: %s", rep.Summary())
	}
}

func TestAuditHBReplayOrder(t *testing.T) {
	s1, s2 := PackSpan(1, 5), PackSpan(1, 9)
	commits := []Ev{
		{T: 1, Kind: EvDeliver, Rank: 1, Span: s1, A: 1, B: 1},
		{T: 2, Kind: EvDetDurable, Rank: 1, Span: s1},
		{T: 3, Kind: EvDeliver, Rank: 1, Span: s2, A: 2, B: 1},
		{T: 4, Kind: EvDetDurable, Rank: 1, Span: s2},
		{T: 5, Kind: EvRestartBegin, Rank: 1, A: 1},
	}
	// In-order replay: green.
	rep := AuditHB(mkTrace(append(commits,
		Ev{T: 6, Kind: EvReplay, Rank: 1, Span: s1, A: 0, B: 1},
		Ev{T: 7, Kind: EvReplay, Rank: 1, Span: s2, A: 0, B: 2},
		Ev{T: 8, Kind: EvRestartEnd, Rank: 1, A: 1, B: 100},
	)...))
	if !rep.OK() || rep.Replays != 2 {
		t.Fatalf("ordered replay flagged: %s", rep.Summary())
	}
	// Reversed replay: receiver-clock order broken.
	rep = AuditHB(mkTrace(append(commits,
		Ev{T: 6, Kind: EvReplay, Rank: 1, Span: s2, A: 0, B: 2},
		Ev{T: 7, Kind: EvReplay, Rank: 1, Span: s1, A: 0, B: 1},
	)...))
	if rep.OK() || len(rep.ReplayViolations) != 1 {
		t.Fatalf("replay inversion not caught: %s", rep.Summary())
	}
	if !strings.Contains(rep.ReplayViolations[0], "replayed recv-clock 5 after 9") {
		t.Errorf("violation text: %s", rep.ReplayViolations[0])
	}
}

func TestAuditHBReplayWithoutCommit(t *testing.T) {
	rep := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvRestartBegin, Rank: 1, A: 1},
		Ev{T: 2, Kind: EvReplay, Rank: 1, Span: PackSpan(1, 5), A: 0, B: 1},
	))
	if rep.OK() || len(rep.ReplayViolations) != 1 {
		t.Fatalf("phantom replay not caught: %s", rep.Summary())
	}
	if !strings.Contains(rep.ReplayViolations[0], "no recorded original commit") {
		t.Errorf("violation text: %s", rep.ReplayViolations[0])
	}
}

func TestAuditHBReplayCursorResetsPerIncarnation(t *testing.T) {
	// A second crash replays the same prefix again: each incarnation's
	// cursor starts fresh, so the repeat is legal.
	s1 := PackSpan(1, 5)
	rep := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvDeliver, Rank: 1, Span: s1, A: 1, B: 1},
		Ev{T: 2, Kind: EvDetDurable, Rank: 1, Span: s1},
		Ev{T: 3, Kind: EvRestartBegin, Rank: 1, A: 1},
		Ev{T: 4, Kind: EvReplay, Rank: 1, Span: s1, A: 0, B: 1},
		Ev{T: 5, Kind: EvRestartBegin, Rank: 1, A: 2},
		Ev{T: 6, Kind: EvReplay, Rank: 1, Span: s1, A: 0, B: 1},
	))
	if !rep.OK() {
		t.Errorf("cross-incarnation replay repeat flagged: %s", rep.Summary())
	}
}

func TestAuditHBRestartClearsPending(t *testing.T) {
	// Determinants pending at crash time die with the incarnation; a
	// send after recovery must not be charged for them.
	det := PackSpan(1, 5)
	rep := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvDeliver, Rank: 1, Span: det, A: 1, B: 1},
		Ev{T: 2, Kind: EvRestartBegin, Rank: 1, A: 1},
		Ev{T: 3, Kind: EvRestartEnd, Rank: 1, A: 1, B: 50},
		Ev{T: 4, Kind: EvSend, Rank: 1, Span: PackSpan(1, 6), A: 0, B: 8},
	))
	if !rep.OK() {
		t.Errorf("post-restart send charged for dead determinants: %s", rep.Summary())
	}
}

func TestAuditHBGCInvariant(t *testing.T) {
	// Rank 2 announces (via KCkptNote) that deliveries from rank 0 up to
	// clock 10 are checkpoint-covered; rank 0 may then reclaim up to 10
	// but not beyond.
	green := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvGCNote, Rank: 2, A: 0, B: 10},
		Ev{T: 2, Kind: EvGCApply, Rank: 0, A: 2, B: 10},
	))
	if !green.OK() {
		t.Fatalf("covered GC flagged: %s", green.Summary())
	}
	red := AuditHB(mkTrace(
		Ev{T: 1, Kind: EvGCNote, Rank: 2, A: 0, B: 10},
		Ev{T: 2, Kind: EvGCApply, Rank: 0, A: 2, B: 11},
	))
	if red.OK() || len(red.GCViolations) != 1 {
		t.Fatalf("over-eager GC not caught: %s", red.Summary())
	}
	if !strings.Contains(red.GCViolations[0], "peer only announced 10") {
		t.Errorf("violation text: %s", red.GCViolations[0])
	}
	// GC with no note at all.
	bare := AuditHB(mkTrace(Ev{T: 1, Kind: EvGCApply, Rank: 0, A: 2, B: 1}))
	if bare.OK() {
		t.Error("noteless GC not caught")
	}
}

func TestAuditHBIncompleteSuppression(t *testing.T) {
	// A wrapped ring may have lost the durability records; the auditor
	// must not claim violations it cannot anchor, but must say so.
	det := PackSpan(1, 5)
	rep := AuditHB(&Trace{
		Dropped: 3,
		Evs: []Ev{
			{T: 1, Kind: EvDeliver, Rank: 1, Span: det, A: 1, B: 1},
			{T: 2, Kind: EvSend, Rank: 1, Span: PackSpan(1, 6), A: 0, B: 8},
			{T: 3, Kind: EvGCApply, Rank: 0, A: 2, B: 99},
			{T: 4, Kind: EvReplay, Rank: 1, Span: PackSpan(1, 7), A: 0, B: 1},
		},
	})
	if !rep.Incomplete {
		t.Fatal("dropped events not marked incomplete")
	}
	if len(rep.EarlySends) != 0 || len(rep.GCViolations) != 0 {
		t.Errorf("incomplete trace produced unanchorable violations: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "INCOMPLETE") {
		t.Errorf("summary hides incompleteness: %s", rep.Summary())
	}
}

func TestAuditHBSummaryTruncates(t *testing.T) {
	evs := make([]Ev, 0, 24)
	det := PackSpan(1, 5)
	evs = append(evs, Ev{T: 1, Kind: EvDeliver, Rank: 1, Span: det, A: 1, B: 1})
	for i := 0; i < 12; i++ {
		evs = append(evs, Ev{T: time.Duration(2 + i), Kind: EvSend, Rank: 1, Span: PackSpan(1, uint64(6+i)), A: 0, B: 8})
	}
	rep := AuditHB(mkTrace(evs...))
	if len(rep.EarlySends) != 12 {
		t.Fatalf("early sends = %d", len(rep.EarlySends))
	}
	if !strings.Contains(rep.Summary(), "... 4 more") {
		t.Errorf("summary not truncated:\n%s", rep.Summary())
	}
}

func TestExtractCriticalPath(t *testing.T) {
	st0 := New()
	st0.Add(Compute, 10*time.Millisecond)
	st0.Add("Send", 6*time.Millisecond)
	st1 := New()
	st1.Add(Compute, 2*time.Millisecond)
	st1.Add("Recv", 3*time.Millisecond)
	tr := mkTrace(
		Ev{T: 1, Kind: EvWaitLogged, Rank: 0, A: uint64(2 * time.Millisecond)},
		Ev{T: 2, Kind: EvRestartEnd, Rank: 0, A: 1, B: uint64(1 * time.Millisecond)},
		Ev{T: 3, Kind: EvWaitLogged, Rank: 1, A: uint64(500 * time.Microsecond)},
		// Out-of-range rank must be ignored, not panic.
		Ev{T: 4, Kind: EvWaitLogged, Rank: 9, A: 1},
	)
	rows := ExtractCriticalPath(tr, []*Stats{st0, st1})
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	r0 := rows[0]
	if r0.Compute != 10*time.Millisecond || r0.Comm != 6*time.Millisecond ||
		r0.ELWait != 2*time.Millisecond || r0.Recovery != time.Millisecond ||
		r0.Transfer != 3*time.Millisecond {
		t.Errorf("rank 0 row: %+v", r0)
	}
	if r0.Total() != 16*time.Millisecond {
		t.Errorf("total = %v", r0.Total())
	}
	if CriticalRank(rows) != 0 {
		t.Errorf("critical rank = %d", CriticalRank(rows))
	}
	// ELWait exceeding Comm clamps Transfer at zero.
	clamp := ExtractCriticalPath(mkTrace(
		Ev{T: 1, Kind: EvWaitLogged, Rank: 0, A: uint64(time.Second)},
	), []*Stats{st1, nil})
	if clamp[0].Transfer != 0 {
		t.Errorf("transfer not clamped: %v", clamp[0].Transfer)
	}
	if clamp[1].Compute != 0 {
		t.Errorf("nil Stats row: %+v", clamp[1])
	}
	if got := ExtractCriticalPath(nil, []*Stats{st0}); got[0].ELWait != 0 {
		t.Errorf("nil trace row: %+v", got[0])
	}
}
