package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"mpichv/internal/mpi"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// The traced run measures every layer boundary from outside the
// program: a decorating transport.Fabric stamps each Send and each
// arrival, and the workload's own MPI calls are stamped by the app
// wrapper. Nothing under internal/ is instrumented. Records are kept
// in memory and turned into spans when the run ends.

// frameHeader is what transport.WriteFrame puts in front of a frame's
// data (length, sender id, kind); the wire-byte metric counts it.
const frameHeader = 9

// sendRec is one Endpoint.Send, entry to exit.
type sendRec struct {
	from, to int
	kind     uint8
	bytes    int
	key      uint64 // payload: sender clock; event log / checkpoint: request seq
	t0, t1   int64
}

// arriveRec is one frame leaving the inner endpoint's inbox.
type arriveRec struct {
	at, from int
	kind     uint8
	key, cum uint64
	t        int64
}

type callOp uint8

const (
	opLap callOp = iota
	opSend
	opRecv
	opWaitall
	opCkpt
)

var opNames = [...]string{"lap", "Send", "Recv", "Waitall", "CheckpointPoint"}

// callRec is one MPI call of the workload, or one of rank 0's laps.
type callRec struct {
	rank   int
	op     callOp
	lap    int
	t0, t1 int64
}

type tracer struct {
	base time.Time
	rt   *vtime.Real // owns the mailboxes of the traced endpoints
	mu   sync.Mutex
	eps  []*tracedEndpoint
	apps []*appCtx
}

func newTracer() *tracer { return &tracer{base: time.Now(), rt: vtime.NewReal()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) wrap(inner transport.Fabric) transport.Fabric {
	return &tracedFabric{tr: t, inner: inner}
}

type tracedFabric struct {
	tr    *tracer
	inner transport.Fabric
}

// tracedEndpoint re-pumps the inner inbox through its own mailbox so the
// arrival of every frame can be stamped before the node sees it.
type tracedEndpoint struct {
	tr      *tracer
	inner   transport.Endpoint
	inbox   *vtime.Mailbox[transport.Frame]
	mu      sync.Mutex
	sends   []sendRec
	arrives []arriveRec
}

func (f *tracedFabric) Attach(id int, name string) transport.Endpoint {
	e := &tracedEndpoint{
		tr:    f.tr,
		inner: f.inner.Attach(id, name),
		inbox: vtime.NewMailbox[transport.Frame](f.tr.rt, "traced-"+name),
	}
	f.tr.mu.Lock()
	f.tr.eps = append(f.tr.eps, e)
	f.tr.mu.Unlock()
	f.tr.rt.Go("traced-pump", e.pump)
	return e
}

func (f *tracedFabric) Kill(id int) { f.inner.Kill(id) }

func (e *tracedEndpoint) pump() {
	for {
		fr, ok := e.inner.Inbox().Recv()
		if !ok {
			e.inbox.Close()
			return
		}
		rec := arriveRec{at: e.inner.ID(), from: fr.From, kind: fr.Kind, t: e.tr.now()}
		rec.key, rec.cum = frameKey(fr.Kind, fr.Data)
		e.mu.Lock()
		e.arrives = append(e.arrives, rec)
		e.mu.Unlock()
		if !e.inbox.Send(fr) {
			return
		}
	}
}

func (e *tracedEndpoint) ID() int                                { return e.inner.ID() }
func (e *tracedEndpoint) Inbox() *vtime.Mailbox[transport.Frame] { return e.inbox }
func (e *tracedEndpoint) Close()                                 { e.inner.Close() }

func (e *tracedEndpoint) Send(to int, kind uint8, data []byte) bool {
	// Decode before the frame is handed over: the receiver may recycle
	// the buffer as soon as it has it.
	rec := sendRec{from: e.inner.ID(), to: to, kind: kind, bytes: len(data)}
	rec.key, _ = frameKey(kind, data)
	rec.t0 = e.tr.now()
	ok := e.inner.Send(to, kind, data)
	rec.t1 = e.tr.now()
	e.mu.Lock()
	e.sends = append(e.sends, rec)
	e.mu.Unlock()
	return ok
}

// frameKey extracts what matches a frame to its answer, with the
// decoders of the wire package.
func frameKey(kind uint8, data []byte) (key, cum uint64) {
	switch kind {
	case wire.KPayload:
		if h, _, err := wire.DecodePayload(data); err == nil {
			return h.SenderClock, 0
		}
	case wire.KEventLog:
		if seq, _, err := wire.DecodeEventLog(data); err == nil {
			return seq, 0
		}
	case wire.KEventAck:
		if seq, cum, err := wire.DecodeEventAck(data); err == nil {
			return seq, cum
		}
	case wire.KCkptChunk:
		if seq, _, _, _, err := wire.DecodeCkptChunk(data); err == nil {
			return seq, 0
		}
	case wire.KCkptChunkAck:
		if seq, _, err := wire.DecodeCkptChunkAck(data); err == nil {
			return seq, 0
		}
	case wire.KCkptSaveAck:
		if seq, err := wire.DecodeU64(data); err == nil {
			return seq, 0
		}
	}
	return 0, 0
}

// appCtx stamps the MPI calls of one rank's app. A nil tracer makes it a
// plain pass-through, so traced and untraced runs share the app code.
type appCtx struct {
	tr    *tracer
	p     *mpi.Proc
	calls []callRec
}

func (t *tracer) app(p *mpi.Proc) *appCtx {
	a := &appCtx{tr: t, p: p}
	if t != nil {
		t.mu.Lock()
		t.apps = append(t.apps, a)
		t.mu.Unlock()
	}
	return a
}

func (a *appCtx) record(op callOp, t0 int64) {
	a.calls = append(a.calls, callRec{rank: a.p.Rank(), op: op, t0: t0, t1: a.tr.now()})
}

func (a *appCtx) send(to, tag int, data []byte) {
	if a.tr == nil {
		a.p.Send(to, tag, data)
		return
	}
	t0 := a.tr.now()
	a.p.Send(to, tag, data)
	a.record(opSend, t0)
}

func (a *appCtx) recv(from, tag int) ([]byte, mpi.Status) {
	if a.tr == nil {
		return a.p.Recv(from, tag)
	}
	t0 := a.tr.now()
	b, st := a.p.Recv(from, tag)
	a.record(opRecv, t0)
	return b, st
}

func (a *appCtx) waitall(rs []*mpi.Request) {
	if a.tr == nil {
		a.p.Waitall(rs)
		return
	}
	t0 := a.tr.now()
	a.p.Waitall(rs)
	a.record(opWaitall, t0)
}

func (a *appCtx) checkpointPoint() {
	if a.tr == nil {
		a.p.CheckpointPoint()
		return
	}
	t0 := a.tr.now()
	a.p.CheckpointPoint()
	a.record(opCkpt, t0)
}

// lap records one of rank 0's timed laps.
func (a *appCtx) lap(n int, t0, t1 time.Time) {
	if a.tr != nil {
		a.calls = append(a.calls, callRec{rank: a.p.Rank(), op: opLap, lap: n,
			t0: int64(t0.Sub(a.tr.base)), t1: int64(t1.Sub(a.tr.base))})
	}
}

// --- analysis --------------------------------------------------------

// traceReport is what a traced run adds to the per-layer metrics.
type traceReport struct {
	laps                         int
	lapUs, flightUs, ackUs       float64 // means per lap; residual is the rest
	flightP50Us, ackWaitP50Us    float64
	sendBusyUs                   float64 // all Send calls, summed
	frames, wireBytes            int64
	callSendP50Us, callRecvP50Us float64
	commitP50Ms                  float64
}

type arrival struct {
	t, sent int64 // arrival and the Send entry it matches; sent < 0 when unmatched
	from    int
}

type submit struct {
	t0, acked int64 // first KEventLog Send entry; quorum-completing ack arrival, -1 if none
}

// analyze walks every lap of rank 0 backwards along the frames that
// unblocked it: from the lap's end to the payload arrival before it,
// across that payload's flight to its Send entry on the sending rank,
// to the arrival that preceded that, and so on to the lap's start. Time
// on the path is flight, event-logger round trips that ended inside a
// rank's segment, or residual (MPI layer, daemon, mailbox hops), so the
// three sum to the lap by construction.
func (t *tracer) analyze(elQuorum, csQuorum int) traceReport {
	t.rt.Wait() // every system is stopped: the pumps have seen their inboxes close
	var rep traceReport
	type pairKey struct {
		from, to int
		key      uint64
	}
	payloadSent := map[pairKey][]int64{}
	logSent := map[pairKey]int64{} // to is unused: first submission of (rank, seq)
	var orders []sendRec
	var flights []float64
	for _, e := range t.eps {
		for _, s := range e.sends {
			rep.sendBusyUs += float64(s.t1-s.t0) / 1e3
			rep.frames++
			rep.wireBytes += int64(s.bytes) + frameHeader
			switch s.kind {
			case wire.KPayload:
				k := pairKey{s.from, s.to, s.key}
				payloadSent[k] = append(payloadSent[k], s.t0)
			case wire.KEventLog:
				k := pairKey{from: s.from, key: s.key}
				if old, ok := logSent[k]; !ok || s.t0 < old {
					logSent[k] = s.t0
				}
			case wire.KCkptOrder:
				orders = append(orders, s)
			}
		}
	}
	arrivals := map[int][]arrival{}
	ackList := map[int][]arriveRec{} // per rank, by arrival time
	saveAcks := map[pairKey][]arriveRec{}
	for _, e := range t.eps {
		for _, a := range e.arrives {
			switch a.kind {
			case wire.KPayload:
				sent := int64(-1)
				for _, s := range payloadSent[pairKey{a.from, a.at, a.key}] {
					if s <= a.t && s > sent {
						sent = s // a resend of the same message: the latest one before the arrival
					}
				}
				if sent >= 0 {
					flights = append(flights, float64(a.t-sent)/1e3)
				}
				arrivals[a.at] = append(arrivals[a.at], arrival{t: a.t, sent: sent, from: a.from})
			case wire.KEventAck:
				ackList[a.at] = append(ackList[a.at], a)
			case wire.KCkptSaveAck:
				k := pairKey{from: a.at, key: a.key}
				saveAcks[k] = append(saveAcks[k], a)
			}
		}
	}
	for r := range ackList {
		sort.Slice(ackList[r], func(i, j int) bool { return ackList[r][i].t < ackList[r][j].t })
	}
	for r := range arrivals {
		sort.Slice(arrivals[r], func(i, j int) bool { return arrivals[r][i].t < arrivals[r][j].t })
	}
	// Quorum time of every submission: the arrival of the ack that made
	// the q-th distinct logger cover its seq, directly or cumulatively.
	submits := map[int][]submit{}
	var ackWaits []float64
	for k, t0 := range logSent {
		covered := map[int]bool{}
		acked := int64(-1)
		as := ackList[k.from]
		for _, a := range as[sort.Search(len(as), func(i int) bool { return as[i].t >= t0 }):] {
			if (a.key != k.key && (a.cum < k.key || a.cum>>32 != k.key>>32)) || covered[a.from] {
				continue
			}
			covered[a.from] = true
			if len(covered) >= elQuorum {
				acked = a.t
				break
			}
		}
		submits[k.from] = append(submits[k.from], submit{t0: t0, acked: acked})
		if acked >= 0 {
			ackWaits = append(ackWaits, float64(acked-t0)/1e3)
		}
	}
	for r := range submits {
		sort.Slice(submits[r], func(i, j int) bool { return submits[r][i].t0 < submits[r][j].t0 })
	}

	var sendCalls, recvCalls []float64
	var sumLap, sumFlight, sumAck float64
	for _, a := range t.apps {
		for _, c := range a.calls {
			switch {
			case c.op == opSend && c.rank == 0:
				sendCalls = append(sendCalls, float64(c.t1-c.t0)/1e3)
			case c.op == opRecv && c.rank == 0:
				recvCalls = append(recvCalls, float64(c.t1-c.t0)/1e3)
			case c.op == opLap:
				flight, ack := walkBack(c.t0, c.t1, arrivals, submits)
				rep.laps++
				sumLap += float64(c.t1 - c.t0)
				sumFlight += float64(flight)
				sumAck += float64(ack)
			}
		}
	}
	if rep.laps > 0 {
		n := float64(rep.laps) * 1e3
		rep.lapUs, rep.flightUs, rep.ackUs = sumLap/n, sumFlight/n, sumAck/n
	}
	rep.flightP50Us = median(flights)
	rep.ackWaitP50Us = median(ackWaits)
	rep.callSendP50Us = median(sendCalls)
	rep.callRecvP50Us = median(recvCalls)

	// Checkpoint commit: the scheduler's order leaving the harness to the
	// full-image ack that completes the write quorum at the ordered rank.
	var commits []float64
	for _, o := range orders {
		best := int64(-1)
		for k, as := range saveAcks {
			if k.from != o.to {
				continue
			}
			sort.Slice(as, func(i, j int) bool { return as[i].t < as[j].t })
			seen := map[int]bool{}
			for _, a := range as {
				seen[a.from] = true
				if len(seen) >= csQuorum {
					if a.t > o.t0 && (best < 0 || a.t < best) {
						best = a.t
					}
					break
				}
			}
		}
		if best >= 0 {
			commits = append(commits, float64(best-o.t0)/1e6)
		}
	}
	rep.commitP50Ms = median(commits)
	return rep
}

// walkBack attributes one lap [t0, t1] of rank 0 along its blocking
// path and returns the time in flight and in event-logger round trips.
func walkBack(t0, t1 int64, arrivals map[int][]arrival, submits map[int][]submit) (flight, ack int64) {
	rank, at := 0, t1
	for hops := 0; at > t0 && hops < 64; hops++ {
		as := arrivals[rank]
		i := sort.Search(len(as), func(i int) bool { return as[i].t >= at }) - 1
		var a arrival
		if i >= 0 {
			a = as[i]
		}
		// Submissions this rank made after that arrival whose quorum ack
		// landed before "at" were waited for in sequence with it:
		// WAITLOGGED holds the next send until they are logged. The
		// arrival may lie in the previous lap (rank 0 logs the reply that
		// ended it and sends again at once); the wait is clipped to this one.
		ss := submits[rank]
		lo, hi := int64(-1), int64(-1)
		for j := sort.Search(len(ss), func(j int) bool { return ss[j].t0 >= a.t }); j < len(ss) && ss[j].t0 < at; j++ {
			if ss[j].acked < 0 || ss[j].acked > at {
				continue
			}
			if lo < 0 {
				lo = max(ss[j].t0, t0)
			}
			hi = max(hi, ss[j].acked)
		}
		if hi > lo && lo >= 0 {
			ack += hi - lo
		}
		if i < 0 || a.t <= t0 || a.sent < 0 {
			break
		}
		flight += a.t - max(a.sent, t0)
		rank, at = a.from, a.sent
	}
	return flight, ack
}

// span is the record written to out/trace-<workload>.json.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Lap     int    `json:"lap"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpanLaps bounds the trace file: spans of the first laps only.
const maxSpanLaps = 200

// writeSpans turns the records of the first laps into spans: each lap
// of rank 0 is the parent of the MPI calls made during it (on any
// rank), each MPI call the parent of the transport sends its rank made
// during it, and each send the parent of its frame's flight.
func (t *tracer) writeSpans(path string) error {
	var spans []span
	add := func(parent, lap int, layer, name string, t0, t1 int64) int {
		spans = append(spans, span{ID: len(spans) + 1, Parent: parent, Lap: lap, Layer: layer, Name: name, StartNS: t0, EndNS: t1})
		return len(spans)
	}
	var laps []callRec
	for _, a := range t.apps {
		for _, c := range a.calls {
			if c.op == opLap && c.lap < maxSpanLaps {
				laps = append(laps, c)
			}
		}
	}
	sort.Slice(laps, func(i, j int) bool { return laps[i].t0 < laps[j].t0 })
	lapOf := func(at int64) (id, lap int) {
		i := sort.Search(len(laps), func(i int) bool { return laps[i].t1 > at })
		if i < len(laps) && laps[i].t0 <= at {
			return i + 1, laps[i].lap
		}
		return 0, -1
	}
	for _, l := range laps {
		add(0, l.lap, "app", "lap", l.t0, l.t1)
	}
	type callSpan struct {
		id     int
		t0, t1 int64
	}
	calls := map[int][]callSpan{}
	for _, a := range t.apps {
		for _, c := range a.calls {
			if c.op == opLap {
				continue
			}
			if parent, lap := lapOf(c.t0); parent != 0 {
				id := add(parent, lap, "mpi", fmt.Sprintf("rank%d.%s", c.rank, opNames[c.op]), c.t0, c.t1)
				calls[c.rank] = append(calls[c.rank], callSpan{id, c.t0, c.t1})
			}
		}
	}
	for r := range calls {
		sort.Slice(calls[r], func(i, j int) bool { return calls[r][i].t0 < calls[r][j].t0 })
	}
	sendSpan := map[[3]uint64]int{} // (from, to, kind<<56|key) → span of the latest send
	for _, e := range t.eps {
		for _, s := range e.sends {
			parent, lap := lapOf(s.t0)
			if parent == 0 {
				continue
			}
			cs := calls[s.from]
			if i := sort.Search(len(cs), func(i int) bool { return cs[i].t1 > s.t0 }); i < len(cs) && cs[i].t0 <= s.t0 {
				parent = cs[i].id
			}
			id := add(parent, lap, "transport", fmt.Sprintf("node%d.send.%s", s.from, wire.KindName(s.kind)), s.t0, s.t1)
			sendSpan[[3]uint64{uint64(s.from), uint64(s.to), uint64(s.kind)<<56 | s.key}] = id
		}
	}
	for _, e := range t.eps {
		for _, a := range e.arrives {
			id, ok := sendSpan[[3]uint64{uint64(a.from), uint64(a.at), uint64(a.kind)<<56 | a.key}]
			if !ok {
				continue
			}
			s := spans[id-1]
			if s.StartNS <= a.t {
				add(id, s.Lap, "transport", fmt.Sprintf("node%d.flight.%s", a.at, wire.KindName(a.kind)), s.StartNS, a.t)
			}
		}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
