// Package eventlog implements the Event Logger (paper §4.5): a
// repository that stores the dependency information of every message
// reception and serves it back to re-executing nodes.
//
// The paper runs the logger on a single reliable node. This package
// drops that assumption: a logger is a group of R replica Servers with
// *independent* Stores. A daemon submits every event batch to all R
// replicas and treats it as logged once a write quorum Q has acked; a
// replica that crashed and respawned with an empty store rejoins by
// anti-entropy — it pulls the events it is missing, keyed by
// (node, RecvClock) range, from its peers — and restart-time fetches
// merge a read quorum so no quorum-committed event is ever lost even
// while up to Q−1 replicas hold stale state.
//
// Server is the protocol frontend bound to one network endpoint: the
// replica.Server skeleton the checkpoint server shares, plus the submit,
// relay and fetch handlers. Store is the storage behind it, over the
// node's write-ahead log when it has one (walog.Log: a file when
// deployed, a walog.MemFile in the simulator). A respawned node builds
// a fresh Store and replays its log into it. The Store is idempotent
// (duplicate submissions, retransmitted after a lost ack, change
// nothing) so the daemon may retry freely.
package eventlog

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"mpichv/internal/core"
	"mpichv/internal/replica"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/walog"
	"mpichv/internal/wire"
)

// Stats is a consistent snapshot of a Store's counters, taken under
// the store lock so concurrent server frontends never expose a torn
// read.
type Stats struct {
	Logged     int64 // events stored
	Duplicates int64 // events re-submitted and ignored
	Malformed  int64 // frames that failed to decode
	Acks       int64 // submissions acknowledged
	Fetches    int64 // fetch requests served
	Resyncs    int64 // anti-entropy rounds completed into this store
	SyncedIn   int64 // events merged from peers during resync
}

// Store is the stable storage of one event logger replica. It is safe
// for use by several Server frontends.
type Store struct {
	mu sync.Mutex
	// events holds, per computing node id, that node's reception
	// events sorted by RecvClock, one per clock. RecvClock totally
	// orders a node's deliveries (it only grows), so it identifies an
	// event across retransmissions and across incarnations of the node,
	// and submissions arrive nearly in its order: an insert is almost
	// always an append, and a fetch is a search and a copy.
	events map[int][]core.Event

	// wal, when attached, receives every fresh event as an append-only
	// record so a killed logger rejoins with its durable prefix instead
	// of an empty store.
	wal *walog.Writer
	// fresh and rec are addLocked's scratch for the events a submission
	// adds and the WAL record holding them; wal.Append copies rec.
	fresh []core.Event
	rec   []byte

	stats Stats
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{events: make(map[int][]core.Event)}
}

// Stats returns a locked snapshot of the store's counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Add stores a node's events, ignoring any already present, and
// returns how many were new.
func (st *Store) Add(node int, evs []core.Event) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	added := st.addLocked(node, evs, true)
	st.stats.Logged += int64(added)
	return added
}

// addLocked inserts events, optionally counting duplicates. Callers
// hold st.mu.
func (st *Store) addLocked(node int, evs []core.Event, countDups bool) int {
	held := st.events[node]
	added := 0
	fresh := st.fresh[:0]
	for _, ev := range evs {
		if n := len(held); n == 0 || ev.RecvClock > held[n-1].RecvClock {
			held = append(held, ev)
		} else if i, dup := slices.BinarySearchFunc(held, ev.RecvClock, atClock); dup {
			if countDups {
				st.stats.Duplicates++
			}
			continue
		} else {
			held = slices.Insert(held, i, ev)
		}
		added++
		if st.wal != nil {
			fresh = append(fresh, ev)
		}
	}
	if len(fresh) > 0 {
		// A failed (or injection-torn) append is silent, as a real torn
		// write would be; the loader's resync absorbs the damage.
		st.rec = wire.AppendNodeEvents(st.rec[:0], node, fresh)
		st.wal.Append(st.rec)
	}
	st.events[node] = held
	st.fresh = fresh
	return added
}

// atClock orders a stored event against a receive clock.
func atClock(ev core.Event, clock uint64) int { return cmp.Compare(ev.RecvClock, clock) }

// after returns the suffix of held, sorted by RecvClock, above clock.
func after(held []core.Event, clock uint64) []core.Event {
	i, found := slices.BinarySearchFunc(held, clock, atClock)
	if found {
		i++
	}
	return held[i:]
}

// AttachWAL replays the write-ahead log into the store and then arms
// it: every subsequently stored event is appended. torn configures the
// deterministic disk-fault injector (zero value: faults off). Call
// before the store takes traffic.
func (st *Store) AttachWAL(log walog.Log, torn walog.TornConfig) (walog.LoadResult, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w, res, err := log.Replay(torn, func(body []byte) {
		m, err := wire.DecodeNodeEvents(body)
		if err != nil {
			return // an undecodable record is damage the CRC missed: skip it
		}
		for node, evs := range m {
			st.addLocked(node, evs, false)
		}
	})
	if err != nil {
		return res, err
	}
	st.wal = w
	return res, nil
}

// OpenWAL attaches the write-ahead log file at path; see AttachWAL.
func (st *Store) OpenWAL(path string, torn walog.TornConfig) (walog.LoadResult, error) {
	return st.AttachWAL(walog.Path(path), torn)
}

// CloseWAL detaches and closes the write-ahead log, if armed.
func (st *Store) CloseWAL() error {
	st.mu.Lock()
	w := st.wal
	st.wal = nil
	st.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// Events returns a copy of a node's stored events with RecvClock >
// clock, sorted by RecvClock. The order matters: on a chaotic network
// submissions can arrive out of order, and a re-executing node replays
// in clock order.
func (st *Store) Events(node int, clock uint64) []core.Event {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(after(st.events[node], clock))
}

// Count reports the number of events stored for a node.
func (st *Store) Count(node int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.events[node])
}

// Marks returns the per-node RecvClock high-water marks, the request
// half of the anti-entropy exchange: "send me everything above these".
// A fresh (respawned) store returns an empty map and pulls everything.
func (st *Store) Marks() map[int]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	marks := make(map[int]uint64, len(st.events))
	for node, held := range st.events {
		var hi uint64
		if n := len(held); n > 0 {
			hi = held[n-1].RecvClock
		}
		marks[node] = hi
	}
	return marks
}

// Since encodes, per node, every stored event with RecvClock above
// that node's mark (absent nodes mean "from the beginning") — the
// response half of the anti-entropy exchange, encoded under the lock
// because an insert may shift a node's events in place.
func (st *Store) Since(marks map[int]uint64) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[int][]core.Event)
	for node, held := range st.events {
		if evs := after(held, marks[node]); len(evs) > 0 {
			out[node] = evs
		}
	}
	return wire.EncodeNodeEvents(out)
}

// MergeSync folds a peer's sync response into the store. Overlap with
// already-held events is expected (resync is re-entrant) and not
// counted as protocol duplicates.
func (st *Store) MergeSync(data []byte) error {
	m, err := wire.DecodeNodeEvents(data)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	added := 0
	for node, evs := range m {
		added += st.addLocked(node, evs, false)
	}
	st.stats.Logged += int64(added)
	st.stats.SyncedIn += int64(added)
	st.stats.Resyncs++
	return nil
}

// CountMalformed counts one frame that failed to decode.
func (st *Store) CountMalformed() {
	st.mu.Lock()
	st.stats.Malformed++
	st.mu.Unlock()
}

// Server is one event logger replica frontend.
type Server struct {
	*replica.Server
	rt      vtime.Runtime
	ep      transport.Endpoint
	service time.Duration // per-event processing time

	// Store is the stable storage behind this frontend.
	Store *Store

	// cums tracks, per submitting node, the contiguous prefix of batch
	// seqs this replica has stored, so every ack can piggyback a
	// cumulative mark (see ackCum). Touched only by the server actor.
	cums map[int]*cumTracker
}

// cumTracker follows one submitter's contiguous batch-seq prefix. Batch
// seqs are namespaced by incarnation in their high 32 bits; a submitter
// restarting under a new incarnation starts a fresh stream, and marks
// from the old one can never complete batches of the new.
type cumTracker struct {
	cum  uint64              // every batch in (base, cum] is stored
	pend map[uint64]struct{} // stored batches above cum, awaiting the gap
}

// NewServer creates an event logger with its own private store.
// service is the per-event processing time of the logger's host (zero
// for an infinitely fast logger).
func NewServer(rt vtime.Runtime, ep transport.Endpoint, service time.Duration) *Server {
	return NewServerWithStore(rt, ep, service, NewStore())
}

// NewServerWithStore creates an event logger frontend over a store the
// caller built, typically one with its write-ahead log attached.
func NewServerWithStore(rt vtime.Runtime, ep transport.Endpoint, service time.Duration, st *Store) *Server {
	s := &Server{rt: rt, ep: ep, service: service, Store: st, cums: make(map[int]*cumTracker)}
	s.Server = replica.New(rt, ep, role, st, s.handle)
	return s
}

var role = replica.Role{Actor: "event-logger", Resync: "el-resync", SyncReq: wire.KELSyncReq, SyncResp: wire.KELSyncResp}

// ackCum records that the batch with the given seq is now stored and
// returns the submitter's cumulative mark: the highest seq such that
// every batch of the same incarnation up to and including it is stored
// on this replica. The mark rides on the KEventAck, letting a pipelined
// submitter retire older in-flight batches whose own acks were lost.
func (s *Server) ackCum(from int, seq uint64) uint64 {
	t := s.cums[from]
	if t == nil || seq>>32 != t.cum>>32 {
		t = &cumTracker{cum: seq >> 32 << 32, pend: make(map[uint64]struct{})}
		s.cums[from] = t
	}
	if seq > t.cum {
		t.pend[seq] = struct{}{}
		for {
			if _, ok := t.pend[t.cum+1]; !ok {
				break
			}
			t.cum++
			delete(t.pend, t.cum)
		}
	}
	return t.cum
}

// handle serves the logger's own request kinds.
func (s *Server) handle(f transport.Frame) error {
	switch f.Kind {
	case wire.KEventLog:
		seq, evs, err := wire.DecodeEventLog(f.Data)
		if err != nil {
			return err
		}
		s.storeAndAck(f, seq, f.From, evs)
	case wire.KDetRelay:
		// Piggybacked determinants relayed by a receiver on behalf of
		// their origin node: stored under the origin (so the origin's
		// restart fetch finds them) but acked to the relayer on its own
		// seq stream — the same cumulative mark retires relay and
		// KEventLog batches alike.
		seq, origin, evs, err := wire.DecodeDetRelay(f.Data)
		if err != nil {
			return err
		}
		s.storeAndAck(f, seq, origin, evs)
	case wire.KEventFetch:
		h, err := wire.DecodeU64(f.Data)
		if err != nil {
			return err
		}
		s.Store.mu.Lock()
		s.Store.stats.Fetches++
		s.Store.mu.Unlock()
		out := s.Store.Events(f.From, h)
		s.ep.Send(f.From, wire.KEventFetched, wire.EncodeEvents(out))
	}
	return nil
}

// storeAndAck stores a submitted batch's events under node and acks the
// batch's seq, with the submitter's cumulative mark, to the frame's
// sender.
func (s *Server) storeAndAck(f transport.Frame, seq uint64, node int, evs []core.Event) {
	if s.service > 0 {
		s.rt.Sleep(time.Duration(len(evs)) * s.service)
	}
	s.Store.Add(node, evs)
	// Add copied the events out, so the frame's buffer is dead and goes
	// back to the framing pool.
	wire.PutBuf(f.Data)
	// Always ack, even a pure duplicate: the retransmission means the
	// submitter never saw the first ack.
	s.Store.mu.Lock()
	s.Store.stats.Acks++
	s.Store.mu.Unlock()
	cum := s.ackCum(f.From, seq)
	s.ep.Send(f.From, wire.KEventAck, wire.AppendEventAck(wire.GetBuf(16), seq, cum))
}
