// Package replica is the server skeleton of the Event Logger (§4.5)
// and the Checkpoint Server (§4.6), each a group of replicas with
// independent stores (DESIGN §8). Server owns the inbox loop, the
// anti-entropy resync of a rejoining replica, the sync exchange,
// Synced, the one-shot Pull and the malformed-frame count;
// eventlog.Server and ckpt.Server embed it and serve their own kinds.
package replica

import (
	"fmt"
	"sync/atomic"
	"time"

	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// Store is the state behind a Server as the anti-entropy exchange sees
// it. What a mark counts (receive clocks, checkpoint seqs) is its own.
type Store interface {
	// Marks returns the per-node high-water marks; empty when fresh.
	Marks() map[int]uint64
	// Since encodes the sync response to marks: everything above them,
	// an absent node meaning "from the start".
	Since(marks map[int]uint64) []byte
	// MergeSync decodes a sync response and folds it in, idempotently;
	// a decode error leaves the store untouched.
	MergeSync(data []byte) error
	CountMalformed() // counts one frame that failed to decode
}

// Role names a service's actors and its two sync frame kinds.
type Role struct {
	Actor    string // the server loop
	Resync   string // the resync requester, before "-<node id>"
	SyncReq  uint8
	SyncResp uint8
}

// Server is one replica frontend.
type Server struct {
	rt     vtime.Runtime
	ep     transport.Endpoint
	role   Role
	store  Store
	handle func(transport.Frame) error

	// Peers are the other replicas of this group; they serve sync
	// requests. Empty for a standalone server.
	Peers []int
	// Resync makes the server pull what it is missing from Peers on
	// startup — set on a respawned replica.
	Resync bool

	synced atomic.Bool
}

// New creates a replica server over st. handle serves every kind but
// the role's sync kinds: it returns a decode error for a malformed
// frame, which the Server counts, and ignores kinds it does not know.
func New(rt vtime.Runtime, ep transport.Endpoint, role Role, st Store, handle func(transport.Frame) error) *Server {
	return &Server{rt: rt, ep: ep, role: role, store: st, handle: handle}
}

// Start runs the server loop as an actor, plus the resync requester if
// the replica is rejoining its group.
func (s *Server) Start() {
	s.rt.Go(s.role.Actor, s.run)
	if s.Resync && len(s.Peers) > 0 {
		s.rt.Go(fmt.Sprintf("%s-%d", s.role.Resync, s.ep.ID()), s.resync)
	} else {
		s.synced.Store(true)
	}
}

// Synced reports whether the server is serving its group's committed
// state: from Start when it has nothing to resync, otherwise once it
// has merged a sync response and its outage window closes.
func (s *Server) Synced() bool { return s.synced.Load() }

// attempts bounds the resync request rounds. A simulated rejoin syncs
// in its first round; out-of-process replicas need the rest, as real
// dials and peer respawns take wall-clock time.
const attempts = 60

// resync re-requests the missing ranges from every peer until at least
// one sync response lands (merges are idempotent, so asking everyone
// and retrying is safe). The marks are snapshotted once, at join time:
// recomputing them after a partial merge could advance past holes a
// stale peer left behind.
func (s *Server) resync() {
	req := wire.EncodeSyncMarks(s.store.Marks())
	bo := transport.Backoff{Base: 5 * time.Millisecond, Seed: uint64(s.ep.ID())}
	for attempt := 0; attempt < attempts && !s.synced.Load(); attempt++ {
		s.ask(req)
		s.rt.Sleep(bo.Delay(attempt))
	}
}

// Pull sends one unretried sync request, with the current marks, to
// every peer: a store's repair for a hole a peer can fill (a checkpoint
// delta whose base it lacks). The sender's own retransmissions keep the
// write live, so one round suffices.
func (s *Server) Pull() { s.ask(wire.EncodeSyncMarks(s.store.Marks())) }

// ask sends the sync request req to every peer.
func (s *Server) ask(req []byte) {
	for _, p := range s.Peers {
		s.ep.Send(p, s.role.SyncReq, req)
	}
}

func (s *Server) run() {
	for {
		f, ok := s.ep.Inbox().Recv()
		if !ok {
			return
		}
		var err error
		switch f.Kind {
		case s.role.SyncReq:
			var marks map[int]uint64
			if marks, err = wire.DecodeSyncMarks(f.Data); err == nil {
				s.ep.Send(f.From, s.role.SyncResp, s.store.Since(marks))
			}
		case s.role.SyncResp:
			if err = s.store.MergeSync(f.Data); err == nil {
				s.synced.Store(true)
			}
		default:
			err = s.handle(f)
		}
		if err != nil {
			s.store.CountMalformed()
		}
	}
}
