package replica_test

import (
	"testing"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/eventlog"
	"mpichv/internal/netsim"
	"mpichv/internal/replica"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// service is one store's replica server as the sync exchange sees it:
// the skeleton, and the store's Malformed and Resyncs counters.
type service struct {
	srv   *replica.Server
	stats func() (malformed, resyncs int64)
}

var services = []struct {
	name      string
	req, resp uint8
	empty     []byte // a well-formed sync response that holds nothing
	start     func(rt vtime.Runtime, ep transport.Endpoint) service
}{
	{"event-logger", wire.KELSyncReq, wire.KELSyncResp, wire.EncodeNodeEvents(nil),
		func(rt vtime.Runtime, ep transport.Endpoint) service {
			s := eventlog.NewServer(rt, ep, 0)
			return service{s.Server, func() (int64, int64) { st := s.Store.Stats(); return st.Malformed, st.Resyncs }}
		}},
	{"ckpt-server", wire.KCSSyncReq, wire.KCSSyncResp, wire.EncodeCkptEntries(nil),
		func(rt vtime.Runtime, ep transport.Endpoint) service {
			s := ckpt.NewServer(rt, ep)
			return service{s.Server, func() (int64, int64) { st := s.Store.Stats(); return st.Malformed, st.Resyncs }}
		}},
}

// sim runs fn with a replica endpoint (node 100) and its one peer (node
// 101) on a simulated fabric.
func sim(fn func(s *vtime.Sim, replica, peer transport.Endpoint)) {
	s := vtime.NewSim()
	s.Run(func() {
		fab := transport.NewSimFabric(s, netsim.New(s, netsim.Params2003()), nil)
		fn(s, fab.Attach(100, "replica"), fab.Attach(101, "peer"))
	})
}

func recvKind(t *testing.T, ep transport.Endpoint, kind uint8) {
	t.Helper()
	for {
		f, ok := ep.Inbox().Recv()
		if !ok {
			t.Fatal("inbox closed")
		}
		if f.Kind == kind {
			return
		}
	}
}

// TestSyncErrorPaths drives the skeleton's sync exchange over both
// stores. A malformed sync response is counted and leaves a rejoining
// replica unsynced, and a later well-formed one completes the resync. A
// malformed sync request is counted and gets no answer.
func TestSyncErrorPaths(t *testing.T) {
	// A sync response claiming 2³²−1 entries in a frame that holds none.
	malformed := []byte{0xff, 0xff, 0xff, 0xff}
	for _, c := range services {
		t.Run(c.name+"/response", func(t *testing.T) {
			sim(func(s *vtime.Sim, ep, peer transport.Endpoint) {
				svc := c.start(s, ep)
				svc.srv.Peers, svc.srv.Resync = []int{101}, true
				svc.srv.Start()
				recvKind(t, peer, c.req)
				peer.Send(100, c.resp, malformed)
				s.Sleep(10 * time.Millisecond)
				if bad, resyncs := svc.stats(); bad != 1 || resyncs != 0 || svc.srv.Synced() {
					t.Fatalf("after a malformed response: Malformed=%d Resyncs=%d synced=%v, want 1, 0, false", bad, resyncs, svc.srv.Synced())
				}
				peer.Send(100, c.resp, c.empty)
				s.Sleep(10 * time.Millisecond)
				if bad, resyncs := svc.stats(); bad != 1 || resyncs != 1 || !svc.srv.Synced() {
					t.Fatalf("after a well-formed response: Malformed=%d Resyncs=%d synced=%v, want 1, 1, true", bad, resyncs, svc.srv.Synced())
				}
			})
		})
		t.Run(c.name+"/request", func(t *testing.T) {
			sim(func(s *vtime.Sim, ep, peer transport.Endpoint) {
				svc := c.start(s, ep)
				svc.srv.Start()
				peer.Send(100, c.req, []byte{1})
				peer.Send(100, c.req, wire.EncodeSyncMarks(nil))
				s.Sleep(10 * time.Millisecond)
				answers := 0
				for {
					f, ok := peer.Inbox().TryRecv()
					if !ok {
						break
					}
					if f.Kind == c.resp {
						answers++
					}
				}
				if bad, _ := svc.stats(); bad != 1 || answers != 1 {
					t.Fatalf("Malformed=%d and %d answers, want 1 and 1 (the well-formed request's)", bad, answers)
				}
			})
		})
	}
}
