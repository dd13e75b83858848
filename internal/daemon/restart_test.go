package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpichv/internal/ckpt"
	"mpichv/internal/core"
	"mpichv/internal/eventlog"
	"mpichv/internal/netsim"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// tapFabric records every frame its endpoints send and can hold some
// back: hold returns whether to drop the frame, or how long to delay it.
type tapFabric struct {
	transport.Fabric
	rt   vtime.Runtime
	hold func(from, to int, kind uint8) (drop bool, delay time.Duration)

	mu   sync.Mutex
	sent []tapped
}

type tapped struct {
	at       time.Duration
	from, to int
	kind     uint8
}

type tapEndpoint struct {
	transport.Endpoint
	fab *tapFabric
}

func (f *tapFabric) Attach(id int, name string) transport.Endpoint {
	return tapEndpoint{f.Fabric.Attach(id, name), f}
}

func (e tapEndpoint) Send(to int, kind uint8, data []byte) bool {
	f := e.fab
	f.mu.Lock()
	f.sent = append(f.sent, tapped{f.rt.Now(), e.ID(), to, kind})
	f.mu.Unlock()
	if f.hold != nil {
		drop, delay := f.hold(e.ID(), to, kind)
		if drop {
			return true
		}
		if delay > 0 {
			f.rt.Go("tap-delay", func() {
				f.rt.Sleep(delay)
				e.Endpoint.Send(to, kind, data)
			})
			return true
		}
	}
	return e.Endpoint.Send(to, kind, data)
}

// count returns how many frames of kind rank from sent to each node.
func (f *tapFabric) count(from int, kind uint8) map[int]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[int]int{}
	for _, s := range f.sent {
		if s.from == from && s.kind == kind {
			out[s.to]++
		}
	}
	return out
}

// first returns when rank from first sent a frame of kind.
func (f *tapFabric) first(from int, kind uint8) (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sent {
		if s.from == from && s.kind == kind {
			return s.at, true
		}
	}
	return 0, false
}

// Node ids of the restart rig's service plane.
var (
	rigELs = []int{1000, 1001, 1002}
	rigCSs = []int{1100, 1101}
)

// restartRig is rank 0 about to restart next to a live rank 1: rank 0's
// checkpoint image (app bytes of app state, receive clock rigClock) on
// the checkpoint servers css, n determinants of receptions from rank 1
// above that clock on the event-logger replicas els, and rank 1 holding
// the n payloads they name in its SAVED log.
type restartRig struct {
	rt       vtime.Runtime
	fab      transport.Fabric
	els, css []int
	app      []byte
	n        int
}

const rigClock = 10

// image encodes rank 0's checkpoint seq, taken at receive clock h.
func (r *restartRig) image(seq, h uint64) []byte {
	sn := &core.Snapshot{Rank: 0, H: h}
	return ckpt.AppendImage(nil, &ckpt.Image{Rank: 0, Seq: seq, AppState: r.app, Proto: core.AppendSnapshot(nil, sn)})
}

func newRestartRig(rt vtime.Runtime, fab transport.Fabric, els, css []int, appBytes, n, payload int) *restartRig {
	r := &restartRig{rt: rt, fab: fab, els: els, css: css, app: bytes.Repeat([]byte{0xa5}, appBytes), n: n}
	img := r.image(1, rigClock)
	for _, id := range css {
		st := ckpt.NewStore()
		st.Accept(0, 1, img)
		srv := ckpt.NewServerWithStore(rt, fab.Attach(id, fmt.Sprintf("cs%d", id)), st)
		srv.Start()
	}
	evs := make([]core.Event, n)
	for i := range evs {
		c := uint64(i + 1)
		evs[i] = core.Event{Sender: 1, SenderClock: c, RecvClock: rigClock + c, Seq: c}
	}
	for _, id := range els {
		st := eventlog.NewStore()
		st.Add(0, evs)
		eventlog.NewServerWithStore(rt, fab.Attach(id, fmt.Sprintf("el%d", id)), 0, st).Start()
	}
	_, peer := StartV2(rt, fab, r.config(1, 0))
	for i := 0; i < n; i++ {
		data := make([]byte, payload)
		binary.BigEndian.PutUint64(data, uint64(i+1))
		peer.State().PrepareSend(0, 0, data)
	}
	return r
}

func (r *restartRig) config(rank int, inc uint64) Config {
	cfg := v2Config(rank, 2, -1)
	// Write quorum 1 makes the read quorum both servers, so the chunks
	// come from both.
	cfg.ELReplicas, cfg.CSReplicas, cfg.CSQuorum = r.els, r.css, 1
	cfg.Incarnation, cfg.Restarted = inc, inc > 0
	return cfg
}

// restart brings rank 0 back as incarnation inc and replays every
// logged reception, failing unless each carries the payload rank 1 saved
// for it.
func (r *restartRig) restart(tb testing.TB, inc uint64, tr *trace.Recorder) *V2 {
	cfg := r.config(0, inc)
	cfg.Tracer = tr
	dev, d := StartV2(r.rt, r.fab, cfg)
	if _, _, app, restarted := dev.Init(); !restarted || !bytes.Equal(app, r.app) {
		tb.Fatalf("restarted=%v with %d bytes of app state, want the %d checkpointed", restarted, len(app), len(r.app))
	}
	for i := 0; i < r.n; i++ {
		from, data := dev.BRecv()
		if from != 1 || len(data) < 8 || binary.BigEndian.Uint64(data) != uint64(i+1) {
			tb.Fatalf("replayed delivery %d: %d bytes from rank %d", i, len(data), from)
		}
	}
	return d
}

// phaseTimes returns when each restart phase of tr ended.
func phaseTimes(tr *trace.Recorder) map[uint64]time.Duration {
	out := map[uint64]time.Duration{}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EvRestartPhase {
			out[ev.A] = ev.T
		}
	}
	return out
}

// TestRestartIsOneRequestPerReplica: on a loss-free fabric a restart
// sends each checkpoint server one manifest request and one chunk
// request, each event-logger replica one event fetch — sent with the
// chunk requests, before the image is restored — and RESTART1 leaves
// before the determinants are merged: the event replies, held back here,
// are still travelling when the peer is asked to re-send.
func TestRestartIsOneRequestPerReplica(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := &tapFabric{Fabric: transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil), rt: sim}
		fab.hold = func(from, to int, kind uint8) (bool, time.Duration) {
			if kind == wire.KEventFetched {
				return false, 10 * time.Millisecond
			}
			return false, 0
		}
		rig := newRestartRig(sim, fab, rigELs, rigCSs, 64<<10, 50, 64)
		tr := trace.NewRecorder(0, 0)
		d := rig.restart(t, 1, tr)

		for _, c := range []struct {
			kind  uint8
			nodes []int
		}{{wire.KCkptManifestReq, rigCSs}, {wire.KCkptChunkFetch, rigCSs}, {wire.KEventFetch, rigELs}} {
			got := fab.count(0, c.kind)
			for _, id := range c.nodes {
				if got[id] != 1 {
					t.Errorf("%s requests per replica %v, want one to each of %v", wire.KindName(c.kind), got, c.nodes)
					break
				}
			}
		}
		if st := d.Stats(); st.Retransmits != 0 || st.DegradedReads != 0 || st.Replayed != int64(rig.n) {
			t.Errorf("Retransmits=%d DegradedReads=%d Replayed=%d on a loss-free fabric, want 0, 0 and %d",
				st.Retransmits, st.DegradedReads, st.Replayed, rig.n)
		}
		asked, _ := fab.first(0, wire.KEventFetch)
		announced, _ := fab.first(0, wire.KRestart1)
		phases := phaseTimes(tr)
		if !(asked < phases[trace.PhaseImage]) {
			t.Errorf("event fetch sent at %v, image restored at %v: want the fetch beside the chunks", asked, phases[trace.PhaseImage])
		}
		if !(announced < phases[trace.PhaseEvents]) {
			t.Errorf("RESTART1 sent at %v, events merged at %v: want RESTART1 first", announced, phases[trace.PhaseEvents])
		}
		fab.Kill(0)
		fab.Kill(1)
	})
}

// TestRestartRefetchesDroppedEarlyEventReply: the first reply of one
// event-logger replica — an answer to the fetch sent beside the chunk
// requests — is lost. The event gather asks that replica again and the
// restart completes with every determinant.
func TestRestartRefetchesDroppedEarlyEventReply(t *testing.T) {
	for _, lost := range rigELs {
		t.Run(fmt.Sprint(lost), func(t *testing.T) {
			sim := vtime.NewSim()
			sim.Run(func() {
				fab := &tapFabric{Fabric: transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil), rt: sim}
				dropped := false
				fab.hold = func(from, to int, kind uint8) (bool, time.Duration) {
					if from == lost && kind == wire.KEventFetched && !dropped {
						dropped = true
						return true, 0
					}
					return false, 0
				}
				rig := newRestartRig(sim, fab, rigELs, rigCSs, 4<<10, 20, 64)
				d := rig.restart(t, 1, nil)
				if !dropped {
					t.Fatal("no event reply was dropped")
				}
				got := fab.count(0, wire.KEventFetch)
				for _, id := range rigELs {
					want := 1
					if id == lost {
						want = 2
					}
					// The read quorum (2 of 3) may settle before the lost
					// replica is asked again.
					if got[id] > want {
						t.Errorf("event fetches per replica %v, want one (two to %d at most)", got, lost)
					}
				}
				if st := d.Stats(); st.DegradedReads != 0 {
					t.Errorf("DegradedReads = %d, want 0", st.DegradedReads)
				}
				fab.Kill(0)
				fab.Kill(1)
			})
		})
	}
}

// TestRestartRefetchesDroppedEarlyReplyFromLoneLogger: with one event
// logger the fetch cannot settle without its reply (floor 1); losing the
// early one must lead to a second request, not a wait without end.
func TestRestartRefetchesDroppedEarlyReplyFromLoneLogger(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := &tapFabric{Fabric: transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil), rt: sim}
		dropped := false
		fab.hold = func(from, to int, kind uint8) (bool, time.Duration) {
			if kind == wire.KEventFetched && !dropped {
				dropped = true
				return true, 0
			}
			return false, 0
		}
		rig := newRestartRig(sim, fab, rigELs[:1], rigCSs, 4<<10, 20, 64)
		rig.restart(t, 1, nil)
		if got := fab.count(0, wire.KEventFetch)[rigELs[0]]; got != 2 {
			t.Errorf("%d event fetches to the lone logger, want 2", got)
		}
		fab.Kill(0)
		fab.Kill(1)
	})
}

// TestRestartFromOlderImageRefetchesEvents: the first manifest names an
// image whose chunks never come, and the manifests gathered again name
// an older one, taken at a lower clock. The event fetch that went out
// with the first manifest asked above the newer image's clock; its
// replies lack determinants the older image needs, so they are
// discarded and the fetch asks again at the restored clock. The replay
// then delivers every logged reception.
func TestRestartFromOlderImageRefetchesEvents(t *testing.T) {
	const csNode = 1150
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := &tapFabric{Fabric: transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil), rt: sim}
		rig := newRestartRig(sim, fab, rigELs, nil, 4<<10, 20, 64)
		rig.css = []int{csNode}
		older := ckpt.NewStore()
		older.Accept(0, 1, rig.image(1, rigClock))
		newer := ckpt.NewStore()
		newer.Accept(0, 2, rig.image(2, rigClock+5))
		ep := fab.Attach(csNode, "fake-cs")
		manifests := 0
		sim.Go("fake-cs", func() {
			for {
				f, ok := ep.Inbox().Recv()
				if !ok {
					return
				}
				switch f.Kind {
				case wire.KCkptManifestReq:
					// Seq 2 first, whose chunks never come; then seq 1.
					size, _ := wire.DecodeU32(f.Data)
					st := older
					if manifests++; manifests == 1 {
						st = newer
					}
					ep.Send(f.From, wire.KCkptManifest, wire.EncodeCkptManifest(st.Manifest(0, size)))
				case wire.KCkptChunkFetch:
					seq, first, count, size, _ := wire.DecodeCkptChunkFetch(f.Data)
					if seq == 1 {
						transport.SendFrames(ep, f.From, wire.KCkptChunkData, older.ChunkRun(0, seq, first, count, size))
					}
				}
			}
		})
		d := rig.restart(t, 1, nil)
		if st := d.Stats(); st.ManifestFetches != 2 || st.Replayed != int64(rig.n) || st.ReplayDropped != 0 {
			t.Errorf("ManifestFetches=%d Replayed=%d ReplayDropped=%d, want 2, %d and 0",
				st.ManifestFetches, st.Replayed, st.ReplayDropped, rig.n)
		}
		if got := fab.count(0, wire.KEventFetch); got[rigELs[0]] != 2 {
			t.Errorf("event fetches per replica %v, want two to each: above the newer clock, then above the restored one", got)
		}
		fab.Kill(0)
		fab.Kill(1)
		ep.Close()
	})
}

// BenchmarkRestart prices one restart on the in-memory fabric with real
// event-logger and checkpoint servers: a 1 MiB app state to fetch, 2 000
// logged receptions to fetch and replay, and a peer re-sending the 2 000
// 1 KiB payloads they name from its SAVED log. One op is from the
// respawn to the last replayed delivery.
func BenchmarkRestart(b *testing.B) {
	rt := vtime.NewReal()
	fab := transport.NewMemFabric(rt)
	rig := newRestartRig(rt, fab, rigELs, rigCSs, 1<<20, 2000, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.restart(b, uint64(i+1), nil)
		fab.Kill(0)
	}
}
