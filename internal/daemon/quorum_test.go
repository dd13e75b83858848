package daemon

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpichv/internal/netsim"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// TestQuorumWindow drives the window every service exchange shares, over
// a group of three with write quorum 2 and three requests in flight.
func TestQuorumWindow(t *testing.T) {
	type step struct {
		from      int    // acking node; 0 runs the expiry walk with every slot overdue
		seq, cum  uint64 // the ack
		completed int    // slots the ack brings to quorum
		retired   string // seqs retired so far, in retirement order
		sent      string // what the expiry walk re-sent, as seq→node
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"out-of-order acks retire strictly in submission order", []step{
			{from: 10, seq: 2, retired: "[]"},
			{from: 11, seq: 2, completed: 1, retired: "[]"},
			{from: 10, seq: 3, retired: "[]"},
			{from: 12, seq: 3, completed: 1, retired: "[]"},
			{from: 10, seq: 1, retired: "[]"},
			{from: 11, seq: 1, completed: 1, retired: "[1 2 3]"},
		}},
		{"a cumulative ack completes older slots whose own ack was lost", []step{
			{from: 10, seq: 3, cum: 3, retired: "[]"},
			{from: 11, seq: 2, cum: 2, completed: 2, retired: "[1 2]"},
			{from: 12, seq: 3, cum: 3, completed: 1, retired: "[1 2 3]"},
		}},
		{"duplicate and foreign acks make no progress", []step{
			{from: 10, seq: 1, retired: "[]"},
			{from: 10, seq: 1, retired: "[]"},
			{from: 99, seq: 1, retired: "[]"},
			{from: 99, seq: 3, cum: 3, retired: "[]"},
			{from: 11, seq: 1, completed: 1, retired: "[1]"},
			{from: 12, seq: 1, retired: "[1]"},
		}},
		{"expiry resends only to replicas whose bit is clear", []step{
			{from: 10, seq: 1, retired: "[]"},
			{from: 12, seq: 2, retired: "[]"},
			{retired: "[]", sent: "[1→11 1→12 2→10 2→11 3→10 3→11 3→12]"},
			{from: 11, seq: 3, cum: 3, completed: 2, retired: "[1 2]"},
			{retired: "[1 2]", sent: "[3→10 3→12]"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.NewSim()
			sim.Run(func() {
				d := &V2{rt: sim, timers: make(map[uint64]func()), in: vtime.NewMailbox[dEvent](sim, "d")}
				var sent []string
				var w window[struct{}]
				w.init(d, newReplicaGroup(0, []int{10, 11, 12}, 0), time.Hour, func(s *slot[struct{}], to int) {
					sent = append(sent, fmt.Sprintf("%d→%d", s.seq, to))
				})
				for seq := uint64(1); seq <= 3; seq++ {
					w.push(seq, struct{}{})
				}
				if len(sent) != 9 {
					t.Fatalf("initial sends = %v, want every request at every replica", sent)
				}
				retired := []uint64{}
				retransmits, completed := int64(0), int64(0)
				for i, st := range tc.steps {
					sent = nil
					if st.from == 0 {
						for j := range w.slots {
							w.slots[j].sent = -10 * time.Hour
						}
						retransmits += int64(len(w.slots))
						w.expired()
					} else {
						if got := w.ack(st.from, st.seq, st.cum); got != st.completed {
							t.Errorf("step %d: ack completed %d slots, want %d", i, got, st.completed)
						}
						completed += int64(st.completed)
						w.retire(func(s *slot[struct{}]) { retired = append(retired, s.seq) })
					}
					if got := fmt.Sprint(retired); got != st.retired {
						t.Errorf("step %d: retired %s, want %s", i, got, st.retired)
					}
					if got := fmt.Sprint(sent); st.sent != "" && got != st.sent {
						t.Errorf("step %d: re-sent %s, want %s", i, got, st.sent)
					} else if st.sent == "" && len(sent) > 0 {
						t.Errorf("step %d: an ack sent %v", i, sent)
					}
				}
				if d.stats.Retransmits != retransmits {
					t.Errorf("Retransmits = %d, want %d (one per overdue slot per walk)", d.stats.Retransmits, retransmits)
				}
				if d.stats.QuorumAcks != completed {
					t.Errorf("QuorumAcks = %d, want %d", d.stats.QuorumAcks, completed)
				}
			})
		})
	}
}

// silentCS records the kind of every frame it receives and never acks.
func startSilentCS(sim *vtime.Sim, fab transport.Fabric, id int) *[]uint8 {
	kinds := new([]uint8)
	ep := fab.Attach(id, "silent-cs")
	sim.Go("silent-cs", func() {
		for {
			fr, ok := ep.Inbox().Recv()
			if !ok {
				return
			}
			*kinds = append(*kinds, fr.Kind)
		}
	})
	return kinds
}

func TestCkptEscalatesAfterSilentRounds(t *testing.T) {
	// A transfer the server never acknowledges goes out chunked
	// ckptEscalateAfter times (the push and the retransmit rounds before
	// the threshold), then as the full image in one KCkptSave.
	const csNode = 901
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		kinds := startSilentCS(sim, fab, csNode)
		cfg := v2Config(0, 1, -1)
		cfg.CkptServer = csNode
		dev, d := StartV2(sim, fab, cfg)
		dev.Init()
		dev.Checkpoint([]byte("app"))
		sim.Sleep(5 * time.Second) // three rounds on the 250ms base escalate by ~1.75s

		want := make([]uint8, 0, ckptEscalateAfter+1)
		for i := 0; i < ckptEscalateAfter; i++ {
			want = append(want, wire.KCkptChunk) // the image fits one chunk
		}
		want = append(want, wire.KCkptSave)
		if got := *kinds; len(got) <= len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("frame kinds = %v, want prefix %v", got, want)
		}
		for _, k := range (*kinds)[len(want):] {
			if k != wire.KCkptSave {
				t.Fatalf("a chunk followed the escalation: %v", *kinds)
			}
		}
		if got := d.Stats().ChunkRetransmits; got != ckptEscalateAfter-1 {
			t.Errorf("ChunkRetransmits = %d, want %d", got, ckptEscalateAfter-1)
		}
	})
}

func TestReplicaListWithoutQuorumMeansMajority(t *testing.T) {
	// ELReplicas with ELQuorum 0 used to fall through to "no event
	// logger": nothing logged, nothing gated. It is a group with a
	// majority quorum: every replica gets the event, and WAITLOGGED
	// opens at the second ack of three, not the first.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		els := []*silentEL{startSilentEL(sim, fab, elNode), startSilentEL(sim, fab, elNode+1), startSilentEL(sim, fab, elNode+2)}
		cfg := v2Config(0, 2, -1)
		cfg.ELReplicas = []int{elNode, elNode + 1, elNode + 2}
		dev, d := StartV2(sim, fab, cfg)
		dev.Init()

		injectPayloads(fab.Attach(1, "peer"), 1)
		sim.Sleep(time.Millisecond)
		dev.BRecv()
		sim.Sleep(time.Millisecond)
		for i, el := range els {
			if len(el.seqs) != 1 || el.sizes[0] != 1 {
				t.Fatalf("replica %d got submissions %v×%v, want the one event", i, el.seqs, el.sizes)
			}
		}
		if got := d.Stats().EventsLogged; got != 1 {
			t.Errorf("EventsLogged = %d, want 1", got)
		}
		els[2].ack(0, 1, 0)
		sim.Sleep(time.Millisecond)
		if !d.State().SendBlocked() {
			t.Fatal("WAITLOGGED opened at the first of three acks")
		}
		els[0].ack(0, 1, 0)
		sim.Sleep(time.Millisecond)
		if d.State().SendBlocked() {
			t.Error("WAITLOGGED still closed at the majority ack")
		}
	})
}
