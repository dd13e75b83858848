package deploy

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/core"
	"mpichv/internal/eventlog"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// A crash mid-quorum left replica 2 holding a stale version of rank 0's
// channel-seq 2; the other two hold the version a restart replays.
var (
	first  = core.Event{Sender: 1, SenderClock: 1, RecvClock: 2, Seq: 1}
	winner = core.Event{Sender: 1, SenderClock: 4, RecvClock: 6, Seq: 2}
	stale  = core.Event{Sender: 1, SenderClock: 4, RecvClock: 5, Seq: 2}
)

// startELGroup serves one event-logger replica per log on loopback TCP,
// replica i's store seeded with logs[i] as rank 0's events, and returns
// the group as the soak's auditor reaches it, plus the fabric whose Kill
// closes a replica's endpoint.
func startELGroup(t *testing.T, logs ...[]core.Event) ([]elEndpoint, *transport.TCPFabric) {
	t.Helper()
	addrs := freeAddrs(t, len(logs))
	els := make([]elEndpoint, len(logs))
	addrMap := make(map[int]string)
	for i, addr := range addrs {
		els[i] = elEndpoint{id: ELID + i, addr: addr}
		addrMap[ELID+i] = addr
	}
	rt := vtime.NewReal()
	fab := transport.NewTCPFabric(rt, addrMap)
	for i, evs := range logs {
		st := eventlog.NewStore()
		st.Add(0, evs)
		eventlog.NewServerWithStore(rt, fab.Attach(els[i].id, "event-logger"), 0, st).Start()
	}
	t.Cleanup(func() {
		for _, el := range els {
			fab.Kill(el.id)
		}
	})
	return els, fab
}

// TestSoakAuditMergesReplicaMajority: the soak's audit of a replica
// group with a divergent slot judges the majority version a restart
// would replay, and counts the stale one as superseded. A union of the
// replies keeps both versions and reads a FIFO violation.
func TestSoakAuditMergesReplicaMajority(t *testing.T) {
	els, _ := startELGroup(t, []core.Event{first, winner}, []core.Event{first, winner}, []core.Event{first, stale})
	rep, hb, err := auditOnce(els, len(els), t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Superseded != 1 || rep.Events != 2 {
		t.Fatalf("%s, want OK with 2 events and 1 superseded", rep.Summary())
	}
	if !hb.OK() {
		t.Fatalf("empty trace: %s", hb.Summary())
	}
}

// TestSoakFetchReadsQuorum: with one of three replicas closed the read
// completes at R−Q+1 = 2 answers; with two closed it fails within its
// timeout.
func TestSoakFetchReadsQuorum(t *testing.T) {
	els, fab := startELGroup(t, []core.Event{first, winner}, []core.Event{first, winner}, []core.Event{first, stale})
	fab.Kill(els[0].id)
	copies, err := fetchELEvents(els, 1, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != 2 {
		t.Fatalf("%d copies, want the 2 live replicas'", len(copies))
	}
	if rep := cluster.Audit(cluster.Result{Deliveries: cluster.MergeReplicaDeliveries(1, copies), ELReplicaDeliveries: copies}); !rep.OK() || rep.Superseded != 1 {
		t.Fatalf("%s, want OK with 1 superseded", rep.Summary())
	}

	fab.Kill(els[1].id)
	const timeout = 1500 * time.Millisecond
	start := time.Now()
	_, err = fetchELEvents(els, 1, 2, timeout)
	if err == nil || !strings.Contains(err.Error(), "of 3 event-logger replicas answered") {
		t.Fatalf("err = %v, want the read-quorum error", err)
	}
	if took := time.Since(start); took > timeout+time.Second {
		t.Fatalf("read-quorum error after %v, timeout %v", took, timeout)
	}
}

// TestSoakFetchOneVotePerReplica: a replica that answers twice is one
// copy in the vote. Counted twice, its stale version would outvote the
// one live honest replica.
func TestSoakFetchOneVotePerReplica(t *testing.T) {
	els, fab := startELGroup(t, []core.Event{first, winner}, nil, nil)
	fab.Kill(els[1].id)
	fab.Kill(els[2].id)
	twice := fab.Attach(els[1].id, "double-answer")
	go func() {
		for {
			f, ok := twice.Inbox().Recv()
			if !ok {
				return
			}
			if f.Kind == wire.KELSyncReq {
				for i := 0; i < 2; i++ {
					twice.Send(f.From, wire.KELSyncResp, wire.EncodeNodeEvents(map[int][]core.Event{0: {first, stale}}))
				}
			}
		}
	}()
	copies, err := fetchELEvents(els, 1, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != 2 {
		t.Fatalf("%d copies, want one per answering replica (2)", len(copies))
	}
	if got := cluster.MergeReplicaDeliveries(1, copies)[0]; !reflect.DeepEqual(got, []core.Event{first, winner}) {
		t.Fatalf("merged view %v, want the tie resolved to the later clock", got)
	}
}
