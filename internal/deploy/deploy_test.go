package deploy

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mpichv/internal/daemon"
	"mpichv/internal/eventlog"
	"mpichv/internal/mpi"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
)

func TestParseProgramFile(t *testing.T) {
	src := `
# services
el 127.0.0.1:9000
cs 127.0.0.1:9001
sc 127.0.0.1:9002
# computing nodes
cn 127.0.0.1:9100
cn 127.0.0.1:9101
`
	pg, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.CNs()) != 2 {
		t.Fatalf("CNs = %d, want 2", len(pg.CNs()))
	}
	if pg.CNs()[0].ID != 0 || pg.CNs()[1].ID != 1 {
		t.Errorf("CN ranks = %v", pg.CNs())
	}
	if el, ok := pg.Find(RoleEL); !ok || el.ID != ELID {
		t.Errorf("EL = %+v ok=%v", el, ok)
	}
	m := pg.AddrMap()
	if m[0] != "127.0.0.1:9100" || m[ELID] != "127.0.0.1:9000" {
		t.Errorf("addr map = %v", m)
	}
}

func TestParseRejectsBadFiles(t *testing.T) {
	cases := []string{
		"cn 127.0.0.1:9100",             // no event logger
		"el 127.0.0.1:9000",             // no computing node
		"xx 127.0.0.1:9000\ncn a\nel b", // unknown role
		"cn 127.0.0.1:9100 a b c\nel b", // wrong field count
		"el a\nsc b\nsc c\ncn d",        // two schedulers
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad program file %q", src)
		}
	}
}

// TestParseReplicaIDs: repeated el/cs lines form replica groups with
// consecutive ids off the role bases, the role helpers see them, and
// computing-node ranks stay below the service id space.
func TestParseReplicaIDs(t *testing.T) {
	src := `
el 127.0.0.1:9000
el 127.0.0.1:9001
el 127.0.0.1:9002
cs 127.0.0.1:9010
cs 127.0.0.1:9011
sc 127.0.0.1:9020
cn 127.0.0.1:9100
cn 127.0.0.1:9101
`
	pg, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	wantEL := []int{ELID, ELID + 1, ELID + 2}
	if got := pg.IDsOfRole(RoleEL); fmt.Sprint(got) != fmt.Sprint(wantEL) {
		t.Errorf("EL ids = %v, want %v", got, wantEL)
	}
	wantCS := []int{CSID, CSID + 1}
	if got := pg.IDsOfRole(RoleCS); fmt.Sprint(got) != fmt.Sprint(wantCS) {
		t.Errorf("CS ids = %v, want %v", got, wantCS)
	}
	if got := pg.IDsOfRole(RoleSched); len(got) != 1 || got[0] != SchedID {
		t.Errorf("scheduler ids = %v, want [%d]", got, SchedID)
	}
	for id, want := range map[int]Role{0: RoleCN, ELID + 2: RoleEL, CSID + 1: RoleCS, SchedID: RoleSched} {
		if got := pg.RoleOf(id); got != want {
			t.Errorf("RoleOf(%d) = %q, want %q", id, got, want)
		}
	}
	m := pg.AddrMap()
	if m[ELID+1] != "127.0.0.1:9001" || m[CSID+1] != "127.0.0.1:9011" {
		t.Errorf("replica addr map = %v", m)
	}
}

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		out[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return out
}

// TestRealTCPSystem runs an event logger and three V2 computing nodes
// over real loopback TCP in one process, with a token ring application,
// and then kills and recovers one node — the full protocol on the real
// transport, no virtual time. Rank 0 starts alone, so its first token
// always meets a peer that does not listen yet: the refused dial drops
// the frame, and the starvation pull every deployed node arms must
// recover it.
func TestRealTCPSystem(t *testing.T) {
	addrs := freeAddrs(t, 4)
	rt := vtime.NewReal()
	addrMap := map[int]string{ELID: addrs[0], 0: addrs[1], 1: addrs[2], 2: addrs[3]}
	fab := transport.NewTCPFabric(rt, addrMap)

	eventlog.NewServer(rt, fab.Attach(ELID, "event-logger"), 0).Start()

	const n, rounds = 3, 6
	finals := make(chan uint64, n*2)
	ring := func(p *mpi.Proc) {
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		buf := make([]byte, 8)
		var token uint64
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				binary.BigEndian.PutUint64(buf, token+1)
				p.Send(right, 1, buf)
				b, _ := p.Recv(left, 1)
				token = binary.BigEndian.Uint64(b)
			} else {
				b, _ := p.Recv(left, 1)
				token = binary.BigEndian.Uint64(b) + 1
				binary.BigEndian.PutUint64(buf, token)
				p.Send(right, 1, buf)
				if p.Rank() == 1 {
					time.Sleep(5 * time.Millisecond) // slow the ring down
				}
			}
		}
		finals <- token
	}

	spawn := func(rank int, restarted bool) {
		cfg := daemon.Config{
			Rank: rank, Size: n,
			EventLogger: ELID, CkptServer: -1, Scheduler: -1, Dispatcher: -1,
			Restarted: restarted, PullTimeout: pullTimeout,
		}
		dev, _ := daemon.StartV2(rt, fab, cfg)
		rt.Go(fmt.Sprintf("rank%d", rank), func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(daemon.Killed); ok {
						return
					}
					panic(r)
				}
			}()
			p := mpi.Start(dev, rt, mpi.Options{})
			ring(p)
			p.Finalize()
		})
	}

	spawn(0, false)
	time.Sleep(50 * time.Millisecond) // rank 0's first token is refused
	for r := 1; r < n; r++ {
		spawn(r, false)
	}

	// Let rank 1's first pull recover the token and the ring make
	// progress, then "crash" rank 2 and restart it.
	time.Sleep(pullTimeout + 30*time.Millisecond)
	fab.Kill(2)
	time.Sleep(20 * time.Millisecond) // detection delay
	spawn(2, true)

	want := uint64(n * rounds)
	deadline := time.After(20 * time.Second)
	got := map[uint64]int{}
	for i := 0; i < n; i++ {
		select {
		case v := <-finals:
			got[v]++
		case <-deadline:
			t.Fatalf("timeout: only %d ranks finished (%v)", i, got)
		}
	}
	// Every rank's final token must be consistent with a fault-free
	// ring; rank 0 ends at exactly n*rounds.
	if got[want] == 0 {
		t.Errorf("no rank reached the final token %d: %v", want, got)
	}
}
