package daemon

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpichv/internal/core"
	"mpichv/internal/netsim"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// fakeEL acks event batches after an optional delay, so tests can hold
// the WAITLOGGED barrier open deliberately. Each ack covers its own
// batch only: its cumulative mark is 0, which no batch seq matches.
type fakeEL struct {
	ep    transport.Endpoint
	delay time.Duration
	acked int
}

func startFakeEL(sim *vtime.Sim, fab transport.Fabric, id int, delay time.Duration) *fakeEL {
	f := &fakeEL{ep: fab.Attach(id, "fake-el"), delay: delay}
	sim.Go("fake-el", func() {
		for {
			fr, ok := f.ep.Inbox().Recv()
			if !ok {
				return
			}
			switch fr.Kind {
			case wire.KEventLog:
				seq, evs, err := wire.DecodeEventLog(fr.Data)
				if err != nil {
					continue
				}
				if f.delay > 0 {
					sim.Sleep(f.delay)
				}
				f.acked += len(evs)
				f.ep.Send(fr.From, wire.KEventAck, wire.EncodeEventAck(seq, 0))
			case wire.KEventFetch:
				f.ep.Send(fr.From, wire.KEventFetched, wire.EncodeEvents(nil))
			}
		}
	})
	return f
}

func v2Config(rank, size, el int) Config {
	return Config{Rank: rank, Size: size, EventLogger: el, CkptServer: -1, Scheduler: -1, Dispatcher: -1}
}

const elNode = 900

func TestV2SendRecvBetweenTwoNodes(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		startFakeEL(sim, fab, elNode, 0)
		dev0, _ := StartV2(sim, fab, v2Config(0, 2, elNode))
		dev1, _ := StartV2(sim, fab, v2Config(1, 2, elNode))
		if r, s, _, restarted := dev0.Init(); r != 0 || s != 2 || restarted {
			t.Fatalf("Init = %d %d %v", r, s, restarted)
		}
		dev1.Init()
		done := vtime.NewMailbox[string](sim, "done")
		sim.Go("rank1", func() {
			from, data := dev1.BRecv()
			done.Send(fmt.Sprintf("%d:%s", from, data))
		})
		dev0.BSend(1, []byte("hello"))
		got, _ := done.Recv()
		if got != "0:hello" {
			t.Errorf("received %q", got)
		}
	})
}

func TestV2WaitLoggedBlocksSend(t *testing.T) {
	// With a slow event logger, a node that received a message must
	// not emit until the ack arrives: the second hop of a relay chain
	// is delayed by at least the EL delay.
	const elDelay = 10 * time.Millisecond
	var relayArrival time.Duration
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		startFakeEL(sim, fab, elNode, elDelay)
		dev0, _ := StartV2(sim, fab, v2Config(0, 3, elNode))
		dev1, _ := StartV2(sim, fab, v2Config(1, 3, elNode))
		dev2, _ := StartV2(sim, fab, v2Config(2, 3, elNode))
		dev0.Init()
		dev1.Init()
		dev2.Init()
		done := vtime.NewMailbox[struct{}](sim, "done")
		sim.Go("relay", func() {
			_, data := dev1.BRecv()
			dev1.BSend(2, data) // must wait for the event ack
			done.Send(struct{}{})
		})
		sim.Go("sink", func() {
			dev2.BRecv()
			relayArrival = sim.Now()
			done.Send(struct{}{})
		})
		dev0.BSend(1, []byte("x"))
		done.Recv()
		done.Recv()
	})
	if relayArrival < elDelay {
		t.Errorf("relayed message arrived at %v, before the event-log ack (%v)", relayArrival, elDelay)
	}
}

func TestV2NoGatingAblation(t *testing.T) {
	// Same relay with NoSendGating: the relay leaves immediately.
	const elDelay = 10 * time.Millisecond
	var relayArrival time.Duration
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		startFakeEL(sim, fab, elNode, elDelay)
		cfg0, cfg1, cfg2 := v2Config(0, 3, elNode), v2Config(1, 3, elNode), v2Config(2, 3, elNode)
		cfg1.NoSendGating = true
		dev0, _ := StartV2(sim, fab, cfg0)
		dev1, _ := StartV2(sim, fab, cfg1)
		dev2, _ := StartV2(sim, fab, cfg2)
		dev0.Init()
		dev1.Init()
		dev2.Init()
		done := vtime.NewMailbox[struct{}](sim, "done")
		sim.Go("relay", func() {
			_, data := dev1.BRecv()
			dev1.BSend(2, data)
			done.Send(struct{}{})
		})
		sim.Go("sink", func() {
			dev2.BRecv()
			relayArrival = sim.Now()
			done.Send(struct{}{})
		})
		dev0.BSend(1, []byte("x"))
		done.Recv()
		done.Recv()
	})
	if relayArrival >= elDelay {
		t.Errorf("ungated relay still waited for the event logger (%v)", relayArrival)
	}
}

func TestV2ProbeSemantics(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		startFakeEL(sim, fab, elNode, 0)
		dev0, _ := StartV2(sim, fab, v2Config(0, 3, elNode))
		dev1, d1 := StartV2(sim, fab, v2Config(1, 3, elNode))
		dev0.Init()
		dev1.Init()
		// Rank 2 sends a payload without a channel seq: malformed, never
		// queued, so the first probe still sees an empty queue.
		peer2 := fab.Attach(2, "unsequenced-peer")
		peer2.Send(1, wire.KPayload, wire.EncodePayload(wire.PayloadHeader{SenderClock: 1}, []byte("u")))
		sim.Sleep(time.Millisecond)
		if st := d1.Stats(); st.Malformed != 1 || st.RecvMsgs != 0 {
			t.Errorf("seq 0 payload: Malformed %d, RecvMsgs %d; want 1, 0", st.Malformed, st.RecvMsgs)
		}
		if dev1.NProbe() {
			t.Error("probe true on empty queue")
		}
		dev0.BSend(1, []byte("m"))
		sim.Sleep(time.Millisecond)
		if !dev1.NProbe() {
			t.Error("probe false after arrival")
		}
		dev1.BRecv()
		if dev1.NProbe() {
			t.Error("probe true after consuming the only message")
		}
		if from := d1.State().RestartAnnouncement(2); from != 0 {
			t.Errorf("HR[2] = %d after the seq 0 payload, want 0", from)
		}
		// Two misses and one hit were recorded for replay fidelity.
		if pc := d1.State().ProbeCount(); pc != 1 {
			t.Errorf("probe misses since delivery = %d, want 1", pc)
		}
	})
}

func TestV2GarbageCollectionNote(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		startFakeEL(sim, fab, elNode, 0)
		dev0, d0 := StartV2(sim, fab, v2Config(0, 2, elNode))
		dev1, _ := StartV2(sim, fab, v2Config(1, 2, elNode))
		dev0.Init()
		dev1.Init()
		done := vtime.NewMailbox[struct{}](sim, "done")
		sim.Go("sink", func() {
			for i := 0; i < 3; i++ {
				dev1.BRecv()
			}
			done.Send(struct{}{})
		})
		for i := 0; i < 3; i++ {
			dev0.BSend(1, make([]byte, 100))
		}
		done.Recv()
		if d0.State().LogBytes() != 300 {
			t.Fatalf("log = %d bytes", d0.State().LogBytes())
		}
		// Rank 1 "checkpointed" after delivering all three: clock 3.
		peer := fab.Attach(1, "note-sender") // reuse rank 1's id to fake the note
		peer.Send(0, wire.KCkptNote, wire.EncodeU64(3))
		sim.Sleep(time.Millisecond)
		if d0.State().LogBytes() != 0 {
			t.Errorf("log after GC note = %d bytes", d0.State().LogBytes())
		}
		if d0.Stats().GCFreedBytes != 300 {
			t.Errorf("GCFreedBytes = %d", d0.Stats().GCFreedBytes)
		}
	})
}

func TestV2RestartResendsSaved(t *testing.T) {
	// A live node receives RESTART1 from a restarted peer and must
	// re-send the saved payloads above the announced horizon.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		startFakeEL(sim, fab, elNode, 0)
		dev0, d0 := StartV2(sim, fab, v2Config(0, 2, elNode))
		dev1, _ := StartV2(sim, fab, v2Config(1, 2, elNode))
		dev0.Init()
		dev1.Init()
		done := vtime.NewMailbox[struct{}](sim, "done")
		sim.Go("sink", func() {
			for i := 0; i < 3; i++ {
				dev1.BRecv()
			}
			done.Send(struct{}{})
		})
		for i := 0; i < 3; i++ {
			dev0.BSend(1, []byte{byte(i)})
		}
		done.Recv()

		// "Restart" rank 1: new endpoint, RESTART1 announcing it has
		// delivered only clock 1.
		fab.Kill(1)
		newEp := fab.Attach(1, "restarted")
		newEp.Send(0, wire.KRestart1, wire.EncodeU64(1))
		var resent []transport.Frame
		for len(resent) < 3 {
			f, ok := newEp.Inbox().Recv()
			if !ok {
				t.Fatal("endpoint closed")
			}
			if f.Kind == wire.KRestart2 || f.Kind == wire.KPayload {
				resent = append(resent, f)
			}
		}
		if resent[0].Kind != wire.KRestart2 {
			t.Errorf("first reply kind = %d, want RESTART2", resent[0].Kind)
		}
		var clocks []uint64
		for _, f := range resent[1:] {
			hdr, body, err := wire.DecodePayload(f.Data)
			if err != nil {
				t.Fatal(err)
			}
			clocks = append(clocks, hdr.SenderClock)
			if len(body) != 1 {
				t.Errorf("resent body %v", body)
			}
		}
		if len(clocks) != 2 || clocks[0] != 2 || clocks[1] != 3 {
			t.Errorf("resent clocks = %v, want [2 3]", clocks)
		}
		if d0.Stats().Resent != 2 {
			t.Errorf("Resent stat = %d", d0.Stats().Resent)
		}
	})
}

// TestV2StallsAtELHighWater: with the event logger silent, a receiver
// stops delivering once elHighWater determinants are pending, stays
// stalled until cumulative acks drain the backlog to half of that, and
// then delivers every remaining message.
func TestV2StallsAtELHighWater(t *testing.T) {
	const msgs = elHighWater + 88
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		el := fab.Attach(elNode, "silent-el") // receives batches, acks only when told
		dev0, d0 := StartV2(sim, fab, v2Config(0, 2, elNode))
		dev1, _ := StartV2(sim, fab, v2Config(1, 2, elNode))
		dev0.Init()
		dev1.Init()
		delivered := 0
		sim.Go("rank0", func() {
			for i := 0; i < msgs; i++ {
				dev0.BRecv()
				delivered++
			}
		})
		for i := 0; i < msgs; i++ {
			dev1.BSend(0, []byte{byte(i)})
		}
		// One batch per determinant (ELWindow 0): batch seq k carries the
		// k-th delivery, and acking through k leaves delivered-k pending.
		ackThrough := func(seq uint64) {
			el.Send(0, wire.KEventAck, wire.EncodeEventAck(seq, seq))
			sim.Sleep(10 * time.Millisecond)
		}
		sim.Sleep(50 * time.Millisecond)
		if st := d0.Stats(); delivered != elHighWater || st.DegradedStalls != 1 || st.DegradedResumes != 0 {
			t.Fatalf("silent logger: delivered %d, stalls %d, resumes %d; want %d, 1, 0",
				delivered, st.DegradedStalls, st.DegradedResumes, elHighWater)
		}
		// A KEventAck is exactly 16 bytes: an 8-byte one (a truncated
		// ack) is malformed and credits nothing, not even batch 1.
		el.Send(0, wire.KEventAck, wire.EncodeU64(1))
		sim.Sleep(10 * time.Millisecond)
		if st, n := d0.Stats(), d0.State().UnackedEvents(); st.Malformed != 1 || n != elHighWater {
			t.Fatalf("8-byte ack: Malformed %d, unacked %d; want 1, %d", st.Malformed, n, elHighWater)
		}
		ackThrough(elHighWater/2 - 1) // elHighWater/2 + 1 pending: still stalled
		if n := d0.State().UnackedEvents(); n != elHighWater/2+1 {
			t.Fatalf("16-byte ack through %d: %d unacked, want %d", elHighWater/2-1, n, elHighWater/2+1)
		}
		if st := d0.Stats(); delivered != elHighWater || st.DegradedResumes != 0 {
			t.Fatalf("%d pending: delivered %d, resumes %d; want the stall held", elHighWater/2+1, delivered, st.DegradedResumes)
		}
		ackThrough(elHighWater / 2) // elHighWater/2 pending: resumes
		ackThrough(msgs)
		if st := d0.Stats(); delivered != msgs || st.DegradedStalls != 1 || st.DegradedResumes != 1 {
			t.Errorf("after the acks: delivered %d, stalls %d, resumes %d; want %d, 1, 1",
				delivered, st.DegradedStalls, st.DegradedResumes, msgs)
		}
		fab.Kill(0)
		fab.Kill(1)
		el.Close()
	})
}

func TestP4DirectDelivery(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		cfg0 := Config{Rank: 0, Size: 2, EventLogger: -1, CkptServer: -1, Scheduler: -1, Dispatcher: -1}
		cfg1 := cfg0
		cfg1.Rank = 1
		dev0, _ := StartP4(sim, fab, cfg0, 11.3e6)
		dev1, d1 := StartP4(sim, fab, cfg1, 11.3e6)
		dev0.Init()
		dev1.Init()
		done := vtime.NewMailbox[time.Duration](sim, "done")
		sim.Go("sink", func() {
			dev1.BRecv()
			done.Send(sim.Now())
		})
		dev0.BSend(1, make([]byte, 0))
		at, _ := done.Recv()
		// One-way 0-byte latency is the calibrated 77µs.
		if at < 70*time.Microsecond || at > 90*time.Microsecond {
			t.Errorf("P4 one-way = %v", at)
		}
		if d1.Stats().RecvMsgs != 1 {
			t.Errorf("recv msgs = %d", d1.Stats().RecvMsgs)
		}
	})
}

func TestP4DriverBusyDuringSend(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		cfg := Config{Rank: 0, Size: 2, EventLogger: -1, CkptServer: -1, Scheduler: -1, Dispatcher: -1}
		dev0, _ := StartP4(sim, fab, cfg, 1e6) // 1 MB/s driver
		dev0.Init()
		t0 := sim.Now()
		dev0.BSend(1, make([]byte, 100_000)) // 100ms of driver occupancy
		if busy := sim.Now() - t0; busy < 100*time.Millisecond {
			t.Errorf("BSend returned after %v; the driver should be busy for the transmission", busy)
		}
	})
}

func TestChannelMemoryOrderingAndProbe(t *testing.T) {
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		cm := StartChannelMemory(sim, fab, 500)
		sender := fab.Attach(10, "sender")
		recvr := fab.Attach(11, "recvr")

		// Probe while empty.
		recvr.Send(500, wire.KCMGet, []byte{wire.CMGetProbe})
		f, _ := recvr.Inbox().Recv()
		if present, _, _, _ := wire.DecodeCMMsg(f.Data); present {
			t.Error("probe on empty CM reported a message")
		}

		// Store two messages for node 11; they must come back in order.
		sender.Send(500, wire.KCMPut, wire.EncodeCMPut(11, []byte("first")))
		sender.Send(500, wire.KCMPut, wire.EncodeCMPut(11, []byte("second")))
		sim.Sleep(time.Millisecond)
		for _, want := range []string{"first", "second"} {
			recvr.Send(500, wire.KCMGet, []byte{wire.CMGetBlock})
			f, _ := recvr.Inbox().Recv()
			present, from, data, err := wire.DecodeCMMsg(f.Data)
			if err != nil || !present || from != 10 || string(data) != want {
				t.Errorf("got (%v,%d,%q,%v), want %q from 10", present, from, data, err, want)
			}
		}
		if cm.Stored != 2 {
			t.Errorf("Stored = %d", cm.Stored)
		}
	})
}

func TestChannelMemoryBlockingGet(t *testing.T) {
	// A blocking get posted before any message is parked and answered
	// on arrival.
	sim := vtime.NewSim()
	sim.Run(func() {
		fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
		StartChannelMemory(sim, fab, 500)
		sender := fab.Attach(10, "sender")
		recvr := fab.Attach(11, "recvr")
		recvr.Send(500, wire.KCMGet, []byte{wire.CMGetBlock})
		sim.Sleep(5 * time.Millisecond)
		sender.Send(500, wire.KCMPut, wire.EncodeCMPut(11, []byte("late")))
		f, _ := recvr.Inbox().Recv()
		present, _, data, _ := wire.DecodeCMMsg(f.Data)
		if !present || string(data) != "late" {
			t.Errorf("parked get answered with (%v,%q)", present, data)
		}
	})
}

func TestV2DiskSpillSlowsLogging(t *testing.T) {
	// Past the memory budget, logging pays the disk penalty (the LU
	// effect, §5.2).
	elapsed := func(memLimit int64) time.Duration {
		var d time.Duration
		sim := vtime.NewSim()
		sim.Run(func() {
			fab := transport.NewSimFabric(sim, netsim.New(sim, netsim.Params2003()), nil)
			startFakeEL(sim, fab, elNode, 0)
			cfg := v2Config(0, 2, elNode)
			cfg.Cost.LogCopyPerByte = 5 * time.Nanosecond
			cfg.Cost.DiskCopyPerByte = 67 * time.Nanosecond
			cfg.Cost.LogMemLimit = memLimit
			dev, _ := StartV2(sim, fab, cfg)
			dev.Init()
			t0 := sim.Now()
			for i := 0; i < 10; i++ {
				dev.BSend(1, make([]byte, 100_000))
			}
			d = sim.Now() - t0
		})
		return d
	}
	fast := elapsed(1 << 30) // never spills
	slow := elapsed(100_000) // spills after the first message
	if slow <= fast {
		t.Errorf("disk spill did not slow logging: mem=%v disk=%v", fast, slow)
	}
}

// TestConfigHarnessFields pins the Config fields the wall-clock
// benchmark harness (benchmarks/stack, its own module) sets, with their
// types: the twelve of its README's surface rule plus DetMode, which one
// rung sets. Removing or retyping one fails here, before the harness
// build.
func TestConfigHarnessFields(t *testing.T) {
	want := map[string]string{
		"Rank": "int", "Size": "int",
		"EventLogger": "int", "CkptServer": "int", "Scheduler": "int", "Dispatcher": "int",
		"ELReplicas": "[]int", "ELQuorum": "int", "CSReplicas": "[]int", "CSQuorum": "int",
		"Restarted": "bool", "Incarnation": "uint64",
		"DetMode": "int",
	}
	cfg := reflect.TypeOf(Config{})
	for name, typ := range want {
		f, ok := cfg.FieldByName(name)
		if !ok {
			t.Errorf("Config has no field %s", name)
			continue
		}
		if got := f.Type.String(); got != typ {
			t.Errorf("Config.%s is %s, want %s", name, got, typ)
		}
	}
}

func TestV2StateAccessors(t *testing.T) {
	st := core.NewState(3)
	if st.Rank() != 3 {
		t.Errorf("rank = %d", st.Rank())
	}
}
