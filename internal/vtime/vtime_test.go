package vtime

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSimSleepAdvancesClock(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		if s.Now() != 0 {
			t.Errorf("initial Now() = %v, want 0", s.Now())
		}
		s.Sleep(10 * time.Millisecond)
		if got := s.Now(); got != 10*time.Millisecond {
			t.Errorf("Now() after sleep = %v, want 10ms", got)
		}
		s.Sleep(0)
		if got := s.Now(); got != 10*time.Millisecond {
			t.Errorf("Now() after zero sleep = %v, want 10ms", got)
		}
	})
}

func TestSimSleepOrdering(t *testing.T) {
	s := NewSim()
	var order []string
	s.Run(func() {
		done := NewMailbox[string](s, "done")
		s.Go("slow", func() {
			s.Sleep(20 * time.Millisecond)
			done.Send("slow")
		})
		s.Go("fast", func() {
			s.Sleep(5 * time.Millisecond)
			done.Send("fast")
		})
		for i := 0; i < 2; i++ {
			v, ok := done.Recv()
			if !ok {
				t.Fatal("mailbox closed early")
			}
			order = append(order, v)
		}
	})
	if order[0] != "fast" || order[1] != "slow" {
		t.Errorf("wake order = %v, want [fast slow]", order)
	}
}

func TestSimVirtualTimeIsFast(t *testing.T) {
	s := NewSim()
	start := time.Now()
	s.Run(func() {
		s.Sleep(1000 * time.Hour) // a virtual year of idling costs nothing
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("simulating 1000h took %v of wall time", elapsed)
	}
	if s.Now() != 1000*time.Hour {
		t.Errorf("Now() = %v, want 1000h", s.Now())
	}
}

// TestMailboxFIFO: order holds across bursts that partly drain, refill
// behind the remaining tail and drain to empty — the queue states a
// drained-queue reslice must not reorder — in both runtimes, through
// both Recv and TryRecv.
func TestMailboxFIFO(t *testing.T) {
	check := func(t *testing.T, rt Runtime) {
		mb := NewMailbox[int](rt, "fifo")
		sent, want := 0, 0
		recv := func(n int, try bool) {
			for ; n > 0; n-- {
				var v int
				var ok bool
				if try {
					v, ok = mb.TryRecv()
				} else {
					v, ok = mb.Recv()
				}
				if !ok || v != want {
					t.Fatalf("receive #%d = (%d,%v), want (%d,true)", want, v, ok, want)
				}
				want++
			}
		}
		for round, burst := range []int{100, 1, 3, 1, 7, 2, 64, 5} {
			for i := 0; i < burst; i++ {
				mb.Send(sent)
				sent++
			}
			recv(burst/2, round%2 == 0)
			mb.Send(sent)
			sent++
			recv(sent-want, round%2 == 1)
			if mb.Len() != 0 {
				t.Fatalf("round %d: Len = %d after draining, want 0", round, mb.Len())
			}
		}
		if _, ok := mb.TryRecv(); ok {
			t.Error("TryRecv on empty mailbox reported ok")
		}
		// A hop through a drained mailbox reuses its array.
		if a := testing.AllocsPerRun(100, func() { mb.Send(0); mb.Recv() }); a != 0 {
			t.Errorf("Send+Recv on a drained mailbox: %.1f allocs, want 0", a)
		}
	}
	t.Run("sim", func(t *testing.T) {
		s := NewSim()
		s.Run(func() { check(t, s) })
	})
	t.Run("real", func(t *testing.T) { check(t, NewReal()) })
}

func TestMailboxSendAfterDeliversInTimeOrder(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		mb := NewMailbox[int](s, "timed")
		mb.SendAfter(30*time.Millisecond, 3)
		mb.SendAfter(10*time.Millisecond, 1)
		mb.SendAfter(20*time.Millisecond, 2)
		for want := 1; want <= 3; want++ {
			v, ok := mb.Recv()
			if !ok || v != want {
				t.Fatalf("Recv = (%d,%v), want (%d,true)", v, ok, want)
			}
			if got, wantT := s.Now(), time.Duration(want)*10*time.Millisecond; got != wantT {
				t.Errorf("delivery %d at %v, want %v", want, got, wantT)
			}
		}
	})
}

func TestMailboxCloseWakesReceiver(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		mb := NewMailbox[int](s, "closing")
		s.Go("closer", func() {
			s.Sleep(time.Millisecond)
			mb.Close()
		})
		if _, ok := mb.Recv(); ok {
			t.Error("Recv on closed mailbox reported ok")
		}
		if !mb.Closed() {
			t.Error("Closed() = false after Close")
		}
	})
}

func TestMailboxSendToClosedDropped(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		mb := NewMailbox[int](s, "dead")
		mb.Close()
		if mb.Send(1) {
			t.Error("Send to closed mailbox reported true")
		}
		mb.SendAfter(time.Millisecond, 2)
		s.Sleep(2 * time.Millisecond)
		if mb.Len() != 0 {
			t.Errorf("Len = %d after sends to closed mailbox, want 0", mb.Len())
		}
	})
}

func TestSimDeterminism(t *testing.T) {
	// Two identical runs with many interleaved actors must produce the
	// same event trace with the same virtual timestamps.
	run := func() []string {
		s := NewSim()
		var trace []string
		s.Run(func() {
			out := NewMailbox[string](s, "out")
			for i := 0; i < 8; i++ {
				i := i
				s.Go("worker", func() {
					for j := 0; j < 5; j++ {
						s.Sleep(time.Duration(1+(i*7+j*3)%11) * time.Millisecond)
						out.Send(string(rune('a'+i)) + string(rune('0'+j)))
					}
				})
			}
			for k := 0; k < 40; k++ {
				v, _ := out.Recv()
				trace = append(trace, v+"@"+s.Now().String())
			}
		})
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSimDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	s := NewSim()
	s.Run(func() {
		mb := NewMailbox[int](s, "never")
		mb.Recv() // nothing will ever send
	})
}

func TestSimStopReleasesActors(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		mb := NewMailbox[int](s, "forever")
		for i := 0; i < 5; i++ {
			s.Go("server", func() {
				for {
					if _, ok := mb.Recv(); !ok {
						return
					}
				}
			})
		}
		s.Sleep(time.Millisecond) // let servers park
	})
	// Run returns only after all goroutines exit; reaching here is the test.
}

func TestSimScheduleCallback(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		mb := NewMailbox[int](s, "cb")
		s.Schedule(5*time.Millisecond, func() { mb.sendLocked(42) })
		v, ok := mb.Recv()
		if !ok || v != 42 {
			t.Fatalf("Recv = (%d,%v), want (42,true)", v, ok)
		}
		if s.Now() != 5*time.Millisecond {
			t.Errorf("Now() = %v, want 5ms", s.Now())
		}
	})
}

func TestRealRuntimeMailbox(t *testing.T) {
	r := NewReal()
	mb := NewMailbox[int](r, "real")
	var got []int
	var mu sync.Mutex
	r.Go("producer", func() {
		for i := 0; i < 10; i++ {
			mb.Send(i)
		}
		mb.Close()
	})
	r.Go("consumer", func() {
		for {
			v, ok := mb.Recv()
			if !ok {
				return
			}
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		}
	})
	r.Wait()
	if len(got) != 10 {
		t.Fatalf("received %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestRealSendAfter(t *testing.T) {
	r := NewReal()
	mb := NewMailbox[int](r, "real-timed")
	mb.SendAfter(5*time.Millisecond, 7)
	v, ok := mb.Recv()
	if !ok || v != 7 {
		t.Fatalf("Recv = (%d,%v), want (7,true)", v, ok)
	}
}

// Property: for any set of delays, mailbox deliveries arrive in
// nondecreasing time order matching the sorted delays.
func TestPropertySendAfterOrdering(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 || len(delaysRaw) > 64 {
			return true
		}
		s := NewSim()
		ok := true
		s.Run(func() {
			mb := NewMailbox[time.Duration](s, "prop")
			for _, d := range delaysRaw {
				dd := time.Duration(d) * time.Microsecond
				mb.SendAfter(dd, dd)
			}
			last := time.Duration(-1)
			for range delaysRaw {
				v, rok := mb.Recv()
				if !rok || v < last {
					ok = false
					return
				}
				last = v
				if s.Now() != v {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: clock never goes backwards across arbitrary sleep sequences
// by concurrent actors.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(sleeps []uint8) bool {
		if len(sleeps) > 32 {
			sleeps = sleeps[:32]
		}
		s := NewSim()
		monotonic := true
		s.Run(func() {
			done := NewMailbox[struct{}](s, "done")
			var last time.Duration
			for _, ms := range sleeps {
				ms := ms
				s.Go("sleeper", func() {
					s.Sleep(time.Duration(ms) * time.Millisecond)
					if now := s.Now(); now < last {
						monotonic = false
					} else {
						last = now
					}
					done.Send(struct{}{})
				})
			}
			for range sleeps {
				done.Recv()
			}
		})
		return monotonic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleHash: the schedule hash is a pure function of the program —
// two runs of the same actors agree — and it sees the schedule, not just
// the outcome: moving one sleep changes the hash even though every actor
// still computes the same thing.
func TestScheduleHash(t *testing.T) {
	run := func(nap time.Duration) (uint64, int) {
		s := NewSim()
		sum := 0
		s.Run(func() {
			mb := NewMailbox[int](s, "mb")
			for i := 1; i <= 3; i++ {
				s.Go("worker", func() {
					s.Sleep(time.Duration(i) * time.Millisecond)
					if i == 2 {
						s.Sleep(nap)
					}
					mb.Send(i)
				})
			}
			for range 3 {
				v, _ := mb.Recv()
				sum += v
			}
		})
		return s.ScheduleHash(), sum
	}
	a, sumA := run(5 * time.Millisecond)
	b, sumB := run(5 * time.Millisecond)
	c, sumC := run(6 * time.Millisecond)
	if a != b {
		t.Fatalf("identical programs hashed %#x and %#x", a, b)
	}
	if a == c {
		t.Fatalf("a changed sleep left the schedule hash at %#x", a)
	}
	if sumA != 6 || sumB != 6 || sumC != 6 {
		t.Fatalf("sums %d/%d/%d, want 6", sumA, sumB, sumC)
	}
	if NewSim().ScheduleHash() == a {
		t.Fatal("an empty schedule hashes like a running one")
	}
}

// xorshift is a deterministic pseudo-random step for the heap tests.
func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// TestHeap4Order drains pseudo-random events and checks the pop sequence
// matches a reference sort by (at, seq).
func TestHeap4Order(t *testing.T) {
	var h heap4[*event]
	r := uint64(42)
	var ref []*event
	for i := 0; i < 2000; i++ {
		r = xorshift(r)
		ev := &event{at: time.Duration(r % 127), seq: uint64(i)}
		ref = append(ref, ev)
		h.Push(ev)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
	for i, want := range ref {
		if got := h.Pop(); got != want {
			t.Fatalf("pop %d: got (%v,%d) want (%v,%d)", i, got.at, got.seq, want.at, want.seq)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
}

// TestHeap4ZeroAllocs: push/pop on the event heap allocates nothing once
// the backing array has grown.
func TestHeap4ZeroAllocs(t *testing.T) {
	var h heap4[*event]
	evs := make([]*event, 513)
	for i := range evs {
		evs[i] = &event{at: time.Duration(i * 31 % 257), seq: uint64(i)}
	}
	for _, ev := range evs[:512] {
		h.Push(ev)
	}
	spare := evs[512]
	seq := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		spare.at, spare.seq = time.Duration(seq%257), seq
		h.Push(spare)
		spare = h.Pop()
	})
	if allocs != 0 {
		t.Fatalf("push/pop hot path allocates %v/op, want 0", allocs)
	}
}
