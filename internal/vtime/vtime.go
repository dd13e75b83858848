// Package vtime provides the execution substrate for the MPICH-V2
// reproduction: a deterministic discrete-event virtual-time scheduler
// (Sim) and a wall-clock runtime (Real) behind a common Runtime
// interface.
//
// The simulator uses a token-passing model: exactly one actor goroutine
// executes at any moment. When the running actor blocks (Sleep, Mailbox
// Recv, ...), it hands the token to the next ready actor, advancing the
// virtual clock through the pending event heap when nobody is ready.
// Ties are broken by a monotonically increasing sequence number, so a
// given program produces the same schedule on every run. This gives us
// reproducible timing experiments and reproducible fault injection while
// running the real protocol code, which is the substitution this
// repository makes for the paper's physical cluster (see DESIGN.md §2).
package vtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Clock is the time source seen by protocol code. Virtual in Sim runs,
// wall-clock in Real runs.
type Clock interface {
	// Now reports the time elapsed since the runtime started.
	Now() time.Duration
	// Sleep pauses the calling actor for d.
	Sleep(d time.Duration)
}

// Runtime is what system components need to spawn concurrent activities
// and observe time. *Sim and *Real both implement it.
type Runtime interface {
	Clock
	// Go starts fn as a new actor. The name is used in diagnostics.
	Go(name string, fn func())
}

// errStopped is panicked out of blocked actors when the simulation shuts
// down; the actor wrapper recovers it.
type errStopped struct{}

// actorInfo identifies an actor for diagnostics.
type actorInfo struct {
	name string
}

// waiter represents one parked blocking operation.
type waiter struct {
	actor    *actorInfo
	reason   string
	ch       chan struct{}
	ready    bool // queued on readyQ (or granted)
	granted  bool // ch has been closed
	stop     bool // woken by Stop; blocked call must panic errStopped
	timedOut bool // woken by a timeout event
	seq      uint64
}

// event is a scheduled callback on the virtual timeline.
type event struct {
	at  time.Duration
	seq uint64
	fn  func() // runs with sim lock held; must not block
}

// Less orders events by (at, seq): virtual deadline first, scheduling
// order as the deterministic tie-break.
func (e *event) Less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Sim is a deterministic discrete-event scheduler. Create with NewSim,
// drive with Run. All actors must block only through Sim primitives
// (Sleep, Mailbox operations); ordinary channel operations would stall
// the virtual clock.
type Sim struct {
	mu      sync.Mutex
	now     time.Duration
	seq     uint64
	events  heap4[*event]
	readyQ  []*waiter
	blocked map[*waiter]struct{}
	current *actorInfo
	stopped bool
	nactors int
	wg      sync.WaitGroup
	hash    uint64 // running FNV-1a over the schedule; see ScheduleHash
}

// FNV-1a 64-bit parameters of the schedule hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewSim returns a simulator with the clock at zero.
func NewSim() *Sim {
	return &Sim{blocked: make(map[*waiter]struct{}), hash: fnvOffset}
}

// ScheduleHash returns the FNV-1a hash of the schedule executed so far:
// every token grant as (now, waiter seq) and every popped event as (at,
// seq), in dispatch order. Two runs with equal hashes took the same
// scheduling decisions at the same virtual instants, so a refactor that
// leaves the hash of a workload unchanged did not perturb its schedule.
func (s *Sim) ScheduleHash() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hash
}

// fold mixes one schedule step into the hash, little-endian byte by
// byte. Lock must be held.
func (s *Sim) fold(at time.Duration, seq uint64) {
	h := s.hash
	for _, v := range [2]uint64{uint64(at), seq} {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= fnvPrime
		}
	}
	s.hash = h
}

// Now reports the current virtual time.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *Sim) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// schedule registers fn to run at virtual time at. Lock must be held.
func (s *Sim) schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.events.Push(&event{at: at, seq: s.nextSeq(), fn: fn})
}

// Schedule registers fn to run at virtual time at (clamped to now). The
// callback runs inside the scheduler with the simulator lock held: it
// must be quick, must not block, and may only touch simulator state via
// *Locked helpers (it is intended for transport implementations).
func (s *Sim) Schedule(at time.Duration, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.schedule(at, fn)
}

// wake marks w runnable. Lock must be held.
func (s *Sim) wake(w *waiter) {
	if w.ready || w.granted {
		return
	}
	w.ready = true
	s.readyQ = append(s.readyQ, w)
}

// dispatch hands the token to the next runnable actor, advancing virtual
// time through the event heap as needed. Lock must be held. On return,
// either one waiter has been granted the token, or there was nothing to
// run (s.current == nil).
func (s *Sim) dispatch() {
	for {
		if len(s.readyQ) > 0 {
			w := s.readyQ[0]
			s.readyQ = s.readyQ[1:]
			w.granted = true
			s.current = w.actor
			s.fold(s.now, w.seq)
			close(w.ch)
			return
		}
		if s.events.Len() > 0 {
			ev := s.events.Pop()
			if ev.at > s.now {
				s.now = ev.at
			}
			s.fold(ev.at, ev.seq)
			ev.fn()
			continue
		}
		s.current = nil
		return
	}
}

// park blocks the calling actor on w until some other activity wakes it.
// Lock must be held on entry and is held again on return. Panics with a
// deadlock report if nothing can ever wake w, and with errStopped if the
// simulation is shut down while parked.
func (s *Sim) park(w *waiter) {
	s.blocked[w] = struct{}{}
	s.dispatch()
	if s.current == nil && !w.granted {
		msg := s.deadlockReport(w)
		s.mu.Unlock()
		panic(msg)
	}
	s.mu.Unlock()
	<-w.ch
	s.mu.Lock()
	delete(s.blocked, w)
	s.current = w.actor
	if w.stop {
		s.mu.Unlock()
		panic(errStopped{})
	}
}

func (s *Sim) deadlockReport(self *waiter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vtime: deadlock at %v: all %d actors blocked and no pending events\n", s.now, s.nactors)
	var lines []string
	for w := range s.blocked {
		lines = append(lines, fmt.Sprintf("  actor %q blocked on %s", w.actor.name, w.reason))
	}
	lines = append(lines, fmt.Sprintf("  actor %q blocked on %s (caller)", self.actor.name, self.reason))
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// Sleep pauses the calling actor for d of virtual time.
func (s *Sim) Sleep(d time.Duration) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		panic(errStopped{})
	}
	w := &waiter{actor: s.current, reason: fmt.Sprintf("sleep(%v)", d), ch: make(chan struct{}), seq: s.nextSeq()}
	s.schedule(s.now+d, func() { s.wake(w) })
	s.park(w)
	s.mu.Unlock()
}

// Go starts fn as a new actor. It becomes runnable at the current
// virtual time, after already-ready actors.
func (s *Sim) Go(name string, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	a := &actorInfo{name: name}
	s.nactors++
	w := &waiter{actor: a, reason: "start", ch: make(chan struct{}), seq: s.nextSeq()}
	s.wake(w)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(errStopped); ok {
					return
				}
				panic(r)
			}
		}()
		<-w.ch
		s.mu.Lock()
		s.current = a
		if w.stop {
			s.mu.Unlock()
			panic(errStopped{})
		}
		s.mu.Unlock()
		fn()
		s.exit()
	}()
}

// exit is called by an actor goroutine when its function returns; it
// passes the token on.
func (s *Sim) exit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nactors--
	s.dispatch()
}

// Run executes fn as the root actor and drives the simulation until fn
// returns, then stops all remaining actors and waits for their
// goroutines to exit. It is the entry point for a simulated system.
func (s *Sim) Run(fn func()) {
	s.mu.Lock()
	a := &actorInfo{name: "main"}
	s.nactors++
	s.current = a
	s.mu.Unlock()
	fn()
	s.mu.Lock()
	s.nactors--
	s.stopLocked()
	s.mu.Unlock()
	s.wg.Wait()
}

// Stop shuts the simulation down: every parked actor is released and
// unwinds via an internal panic that its wrapper recovers. Only the
// goroutine currently holding the token (typically the Run root after
// its function returned) may call Stop.
func (s *Sim) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopLocked()
}

func (s *Sim) stopLocked() {
	if s.stopped {
		return
	}
	s.stopped = true
	for w := range s.blocked {
		w.stop = true
		if !w.granted {
			w.granted = true
			close(w.ch)
		}
	}
	for _, w := range s.readyQ {
		w.stop = true
		if !w.granted {
			w.granted = true
			close(w.ch)
		}
	}
	s.readyQ = nil
	s.events.reset()
}

var _ Runtime = (*Sim)(nil)
