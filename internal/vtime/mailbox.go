package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Mailbox is an unbounded FIFO queue usable from both runtimes. In a Sim
// it participates in the virtual-time token protocol; in a Real runtime
// it behaves like an ordinary blocking queue. Every inter-actor
// interaction in the simulated system flows through mailboxes so that
// the virtual clock can account for it.
type Mailbox[T any] struct {
	name string

	// sim mode
	sim     *Sim
	q       []T
	closed  bool
	waiters []*waiter

	// real mode
	mu   sync.Mutex
	cond *sync.Cond
}

// NewMailbox returns a mailbox bound to rt. The name appears in
// deadlock diagnostics.
func NewMailbox[T any](rt Runtime, name string) *Mailbox[T] {
	m := &Mailbox[T]{name: name}
	if s, ok := rt.(*Sim); ok {
		m.sim = s
	} else {
		m.cond = sync.NewCond(&m.mu)
	}
	return m
}

// Send enqueues v now. It reports false if the mailbox is closed.
func (m *Mailbox[T]) Send(v T) bool {
	if m.sim != nil {
		m.sim.mu.Lock()
		defer m.sim.mu.Unlock()
		return m.sendLocked(v)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.q = append(m.q, v)
	m.cond.Signal()
	return true
}

// sendLocked enqueues v with the simulator lock held (callable from
// Schedule callbacks). Returns false if closed.
func (m *Mailbox[T]) sendLocked(v T) bool {
	if m.closed {
		return false
	}
	m.q = append(m.q, v)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.sim.wake(w)
	}
	return true
}

// SendAfter enqueues v after a delay of d. In a Sim the delivery is a
// scheduled event at now+d; in a Real runtime it uses a timer. Delivery
// into a closed mailbox is silently dropped. It is the primitive used by
// transports to model network delay.
func (m *Mailbox[T]) SendAfter(d time.Duration, v T) {
	if m.sim != nil {
		s := m.sim
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.stopped {
			return
		}
		s.schedule(s.now+d, func() { m.sendLocked(v) })
		return
	}
	if d <= 0 {
		m.Send(v)
		return
	}
	time.AfterFunc(d, func() { m.Send(v) })
}

// Recv blocks until an item is available or the mailbox is closed and
// drained; ok is false in the latter case.
func (m *Mailbox[T]) Recv() (v T, ok bool) {
	if m.sim != nil {
		s := m.sim
		s.mu.Lock()
		for {
			if s.stopped {
				s.mu.Unlock()
				panic(errStopped{})
			}
			if len(m.q) > 0 {
				v = m.pop()
				s.mu.Unlock()
				return v, true
			}
			if m.closed {
				s.mu.Unlock()
				return v, false
			}
			w := &waiter{actor: s.current, reason: fmt.Sprintf("recv(%s)", m.name), ch: make(chan struct{}), seq: s.nextSeq()}
			m.waiters = append(m.waiters, w)
			s.park(w) // park panics with the lock released on stop/deadlock
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.q) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.q) > 0 {
		return m.pop(), true
	}
	return v, false
}

// pop dequeues the head of a non-empty queue; callers hold the lock of
// their runtime. The vacated slot is zeroed so the queue does not keep
// a received value alive. A queue that drains is resliced to [:0], not
// [1:], which would give up a slot on every drain: a mailbox holding one
// item at a time — every hop on a ping-pong's critical path — thus
// never reallocates.
func (m *Mailbox[T]) pop() T {
	v := m.q[0]
	var zero T
	m.q[0] = zero
	if len(m.q) == 1 {
		m.q = m.q[:0]
	} else {
		m.q = m.q[1:]
	}
	return v
}

// TryRecv pops an item if one is immediately available.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	if m.sim != nil {
		m.sim.mu.Lock()
		defer m.sim.mu.Unlock()
		if len(m.q) > 0 {
			return m.pop(), true
		}
		return v, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) > 0 {
		return m.pop(), true
	}
	return v, false
}

// Close marks the mailbox closed. Pending items may still be received;
// blocked receivers observe ok=false once drained.
func (m *Mailbox[T]) Close() {
	if m.sim != nil {
		m.sim.mu.Lock()
		defer m.sim.mu.Unlock()
		if m.closed {
			return
		}
		m.closed = true
		for _, w := range m.waiters {
			m.sim.wake(w)
		}
		m.waiters = nil
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// Closed reports whether Close has been called.
func (m *Mailbox[T]) Closed() bool {
	if m.sim != nil {
		m.sim.mu.Lock()
		defer m.sim.mu.Unlock()
		return m.closed
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int {
	if m.sim != nil {
		m.sim.mu.Lock()
		defer m.sim.mu.Unlock()
		return len(m.q)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q)
}
