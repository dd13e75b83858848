package vtime

import (
	"testing"
	"time"
)

// BenchmarkMailboxHandoff prices one round-trip between two simulator
// actors — a request/response pair over two mailboxes, the pattern of
// every MPI-process↔daemon "Unix socket" crossing — including the
// token handoffs the single-threaded scheduler performs in between.
func BenchmarkMailboxHandoff(b *testing.B) {
	sim := NewSim()
	sim.Run(func() {
		req := NewMailbox[int](sim, "req")
		rsp := NewMailbox[int](sim, "rsp")
		sim.Go("echo", func() {
			for {
				v, ok := req.Recv()
				if !ok {
					return
				}
				rsp.Send(v)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Send(i)
			rsp.Recv()
		}
		b.StopTimer()
		req.Close()
	})
}

// BenchmarkMailboxSendRecv prices the same-actor enqueue/dequeue pair
// alone, without a scheduler handoff.
func BenchmarkMailboxSendRecv(b *testing.B) {
	sim := NewSim()
	sim.Run(func() {
		mb := NewMailbox[int](sim, "mb")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mb.Send(i)
			mb.Recv()
		}
		b.StopTimer()
	})
}

// BenchmarkHeap4PushPop prices one push/pop pair on the scheduler's
// event heap against a standing population of pending events — the hot
// path of every Schedule/timer operation. The events are pre-allocated
// and the backing array pre-grown, so the measured loop shows the heap's
// own cost: 0 allocs/op (the container/heap predecessor paid one
// interface-boxing allocation per Push).
func BenchmarkHeap4PushPop(b *testing.B) {
	const standing = 1024
	var h heap4[*event]
	evs := make([]*event, standing+1)
	for i := range evs {
		evs[i] = &event{}
	}
	seq := uint64(0)
	for i := 0; i < standing; i++ {
		ev := evs[i]
		seq++
		ev.at, ev.seq = time.Duration(seq%257), seq
		h.Push(ev)
	}
	spare := evs[standing]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		spare.at, spare.seq = time.Duration(seq%257), seq
		h.Push(spare)
		spare = h.Pop()
	}
}
