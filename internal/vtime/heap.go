package vtime

// lesser is the ordering constraint of heap4: the element type compares
// itself against another of its kind.
type lesser[T any] interface{ Less(T) bool }

// heap4 is an inlined generic 4-ary min-heap. It replaces the
// container/heap eventHeap on the scheduler's hot path: the stdlib
// interface boxes every Push/Pop operand into an `any` (one allocation
// per scheduled event) and pays a dynamic dispatch per comparison. The
// generic heap keeps elements concrete, so push/pop allocate nothing at
// steady state (see BenchmarkHeap4PushPop / TestHeap4ZeroAllocs), and a
// branching factor of 4 halves the tree depth, trading cheap in-node
// comparisons for expensive cache-missing levels — the standard layout
// for event queues whose elements are small pointers.
type heap4[T lesser[T]] struct{ s []T }

// Len reports the number of queued elements.
func (h *heap4[T]) Len() int { return len(h.s) }

// Push inserts x.
func (h *heap4[T]) Push(x T) {
	h.s = append(h.s, x)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h.s[i].Less(h.s[p]) {
			break
		}
		h.s[i], h.s[p] = h.s[p], h.s[i]
		i = p
	}
}

// Pop removes and returns the minimum element. Call only when Len() > 0.
func (h *heap4[T]) Pop() T {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	var zero T
	s[n] = zero // release the reference so the GC can reclaim it
	h.s = s[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h.s[j].Less(h.s[m]) {
				m = j
			}
		}
		if !h.s[m].Less(h.s[i]) {
			break
		}
		h.s[i], h.s[m] = h.s[m], h.s[i]
		i = m
	}
	return top
}

// reset empties the heap, keeping the backing array.
func (h *heap4[T]) reset() {
	var zero T
	for i := range h.s {
		h.s[i] = zero
	}
	h.s = h.s[:0]
}
