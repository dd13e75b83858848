package wire

import (
	"math/bits"
	"sync"
)

// Framing-buffer pool for the protocol hot path. A sender encodes each
// frame into a GetBuf buffer with an Append* codec; the receiver, once
// it has decoded (copied out) everything it needs, hands the frame's
// bytes back with PutBuf. Ownership follows the frame: a buffer must be
// recycled by whoever holds the frame last, exactly once, and only when
// nothing decoded from it aliases it (DecodePayload bodies alias their
// frame, so payload frames are never recycled; event batches are copied
// by the decoder, so KEventLog frames are).
//
// A payload frame is never built joined on the sender: only its head
// (AppendPayloadHeader) goes into a GetBuf buffer, and the daemon hands
// the head and the payload bytes — the SAVED entry itself — to
// transport.SendParts as two parts. TCP writes them inline as two
// iovecs when the peer is connected and idle, and queues them for the
// peer's writer otherwise, so a payload costs its sender one buffer
// however large it is; the head is not recycled either, since a queued
// frame borrows it until written. Fabrics whose receiver owns the slice
// it is handed get one joined copy.
//
// Buffers live in size-class buckets (powers of two from 64 bytes to
// 64 KiB; larger requests are served by plain make and never pooled).
// Each bucket pairs a pool of filled buffers with a pool of their empty
// *[]byte boxes, so neither GetBuf nor PutBuf allocates in steady state
// — a plain sync.Pool of slices would box the slice header on every Put.

const (
	minBufBits = 6  // smallest class: 64 B, below which pooling is noise
	maxBufBits = 16 // largest class: 64 KiB
	numBuckets = maxBufBits - minBufBits + 1
)

type bufBucket struct {
	bufs  sync.Pool // *[]byte boxes holding a zero-length buffer of the class's capacity
	boxes sync.Pool // empty *[]byte boxes, recycled so Put never allocates a header
}

var bufBuckets [numBuckets]bufBucket

// GetBuf returns a zero-length buffer with capacity at least n, drawn
// from the pool when a suitable buffer was recycled. Append into it with
// the wire Append* functions and either send it (transferring ownership
// with the frame) or PutBuf it back.
func GetBuf(n int) []byte {
	if n > 1<<maxBufBits {
		return make([]byte, 0, n)
	}
	i := 0
	if n > 1<<minBufBits {
		i = bits.Len(uint(n-1)) - minBufBits
	}
	b := &bufBuckets[i]
	if v := b.bufs.Get(); v != nil {
		box := v.(*[]byte)
		buf := *box
		*box = nil
		b.boxes.Put(box)
		return buf
	}
	return make([]byte, 0, 1<<(minBufBits+i))
}

// PutBuf recycles a buffer obtained from GetBuf (or any buffer whose
// bytes are provably dead). Buffers below the smallest class are
// dropped: chaos-truncated stubs and test-crafted frames are not worth
// keeping. Oversized buffers land in the largest bucket — a buffer only
// ever serves requests no larger than its own capacity.
func PutBuf(buf []byte) {
	c := cap(buf)
	if c < 1<<minBufBits {
		return
	}
	i := bits.Len(uint(c)) - 1 - minBufBits
	if i >= numBuckets {
		i = numBuckets - 1
	}
	b := &bufBuckets[i]
	var box *[]byte
	if v := b.boxes.Get(); v != nil {
		box = v.(*[]byte)
	} else {
		box = new([]byte)
	}
	*box = buf[:0]
	b.bufs.Put(box)
}
