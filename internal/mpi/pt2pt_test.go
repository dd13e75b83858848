package mpi

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
)

// blockSizes straddle the eager limit and reach the 256 KiB rendezvous
// payload of the benchmark's pingpong_256k workload.
var blockSizes = []int{0, 1, 65536, 65537, 262144}

// blockSink keeps the encoded blocks of the allocation test and the
// benchmark alive, so the compiler cannot drop the calls.
var blockSink []byte

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// TestEncodeMsgRoundTrip: decodeMsg(encodeMsg(...)) gives back the type,
// the tag (negative ones too), the id and the payload bytes.
func TestEncodeMsgRoundTrip(t *testing.T) {
	for _, n := range blockSizes {
		payload := pattern(n)
		for _, c := range []struct {
			mtype uint8
			tag   int
			id    uint32
		}{{mEager, 0, 0}, {mData, -7, 1<<32 - 1}, {mRTS, 1<<31 - 1, 42}} {
			b := encodeMsg(c.mtype, c.tag, c.id, payload)
			if len(b) != hdrLen+n {
				t.Fatalf("n=%d: block of %d bytes, want %d", n, len(b), hdrLen+n)
			}
			mtype, tag, id, got := decodeMsg(b)
			if mtype != c.mtype || tag != c.tag || id != c.id || !bytes.Equal(got, payload) {
				t.Fatalf("n=%d: decoded (%d, %d, %d, %d bytes), want (%d, %d, %d, %d bytes)",
					n, mtype, tag, id, len(got), c.mtype, c.tag, c.id, n)
			}
		}
	}
}

// TestEncodeMsgOneAllocation: the block costs one allocation of
// hdrLen+len(payload) bytes, rounded up by the allocator's size class at
// most, so no second buffer and no growth copy hide in the encoder. The
// collector is off while it counts: a cycle allocates for itself.
func TestEncodeMsgOneAllocation(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range blockSizes {
		payload := pattern(n)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			blockSink = encodeMsg(mData, 1, 2, payload)
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got != runs {
			t.Errorf("n=%d: %d allocations for %d blocks, want one each", n, got, runs)
		}
		want := uint64(hdrLen + n)
		// Size classes round a small block up by at most an eighth (or
		// to 16 bytes); a large one is rounded up to whole 8 KiB pages.
		slack := max(want/8, 16)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got < want || got > want+slack {
			t.Errorf("n=%d: %d bytes allocated per block, want %d (+%d at most)", n, got, want, slack)
		}
	}
}

func BenchmarkEncodeMsg(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"0B", 0}, {"256KiB", 256 << 10}} {
		payload := pattern(c.n)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(c.n))
			for range b.N {
				blockSink = encodeMsg(mData, 1, 2, payload)
			}
		})
	}
}
