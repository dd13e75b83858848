package wire

import (
	"testing"

	"mpichv/internal/core"
)

func sampleEvents(n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		evs[i] = core.Event{
			Sender:      i % 4,
			SenderClock: uint64(100 + i),
			RecvClock:   uint64(200 + i),
			Probes:      uint32(i),
			Seq:         uint64(1 + i),
		}
	}
	return evs
}

// The append codecs must not allocate when the destination buffer has
// room: that is the whole point of threading GetBuf buffers through the
// daemon and server send paths.
func TestAppendCodecsZeroAlloc(t *testing.T) {
	evs := sampleEvents(8)
	body := make([]byte, 1024)
	hdr := PayloadHeader{SenderClock: 7, PairSeq: 3, DevKind: 1}
	ackBuf := make([]byte, 0, eventAckLen)
	evBuf := make([]byte, 0, EventLogSize(len(evs)))
	neBuf := make([]byte, 0, 8+EventsSize(len(evs)))
	plBuf := make([]byte, 0, PayloadSize(len(body)))
	chBuf := make([]byte, 0, CkptChunkSize(len(body)))
	caBuf := make([]byte, 0, CkptChunkAckLen)
	cfBuf := make([]byte, 0, CkptChunkFetchLen)
	var chHdr [CkptChunkHeaderLen]byte

	cases := []struct {
		name string
		fn   func()
	}{
		{"AppendPayload", func() { plBuf = AppendPayload(plBuf[:0], hdr, body) }},
		{"AppendEvents", func() { evBuf = AppendEvents(evBuf[:0], evs) }},
		{"AppendEventLog", func() { evBuf = AppendEventLog(evBuf[:0], 42, evs) }},
		{"AppendNodeEvents", func() { neBuf = AppendNodeEvents(neBuf[:0], 3, evs) }},
		{"AppendEventAck", func() { ackBuf = AppendEventAck(ackBuf[:0], 42, 41) }},
		{"AppendCkptChunk", func() { chBuf = AppendCkptChunk(chBuf[:0], 42, 3, 9, body) }},
		{"AppendCkptChunkHeader", func() { AppendCkptChunkHeader(chHdr[:0], 42, 3, 9, body) }},
		{"AppendCkptChunkAck", func() { caBuf = AppendCkptChunkAck(caBuf[:0], 42, 3) }},
		{"AppendCkptChunkFetch", func() { cfBuf = AppendCkptChunkFetch(cfBuf[:0], 42, 3, 4096) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

// A full GetBuf → encode → PutBuf cycle must also be allocation-free
// once the pool is warm; the loop itself creates no garbage, so the
// pool cannot be drained by GC mid-measurement.
func TestPooledEncodeZeroAlloc(t *testing.T) {
	evs := sampleEvents(8)
	size := EventLogSize(len(evs))
	PutBuf(GetBuf(size)) // warm the bucket (buffer + box)
	allocs := testing.AllocsPerRun(200, func() {
		buf := AppendEventLog(GetBuf(size), 42, evs)
		PutBuf(buf)
	})
	if allocs != 0 {
		t.Errorf("pooled event-log encode: %.1f allocs/op, want 0", allocs)
	}
}

func TestPoolCapacityClasses(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 4096, 65535, 65536, 65537, 1 << 20} {
		buf := GetBuf(n)
		if len(buf) != 0 {
			t.Errorf("GetBuf(%d): len %d, want 0", n, len(buf))
		}
		if cap(buf) < n {
			t.Errorf("GetBuf(%d): cap %d too small", n, cap(buf))
		}
		PutBuf(buf)
	}
	// Recycled capacity must survive the round trip: a buffer only
	// serves requests no larger than its own capacity.
	PutBuf(make([]byte, 0, 200))
	if buf := GetBuf(129); cap(buf) < 129 {
		t.Errorf("GetBuf(129) after PutBuf(cap 200): cap %d too small", cap(buf))
	}
}

func TestEventAckRoundTrip(t *testing.T) {
	data := EncodeEventAck(42, 40)
	seq, cum, err := DecodeEventAck(data)
	if err != nil || seq != 42 || cum != 40 {
		t.Fatalf("round trip = (%d, %d, %v), want (42, 40, nil)", seq, cum, err)
	}
	// An ack is exactly 16 bytes: half of one — what a truncated ack
	// decays to — is as malformed as any other length.
	if _, _, err := DecodeEventAck(data[:8]); err == nil {
		t.Fatal("8-byte ack decoded without error")
	}
	if _, _, err := DecodeEventAck(append(data, 0)); err == nil {
		t.Fatal("17-byte ack decoded without error")
	}
	if _, _, err := DecodeEventAck(data[:5]); err == nil {
		t.Fatal("5-byte ack decoded without error")
	}
	if _, _, err := DecodeEventAck(nil); err == nil {
		t.Fatal("empty ack decoded without error")
	}
}

func BenchmarkAppendEventLog(b *testing.B) {
	evs := sampleEvents(8)
	buf := make([]byte, 0, EventLogSize(len(evs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEventLog(buf[:0], uint64(i), evs)
	}
}

func BenchmarkEncodeEventLog(b *testing.B) {
	evs := sampleEvents(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeEventLog(uint64(i), evs)
	}
}

func BenchmarkPooledEventLog(b *testing.B) {
	evs := sampleEvents(8)
	size := EventLogSize(len(evs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PutBuf(AppendEventLog(GetBuf(size), uint64(i), evs))
	}
}

func BenchmarkDecodeEventLog(b *testing.B) {
	data := EncodeEventLog(42, sampleEvents(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeEventLog(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendPayload(b *testing.B) {
	body := make([]byte, 1024)
	hdr := PayloadHeader{SenderClock: 7, PairSeq: 3, DevKind: 1}
	buf := make([]byte, 0, PayloadSize(len(body)))
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		buf = AppendPayload(buf[:0], hdr, body)
	}
}

func BenchmarkDecodePayload(b *testing.B) {
	data := EncodePayload(PayloadHeader{SenderClock: 7, PairSeq: 3, DevKind: 1}, make([]byte, 1024))
	b.ReportAllocs()
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodePayload(data); err != nil {
			b.Fatal(err)
		}
	}
}
