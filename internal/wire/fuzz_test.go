package wire

import (
	"bytes"
	"reflect"
	"testing"

	"mpichv/internal/core"
)

// The fuzz targets feed arbitrary bytes to the frame decoders daemons
// apply to data straight off the (chaos-corruptible) fabric. The
// properties under test: no panic, no overread (the race/asan runtime
// would catch it), and decode∘encode is the identity on every frame
// the decoder accepts.

func FuzzDecodePayload(f *testing.F) {
	f.Add(EncodePayload(PayloadHeader{SenderClock: 1, DevKind: 7}, []byte("hello")))
	f.Add(EncodePayload(PayloadHeader{SenderClock: 99, PairSeq: 3, Span: 0xbeef}, []byte("traced")))
	f.Add(EncodePayload(PayloadHeader{}, nil))
	f.Add([]byte{0x80})
	// Frames carrying a piggybacked determinant block (flag 0x40), with
	// and without a span and a body, so the fuzzer starts from the
	// det-block decode path rather than having to discover the flag.
	f.Add(EncodePayload(PayloadHeader{SenderClock: 5, Dets: []core.Event{
		{Sender: 2, SenderClock: 9, RecvClock: 4, Seq: 1}}}, []byte("det")))
	f.Add(EncodePayload(PayloadHeader{SenderClock: 6, Span: 0xf00d, Dets: []core.Event{
		{Sender: 0, SenderClock: 1, RecvClock: 1, Probes: 2, Seq: 1},
		{Sender: 3, SenderClock: 1 << 33, RecvClock: 7, Seq: 2}}}, nil))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := DecodePayload(data)
		if err != nil {
			return
		}
		enc := EncodePayload(h, body)
		h2, body2, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted frame rejected: %v", err)
		}
		if !reflect.DeepEqual(h2, h) || !bytes.Equal(body, body2) {
			t.Fatalf("round trip: %+v %q vs %+v %q", h, body, h2, body2)
		}
	})
}

func FuzzDecodeDetRelay(f *testing.F) {
	f.Add(AppendDetRelay(nil, 7, 3, []core.Event{{Sender: 1, SenderClock: 2, RecvClock: 3, Seq: 4}}))
	f.Add(AppendDetRelay(nil, 0, 0, nil))
	f.Add(AppendDetRelay(nil, 1<<40, 1023, []core.Event{{Sender: -1}, {Sender: 5, Probes: 9}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, origin, evs, err := DecodeDetRelay(data)
		if err != nil {
			return
		}
		seq2, origin2, evs2, err := DecodeDetRelay(AppendDetRelay(nil, seq, origin, evs))
		if err != nil {
			t.Fatalf("re-encode of accepted relay rejected: %v", err)
		}
		if seq2 != seq || origin2 != origin || len(evs2) != len(evs) ||
			(len(evs) > 0 && !reflect.DeepEqual(evs, evs2)) {
			t.Fatalf("round trip: (%d,%d,%+v) vs (%d,%d,%+v)", seq, origin, evs, seq2, origin2, evs2)
		}
	})
}

func FuzzDecodeEvents(f *testing.F) {
	f.Add(EncodeEvents(nil))
	f.Add(EncodeEvents([]core.Event{{Sender: 1, SenderClock: 2, RecvClock: 3, Probes: 4, Seq: 5}}))
	f.Add(EncodeEvents([]core.Event{{Sender: -1}, {Sender: 31, SenderClock: 1 << 40}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeEvents(data)
		if err != nil {
			return
		}
		got, err := DecodeEvents(EncodeEvents(evs))
		if err != nil {
			t.Fatalf("re-encode of accepted batch rejected: %v", err)
		}
		if len(evs) != len(got) || (len(evs) > 0 && !reflect.DeepEqual(evs, got)) {
			t.Fatalf("round trip: %+v vs %+v", evs, got)
		}
	})
}

func FuzzDecodeEventLog(f *testing.F) {
	f.Add(EncodeEventLog(7, []core.Event{{Sender: 1, SenderClock: 2, RecvClock: 3}}))
	f.Add(EncodeEventLog(0, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, evs, err := DecodeEventLog(data)
		if err != nil {
			return
		}
		seq2, evs2, err := DecodeEventLog(EncodeEventLog(seq, evs))
		if err != nil || seq2 != seq || len(evs2) != len(evs) {
			t.Fatalf("round trip: (%d,%d ev) vs (%d,%d ev), %v", seq, len(evs), seq2, len(evs2), err)
		}
	})
}

func FuzzDecodeEventAck(f *testing.F) {
	f.Add(EncodeEventAck(1, 2))
	f.Add(EncodeEventAck(0, 0))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, cum, err := DecodeEventAck(data)
		if err != nil {
			return
		}
		seq2, cum2, err := DecodeEventAck(EncodeEventAck(seq, cum))
		if err != nil || seq2 != seq || cum2 != cum {
			t.Fatalf("round trip: (%d,%d) vs (%d,%d), %v", seq, cum, seq2, cum2, err)
		}
	})
}

func FuzzDecodeCkptChunk(f *testing.F) {
	f.Add(AppendCkptChunk(nil, 3, 0, 2, []byte("first half")))
	f.Add(AppendCkptChunk(nil, 9, 1, 2, nil))
	f.Add([]byte("CKC?garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, idx, count, body, err := DecodeCkptChunk(data)
		if err != nil {
			return
		}
		if idx >= count {
			t.Fatalf("accepted chunk %d outside count %d", idx, count)
		}
		seq2, idx2, count2, body2, err := DecodeCkptChunk(AppendCkptChunk(nil, seq, idx, count, body))
		if err != nil || seq2 != seq || idx2 != idx || count2 != count || !bytes.Equal(body, body2) {
			t.Fatalf("round trip: (%d,%d,%d,%q) vs (%d,%d,%d,%q), %v",
				seq, idx, count, body, seq2, idx2, count2, body2, err)
		}
	})
}

func FuzzDecodeCkptManifest(f *testing.F) {
	f.Add(EncodeCkptManifest(CkptManifest{Present: true, Seq: 2, Size: 100, ChunkSize: 64, ImageCRC: 7, Clock: 41, ChunkCRCs: []uint32{1, 2}}))
	f.Add(EncodeCkptManifest(CkptManifest{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeCkptManifest(data)
		if err != nil {
			return
		}
		if m.Present {
			// The accepted geometry must actually cover Size.
			if n := uint64(m.Chunks()); n*uint64(m.ChunkSize) < m.Size {
				t.Fatalf("accepted manifest %d×%d cannot cover %d", n, m.ChunkSize, m.Size)
			}
		}
		m2, err := DecodeCkptManifest(EncodeCkptManifest(m))
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip: %+v vs %+v, %v", m, m2, err)
		}
	})
}

// The sync decoders read an entry count from the frame; the 4-byte
// seed claims 2³²−1 entries in a frame that holds none, which must cost
// an error, not an allocation sized by the claim.

func FuzzDecodeNodeEvents(f *testing.F) {
	f.Add(EncodeNodeEvents(map[int][]core.Event{3: {{Sender: 1, SenderClock: 2, RecvClock: 3, Seq: 1}}, -1: nil}))
	f.Add(EncodeNodeEvents(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeNodeEvents(data)
		if err != nil {
			return
		}
		got, err := DecodeNodeEvents(EncodeNodeEvents(m))
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: %+v vs %+v, %v", m, got, err)
		}
	})
}

func FuzzDecodeCkptEntries(f *testing.F) {
	f.Add(EncodeCkptEntries([]CkptEntry{{Rank: 4, Seq: 2, Image: []byte("image")}, {Rank: -1, Seq: 1 << 40}}))
	f.Add(EncodeCkptEntries(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeCkptEntries(data)
		if err != nil {
			return
		}
		got, err := DecodeCkptEntries(EncodeCkptEntries(entries))
		if err != nil || !reflect.DeepEqual(got, entries) {
			t.Fatalf("round trip: %+v vs %+v, %v", entries, got, err)
		}
	})
}
