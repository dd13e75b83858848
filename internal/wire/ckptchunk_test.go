package wire

import (
	"bytes"
	"testing"
)

func TestCkptChunkRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB, 1, 2}, 100)
	frame := AppendCkptChunk(nil, 77, 3, 9, body)
	if len(frame) != CkptChunkSize(len(body)) {
		t.Errorf("frame is %d bytes, CkptChunkSize promises %d", len(frame), CkptChunkSize(len(body)))
	}
	seq, idx, count, got, err := DecodeCkptChunk(frame)
	if err != nil || seq != 77 || idx != 3 || count != 9 || !bytes.Equal(got, body) {
		t.Fatalf("round trip = (%d, %d, %d, %v)", seq, idx, count, err)
	}
	// Empty body (the last chunk of an image that divides evenly never
	// is, but the frame must still be well-formed).
	if _, _, _, got, err = DecodeCkptChunk(AppendCkptChunk(nil, 1, 0, 1, nil)); err != nil || len(got) != 0 {
		t.Errorf("empty-body chunk: %v", err)
	}
}

// TestCkptChunkHeaderPlusBody: a frame sent as its header and its body in
// two parts is, byte for byte, the one-buffer encoding.
func TestCkptChunkHeaderPlusBody(t *testing.T) {
	for _, body := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xAB, 1, 2}, 6000)} {
		hdr := AppendCkptChunkHeader(nil, 77, 3, 9, body)
		if len(hdr) != CkptChunkHeaderLen {
			t.Fatalf("header is %d bytes, want %d", len(hdr), CkptChunkHeaderLen)
		}
		frame := append(hdr, body...)
		if want := AppendCkptChunk(nil, 77, 3, 9, body); !bytes.Equal(frame, want) {
			t.Fatalf("%dB body: header‖body differs from AppendCkptChunk", len(body))
		}
		if seq, idx, count, got, err := DecodeCkptChunk(frame); err != nil || seq != 77 || idx != 3 || count != 9 || !bytes.Equal(got, body) {
			t.Fatalf("%dB body: decode = (%d, %d, %d, %v)", len(body), seq, idx, count, err)
		}
	}
}

func TestDecodeCkptChunkRejectsDamage(t *testing.T) {
	frame := AppendCkptChunk(nil, 77, 3, 9, bytes.Repeat([]byte{5}, 64))
	for cut := 0; cut < len(frame); cut += 5 {
		if _, _, _, _, err := DecodeCkptChunk(frame[:cut]); err == nil {
			t.Fatalf("chunk truncated to %d of %d bytes decoded", cut, len(frame))
		}
	}
	for _, pos := range []int{0, 10, 30, len(frame) - 1} {
		flipped := append([]byte(nil), frame...)
		flipped[pos] ^= 0x04
		if _, _, _, _, err := DecodeCkptChunk(flipped); err == nil {
			t.Fatalf("chunk with bit flip at %d decoded", pos)
		}
	}
	// Geometry: idx must be below count, and count must be nonzero.
	if _, _, _, _, err := DecodeCkptChunk(AppendCkptChunk(nil, 1, 9, 9, []byte("x"))); err == nil {
		t.Error("chunk with idx == count decoded")
	}
	if _, _, _, _, err := DecodeCkptChunk(AppendCkptChunk(nil, 1, 0, 0, []byte("x"))); err == nil {
		t.Error("chunk with zero count decoded")
	}
}

func TestCkptChunkAckAndFetchRoundTrip(t *testing.T) {
	seq, idx, err := DecodeCkptChunkAck(AppendCkptChunkAck(nil, 42, 7))
	if err != nil || seq != 42 || idx != 7 {
		t.Fatalf("ack round trip = (%d, %d, %v)", seq, idx, err)
	}
	if _, _, err := DecodeCkptChunkAck(make([]byte, CkptChunkAckLen-1)); err == nil {
		t.Error("short chunk ack decoded")
	}
	seq, first, count, cs, err := DecodeCkptChunkFetch(AppendCkptRangeFetch(nil, 42, 7, 9, 4096))
	if err != nil || seq != 42 || first != 7 || count != 9 || cs != 4096 {
		t.Fatalf("range fetch round trip = (%d, %d, %d, %d, %v)", seq, first, count, cs, err)
	}
	seq, first, count, cs, err = DecodeCkptChunkFetch(AppendCkptChunkFetch(nil, 42, 7, 4096))
	if err != nil || seq != 42 || first != 7 || count != 1 || cs != 4096 {
		t.Fatalf("one-chunk fetch round trip = (%d, %d, %d, %d, %v)", seq, first, count, cs, err)
	}
	if _, _, _, _, err := DecodeCkptChunkFetch(make([]byte, CkptChunkFetchLen+1)); err == nil {
		t.Error("long chunk fetch decoded")
	}
	if _, _, _, _, err := DecodeCkptChunkFetch(AppendCkptRangeFetch(nil, 42, 7, 0, 4096)); err == nil {
		t.Error("chunk fetch of an empty run decoded")
	}
}

func TestCkptManifestRoundTrip(t *testing.T) {
	m := CkptManifest{
		Present: true, Seq: 9, Size: 1000, ChunkSize: 256,
		ImageCRC:  0xDEADBEEF,
		Clock:     1<<40 + 3,
		ChunkCRCs: []uint32{1, 2, 3, 4},
	}
	got, err := DecodeCkptManifest(EncodeCkptManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Present || got.Seq != 9 || got.Size != 1000 || got.ChunkSize != 256 ||
		got.ImageCRC != 0xDEADBEEF || got.Clock != 1<<40+3 || len(got.ChunkCRCs) != 4 || got.ChunkCRCs[3] != 4 {
		t.Errorf("round trip = %+v", got)
	}
	if got.Chunks() != 4 {
		t.Errorf("Chunks() = %d, want 4", got.Chunks())
	}
	// Absent manifest (empty replica) round-trips too.
	got, err = DecodeCkptManifest(EncodeCkptManifest(CkptManifest{}))
	if err != nil || got.Present {
		t.Errorf("absent manifest = (%+v, %v)", got, err)
	}
}

func TestDecodeCkptManifestRejectsBadGeometry(t *testing.T) {
	enc := func(m CkptManifest) []byte { return EncodeCkptManifest(m) }
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", enc(CkptManifest{Present: true, Seq: 1, Size: 10, ChunkSize: 4, ChunkCRCs: []uint32{1, 2, 3}})[:9]},
		{"zero chunk size", enc(CkptManifest{Present: true, Seq: 1, Size: 10, ChunkSize: 0, ChunkCRCs: []uint32{1, 2, 3}})},
		{"too few chunks", enc(CkptManifest{Present: true, Seq: 1, Size: 100, ChunkSize: 4, ChunkCRCs: []uint32{1, 2}})},
		{"too many chunks", enc(CkptManifest{Present: true, Seq: 1, Size: 10, ChunkSize: 8, ChunkCRCs: []uint32{1, 2, 3, 4}})},
		{"no chunks", enc(CkptManifest{Present: true, Seq: 1, Size: 10, ChunkSize: 8})},
	}
	for _, c := range cases {
		if _, err := DecodeCkptManifest(c.data); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}
