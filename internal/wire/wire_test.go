package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"mpichv/internal/core"
)

func TestPayloadRoundTrip(t *testing.T) {
	h := PayloadHeader{SenderClock: 123456789, DevKind: 7}
	body := []byte("the payload")
	enc := EncodePayload(h, body)
	if len(enc) != PayloadHeaderLen+len(body) {
		t.Fatalf("encoded length %d", len(enc))
	}
	h2, body2, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2, h) || !bytes.Equal(body, body2) {
		t.Errorf("round trip: %+v %q", h2, body2)
	}
}

func TestPayloadTooShort(t *testing.T) {
	if _, _, err := DecodePayload([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
}

func TestPropertyPayloadRoundTrip(t *testing.T) {
	// Bits 6-7 of DevKind are reserved for the determinant-block and
	// span-id flags, so the valid device-kind domain is 6 bits.
	f := func(clock uint64, kind uint8, span uint64, body []byte) bool {
		in := PayloadHeader{SenderClock: clock, DevKind: kind & 0x3f, Span: span}
		h, b, err := DecodePayload(EncodePayload(in, body))
		return err == nil && reflect.DeepEqual(h, in) && bytes.Equal(b, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadSpanRoundTrip(t *testing.T) {
	h := PayloadHeader{SenderClock: 99, PairSeq: 7, DevKind: 3, Span: 0xdeadbeef}
	enc := EncodePayload(h, []byte("body"))
	if len(enc) != PayloadHeaderLen+PayloadSpanLen+4 {
		t.Fatalf("encoded length %d", len(enc))
	}
	h2, b, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2, h) || string(b) != "body" {
		t.Errorf("round trip: %+v %q", h2, b)
	}
	// A spanless frame must be byte-identical to the pre-span format:
	// tracing off means zero wire delta.
	h.Span = 0
	if n := len(EncodePayload(h, []byte("body"))); n != PayloadSize(4) {
		t.Errorf("spanless frame is %d bytes, want %d", n, PayloadSize(4))
	}
	// A flagged frame cut off before the span id must fail decode, not
	// overread.
	if _, _, err := DecodePayload(enc[:PayloadHeaderLen+2]); err == nil {
		t.Error("truncated span frame accepted")
	}
	// Reserved bit 7 in DevKind is a programming error.
	defer func() {
		if recover() == nil {
			t.Error("DevKind with bit 7 set did not panic")
		}
	}()
	EncodePayload(PayloadHeader{DevKind: 0x80}, nil)
}

func TestEventsRoundTrip(t *testing.T) {
	evs := []core.Event{
		{Sender: 0, SenderClock: 1, RecvClock: 2, Probes: 0},
		{Sender: 31, SenderClock: 1 << 40, RecvClock: 1<<40 + 7, Probes: 99},
		{Sender: -1, SenderClock: 0, RecvClock: 0, Probes: 0},
	}
	got, err := DecodeEvents(EncodeEvents(evs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, got) {
		t.Errorf("round trip: %+v", got)
	}
	// Paper §4.3: the event record is "in the order of 20 bytes".
	if per := (len(EncodeEvents(evs)) - 4) / len(evs); per > 32 {
		t.Errorf("event record is %d bytes; the paper's point is that it is small", per)
	}
}

func TestEventsEmptyBatch(t *testing.T) {
	got, err := DecodeEvents(EncodeEvents(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, err)
	}
}

func TestEventsRejectCorrupt(t *testing.T) {
	if _, err := DecodeEvents([]byte{0, 0}); err == nil {
		t.Error("truncated header accepted")
	}
	enc := EncodeEvents([]core.Event{{Sender: 1}})
	if _, err := DecodeEvents(enc[:len(enc)-3]); err == nil {
		t.Error("truncated batch accepted")
	}
}

func TestPropertyEventsRoundTrip(t *testing.T) {
	f := func(senders []int32, clock uint64) bool {
		if len(senders) > 64 {
			senders = senders[:64]
		}
		evs := make([]core.Event, len(senders))
		for i, s := range senders {
			evs[i] = core.Event{Sender: int(s), SenderClock: clock + uint64(i), RecvClock: uint64(i), Probes: uint32(i)}
		}
		got, err := DecodeEvents(EncodeEvents(evs))
		if err != nil {
			return false
		}
		if len(evs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(evs, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAppendNodeEventsMatchesMap: the map-free one-node encoder
// writes exactly the bytes EncodeNodeEvents writes for {node: evs},
// behind whatever dst already holds.
func TestPropertyAppendNodeEventsMatchesMap(t *testing.T) {
	f := func(node int32, prefix []byte, senders []int32, clocks []uint64, probes uint32) bool {
		evs := make([]core.Event, len(senders)%65)
		for i := range evs {
			evs[i] = core.Event{Sender: int(senders[i]), RecvClock: uint64(i), Probes: probes + uint32(i)}
			if i < len(clocks) {
				evs[i].SenderClock, evs[i].Seq = clocks[i], clocks[i]^0x5555
			}
		}
		want := append(append([]byte(nil), prefix...), EncodeNodeEvents(map[int][]core.Event{int(node): evs})...)
		return bytes.Equal(AppendNodeEvents(prefix, int(node), evs), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalars(t *testing.T) {
	if v, err := DecodeU64(EncodeU64(1 << 63)); err != nil || v != 1<<63 {
		t.Errorf("u64: %d %v", v, err)
	}
	if v, err := DecodeU32(EncodeU32(12345)); err != nil || v != 12345 {
		t.Errorf("u32: %d %v", v, err)
	}
	if _, err := DecodeU64([]byte{1}); err == nil {
		t.Error("short u64 accepted")
	}
	if _, err := DecodeU32([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("long u32 accepted")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	st := NodeStatus{Rank: 17, LogBytes: 1 << 33, SentBytes: 42, RecvBytes: 7}
	got, err := DecodeStatus(EncodeStatus(st))
	if err != nil || got != st {
		t.Errorf("status: %+v %v", got, err)
	}
	if _, err := DecodeStatus([]byte{1}); err == nil {
		t.Error("short status accepted")
	}
}

func TestCkptFraming(t *testing.T) {
	seq, img, err := DecodeCkptSave(EncodeCkptSave(9, []byte("image")))
	if err != nil || seq != 9 || string(img) != "image" {
		t.Errorf("ckpt save: %d %q %v", seq, img, err)
	}
	if _, _, err := DecodeCkptSave([]byte{1}); err == nil {
		t.Error("short ckpt save accepted")
	}
}

func TestCMFraming(t *testing.T) {
	dest, data, err := DecodeCMPut(EncodeCMPut(5, []byte("m")))
	if err != nil || dest != 5 || string(data) != "m" {
		t.Errorf("cm put: %d %q %v", dest, data, err)
	}
	present, from, data, err := DecodeCMMsg(EncodeCMMsg(true, 3, []byte("d")))
	if err != nil || !present || from != 3 || string(data) != "d" {
		t.Errorf("cm msg: %v %d %q %v", present, from, data, err)
	}
	if _, _, err := DecodeCMPut([]byte{1}); err == nil {
		t.Error("short cm put accepted")
	}
	if _, _, _, err := DecodeCMMsg([]byte{1}); err == nil {
		t.Error("short cm msg accepted")
	}
}

// TestKindNames covers every kind: the live kinds have distinct values
// and distinct names, the retired slots keep their numbers but no name,
// and together they fill 1..KELShardUp with no gap.
func TestKindNames(t *testing.T) {
	live := []uint8{KPayload, KRestart1, KRestart2, KCkptNote,
		KEventLog, KEventAck, KEventFetch, KEventFetched,
		KCkptSave, KCkptSaveAck,
		KSchedPoll, KSchedStat, KCkptOrder, KHello, KFinalize,
		KCMPut, KCMGet, KCMMsg, KFinalizeAck,
		KELSyncReq, KELSyncResp, KCSSyncReq, KCSSyncResp,
		KCkptChunk, KCkptChunkAck, KCkptManifestReq, KCkptManifest, KCkptChunkFetch, KCkptChunkData,
		KDetRelay, KDetFlushReq, KDetFlushResp, KELShardDown, KELShardUp}
	retired := []uint8{KCkptSaveAck + 1, KCkptSaveAck + 2} // the whole-image fetch and its reply
	values, names := map[uint8]bool{}, map[string]uint8{}
	for _, k := range live {
		if values[k] {
			t.Errorf("duplicate kind value %d", k)
		}
		values[k] = true
		n := KindName(k)
		if n == fmt.Sprintf("kind-%d", k) {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := names[n]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, n)
		}
		names[n] = k
	}
	for _, k := range retired {
		if values[k] {
			t.Errorf("retired slot %d is a live kind", k)
		}
		values[k] = true
		if n := KindName(k); n != fmt.Sprintf("kind-%d", k) {
			t.Errorf("retired slot %d is named %q", k, n)
		}
	}
	for k := uint8(1); k <= KELShardUp; k++ {
		if !values[k] {
			t.Errorf("kind value %d is neither live nor retired in this test", k)
		}
	}
	if KindName(200) != "kind-200" {
		t.Errorf("unknown kind name: %s", KindName(200))
	}
}
