// Command gencorpus regenerates the committed seed corpora for the
// wire/core/ckpt fuzz targets. Each seed is a well-formed frame from
// the real encoders (plus a few deliberately truncated ones), written
// in the "go test fuzz v1" format the fuzzing engine loads from
// testdata/fuzz/<FuzzName>/. Seeds are named by content and nothing is
// deleted: after a format change the previous generation's seeds stay
// behind as inputs the decoders must now reject. Run from the repo
// root:
//
//	go run ./tools/gencorpus
package main

import (
	"crypto/sha256"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mpichv/internal/ckpt"
	"mpichv/internal/core"
	"mpichv/internal/wire"
)

func writeSeed(dir string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	name := fmt.Sprintf("seed-%x", sha256.Sum256([]byte(body)))[:21]
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	seeds := map[string][][]byte{}
	add := func(target string, frames ...[]byte) {
		seeds[target] = append(seeds[target], frames...)
	}

	// Payload frames: legacy, spanned, empty body, truncated header,
	// piggybacked determinant blocks (alone and combined with a span).
	add("internal/wire/testdata/fuzz/FuzzDecodePayload",
		wire.EncodePayload(wire.PayloadHeader{SenderClock: 7, PairSeq: 2, DevKind: 3}, []byte("ring token")),
		wire.EncodePayload(wire.PayloadHeader{SenderClock: 41, PairSeq: 9, Span: 0x0003_0000_0000_0029}, []byte("traced payload")),
		wire.EncodePayload(wire.PayloadHeader{}, nil),
		wire.EncodePayload(wire.PayloadHeader{SenderClock: 1}, []byte("x"))[:12],
		wire.EncodePayload(wire.PayloadHeader{SenderClock: 5, Dets: []core.Event{{Sender: 2, SenderClock: 9, RecvClock: 4, Seq: 1}}}, []byte("det")),
		wire.EncodePayload(wire.PayloadHeader{SenderClock: 6, Span: 0x0001_0000_0000_0002, Dets: []core.Event{
			{Sender: 0, SenderClock: 1, RecvClock: 2, Probes: 3, Seq: 1},
			{Sender: 7, SenderClock: 1 << 40, RecvClock: 1<<40 + 1, Seq: 2},
		}}, nil),
	)
	add("internal/wire/testdata/fuzz/FuzzDecodeDetRelay",
		wire.AppendDetRelay(nil, 7, 3, []core.Event{{Sender: 1, SenderClock: 2, RecvClock: 3, Seq: 4}}),
		wire.AppendDetRelay(nil, 0, 0, nil),
		wire.AppendDetRelay(nil, 12, 2, []core.Event{{Sender: 5, Probes: 9, Seq: 1}})[:11],
	)

	evs := []core.Event{
		{Sender: 0, SenderClock: 1, RecvClock: 2, Probes: 1, Seq: 1},
		{Sender: 3, SenderClock: 1 << 33, RecvClock: 1<<33 + 1, Seq: 2},
	}
	add("internal/wire/testdata/fuzz/FuzzDecodeEvents",
		wire.EncodeEvents(nil),
		wire.EncodeEvents(evs),
		wire.EncodeEvents(evs)[:9],
	)
	add("internal/wire/testdata/fuzz/FuzzDecodeEventLog",
		wire.EncodeEventLog(12, evs),
		wire.EncodeEventLog(0, nil),
	)
	add("internal/wire/testdata/fuzz/FuzzDecodeEventAck",
		wire.EncodeEventAck(12, 11),
		wire.EncodeEventAck(0, 0),
		wire.EncodeEventAck(1, 1)[:5],
	)
	add("internal/wire/testdata/fuzz/FuzzDecodeCkptChunk",
		wire.AppendCkptChunk(nil, 4, 0, 3, []byte("chunk zero")),
		wire.AppendCkptChunk(nil, 4, 2, 3, nil),
		wire.AppendCkptChunk(nil, 1, 0, 1, []byte("whole image"))[:10],
	)
	add("internal/wire/testdata/fuzz/FuzzDecodeCkptManifest",
		wire.EncodeCkptManifest(wire.CkptManifest{Present: true, Seq: 6, Size: 130, ChunkSize: 64, ImageCRC: 0xdead, ChunkCRCs: []uint32{1, 2, 3}}),
		wire.EncodeCkptManifest(wire.CkptManifest{}),
	)

	// Snapshots: a state that has collected (non-empty horizon vector),
	// its delta against the marks of an earlier checkpoint, no horizon,
	// a SAVED entry with channel seq 0 (the decoder accepts it, so the
	// full encoding must keep it), empty, truncated.
	sn := &core.Snapshot{
		Rank:      2,
		H:         29,
		HS:        map[int]uint64{0: 3, 1: 9},
		HR:        map[int]uint64{3: 7},
		SeqTo:     map[int]uint64{0: 3, 1: 1},
		SeqIn:     map[int]uint64{3: 5},
		Collected: map[int]uint64{0: 10, 1: 4},
		Saved: []core.SavedMsg{
			{To: 0, Clock: 11, Seq: 2, Kind: 1, Data: []byte("saved payload")},
			{To: 1, Clock: 12, Seq: 1, Kind: 1, Data: nil},
			{To: 0, Clock: 20, Seq: 3, Kind: 2, Data: []byte("after the base")},
		},
	}
	snb := core.AppendSnapshot(nil, sn)
	delta := core.AppendSnapshotDelta(nil, sn, map[int]uint64{0: 2, 1: 1})
	noHorizon := core.AppendSnapshot(nil, &core.Snapshot{Rank: 1, H: 2, SeqTo: map[int]uint64{0: 1},
		Saved: []core.SavedMsg{{To: 0, Clock: 2, Seq: 1, Data: []byte("x")}}})
	seqZero := core.AppendSnapshot(nil, &core.Snapshot{Rank: 1, H: 1,
		Saved: []core.SavedMsg{{To: 0, Clock: 1, Seq: 0, Data: []byte("unsequenced")}}})
	emptySn := core.AppendSnapshot(nil, &core.Snapshot{})
	add("internal/core/testdata/fuzz/FuzzDecodeSnapshot", snb, delta, noHorizon, seqZero, emptySn, snb[:17])

	// Images: a full image and a delta over it, both carrying the
	// horizon; empty; cut inside the frame header.
	imb := ckpt.AppendImage(nil, &ckpt.Image{Rank: 2, Seq: 4, AppState: []byte("app bytes"), Proto: snb})
	deltaIm := ckpt.AppendImage(nil, &ckpt.Image{Rank: 2, Seq: 5, BaseSeq: 4, AppState: []byte("app bytes'"), Proto: delta})
	emptyIm := ckpt.AppendImage(nil, &ckpt.Image{})
	add("internal/ckpt/testdata/fuzz/FuzzDecodeImage", imb, deltaIm, emptyIm, imb[:8])
	// ... and the first chunk of that image as it travels.
	add("internal/wire/testdata/fuzz/FuzzDecodeCkptChunk",
		wire.AppendCkptChunk(nil, 4, 0, 2, imb[:len(imb)/2]))

	for dir, frames := range seeds {
		for _, frame := range frames {
			writeSeed(dir, frame)
		}
		fmt.Printf("%-55s %d seeds\n", dir, len(frames))
	}
}
