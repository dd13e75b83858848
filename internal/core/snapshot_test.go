package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// sampleSnapshot builds a snapshot with populated vectors and a SAVED
// log whose entries straddle the marks boundary used by the delta
// tests: entries up to the marks' seqs belong to the "base", later ones
// to the delta.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Rank:  3,
		H:     41,
		HS:    map[int]uint64{0: 5, 1: 9, 2: 1},
		HR:    map[int]uint64{0: 4, 2: 7},
		SeqTo: map[int]uint64{0: 3, 1: 2},
		SeqIn: map[int]uint64{0: 6, 2: 2},
		// Peer 0 checkpointed having delivered through clock 9, peer 2
		// through 8: nothing at or below either is still in the log.
		Collected: map[int]uint64{0: 9, 2: 8},
		Saved: []SavedMsg{
			{To: 0, Clock: 10, Seq: 1, Kind: 1, Data: []byte("alpha")},
			{To: 1, Clock: 11, Seq: 1, Kind: 1, Data: []byte("bravo")},
			{To: 0, Clock: 12, Seq: 2, Kind: 2, Data: nil},
			{To: 0, Clock: 14, Seq: 3, Kind: 1, Data: []byte("charlie")},
			{To: 1, Clock: 15, Seq: 2, Kind: 1, Data: []byte("delta!")},
		},
	}
}

func TestSnapshotBinaryRoundTripAndSize(t *testing.T) {
	sn := sampleSnapshot()
	b, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != SnapshotSize(sn) {
		t.Errorf("encoded %d bytes, SnapshotSize promises %d", len(b), SnapshotSize(sn))
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(sn), normalize(got)) {
		t.Errorf("round trip mutated snapshot:\n got %+v\nwant %+v", got, sn)
	}
}

// normalize maps nil Data to empty so DeepEqual compares content.
func normalize(sn *Snapshot) *Snapshot {
	cp := *sn
	cp.Saved = append([]SavedMsg(nil), sn.Saved...)
	for i := range cp.Saved {
		if cp.Saved[i].Data == nil {
			cp.Saved[i].Data = []byte{}
		}
	}
	return &cp
}

func TestSnapshotEncodingDeterministic(t *testing.T) {
	// The store materializes full images independently on each replica
	// and anti-entropy compares them byte for byte, so two encodings of
	// equal snapshots (rebuilt so map iteration order differs) must be
	// identical.
	a, _ := sampleSnapshot().Encode()
	for i := 0; i < 10; i++ {
		b, _ := sampleSnapshot().Encode()
		if !bytes.Equal(a, b) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestDecodeSnapshotRejectsTruncation(t *testing.T) {
	b, _ := sampleSnapshot().Encode()
	for cut := 4; cut < len(b); cut += 3 {
		if _, err := DecodeSnapshot(b[:cut]); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes decoded", cut, len(b))
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), b...), 0xFF)); err == nil {
		t.Error("snapshot with a trailing byte decoded")
	}
}

func TestDecodeSnapshotRejectsOtherGenerations(t *testing.T) {
	// One format generation: the previous layout (no Collected vector)
	// is refused by its magic, never migrated or guessed at.
	b, _ := sampleSnapshot().Encode()
	old := append([]byte("MVS1"), b[4:]...)
	if _, err := DecodeSnapshot(old); err == nil {
		t.Error("an MVS1 body decoded")
	}
}

func TestDecodeSnapshotRejectsUnsortedVector(t *testing.T) {
	// Decode accepts only what the encoder emits, so that what a store
	// copies verbatim out of a delta is what re-encoding would produce.
	b, _ := sampleSnapshot().Encode()
	hs := 4 + 4 + 8 + 4 // first key of the HS vector {0, 1, 2}
	swapped := append([]byte(nil), b...)
	copy(swapped[hs:hs+12], b[hs+12:hs+24])
	copy(swapped[hs+12:hs+24], b[hs:hs+12])
	if _, err := DecodeSnapshot(swapped); err == nil {
		t.Error("a vector with descending keys decoded")
	}
	dup := append([]byte(nil), b...)
	copy(dup[hs+12:hs+24], b[hs:hs+12])
	if _, err := DecodeSnapshot(dup); err == nil {
		t.Error("a vector with a repeated key decoded")
	}
}

// mergeSnapshots is the reference the encoded merge is checked against:
// the same rule on decoded snapshots — the delta's clocks and vectors,
// the base's SAVED entries above the delta's horizon, then the delta's.
func mergeSnapshots(base, delta *Snapshot) *Snapshot {
	sn := *delta
	sn.Saved = nil
	for _, m := range base.Saved {
		if m.Clock > delta.Collected[m.To] {
			sn.Saved = append(sn.Saved, m)
		}
	}
	sn.Saved = append(sn.Saved, delta.Saved...)
	return &sn
}

// materializeEncoded runs the product path and checks its size promise.
func materializeEncoded(t *testing.T, base, delta []byte) []byte {
	t.Helper()
	m, err := PlanMerge(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Append(nil)
	if len(out) != m.Size() {
		t.Fatalf("merge appended %d bytes, Size promises %d", len(out), m.Size())
	}
	return out
}

func TestSnapshotDeltaMergeEqualsFull(t *testing.T) {
	// The delta correctness argument, pinned: base = entries at or below
	// marks, delta = the rest; merging base and delta must re-encode to
	// the exact bytes of the full snapshot.
	full := sampleSnapshot()
	marks := map[int]uint64{0: 2, 1: 1} // base holds alpha, bravo, seq-2-to-0
	// The base also holds an entry the sender has collected since (peer
	// 0 delivered clock 9 and checkpointed): the merge must drop it.
	base := &Snapshot{
		Rank: full.Rank, H: 12,
		HS: map[int]uint64{0: 2}, HR: map[int]uint64{0: 1},
		SeqTo: map[int]uint64{0: 2, 1: 1}, SeqIn: map[int]uint64{0: 3},
		Saved: append([]SavedMsg{{To: 0, Clock: 9, Seq: 0, Kind: 1, Data: []byte("collected")}}, full.Saved[:3]...),
	}

	enc := AppendSnapshotDelta(nil, full, marks)
	if want := SnapshotDeltaSize(full, marks); len(enc) != want {
		t.Errorf("delta encoded %d bytes, SnapshotDeltaSize promises %d", len(enc), want)
	}
	delta, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Saved) != 2 {
		t.Fatalf("delta carries %d saved entries, want 2", len(delta.Saved))
	}

	fb, _ := full.Encode()
	if mb, _ := mergeSnapshots(base, delta).Encode(); !bytes.Equal(mb, fb) {
		t.Error("merge(base, delta) does not re-encode to the full snapshot's bytes")
	}
	bb, _ := base.Encode()
	if !bytes.Equal(materializeEncoded(t, bb, enc), fb) {
		t.Error("the encoded merge does not yield the full snapshot's bytes")
	}
}

func TestPlanMergeRejectsDamage(t *testing.T) {
	full := sampleSnapshot()
	base, _ := (&Snapshot{Rank: full.Rank, Saved: full.Saved[:3]}).Encode()
	delta := AppendSnapshotDelta(nil, full, map[int]uint64{0: 2, 1: 1})
	for cut := 0; cut < len(base); cut += 5 {
		if _, err := PlanMerge(base[:cut], delta); err == nil {
			t.Fatalf("base truncated to %d of %d bytes merged", cut, len(base))
		}
	}
	for cut := 0; cut < len(delta); cut += 5 {
		if _, err := PlanMerge(base, delta[:cut]); err == nil {
			t.Fatalf("delta truncated to %d of %d bytes merged", cut, len(delta))
		}
	}
	if _, err := PlanMerge(append(append([]byte(nil), base...), 0), delta); err == nil {
		t.Error("base with a trailing byte merged")
	}
}

// The invariant the checkpoint store rests on, over seeded random
// histories: after every step, materializing the delta of the live state
// over the last stored image gives exactly the live state's full
// encoding, and restoring it gives the live SAVED log entry for entry.
// Histories include notes that arrive late (below one already applied),
// notes that run ahead of a rolled-back sender's clock, and a Restore
// from the stored chain followed by further collection and deltas.
func TestPropertyChainEqualsLiveLog(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := NewState(0)
		stored := AppendSnapshot(nil, live.Snapshot()) // the store's image
		ref := live.Snapshot()                         // the same, kept decoded
		marks := ref.SeqTo
		var maxClock uint64
		peerClock := map[int]uint64{}
		for step := 0; step < 300; step++ {
			peer := 1 + rng.Intn(3)
			switch r := rng.Intn(20); {
			case r < 10:
				data := make([]byte, rng.Intn(48))
				rng.Read(data)
				live.PrepareSend(peer, uint8(rng.Intn(3)), data)
			case r < 13: // a delivery ticks the clock between sends
				peerClock[peer] += 1 + uint64(rng.Intn(3))
				if peerClock[peer] > live.hr[peer] {
					live.Commit(peer, peerClock[peer], live.seqIn[peer]+1)
					live.EventsAcked(1)
				}
			case r < 18: // a note: current, stale, or ahead of a rolled-back clock
				live.CollectGarbage(peer, uint64(rng.Int63n(int64(maxClock)+2)))
			case r < 19: // crash: roll back to the stored image
				sn, err := DecodeSnapshot(stored)
				if err != nil {
					t.Fatal(err)
				}
				live = Restore(sn)
			}
			maxClock = max(maxClock, live.Clock())

			sn := live.Snapshot()
			delta := AppendSnapshotDelta(nil, sn, marks)
			got := materializeEncoded(t, stored, delta)
			if want := AppendSnapshot(nil, sn); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: materialized chain differs from the live state's full encoding", seed, step)
			}
			dsn, err := DecodeSnapshot(delta)
			if err != nil {
				t.Fatal(err)
			}
			merged := mergeSnapshots(ref, dsn)
			if enc, _ := merged.Encode(); !bytes.Equal(enc, got) {
				t.Fatalf("seed %d step %d: encoded merge differs from the reference merge", seed, step)
			}
			gsn, err := DecodeSnapshot(got)
			if err != nil {
				t.Fatal(err)
			}
			re := Restore(gsn)
			if len(re.saved) != len(live.saved) || re.logBytes != live.logBytes {
				t.Fatalf("seed %d step %d: restored log holds %d entries / %d bytes, live holds %d / %d",
					seed, step, len(re.saved), re.logBytes, len(live.saved), live.logBytes)
			}
			for i := range live.saved {
				a, b := live.saved[i], re.saved[i]
				if a.To != b.To || a.Clock != b.Clock || a.Seq != b.Seq || a.Kind != b.Kind || !bytes.Equal(a.Data, b.Data) {
					t.Fatalf("seed %d step %d: restored entry %d is %+v, live holds %+v", seed, step, i, b, a)
				}
			}
			if rng.Intn(4) == 0 { // the store acks: this image is the next base
				stored, ref, marks = got, merged, sn.SeqTo
			}
		}
	}
}

// A snapshot shares the live log's payloads, and is still a
// point-in-time view: over seeded histories, a snapshot's SAVED payloads
// are the log's own buffers at capture, and after 200 further random
// sends, deliveries and collections on the live state it encodes to the
// very bytes it did at capture.
func TestPropertySnapshotSharesPayloads(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := NewState(0)
		peerClock := map[int]uint64{}
		step := func() {
			peer := 1 + rng.Intn(3)
			switch r := rng.Intn(10); {
			case r < 5:
				data := make([]byte, 1+rng.Intn(48))
				rng.Read(data)
				live.PrepareSend(peer, uint8(rng.Intn(3)), data)
			case r < 7:
				peerClock[peer] += 1 + uint64(rng.Intn(3))
				live.Commit(peer, peerClock[peer], live.seqIn[peer]+1)
				live.EventsAcked(1)
			default:
				live.CollectGarbage(peer, uint64(rng.Int63n(int64(live.Clock())+2)))
			}
		}
		for i := 0; i < 50+rng.Intn(100); i++ {
			step()
		}
		sn := live.Snapshot()
		at := AppendSnapshot(nil, sn)
		if len(sn.Saved) != len(live.saved) {
			t.Fatalf("seed %d: snapshot holds %d entries, the log %d", seed, len(sn.Saved), len(live.saved))
		}
		for i := range sn.Saved {
			if &sn.Saved[i].Data[0] != &live.saved[i].Data[0] {
				t.Fatalf("seed %d: snapshot entry %d is a copy of the log's payload", seed, i)
			}
		}
		for i := 0; i < 200; i++ {
			step()
		}
		if !bytes.Equal(AppendSnapshot(nil, sn), at) {
			t.Fatalf("seed %d: the snapshot changed with the live state", seed)
		}
	}
}

func TestSnapshotDeltaNilMarksIsFull(t *testing.T) {
	sn := sampleSnapshot()
	a := AppendSnapshot(nil, sn)
	b := AppendSnapshotDelta(nil, sn, nil)
	if !bytes.Equal(a, b) {
		t.Error("nil marks should yield the full encoding")
	}
}

// The encode path runs on every checkpoint; with a preallocated
// destination it must not allocate (the sorted-key scratch comes from a
// pool, warmed by the first call).
func TestAppendSnapshotZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation perturbs sync.Pool; alloc counts are not meaningful")
	}
	sn := sampleSnapshot()
	marks := map[int]uint64{0: 2, 1: 1}
	full := make([]byte, 0, SnapshotSize(sn))
	delta := make([]byte, 0, SnapshotDeltaSize(sn, marks))
	AppendSnapshot(full, sn) // warm the scratch pool
	cases := []struct {
		name string
		fn   func()
	}{
		{"AppendSnapshot", func() { AppendSnapshot(full[:0], sn) }},
		{"AppendSnapshotDelta", func() { AppendSnapshotDelta(delta[:0], sn, marks) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}
