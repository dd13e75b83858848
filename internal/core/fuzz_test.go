package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder —
// the frame a restarting daemon trusts to rebuild its SAVED log and
// clock vectors. There is one layout per snapshot: an accepted input
// must re-encode to exactly the bytes that were accepted.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(AppendSnapshot(nil, sampleSnapshot()))
	f.Add(AppendSnapshotDelta(nil, sampleSnapshot(), map[int]uint64{0: 2, 1: 1}))
	f.Add(AppendSnapshot(nil, &Snapshot{}))
	f.Add([]byte("MVS2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if enc := AppendSnapshot(nil, got); !bytes.Equal(enc, data) {
			t.Fatalf("accepted snapshot re-encodes differently:\n in  %x\n out %x", data, enc)
		}
	})
}

// FuzzPlanMerge runs the in-place merge the checkpoint store uses on
// arbitrary base and delta encodings. Whatever it accepts it must merge
// exactly as the reference does on the decoded snapshots, in the size it
// promised.
func FuzzPlanMerge(f *testing.F) {
	sn := sampleSnapshot()
	base := AppendSnapshot(nil, &Snapshot{Rank: 3, H: 12, SeqTo: map[int]uint64{0: 2, 1: 1}, Saved: append(
		[]SavedMsg{{To: 0, Clock: 9, Seq: 0, Kind: 1, Data: []byte("collected since")}}, sn.Saved[:3]...)})
	f.Add(base, AppendSnapshotDelta(nil, sn, map[int]uint64{0: 2, 1: 1}))
	f.Add(base, AppendSnapshot(nil, &Snapshot{}))
	f.Add(AppendSnapshot(nil, &Snapshot{}), base)
	f.Fuzz(func(t *testing.T, base, delta []byte) {
		m, err := PlanMerge(base, delta)
		bsn, berr := DecodeSnapshot(base)
		dsn, derr := DecodeSnapshot(delta)
		if (err == nil) != (berr == nil && derr == nil) {
			t.Fatalf("PlanMerge: %v, but decoding base: %v, delta: %v", err, berr, derr)
		}
		if err != nil {
			return
		}
		got := m.Append(nil)
		if len(got) != m.Size() {
			t.Fatalf("appended %d bytes, Size promises %d", len(got), m.Size())
		}
		if want := AppendSnapshot(nil, mergeSnapshots(bsn, dsn)); !bytes.Equal(got, want) {
			t.Fatalf("in-place merge differs from the reference:\n got  %x\n want %x", got, want)
		}
	})
}
