package eventlog

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"mpichv/internal/core"
	"mpichv/internal/walog"
)

func walEvents(n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		evs[i] = core.Event{Sender: 1, SenderClock: uint64(i + 1), RecvClock: uint64(i + 1), Seq: uint64(i + 1)}
	}
	return evs
}

// TestStoreWALBytesPinned: the WAL a fixed submission sequence leaves on
// disk is pinned byte for byte (length and FNV-1a hash), with and without
// torn-write injection. The sequence mixes nodes, duplicates, and
// batches whose records fall on both sides of walog's 4 KiB scratch.
// A change to how a record is encoded or framed moves the hash; the
// file format is what a restarted logger must still read.
func TestStoreWALBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		torn walog.TornConfig
		size int
		hash uint64
	}{
		{walog.TornConfig{}, 13696, 0xb6903bdf0d0cb19b},
		{walog.TornConfig{Seed: 5, Every: 3}, 9254, 0x3667901c8f15a133},
	} {
		path := filepath.Join(t.TempDir(), "el.wal")
		st := NewStore()
		if _, err := st.OpenWAL(path, tc.torn); err != nil {
			t.Fatal(err)
		}
		evs := walEvents(400)
		for i, n := range []int{1, 3, 1, 200, 7, 127, 1, 60} {
			node := i % 3
			lo := (i * 37) % 200
			st.Add(node, evs[lo:lo+n])
			st.Add(node, evs[lo+n/2:lo+n+2]) // a record of the two fresh events
		}
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if len(data) != tc.size || h.Sum64() != tc.hash {
			t.Errorf("torn %+v: WAL is %d bytes, hash %#x; pinned %d bytes, %#x",
				tc.torn, len(data), h.Sum64(), tc.size, tc.hash)
		}
	}
}

// TestStoreWALSurvivesRestart: a store with an armed WAL, killed and
// reopened over the same file, comes back holding every logged event —
// the deployed EL worker's restart path.
func TestStoreWALSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "el.wal")
	st := NewStore()
	if _, err := st.OpenWAL(path, walog.TornConfig{}); err != nil {
		t.Fatal(err)
	}
	evs := walEvents(20)
	st.Add(2, evs[:10])
	st.Add(2, evs[10:])
	st.Add(2, evs[:5]) // duplicates must not re-append
	st.CloseWAL()

	st2 := NewStore()
	res, err := st2.OpenWAL(path, walog.TornConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn != 0 {
		t.Fatalf("clean WAL loaded with %d torn records", res.Torn)
	}
	if st2.Count(2) != 20 {
		t.Fatalf("restarted store holds %d events, want 20", st2.Count(2))
	}
	got := st2.Events(2, 0)
	for i, ev := range got {
		if ev.RecvClock != uint64(i+1) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
}

// TestStoreWALTornWrites: under injected short writes the reopened
// store holds exactly the records whose appends survived — a torn
// append never poisons its neighbours.
func TestStoreWALTornWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "el.wal")
	st := NewStore()
	if _, err := st.OpenWAL(path, walog.TornConfig{Seed: 11, Every: 4}); err != nil {
		t.Fatal(err)
	}
	evs := walEvents(40)
	for _, ev := range evs {
		st.Add(3, []core.Event{ev}) // one record per event
	}
	st.CloseWAL()

	st2 := NewStore()
	res, err := st2.OpenWAL(path, walog.TornConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn == 0 {
		t.Fatal("fault injector never fired")
	}
	if got := st2.Count(3); got+res.Torn < 40 || got >= 40 {
		t.Fatalf("survivors %d + torn %d inconsistent with 40 appends", got, res.Torn)
	}
	// Every survivor must be one of the appended events, in clock order.
	for i, ev := range st2.Events(3, 0) {
		if ev.Sender != 1 || ev.RecvClock == 0 || ev.RecvClock > 40 {
			t.Fatalf("survivor %d is not an appended event: %+v", i, ev)
		}
	}
}
