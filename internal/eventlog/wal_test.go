package eventlog

import (
	"bytes"
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

// walLogs are the logs every WAL test runs over: a file, as deployed
// workers keep, and the simulator's in-memory disk.
func walLogs(t *testing.T) map[string]walog.Log {
	return map[string]walog.Log{
		"Path":    walog.Path(filepath.Join(t.TempDir(), "el.wal")),
		"MemFile": new(walog.MemFile),
	}
}

// logBytes reads back what a log holds.
func logBytes(t *testing.T, log walog.Log) []byte {
	t.Helper()
	if m, ok := log.(*walog.MemFile); ok {
		return m.Bytes()
	}
	data, err := os.ReadFile(string(log.(walog.Path)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreWALBytesPinned: the WAL a fixed submission sequence leaves on
// disk is pinned byte for byte (length and FNV-1a hash), with and without
// torn-write injection, and a MemFile holds the same bytes as the file.
// The sequence mixes nodes, duplicates, and batches whose records fall
// on both sides of walog's 4 KiB scratch. A change to how a record is
// encoded or framed moves the hash; the file format is what a restarted
// logger must still read.
func TestStoreWALBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		torn walog.TornConfig
		size int
		hash uint64
	}{
		{walog.TornConfig{}, 13696, 0xb6903bdf0d0cb19b},
		{walog.TornConfig{Seed: 5, Every: 3}, 9254, 0x3667901c8f15a133},
	} {
		var written [][]byte
		for name, log := range walLogs(t) {
			st := NewStore()
			if _, err := st.AttachWAL(log, tc.torn); err != nil {
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
			data := logBytes(t, log)
			h := fnv.New64a()
			h.Write(data)
			if len(data) != tc.size || h.Sum64() != tc.hash {
				t.Errorf("%s, torn %+v: WAL is %d bytes, hash %#x; pinned %d bytes, %#x",
					name, tc.torn, len(data), h.Sum64(), tc.size, tc.hash)
			}
			written = append(written, data)
		}
		if !bytes.Equal(written[0], written[1]) {
			t.Errorf("torn %+v: the MemFile and the file hold different bytes", tc.torn)
		}
	}
}

// TestStoreWALSurvivesRestart: a store with an armed WAL, killed and
// reattached over the same log, comes back holding every logged event —
// the restart path of a deployed EL worker and of a simulated durable
// logger.
func TestStoreWALSurvivesRestart(t *testing.T) {
	for name, log := range walLogs(t) {
		st := NewStore()
		if _, err := st.AttachWAL(log, walog.TornConfig{}); err != nil {
			t.Fatal(err)
		}
		evs := walEvents(20)
		st.Add(2, evs[:10])
		st.Add(2, evs[10:])
		st.Add(2, evs[:5]) // duplicates must not re-append
		st.CloseWAL()

		st2 := NewStore()
		res, err := st2.AttachWAL(log, walog.TornConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Torn != 0 {
			t.Fatalf("%s: clean WAL loaded with %d torn records", name, res.Torn)
		}
		if st2.Count(2) != 20 {
			t.Fatalf("%s: restarted store holds %d events, want 20", name, st2.Count(2))
		}
		for i, ev := range st2.Events(2, 0) {
			if ev.RecvClock != uint64(i+1) {
				t.Fatalf("%s: event %d out of order: %+v", name, i, ev)
			}
		}
	}
}

// TestStoreWALTornWrites: under injected short writes the reattached
// store holds exactly the records whose appends survived — a torn
// append never poisons its neighbours.
func TestStoreWALTornWrites(t *testing.T) {
	for name, log := range walLogs(t) {
		st := NewStore()
		if _, err := st.AttachWAL(log, walog.TornConfig{Seed: 11, Every: 4}); err != nil {
			t.Fatal(err)
		}
		evs := walEvents(40)
		for _, ev := range evs {
			st.Add(3, []core.Event{ev}) // one record per event
		}
		st.CloseWAL()

		st2 := NewStore()
		res, err := st2.AttachWAL(log, walog.TornConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Torn == 0 {
			t.Fatalf("%s: fault injector never fired", name)
		}
		if got := st2.Count(3); got+res.Torn < 40 || got >= 40 {
			t.Fatalf("%s: survivors %d + torn %d inconsistent with 40 appends", name, got, res.Torn)
		}
		// Every survivor must be one of the appended events, in clock order.
		for i, ev := range st2.Events(3, 0) {
			if ev.Sender != 1 || ev.RecvClock == 0 || ev.RecvClock > 40 {
				t.Fatalf("%s: survivor %d is not an appended event: %+v", name, i, ev)
			}
		}
	}
}
