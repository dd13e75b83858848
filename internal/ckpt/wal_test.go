package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mpichv/internal/walog"
)

// walLogs are the logs every WAL test runs over: a file, as deployed
// workers keep, and the simulator's in-memory disk.
func walLogs(t *testing.T) map[string]walog.Log {
	return map[string]walog.Log{
		"Path":    walog.Path(filepath.Join(t.TempDir(), "cs.wal")),
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

// TestStoreWALSurvivesRestart: a checkpoint store with an armed WAL,
// killed and reattached over the same log, serves the latest image of
// every rank — the restart path of a deployed CS worker and of a
// simulated durable server. Deltas are materialized before hitting the
// log, so the reattached store is whole even if the delta's base was
// compacted in memory. Both logs hold the same bytes.
func TestStoreWALSurvivesRestart(t *testing.T) {
	var written [][]byte
	for name, log := range walLogs(t) {
		st := NewStore()
		if _, err := st.AttachWAL(log, walog.TornConfig{}); err != nil {
			t.Fatal(err)
		}
		img1 := makeImage(t, 0, 1)
		img2 := makeImage(t, 0, 2)
		img3 := makeImage(t, 1, 1)
		if st.Accept(0, 1, img1) != Accepted || st.Accept(0, 2, img2) != Accepted || st.Accept(1, 1, img3) != Accepted {
			t.Fatal("accept failed")
		}
		st.Accept(0, 2, img2) // duplicate must not re-append
		st.CloseWAL()
		written = append(written, logBytes(t, log))

		st2 := NewStore()
		res, err := st2.AttachWAL(log, walog.TornConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Torn != 0 || res.Records != 3 {
			t.Fatalf("%s: clean WAL loaded %+v, want 3 records", name, res)
		}
		got, ok := st2.Get(0)
		if !ok || !bytes.Equal(got, img2) {
			t.Fatalf("%s: rank 0 restored wrong image (ok=%v)", name, ok)
		}
		if !st2.Has(1) {
			t.Fatalf("%s: rank 1 lost its image across the restart", name)
		}
	}
	if !bytes.Equal(written[0], written[1]) {
		t.Error("the MemFile and the file hold different bytes")
	}
}

// A delta is materialized before it is logged: the restarted store holds
// the full image without needing the base to have survived.
func TestStoreWALHoldsMaterializedImage(t *testing.T) {
	for name, log := range walLogs(t) {
		base, delta, full := chainImages(4, 1, 2)
		st := NewStore()
		if _, err := st.AttachWAL(log, walog.TornConfig{}); err != nil {
			t.Fatal(err)
		}
		if st.Accept(4, 1, base) != Accepted || st.Accept(4, 2, delta) != Accepted {
			t.Fatal("accept failed")
		}
		st.CloseWAL()

		st2 := NewStore()
		if _, err := st2.AttachWAL(log, walog.TornConfig{}); err != nil {
			t.Fatal(err)
		}
		if got, ok := st2.Get(4); !ok || !bytes.Equal(got, full) {
			t.Fatalf("%s: restored image differs from the full encoding (ok=%v)", name, ok)
		}
	}
}

// TestStoreWALTornImage: a torn image append costs that image only; the
// image's own CRC frame rejects any half-written record the log scan
// might still frame correctly.
func TestStoreWALTornImage(t *testing.T) {
	for name, log := range walLogs(t) {
		st := NewStore()
		// Every append torn: nothing durable survives.
		if _, err := st.AttachWAL(log, walog.TornConfig{Seed: 1, Every: 1}); err != nil {
			t.Fatal(err)
		}
		if st.Accept(0, 1, makeImage(t, 0, 1)) != Accepted {
			t.Fatal("accept failed")
		}
		st.CloseWAL()

		st2 := NewStore()
		res, err := st2.AttachWAL(log, walog.TornConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != 0 || res.Torn == 0 {
			t.Fatalf("%s: torn-everything WAL loaded %+v", name, res)
		}
		if st2.Has(0) {
			t.Fatalf("%s: a torn image was restored", name)
		}
	}
}
