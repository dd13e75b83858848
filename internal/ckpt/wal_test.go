package ckpt

import (
	"bytes"
	"path/filepath"
	"testing"

	"mpichv/internal/walog"
)

// TestStoreWALSurvivesRestart: a checkpoint store with an armed WAL,
// killed and reopened over the same file, serves the latest image of
// every rank — the deployed CS worker's restart path. Deltas are
// materialized before hitting the log, so the reopened store is whole
// even if the delta's base was compacted in memory.
func TestStoreWALSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.wal")
	st := NewStore()
	if _, err := st.OpenWAL(path, walog.TornConfig{}); err != nil {
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

	st2 := NewStore()
	res, err := st2.OpenWAL(path, walog.TornConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn != 0 || res.Records != 3 {
		t.Fatalf("clean WAL loaded %+v, want 3 records", res)
	}
	got, ok := st2.Get(0)
	if !ok || !bytes.Equal(got, img2) {
		t.Fatalf("rank 0 restored wrong image (ok=%v)", ok)
	}
	if !st2.Has(1) {
		t.Fatal("rank 1 lost its image across the restart")
	}
}

// A delta is materialized before it is logged: the restarted store holds
// the full image without needing the base to have survived.
func TestStoreWALHoldsMaterializedImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.wal")
	base, delta, full := chainImages(4, 1, 2)
	st := NewStore()
	if _, err := st.OpenWAL(path, walog.TornConfig{}); err != nil {
		t.Fatal(err)
	}
	if st.Accept(4, 1, base) != Accepted || st.Accept(4, 2, delta) != Accepted {
		t.Fatal("accept failed")
	}
	st.CloseWAL()

	st2 := NewStore()
	if _, err := st2.OpenWAL(path, walog.TornConfig{}); err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.Get(4); !ok || !bytes.Equal(got, full) {
		t.Fatalf("restored image differs from the full encoding (ok=%v)", ok)
	}
}

// TestStoreWALTornImage: a torn image append costs that image only; the
// image's own CRC frame rejects any half-written record the log scan
// might still frame correctly.
func TestStoreWALTornImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.wal")
	st := NewStore()
	// Every append torn: nothing durable survives.
	if _, err := st.OpenWAL(path, walog.TornConfig{Seed: 1, Every: 1}); err != nil {
		t.Fatal(err)
	}
	if st.Accept(0, 1, makeImage(t, 0, 1)) != Accepted {
		t.Fatal("accept failed")
	}
	st.CloseWAL()

	st2 := NewStore()
	res, err := st2.OpenWAL(path, walog.TornConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || res.Torn == 0 {
		t.Fatalf("torn-everything WAL loaded %+v", res)
	}
	if st2.Has(0) {
		t.Fatal("a torn image was restored")
	}
}
