package walog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func writeAll(t *testing.T, path string, torn TornConfig, bodies [][]byte) *Writer {
	t.Helper()
	w, err := Open(path, torn)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

func loadAll(t *testing.T, path string) ([][]byte, LoadResult) {
	t.Helper()
	var got [][]byte
	res, err := Load(path, func(b []byte) { got = append(got, append([]byte(nil), b...)) })
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var bodies [][]byte
	for i := 0; i < 50; i++ {
		bodies = append(bodies, []byte(fmt.Sprintf("record-%d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i)))))
	}
	// Records on both sides of the writer's scratch, each followed by a
	// small one that reuses it.
	for i, n := range []int{scratchLen - headerLen - 1, scratchLen - headerLen, scratchLen - headerLen + 1} {
		bodies = append(bodies, bytes.Repeat([]byte{byte(0xA0 + i)}, n), []byte{byte(i)})
	}
	writeAll(t, path, TornConfig{}, bodies)
	got, res := loadAll(t, path)
	if res.Torn != 0 || res.Records != len(bodies) {
		t.Fatalf("load = %+v, want %d clean records", res, len(bodies))
	}
	for i := range bodies {
		if !bytes.Equal(got[i], bodies[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], bodies[i])
		}
	}
}

func TestMissingFileLoadsEmpty(t *testing.T) {
	got, res := loadAll(t, filepath.Join(t.TempDir(), "absent"))
	if len(got) != 0 || res.Records != 0 || res.Torn != 0 {
		t.Fatalf("absent log loaded %+v", res)
	}
}

// TestTornTailRecovers truncates the file mid-record, as a SIGKILL
// mid-append would, and checks the prefix survives.
func TestTornTailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	bodies := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	writeAll(t, path, TornConfig{}, bodies)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := loadAll(t, path)
	if res.Records != 2 || res.Torn == 0 {
		t.Fatalf("load = %+v, want 2 records and a torn tail", res)
	}
	if string(got[0]) != "alpha" || string(got[1]) != "beta" {
		t.Fatalf("surviving prefix = %q", got)
	}
}

// TestMidLogCorruptionResyncs scribbles over a record in the middle and
// checks the loader skips it and resynchronizes on the next boundary.
func TestMidLogCorruptionResyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	bodies := [][]byte{[]byte("aaaaaaaaaa"), []byte("bbbbbbbbbb"), []byte("cccccccccc")}
	writeAll(t, path, TornConfig{}, bodies)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's body.
	data[headerLen+len(bodies[0])+headerLen+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := loadAll(t, path)
	if res.Records != 2 {
		t.Fatalf("load = %+v, want 2 surviving records", res)
	}
	if string(got[0]) != "aaaaaaaaaa" || string(got[1]) != "cccccccccc" {
		t.Fatalf("survivors = %q", got)
	}
}

// TestInjectedTornWrites runs the deterministic fault injector and
// checks (a) the loader survives every injected fault, (b) the same
// seed injects the same schedule.
func TestInjectedTornWrites(t *testing.T) {
	dir := t.TempDir()
	var bodies [][]byte
	for i := 0; i < 200; i++ {
		bodies = append(bodies, bytes.Repeat([]byte{byte(i)}, 8+i%32))
	}
	torn := TornConfig{Seed: 42, Every: 10}
	w1 := writeAll(t, filepath.Join(dir, "a"), torn, bodies)
	w2 := writeAll(t, filepath.Join(dir, "b"), torn, bodies)
	if w1.Torn == 0 {
		t.Fatal("fault injector never fired over 200 appends at Every=10")
	}
	if w1.Torn != w2.Torn {
		t.Fatalf("same seed tore %d vs %d records", w1.Torn, w2.Torn)
	}
	a, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different logs")
	}
	got, res := loadAll(t, filepath.Join(dir, "a"))
	if int64(res.Records)+w1.Torn < int64(len(bodies)) {
		t.Fatalf("records %d + torn %d < appended %d", res.Records, w1.Torn, len(bodies))
	}
	// Every surviving record must be byte-identical to something appended.
	valid := make(map[string]bool, len(bodies))
	for _, b := range bodies {
		valid[string(b)] = true
	}
	for _, g := range got {
		if !valid[string(g)] {
			t.Fatalf("loader surfaced a record that was never appended: %q", g)
		}
	}
}

// TestLogReplay: both logs replay what was appended, then append after
// it, and a second replay sees all of it.
func TestLogReplay(t *testing.T) {
	for name, log := range map[string]Log{
		"Path":    Path(filepath.Join(t.TempDir(), "log")),
		"MemFile": new(MemFile),
	} {
		t.Run(name, func(t *testing.T) {
			replay := func() []string {
				var seen []string
				w, res, err := log.Replay(TornConfig{}, func(b []byte) { seen = append(seen, string(b)) })
				if err != nil {
					t.Fatal(err)
				}
				if res.Torn != 0 || res.Records != len(seen) {
					t.Fatalf("replay = %+v (%q)", res, seen)
				}
				if err := w.Append([]byte(fmt.Sprint(len(seen)))); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				return seen
			}
			for want := 0; want < 3; want++ {
				if seen := replay(); len(seen) != want || (want > 0 && seen[want-1] != fmt.Sprint(want-1)) {
					t.Fatalf("replay %d saw %q", want, seen)
				}
			}
		})
	}
}
