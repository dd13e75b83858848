// Package walog is a minimal crash-tolerant append-only record log,
// the stable storage behind the deployed event-logger and
// checkpoint-server workers (cmd/soak, cmd/vrun with a WAL directory).
// A record is framed as
//
//	magic "MVWL" | u32 body length | u32 CRC-32 (IEEE) of body | body
//
// and the loader trusts nothing: a record whose magic, length or CRC
// does not verify is counted as torn and the scan resynchronizes on the
// next magic boundary, so a short write — a process SIGKILLed mid-
// append, or the injected disk faults of TornConfig — costs exactly the
// damaged records, never the log. This is the property Skjellum et
// al. demand of checkpoint-restart storage: the fault-tolerance layer's
// own disk state must survive faults of its own.
//
// A Log is where a store's records live: Path, a file, for deployed
// workers, and MemFile, an in-memory byte log that is the simulator's
// disk. Both replay through the same loader and append through the same
// Writer, so a simulated service node recovers exactly as a deployed
// one does.
//
// The log never fsyncs: the deployment's fault model is process death
// (SIGKILL), not power loss, and the page cache survives the process.
package walog

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"

	"mpichv/internal/vtime"
)

var magic = [4]byte{'M', 'V', 'W', 'L'}

const headerLen = 4 + 4 + 4 // magic + length + CRC-32

// MaxRecord bounds a decoded record; larger lengths indicate log
// corruption and are treated as torn.
const MaxRecord = 1 << 30

// TornConfig injects deterministic short-write disk faults: roughly one
// in Every appends writes only a prefix of the record (header plus half
// the body), modeling a crash mid-write or a failing disk. The schedule
// is a pure function of Seed, so a seeded soak reproduces the same torn
// records run after run. The zero value injects nothing.
type TornConfig struct {
	Seed  uint64
	Every int
}

// Active reports whether the config injects anything.
func (tc TornConfig) Active() bool { return tc.Every > 0 }

// scratchLen bounds the records Append assembles in the Writer's reused
// scratch: event-log records fit, while a checkpoint image takes a
// buffer of its own, so the writer does not hold image-sized memory.
const scratchLen = 4 << 10

// Writer appends records to a log. It is not safe for concurrent use;
// the stores behind it append under their own lock.
type Writer struct {
	f       io.WriteCloser
	torn    TornConfig
	rng     vtime.Stream
	scratch []byte

	// Torn counts appends deliberately damaged by the fault injector.
	Torn int64
}

// Open opens (creating if needed) the log at path for appending.
func Open(path string, torn TornConfig) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return newWriter(f, torn), nil
}

func newWriter(f io.WriteCloser, torn TornConfig) *Writer {
	return &Writer{
		f:       f,
		torn:    torn,
		rng:     vtime.NewStream(torn.Seed),
		scratch: make([]byte, 0, scratchLen),
	}
}

// Append writes one record. Under an active TornConfig the write may be
// deliberately truncated; the caller cannot tell (a real torn write is
// silent too), the loader recovers by resync.
func (w *Writer) Append(body []byte) error {
	var rec []byte
	if headerLen+len(body) <= scratchLen {
		rec = w.scratch[:0]
	} else {
		rec = make([]byte, 0, headerLen+len(body))
	}
	rec = append(rec, magic[:]...)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(body)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	rec = append(rec, body...)
	if w.torn.Active() {
		if int(w.rng.Next()%uint64(w.torn.Every)) == 0 {
			w.Torn++
			cut := headerLen + len(body)/2
			_, err := w.f.Write(rec[:cut])
			return err
		}
	}
	_, err := w.f.Write(rec)
	return err
}

// Close closes the underlying log.
func (w *Writer) Close() error { return w.f.Close() }

// LoadResult summarizes a Load pass.
type LoadResult struct {
	Records int // records delivered to the callback
	Torn    int // records skipped (bad magic, length or CRC)
}

// Load scans the log at path, calling fn with each verified record
// body. Damaged regions are skipped by scanning forward to the next
// magic boundary. A missing file loads as empty — a fresh worker.
func Load(path string, fn func(body []byte)) (LoadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return LoadResult{}, nil
		}
		return LoadResult{}, err
	}
	return scan(data, fn), nil
}

// scan is Load over a log's bytes.
func scan(data []byte, fn func(body []byte)) LoadResult {
	var res LoadResult
	i := 0
	damaged := false
	for i+headerLen <= len(data) {
		if [4]byte(data[i:i+4]) != magic {
			// Out of frame: resync on the next magic boundary.
			if !damaged {
				damaged = true
				res.Torn++
			}
			i++
			continue
		}
		n := binary.BigEndian.Uint32(data[i+4 : i+8])
		want := binary.BigEndian.Uint32(data[i+8 : i+12])
		end := i + headerLen + int(n)
		if n > MaxRecord || end > len(data) {
			// Torn tail or corrupt length: step past the magic and
			// resync (the length cannot be trusted to skip with).
			damaged = true
			res.Torn++
			i += 4
			continue
		}
		body := data[i+headerLen : end]
		if crc32.ChecksumIEEE(body) != want {
			damaged = true
			res.Torn++
			i += 4
			continue
		}
		damaged = false
		res.Records++
		fn(body)
		i = end
	}
	if i < len(data) && !damaged {
		res.Torn++ // trailing partial header
	}
	return res
}

// Log is the stable storage behind one store.
type Log interface {
	// Replay calls fn with each verified record body, then returns a
	// Writer that appends to the same log under torn's fault injector.
	Replay(torn TornConfig, fn func(body []byte)) (*Writer, LoadResult, error)
}

// Path is a log file; a missing file replays as empty and is created.
type Path string

// Replay loads the file and opens it for appending.
func (p Path) Replay(torn TornConfig, fn func(body []byte)) (*Writer, LoadResult, error) {
	res, err := Load(string(p), fn)
	if err != nil {
		return nil, res, err
	}
	w, err := Open(string(p), torn)
	return w, res, err
}

// MemFile is an in-memory log, the simulator's disk. It outlives the
// store and the node that wrote it: a node respawned over the same
// MemFile replays what its predecessor appended. Bodies handed to a
// Replay callback alias the log and must be copied to be kept.
type MemFile struct{ data []byte }

// Replay scans the log and returns a Writer appending to it.
func (m *MemFile) Replay(torn TornConfig, fn func(body []byte)) (*Writer, LoadResult, error) {
	return newWriter(m, torn), scan(m.data, fn), nil
}

// Bytes returns the log's contents, as a file holding it would.
func (m *MemFile) Bytes() []byte { return m.data }

// Write appends p to the log.
func (m *MemFile) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

// Close does nothing: the log outlives its writers.
func (m *MemFile) Close() error { return nil }
