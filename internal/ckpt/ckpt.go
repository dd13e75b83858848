// Package ckpt implements the checkpoint system of §4.6: the checkpoint
// image format and the Checkpoint Server, a repository storing the
// latest successful image of each MPI process and its communication
// daemon.
//
// The paper checkpoints the MPI process with the Condor standalone
// library (a system-level process image). Go cannot freeze a goroutine,
// so the image carries an application-level snapshot instead: the MPI
// program supplies its state as bytes at daemon-triggered safe points.
// The daemon state (logical clocks, HR/HS vectors and the SAVED payload
// log — included to avoid the domino effect, §4.1) is serialized by the
// core package. See DESIGN.md §2 for why this substitution preserves the
// protocol behaviour under test.
//
// Images travel and rest inside a length + CRC-32 frame: a truncated or
// bit-flipped image is detected at decode time instead of being
// restored into a live process. Servers verify the frame before
// storing, so a save that was damaged in flight is never acked and the
// daemon retransmits it; a daemon that still fetches a damaged image
// (hit on the fetch path) rejects it and re-fetches from the next
// replica.
//
// Like the event logger, the server is split into a frontend (Server)
// and stable storage (Store), and a server may be one of R replicas
// with independent stores: daemons replicate every save and count acks
// against a write quorum, and a replica respawned empty rejoins by
// pulling its peers' latest images (anti-entropy, keyed by rank and
// checkpoint seq). Server is the replica.Server skeleton the event
// logger shares, plus the save, chunk, manifest and chunk-fetch
// handlers. A retransmitted save is recognized and re-acked instead of
// regressing the stored image.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"mpichv/internal/core"
	"mpichv/internal/replica"
	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/walog"
	"mpichv/internal/wire"
)

// Image is one checkpoint: everything needed to restart a computing
// node.
type Image struct {
	Rank int
	// Seq numbers the node's checkpoints; the server keeps the
	// highest completed one.
	Seq uint64
	// BaseSeq is zero for a full image. Nonzero marks a delta: Proto
	// carries only the SAVED entries appended since the checkpoint at
	// BaseSeq (the last one the store acked), and the store must
	// materialize the full image from the base before serving it.
	BaseSeq uint64
	// AppState is the application-level snapshot of the MPI process.
	AppState []byte
	// Proto is the encoded core.Snapshot of the daemon.
	Proto []byte
}

// imageMagic brands an encoded image so truncation that happens to
// leave a well-formed length cannot masquerade as a different blob.
var imageMagic = [4]byte{'M', 'V', 'C', '2'}

const imageHeaderLen = 4 + 4 + 4 // magic + body length + CRC-32

// ImageSize returns the exact encoded size of AppendImage's output.
func ImageSize(im *Image) int { return imageSize(len(im.AppState), len(im.Proto)) }

func imageSize(appLen, protoLen int) int {
	return imageHeaderLen + 4 + 8 + 8 + 4 + appLen + 4 + protoLen
}

// AppendImage appends the binary encoding of im to dst: the
// magic/length/CRC-32 header followed by a fixed-layout body (rank,
// seq, baseSeq, app state, proto snapshot). With dst capacity of at
// least ImageSize(im) — e.g. a wire.GetBuf buffer — it performs no
// allocation. The encoding is deterministic, which the store relies on:
// replicas materialize full images independently and anti-entropy
// compares them byte for byte.
func AppendImage(dst []byte, im *Image) []byte {
	start := len(dst)
	dst = appendImageHead(dst, im, len(im.Proto))
	return sealImage(append(dst, im.Proto...), start)
}

// SnapshotImageSize returns the exact encoded size of
// AppendSnapshotImage's output.
func SnapshotImageSize(im *Image, sn *core.Snapshot, marks map[int]uint64) int {
	return imageSize(len(im.AppState), core.SnapshotDeltaSize(sn, marks))
}

// AppendSnapshotImage appends the image of im whose proto section is
// core.AppendSnapshotDelta(sn, marks), encoded straight into dst behind
// the app state instead of apart and then copied in; im.Proto is ignored.
// The bytes are those of AppendImage with that encoding as im.Proto. With
// dst capacity of at least SnapshotImageSize it performs no allocation.
func AppendSnapshotImage(dst []byte, im *Image, sn *core.Snapshot, marks map[int]uint64) []byte {
	start := len(dst)
	dst = appendImageHead(dst, im, core.SnapshotDeltaSize(sn, marks))
	return sealImage(core.AppendSnapshotDelta(dst, sn, marks), start)
}

// appendImageHead appends everything ahead of the proto bytes: the
// frame header (left blank for sealImage), the fixed fields, the app
// state and the proto length.
func appendImageHead(dst []byte, im *Image, protoLen int) []byte {
	var b [imageHeaderLen + 24]byte
	f := b[imageHeaderLen:]
	binary.BigEndian.PutUint32(f[0:4], uint32(im.Rank))
	binary.BigEndian.PutUint64(f[4:12], im.Seq)
	binary.BigEndian.PutUint64(f[12:20], im.BaseSeq)
	binary.BigEndian.PutUint32(f[20:24], uint32(len(im.AppState)))
	dst = append(dst, b[:]...)
	dst = append(dst, im.AppState...)
	return binary.BigEndian.AppendUint32(dst, uint32(protoLen))
}

// sealImage fills in the frame header of the image that starts at
// dst[start] and runs to the end of dst.
func sealImage(dst []byte, start int) []byte {
	body := dst[start+imageHeaderLen:]
	copy(dst[start:], imageMagic[:])
	binary.BigEndian.PutUint32(dst[start+4:], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+8:], crc32.ChecksumIEEE(body))
	return dst
}

// Encode serializes the image for transfer. The header is what lets
// DecodeImage reject a truncated or corrupted image deterministically.
func (im *Image) Encode() ([]byte, error) {
	return AppendImage(make([]byte, 0, ImageSize(im)), im), nil
}

// DecodeImage parses an image produced by Encode, verifying the length
// framing and the CRC-32 checksum before touching the payload. Nothing
// is copied: AppState and Proto alias b, each capped at its own length,
// so the caller hands b over and must not write it again — a restarting
// daemon decodes the image buffer only it holds, and the restored SAVED
// payloads alias it too (see core.SavedMsg.Data).
func DecodeImage(b []byte) (*Image, error) {
	im, err := viewImage(b, true)
	if err != nil {
		return nil, err
	}
	return &im, nil
}

// viewImage is DecodeImage by value. The store passes verify=false for
// images it holds — they were checksummed on admission — so
// materializing over a large base does not pay a pass over it just to
// re-read what memory already vouches for.
func viewImage(b []byte, verify bool) (Image, error) {
	var im Image
	if len(b) < imageHeaderLen {
		return im, fmt.Errorf("ckpt: image of %d bytes shorter than its header", len(b))
	}
	if [4]byte(b[0:4]) != imageMagic {
		return im, fmt.Errorf("ckpt: bad image magic %x", b[0:4])
	}
	want := int(binary.BigEndian.Uint32(b[4:8]))
	body := b[imageHeaderLen:]
	if len(body) != want {
		return im, fmt.Errorf("ckpt: truncated image: header promises %d body bytes, frame holds %d", want, len(body))
	}
	if verify && crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[8:12]) {
		return im, fmt.Errorf("ckpt: image checksum mismatch")
	}
	if len(body) < 24 {
		return im, fmt.Errorf("ckpt: image body of %d bytes shorter than its fixed fields", len(body))
	}
	im.Rank = int(binary.BigEndian.Uint32(body[0:4]))
	im.Seq = binary.BigEndian.Uint64(body[4:12])
	im.BaseSeq = binary.BigEndian.Uint64(body[12:20])
	appLen := int(binary.BigEndian.Uint32(body[20:24]))
	off := 24
	if appLen < 0 || appLen > len(body)-off-4 {
		return im, fmt.Errorf("ckpt: image app state of %d bytes truncated", appLen)
	}
	im.AppState = body[off : off+appLen : off+appLen]
	off += appLen
	protoLen := int(binary.BigEndian.Uint32(body[off : off+4]))
	off += 4
	if protoLen != len(body)-off {
		return im, fmt.Errorf("ckpt: image proto of %d bytes does not fill the body", protoLen)
	}
	im.Proto = body[off:]
	return im, nil
}

// ProtoSnapshot decodes the daemon protocol snapshot inside the image.
func (im *Image) ProtoSnapshot() (*core.Snapshot, error) {
	return core.DecodeSnapshot(im.Proto)
}

// Stats is a consistent snapshot of a Store's counters, taken under
// the store lock.
type Stats struct {
	Saves            int64 // images accepted
	SavedBytes       int64 // bytes of accepted (materialized) images
	Fetches          int64 // manifest requests served (one per restart-time image fetch)
	Duplicates       int64 // saves re-transmitted at the stored seq and ignored
	StaleRejects     int64 // saves below the stored seq, dropped as stale
	Malformed        int64 // frames or images that failed to decode/verify
	Resyncs          int64 // anti-entropy rounds completed into this store
	SyncedIn         int64 // images merged from peers during resync
	DeltaSaves       int64 // accepted images that arrived as deltas
	ChainCompactions int64 // superseded chain images compacted away
	ChainBreaks      int64 // deltas dropped because their base was missing
}

// AcceptStatus is the store's verdict on an arriving image; the server
// acks on Accepted and Stale (a stale save usually means the saver
// never saw the first ack), stays silent on Malformed (the daemon
// retransmits), and triggers an anti-entropy pull on ChainBreak.
type AcceptStatus int

const (
	Accepted   AcceptStatus = iota // newly stored (after materialization if a delta)
	Stale                          // at or below the stored seq; re-ack, don't store
	Malformed                      // failed decode/verify; drop unacked
	ChainBreak                     // delta whose base image is missing; drop unacked
)

// partialImage is a chunked image mid-assembly: chunks land in any
// order and the image is decoded only once every index is present. The
// chunks are kept by index as they arrive: count is read from the
// frame, so nothing is sized by it.
type partialImage struct {
	count  uint32
	size   int
	chunks map[uint32][]byte
}

// Store is the stable image storage of one checkpoint server replica,
// safe for use by several Server frontends. Per rank it holds
// materialized full images keyed by checkpoint seq — the latest one is
// what fetches serve; older ones are kept only while an in-flight delta
// may still name them as its base, and are compacted as the base
// horizon advances.
type Store struct {
	mu       sync.Mutex
	images   map[int]map[uint64][]byte // rank → seq → materialized full image
	latest   map[int]uint64            // rank → highest stored seq
	partials map[int]map[uint64]*partialImage

	// wal, when attached, receives every materialized full image so a
	// killed checkpoint server rejoins with its durable prefix. Deltas
	// are materialized *before* the append, so recovery never depends
	// on a base image surviving.
	wal *walog.Writer

	stats Stats
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		images:   make(map[int]map[uint64][]byte),
		latest:   make(map[int]uint64),
		partials: make(map[int]map[uint64]*partialImage),
	}
}

// Stats returns a locked snapshot of the store's counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// AttachWAL replays the image log into the store and then arms it:
// every subsequently stored image is appended. Records that fail the
// image's own CRC frame are skipped — the daemon's replication and
// anti-entropy supply what the disk lost. torn configures the
// deterministic disk-fault injector (zero value: faults off).
func (st *Store) AttachWAL(log walog.Log, torn walog.TornConfig) (walog.LoadResult, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w, res, err := log.Replay(torn, func(body []byte) {
		if len(body) < recordHeaderLen {
			return
		}
		rank := int(binary.BigEndian.Uint64(body))
		seq := binary.BigEndian.Uint64(body[8:])
		if im, err := viewImage(body[recordHeaderLen:], true); err != nil || im.Seq != seq || im.Rank != rank {
			return // damage the record CRC missed, or a mismatched frame
		}
		if img := st.images[rank]; img != nil {
			if _, dup := img[seq]; dup {
				return
			}
		}
		st.storeLocked(rank, seq, append([]byte(nil), body...))
	})
	if err != nil {
		return res, err
	}
	st.wal = w
	return res, nil
}

// OpenWAL attaches the image log file at path; see AttachWAL.
func (st *Store) OpenWAL(path string, torn walog.TornConfig) (walog.LoadResult, error) {
	return st.AttachWAL(walog.Path(path), torn)
}

// CloseWAL detaches and closes the write-ahead log, if armed.
func (st *Store) CloseWAL() error {
	st.mu.Lock()
	w := st.wal
	st.wal = nil
	st.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// Accept verifies and stores an image for a rank unless an image with
// the same or a newer sequence number is already held — a retransmitted
// save whose ack was lost (Duplicates), or a stale save racing a
// fresher one over a reordering network (StaleRejects), must not
// regress the stored image. A delta is materialized against its base
// before storing; see acceptLocked.
func (st *Store) Accept(rank int, seq uint64, image []byte) AcceptStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.acceptLocked(rank, seq, image)
}

func (st *Store) staleLocked(rank int, seq uint64) bool {
	if len(st.images[rank]) == 0 || seq > st.latest[rank] {
		return false
	}
	if seq == st.latest[rank] {
		st.stats.Duplicates++
	} else {
		st.stats.StaleRejects++
	}
	return true
}

// acceptLocked runs the shared admission path: integrity verification,
// stale suppression, delta materialization, compaction. A delta whose
// base image at BaseSeq is missing (the replica was respawned after the
// base shipped, or over-compacted) is a chain break: it is NOT acked,
// and the server self-heals by pulling peers' materialized images —
// the daemon meanwhile retransmits and eventually escalates to a full
// image, so liveness never depends on the chain being repairable.
func (st *Store) acceptLocked(rank int, seq uint64, image []byte) AcceptStatus {
	if st.staleLocked(rank, seq) {
		return Stale
	}
	im, err := viewImage(image, true)
	if err != nil || im.Seq != seq {
		st.stats.Malformed++
		return Malformed
	}
	var rec []byte
	if im.BaseSeq != 0 {
		base, ok := st.images[rank][im.BaseSeq]
		if !ok {
			st.stats.ChainBreaks++
			return ChainBreak
		}
		if rec, err = materialize(rank, base, &im); err != nil {
			st.stats.Malformed++
			return Malformed
		}
		st.stats.DeltaSaves++
		st.storeLocked(rank, seq, rec)
		// A delta based on B proves the daemon saw B acked by a write
		// quorum, so every future base is ≥ B: anything below B is
		// unreachable and compacts away. B itself stays — another
		// in-flight delta may still name it.
		st.compactLocked(rank, im.BaseSeq)
	} else {
		rec = append(newRecord(rank, seq, len(image)), image...)
		st.storeLocked(rank, seq, rec)
		// A full image at S supersedes everything below it. If an
		// in-flight delta still names a compacted base, the resulting
		// chain break heals via anti-entropy or daemon escalation.
		st.compactLocked(rank, seq)
	}
	st.stats.Saves++
	st.stats.SavedBytes += int64(len(rec) - recordHeaderLen)
	return Accepted
}

// A stored image sits behind the 16-byte (rank, seq) header of its WAL
// record, in one buffer: what is appended to the log is what is held,
// with no second copy of the image.
const recordHeaderLen = 16

func newRecord(rank int, seq uint64, imageLen int) []byte {
	rec := make([]byte, recordHeaderLen, recordHeaderLen+imageLen)
	binary.BigEndian.PutUint64(rec, uint64(rank))
	binary.BigEndian.PutUint64(rec[8:], seq)
	return rec
}

// materialize rebuilds, as a WAL record, the full image a delta
// describes: the SAVED entries of the base that the sender still held
// when it cut the delta (core.PlanMerge drops what the delta's §4.6.1
// horizon says was collected), followed by the delta's, under the
// delta's clocks, vectors and app state. The result is byte for byte the
// full image the daemon would have encoded from the same snapshot, so
// every replica holds identical bytes whether it followed the chain or
// received an escalated full image — what lets anti-entropy and the
// chunked restart fetch treat replicas as interchangeable byte sources.
// The base is walked in place and each retained byte is copied once.
func materialize(rank int, baseImg []byte, delta *Image) ([]byte, error) {
	base, err := viewImage(baseImg, false)
	if err != nil {
		return nil, err
	}
	merge, err := core.PlanMerge(base.Proto, delta.Proto)
	if err != nil {
		return nil, err
	}
	full := Image{Rank: delta.Rank, Seq: delta.Seq, AppState: delta.AppState}
	size := imageSize(len(full.AppState), merge.Size())
	rec := appendImageHead(newRecord(rank, delta.Seq, size), &full, merge.Size())
	return sealImage(merge.Append(rec), recordHeaderLen), nil
}

// storeLocked takes ownership of rec, a WAL record as newRecord lays it
// out, and holds the image inside it. Nothing writes a stored image's
// bytes after this — compaction only drops the reference — so readers
// may keep slices of it past the lock: chunk fetches are answered with
// frames whose bodies are the stored bytes themselves (ChunkRun).
func (st *Store) storeLocked(rank int, seq uint64, rec []byte) {
	m := st.images[rank]
	if m == nil {
		m = make(map[uint64][]byte)
		st.images[rank] = m
	}
	m[seq] = rec[recordHeaderLen:]
	if st.wal != nil {
		// A failed (or injection-torn) append is silent, as a real torn
		// write would be; the loader's resync absorbs the damage.
		st.wal.Append(rec)
	}
	if seq > st.latest[rank] {
		st.latest[rank] = seq
	}
	// Partial assemblies at or below the new image are superseded.
	for s := range st.partials[rank] {
		if s <= st.latest[rank] {
			delete(st.partials[rank], s)
		}
	}
}

func (st *Store) compactLocked(rank int, floor uint64) {
	for s := range st.images[rank] {
		if s < floor {
			delete(st.images[rank], s)
			st.stats.ChainCompactions++
		}
	}
}

// PutChunk lands one chunk of a chunked image transfer. ack asks the
// server to acknowledge the chunk — pure retransmit suppression; the
// daemon never infers durability from chunk acks, because a replica
// respawned empty still looks all-acked to a daemon that shipped it
// chunks before the crash. full asks for a full-image ack
// (KCkptSaveAck) instead: the store holds a verified, materialized
// image at or above seq — either this chunk completed the assembly, or
// the transfer is a retransmission of something already stored. Only
// full acks count toward the write quorum, so a replica that dies with
// a partial chain, or assembles a delta whose base it lost, never
// claims an image it cannot serve.
func (st *Store) PutChunk(rank int, seq uint64, idx, count uint32, body []byte) (ack, full, chainBreak bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.staleLocked(rank, seq) {
		return false, true, false
	}
	pm := st.partials[rank]
	if pm == nil {
		pm = make(map[uint64]*partialImage)
		st.partials[rank] = pm
	}
	p := pm[seq]
	if p == nil || p.count != count {
		p = &partialImage{count: count, chunks: make(map[uint32][]byte)}
		pm[seq] = p
	}
	if _, got := p.chunks[idx]; !got {
		p.chunks[idx] = append([]byte(nil), body...)
		p.size += len(body)
	}
	if uint32(len(p.chunks)) < p.count {
		return true, false, false
	}
	// Fully assembled — possibly a retry, if an earlier attempt broke
	// its chain and a retransmitted chunk re-triggered assembly after
	// anti-entropy delivered the base.
	image := make([]byte, 0, p.size)
	for i := range p.count {
		image = append(image, p.chunks[i]...)
	}
	switch st.acceptLocked(rank, seq, image) {
	case Accepted, Stale:
		delete(pm, seq)
		return false, true, false
	case ChainBreak:
		// Keep the partial: the base may yet arrive via the sync pull
		// this verdict triggers, and the daemon's chunk retransmit will
		// re-run this acceptance.
		return false, false, true
	default:
		delete(pm, seq)
		return false, false, false
	}
}

// Get returns the latest stored image for a rank, if any.
func (st *Store) Get(rank int) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	img, ok := st.images[rank][st.latest[rank]]
	return img, ok && len(img) > 0
}

// Has reports whether a rank has a stored checkpoint.
func (st *Store) Has(rank int) bool {
	_, ok := st.Get(rank)
	return ok
}

// Manifest describes the latest stored image for a rank, cut at
// chunkSize bytes per chunk, for the restart-time fetch: per-chunk
// CRC-32s let the fetcher validate each pulled chunk independently, the
// whole-image CRC lets it group replicas serving byte-identical copies,
// and the snapshot's receive clock, read from the stored bytes, lets it
// ask the event loggers for its determinants before the chunks arrive.
func (st *Store) Manifest(rank int, chunkSize uint32) wire.CkptManifest {
	st.mu.Lock()
	defer st.mu.Unlock()
	img, ok := st.images[rank][st.latest[rank]]
	if !ok || len(img) == 0 || chunkSize == 0 {
		return wire.CkptManifest{}
	}
	n := (len(img) + int(chunkSize) - 1) / int(chunkSize)
	m := wire.CkptManifest{
		Present:   true,
		Seq:       st.latest[rank],
		Size:      uint64(len(img)),
		ChunkSize: chunkSize,
		ImageCRC:  crc32.ChecksumIEEE(img),
		ChunkCRCs: make([]uint32, n),
	}
	// Every stored image was verified and decoded on admission.
	if im, err := viewImage(img, false); err == nil {
		m.Clock, _ = core.SnapshotClock(im.Proto)
	}
	for i := range m.ChunkCRCs {
		lo := i * int(chunkSize)
		hi := min(lo+int(chunkSize), len(img))
		m.ChunkCRCs[i] = crc32.ChecksumIEEE(img[lo:hi])
	}
	return m
}

// ChunkRun returns the KCkptChunkData frames of the count chunks from
// first of the image stored at exactly seq, cut at chunkSize: each a
// chunk header with the stored bytes themselves as its body (stored
// images are never written; see storeLocked). The fetch must hit the
// bytes the manifest described, so a store that has since moved to a
// newer image, or a run not wholly inside the image, yields nothing and
// lets the fetcher re-gather manifests.
func (st *Store) ChunkRun(rank int, seq uint64, first, count, chunkSize uint32) []transport.Parts {
	st.mu.Lock()
	img, ok := st.images[rank][seq]
	st.mu.Unlock()
	if !ok || len(img) == 0 || chunkSize == 0 {
		return nil
	}
	n := (len(img) + int(chunkSize) - 1) / int(chunkSize)
	if uint64(first)+uint64(count) > uint64(n) {
		return nil
	}
	heads := make([]byte, 0, int(count)*wire.CkptChunkHeaderLen)
	frames := make([]transport.Parts, count)
	for i := range frames {
		idx := first + uint32(i)
		lo := int(idx) * int(chunkSize)
		body := img[lo:min(lo+int(chunkSize), len(img))]
		heads = wire.AppendCkptChunkHeader(heads, seq, idx, uint32(n), body)
		frames[i] = transport.Parts{Head: heads[len(heads)-wire.CkptChunkHeaderLen:], Body: body}
	}
	return frames
}

// Marks returns the per-rank checkpoint-seq high-water marks for an
// anti-entropy request; a fresh store returns an empty map and pulls
// every rank's latest image.
func (st *Store) Marks() map[int]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	marks := make(map[int]uint64, len(st.latest))
	for rank, m := range st.images {
		if len(m) > 0 {
			marks[rank] = st.latest[rank]
		}
	}
	return marks
}

// Since encodes the latest stored images whose seq is above the
// requester's mark for that rank — the response half of the
// anti-entropy exchange. Only materialized full images travel: a
// respawned replica never needs a delta chain.
func (st *Store) Since(marks map[int]uint64) []byte {
	st.mu.Lock()
	var out []wire.CkptEntry
	for rank, m := range st.images {
		img, ok := m[st.latest[rank]]
		if !ok || len(img) == 0 {
			continue
		}
		if mark, known := marks[rank]; known && st.latest[rank] <= mark {
			continue
		}
		out = append(out, wire.CkptEntry{Rank: rank, Seq: st.latest[rank], Image: img})
	}
	st.mu.Unlock()
	return wire.EncodeCkptEntries(out) // stored images are never written: see storeLocked
}

// MergeSync folds a peer's sync response into the store through the
// same monotonic admission rule as a save.
func (st *Store) MergeSync(data []byte) error {
	entries, err := wire.DecodeCkptEntries(data)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	added := int64(0)
	for _, e := range entries {
		if st.acceptLocked(e.Rank, e.Seq, e.Image) == Accepted {
			added++
		}
	}
	st.stats.SyncedIn += added
	st.stats.Resyncs++
	// acceptLocked counted the merged images as Saves; a resync is not a
	// save from a daemon, so move them to the sync column (SavedBytes
	// stays: it measures storage traffic either way).
	st.stats.Saves -= added
	return nil
}

// CountMalformed counts one frame that failed to decode.
func (st *Store) CountMalformed() {
	st.mu.Lock()
	st.stats.Malformed++
	st.mu.Unlock()
}

// Server is one checkpoint server replica frontend.
type Server struct {
	*replica.Server
	ep transport.Endpoint

	// Store is the stable storage behind this frontend.
	Store *Store
}

// NewServer creates a checkpoint server with its own private store.
func NewServer(rt vtime.Runtime, ep transport.Endpoint) *Server {
	return NewServerWithStore(rt, ep, NewStore())
}

// NewServerWithStore creates a frontend over a store the caller built,
// typically one with its image log attached.
func NewServerWithStore(rt vtime.Runtime, ep transport.Endpoint, st *Store) *Server {
	s := &Server{ep: ep, Store: st}
	s.Server = replica.New(rt, ep, role, st, s.handle)
	return s
}

var role = replica.Role{Actor: "ckpt-server", Resync: "cs-resync", SyncReq: wire.KCSSyncReq, SyncResp: wire.KCSSyncResp}

// handle serves the checkpoint server's own request kinds.
func (s *Server) handle(f transport.Frame) error {
	switch f.Kind {
	case wire.KCkptSave:
		seq, image, err := wire.DecodeCkptSave(f.Data)
		if err != nil {
			return err
		}
		// Accept verifies the image before storing: a save damaged in
		// flight is dropped *unacked*, so the daemon retransmits it and
		// the store only ever holds verifiable images. The save frame
		// itself is NOT recycled: the daemon retains its transfer
		// buffer for retransmission. Ack even a stale duplicate: the
		// retransmission means the saver never saw the first ack.
		switch s.Store.Accept(f.From, seq, image) {
		case Accepted, Stale:
			s.ep.Send(f.From, wire.KCkptSaveAck, wire.AppendU64(wire.GetBuf(8), seq))
		case ChainBreak:
			s.Pull()
		}
	case wire.KCkptChunk:
		seq, idx, count, body, err := wire.DecodeCkptChunk(f.Data)
		if err != nil {
			return err
		}
		// Chunk frames are never recycled here; PutChunk copies the
		// body into the partial assembly. A full-image ack (the store
		// holds a verified image at or above seq) supersedes the chunk
		// ack: only it counts toward the daemon's write quorum.
		ack, full, chainBreak := s.Store.PutChunk(f.From, seq, idx, count, body)
		switch {
		case full:
			s.ep.Send(f.From, wire.KCkptSaveAck, wire.AppendU64(wire.GetBuf(8), seq))
		case ack:
			s.ep.Send(f.From, wire.KCkptChunkAck,
				wire.AppendCkptChunkAck(wire.GetBuf(wire.CkptChunkAckLen), seq, idx))
		}
		if chainBreak {
			s.Pull()
		}
	case wire.KCkptManifestReq:
		chunkSize, err := wire.DecodeU32(f.Data)
		if err != nil {
			return err
		}
		s.Store.mu.Lock()
		s.Store.stats.Fetches++
		s.Store.mu.Unlock()
		s.ep.Send(f.From, wire.KCkptManifest, wire.EncodeCkptManifest(s.Store.Manifest(f.From, chunkSize)))
	case wire.KCkptChunkFetch:
		seq, first, count, chunkSize, err := wire.DecodeCkptChunkFetch(f.Data)
		if err != nil {
			return err
		}
		// The run goes out as one batch. Silent when the exact image is
		// gone (superseded since the manifest was served): the fetcher
		// times out and re-gathers.
		if frames := s.Store.ChunkRun(f.From, seq, first, count, chunkSize); frames != nil {
			transport.SendFrames(s.ep, f.From, wire.KCkptChunkData, frames)
		}
	}
	return nil
}
