package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Snapshot is the serializable protocol state included in a checkpoint
// image. Per §4.1, the SAVED payload log is part of the checkpoint: a
// restarted process must be able to re-send old messages without rolling
// back further (domino-effect avoidance). The MPI process state itself
// (the application snapshot) is carried separately by the ckpt package.
type Snapshot struct {
	Rank  int
	H     uint64
	HS    map[int]uint64
	HR    map[int]uint64
	SeqTo map[int]uint64 // per-destination channel sequence counters
	SeqIn map[int]uint64 // per-sender channel sequence of last delivery
	// Collected is the §4.6.1 horizon per destination: Saved holds no
	// entry to q at or below sender clock Collected[q]. A store
	// materializing a delta drops the base image's entries under it.
	Collected map[int]uint64
	Saved     []SavedMsg
}

// Snapshot captures the protocol state: its own vectors and SAVED
// entries, whose payloads it shares with the live log (SavedMsg.Data is
// immutable), so later sends, deliveries and garbage collection never
// reach it. It must be taken at a quiescent point (no partially received
// message), which the daemon guarantees by checkpointing between
// protocol messages — the same guarantee the paper gets by triggering
// Condor checkpoints from the daemon ("this insures that there are no
// active communication at fork time").
func (s *State) Snapshot() *Snapshot {
	sn := &Snapshot{
		Rank:      s.rank,
		H:         s.h,
		HS:        make(map[int]uint64, len(s.hs)),
		HR:        make(map[int]uint64, len(s.hr)),
		SeqTo:     make(map[int]uint64, len(s.seqTo)),
		SeqIn:     make(map[int]uint64, len(s.seqIn)),
		Saved:     make([]SavedMsg, len(s.saved)),
		Collected: make(map[int]uint64, len(s.collected)),
	}
	for k, v := range s.hs {
		sn.HS[k] = v
	}
	for k, v := range s.hr {
		sn.HR[k] = v
	}
	for k, v := range s.seqTo {
		sn.SeqTo[k] = v
	}
	for k, v := range s.seqIn {
		sn.SeqIn[k] = v
	}
	for k, v := range s.collected {
		sn.Collected[k] = v
	}
	copy(sn.Saved, s.saved)
	return sn
}

// Restore rebuilds a State from a snapshot, as the ROLLBACK() routine
// does from a checkpoint image. The restored log shares the snapshot's
// payloads, which DecodeSnapshot leaves inside the image buffer.
func Restore(sn *Snapshot) *State {
	s := NewState(sn.Rank)
	s.h = sn.H
	for k, v := range sn.HS {
		s.hs[k] = v
	}
	for k, v := range sn.HR {
		s.hr[k] = v
	}
	for k, v := range sn.SeqTo {
		s.seqTo[k] = v
	}
	for k, v := range sn.SeqIn {
		s.seqIn[k] = v
		s.seqAcc[k] = v
	}
	for k, v := range sn.Collected {
		s.collected[k] = v
	}
	s.saved = make([]SavedMsg, len(sn.Saved))
	copy(s.saved, sn.Saved)
	for _, m := range sn.Saved {
		s.logBytes += int64(len(m.Data))
	}
	return s
}

// The snapshot body uses a hand-rolled binary format ("MVS2") rather
// than gob for two reasons: the encode path must not allocate (it runs
// on every checkpoint), and the encoding must be deterministic — CS
// replicas materialize full images independently from base+delta
// chains, and anti-entropy compares them byte for byte, so map iteration
// order (which gob leaks into its output) cannot be allowed to leak into
// the image. Vector keys are therefore emitted in sorted order.
//
// Layout (all integers big-endian):
//
//	magic "MVS2" | u32 rank | u64 h
//	5 × vector: u32 n, then n × (u32 key, u64 val), keys strictly
//	ascending — HS, HR, SeqTo, SeqIn, Collected
//	u32 nSaved, then nSaved × (u32 to, u64 clock, u64 seq, u8 kind, u32 len, data)
//
// Full and delta encodings share this one layout; a delta only lists
// fewer SAVED entries. "MVS1" (no Collected vector) is rejected, not
// migrated: images live in per-run work directories.
var snapMagic = [4]byte{'M', 'V', 'S', '2'}

// intScratch pools the sorted-key scratch slices the encoder needs, so
// encoding into a preallocated destination performs zero allocations.
var intScratch = sync.Pool{New: func() any { b := make([]int, 0, 64); return &b }}

func vecSize(m map[int]uint64) int { return 4 + 12*len(m) }

// savedHeaderLen is the fixed part of an encoded SAVED entry.
const savedHeaderLen = 4 + 8 + 8 + 1 + 4

func savedSize(msgs []SavedMsg) int {
	n := 4
	for i := range msgs {
		n += savedHeaderLen + len(msgs[i].Data)
	}
	return n
}

// SnapshotSize returns the exact encoded size of AppendSnapshot's
// output for sn.
func SnapshotSize(sn *Snapshot) int {
	return 4 + 4 + 8 + vecSize(sn.HS) + vecSize(sn.HR) + vecSize(sn.SeqTo) +
		vecSize(sn.SeqIn) + vecSize(sn.Collected) + savedSize(sn.Saved)
}

// SnapshotDeltaSize returns the exact encoded size of
// AppendSnapshotDelta's output for sn against marks.
func SnapshotDeltaSize(sn *Snapshot, marks map[int]uint64) int {
	n := 4 + 4 + 8 + vecSize(sn.HS) + vecSize(sn.HR) + vecSize(sn.SeqTo) +
		vecSize(sn.SeqIn) + vecSize(sn.Collected) + 4
	for i := range sn.Saved {
		m := &sn.Saved[i]
		if marks == nil || m.Seq > marks[m.To] {
			n += savedHeaderLen + len(m.Data)
		}
	}
	return n
}

func appendVec(dst []byte, m map[int]uint64) []byte {
	kp := intScratch.Get().(*[]int)
	keys := (*kp)[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(len(keys)))
	dst = append(dst, b[0:4]...)
	for _, k := range keys {
		binary.BigEndian.PutUint32(b[0:4], uint32(k))
		binary.BigEndian.PutUint64(b[4:12], m[k])
		dst = append(dst, b[:]...)
	}
	*kp = keys
	intScratch.Put(kp)
	return dst
}

func appendSaved(dst []byte, m *SavedMsg) []byte {
	var b [savedHeaderLen]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(m.To))
	binary.BigEndian.PutUint64(b[4:12], m.Clock)
	binary.BigEndian.PutUint64(b[12:20], m.Seq)
	b[20] = m.Kind
	binary.BigEndian.PutUint32(b[21:], uint32(len(m.Data)))
	dst = append(dst, b[:]...)
	return append(dst, m.Data...)
}

// AppendSnapshot appends the full binary encoding of sn to dst. With
// dst capacity of at least SnapshotSize(sn) it performs no allocation.
func AppendSnapshot(dst []byte, sn *Snapshot) []byte {
	return AppendSnapshotDelta(dst, sn, nil)
}

// AppendSnapshotDelta appends the binary encoding of sn to dst,
// restricted to the SAVED entries newer than marks: an entry to
// destination d is included only when its channel seq exceeds marks[d].
// marks is the SeqTo vector of the last checkpoint the store has acked,
// so the excluded entries are exactly those the store already holds in
// that image. A nil marks yields the full encoding.
func AppendSnapshotDelta(dst []byte, sn *Snapshot, marks map[int]uint64) []byte {
	dst = append(dst, snapMagic[:]...)
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(sn.Rank))
	binary.BigEndian.PutUint64(b[4:12], sn.H)
	dst = append(dst, b[:]...)
	dst = appendVec(dst, sn.HS)
	dst = appendVec(dst, sn.HR)
	dst = appendVec(dst, sn.SeqTo)
	dst = appendVec(dst, sn.SeqIn)
	dst = appendVec(dst, sn.Collected)
	// marks==nil must mean "everything", not "every seq above 0": seqs
	// start at 1 in live states, but the decoder accepts Seq 0, and a
	// full encoding that silently drops such an entry breaks the
	// decode∘encode identity the store replicas depend on.
	n := 0
	for i := range sn.Saved {
		if m := &sn.Saved[i]; marks == nil || m.Seq > marks[m.To] {
			n++
		}
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(n))
	dst = append(dst, b[0:4]...)
	for i := range sn.Saved {
		if m := &sn.Saved[i]; marks == nil || m.Seq > marks[m.To] {
			dst = appendSaved(dst, m)
		}
	}
	return dst
}

// Encode serializes the snapshot for transfer to the checkpoint server.
func (sn *Snapshot) Encode() ([]byte, error) {
	return AppendSnapshot(make([]byte, 0, SnapshotSize(sn)), sn), nil
}

func decodeVec(b []byte, off int) (map[int]uint64, int, error) {
	if off+4 > len(b) {
		return nil, 0, fmt.Errorf("core: snapshot vector header truncated")
	}
	n := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if off+12*n > len(b) {
		return nil, 0, fmt.Errorf("core: snapshot vector of %d entries truncated", n)
	}
	m := make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		k := int(binary.BigEndian.Uint32(b[off:]))
		// One layout per snapshot: an out-of-order or repeated key would
		// decode to a map that re-encodes to different bytes.
		if i > 0 && k <= int(binary.BigEndian.Uint32(b[off-12:])) {
			return nil, 0, fmt.Errorf("core: snapshot vector keys not ascending at entry %d", i)
		}
		m[k] = binary.BigEndian.Uint64(b[off+4:])
		off += 12
	}
	return m, off, nil
}

// decodeHeader parses everything ahead of the SAVED entries: it returns
// a snapshot with the clocks and vectors filled in, the offset of the
// first entry and the entry count, already checked against the bytes
// that remain.
func decodeHeader(b []byte) (sn *Snapshot, off, n int, err error) {
	if len(b) < 4 || [4]byte(b[:4]) != snapMagic {
		return nil, 0, 0, fmt.Errorf("core: bad snapshot magic")
	}
	off = 4
	if off+12 > len(b) {
		return nil, 0, 0, fmt.Errorf("core: snapshot header truncated")
	}
	sn = &Snapshot{
		Rank: int(binary.BigEndian.Uint32(b[off:])),
		H:    binary.BigEndian.Uint64(b[off+4:]),
	}
	off += 12
	for _, dst := range []*map[int]uint64{&sn.HS, &sn.HR, &sn.SeqTo, &sn.SeqIn, &sn.Collected} {
		if *dst, off, err = decodeVec(b, off); err != nil {
			return nil, 0, 0, err
		}
	}
	if off+4 > len(b) {
		return nil, 0, 0, fmt.Errorf("core: snapshot saved-log header truncated")
	}
	n = int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if n < 0 || n > (len(b)-off)/savedHeaderLen {
		return nil, 0, 0, fmt.Errorf("core: snapshot claims %d saved entries in %d bytes", n, len(b)-off)
	}
	return sn, off, n, nil
}

// walkSaved bounds-checks the n SAVED entries that start at off and must
// run exactly to the end of b, calling fn with the extent of each.
func walkSaved(b []byte, off, n int, fn func(off, end int)) error {
	for i := 0; i < n; i++ {
		// decodeHeader bounds the count, but data bytes consumed by
		// earlier entries can still leave less than a header here.
		if off+savedHeaderLen > len(b) {
			return fmt.Errorf("core: snapshot saved entry %d header truncated", i)
		}
		data := off + savedHeaderLen
		dl := int(binary.BigEndian.Uint32(b[off+21:]))
		if dl < 0 || dl > len(b)-data {
			return fmt.Errorf("core: snapshot saved entry %d data truncated", i)
		}
		fn(off, data+dl)
		off = data + dl
	}
	if off != len(b) {
		return fmt.Errorf("core: snapshot has %d trailing bytes", len(b)-off)
	}
	return nil
}

// SnapshotClock reads H, the receive clock, from an encoded snapshot
// without decoding the rest of it.
func SnapshotClock(b []byte) (uint64, error) {
	if len(b) < 16 || [4]byte(b[:4]) != snapMagic {
		return 0, fmt.Errorf("core: bad snapshot magic")
	}
	return binary.BigEndian.Uint64(b[8:]), nil
}

// DecodeSnapshot parses a snapshot produced by Encode or the Append
// functions. It accepts exactly the bytes the encoder can produce:
// re-encoding the result yields b again. The SAVED payloads alias b,
// each capped at its own length: the caller hands b over and must not
// write it again (see SavedMsg.Data).
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	sn, off, n, err := decodeHeader(b)
	if err != nil {
		return nil, err
	}
	sn.Saved = make([]SavedMsg, 0, n)
	err = walkSaved(b, off, n, func(off, end int) {
		sn.Saved = append(sn.Saved, SavedMsg{
			To:    int(binary.BigEndian.Uint32(b[off:])),
			Clock: binary.BigEndian.Uint64(b[off+4:]),
			Seq:   binary.BigEndian.Uint64(b[off+12:]),
			Kind:  b[off+20],
			Data:  b[off+savedHeaderLen : end : end],
		})
	})
	if err != nil {
		return nil, err
	}
	return sn, nil
}

// Merge is a validated plan for materializing, on their encodings, the
// full snapshot that a delta describes over its base image. The delta's
// clocks and vectors supersede the base's (they were captured later);
// the SAVED log is the base's entries the sender still held at the
// delta — those above the delta's Collected horizon for their
// destination, exactly the paper's §4.6.1 garbage collection replayed on
// the store — followed by the delta's. Every delta entry carries a
// channel seq beyond the base's SeqTo mark for its destination, and
// sender clocks only grow, so appending preserves both the per-channel
// seq order and the global clock order the replay path relies on.
//
// The result is byte for byte AppendSnapshot of the snapshot the delta
// was cut from, so a replica that followed the chain and a replica that
// received an escalated full image hold identical bytes.
type Merge struct {
	base, delta []byte
	deltaCount  int      // offset of the delta's SAVED entry count
	kept        [][2]int // byte ranges of the base's retained entries, ascending, coalesced
	n           int      // SAVED entries in the result
	size        int
}

// PlanMerge validates both encodings and decides which of the base's
// SAVED entries survive. Nothing is copied: the base is walked in place.
func PlanMerge(base, delta []byte) (*Merge, error) {
	_, boff, bn, err := decodeHeader(base)
	if err != nil {
		return nil, err
	}
	dsn, doff, dn, err := decodeHeader(delta)
	if err != nil {
		return nil, err
	}
	m := &Merge{base: base, delta: delta, deltaCount: doff - 4, n: dn, size: len(delta)}
	err = walkSaved(base, boff, bn, func(off, end int) {
		to := int(binary.BigEndian.Uint32(base[off:]))
		if binary.BigEndian.Uint64(base[off+4:]) <= dsn.Collected[to] {
			return
		}
		if k := len(m.kept) - 1; k >= 0 && m.kept[k][1] == off {
			m.kept[k][1] = end
		} else {
			m.kept = append(m.kept, [2]int{off, end})
		}
		m.n++
		m.size += end - off
	})
	if err != nil {
		return nil, err
	}
	if err := walkSaved(delta, doff, dn, func(int, int) {}); err != nil {
		return nil, err
	}
	return m, nil
}

// Size returns the exact number of bytes Append adds.
func (m *Merge) Size() int { return m.size }

// Append appends the merged snapshot's full encoding to dst, copying
// each retained byte once.
func (m *Merge) Append(dst []byte) []byte {
	dst = append(dst, m.delta[:m.deltaCount]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.n))
	for _, r := range m.kept {
		dst = append(dst, m.base[r[0]:r[1]]...)
	}
	return append(dst, m.delta[m.deltaCount+4:]...)
}
