// Package wire defines the frame kinds and binary encodings exchanged
// between the components of an MPICH-V2 system: computing-node daemons,
// event loggers, checkpoint servers, the checkpoint scheduler and the
// dispatcher. Encodings are hand-rolled over encoding/binary: the event
// record is 32 bytes — the paper's "small message (in the order of 20
// bytes) to the Event Logger" plus the per-channel sequence number the
// recovery auditor uses to prove logged histories are gap-free.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"mpichv/internal/core"
)

// Frame kinds. The transport carries the kind byte; the payload encoding
// is defined per kind below.
const (
	// Computing node ↔ computing node.
	KPayload  uint8 = iota + 1 // data: PayloadHeader + payload bytes
	KRestart1                  // data: u64 HR (phase B of recovery)
	KRestart2                  // data: u64 HR
	KCkptNote                  // data: u64 delivered-up-to clock (garbage collection)

	// Computing node ↔ event logger.
	KEventLog     // data: u64 request seq + event batch
	KEventAck     // data: u64 echoed request seq + u64 cumulative seq (exactly 16 bytes)
	KEventFetch   // data: u64 clock; reply holds events with RecvClock > clock
	KEventFetched // data: event batch

	// Computing node ↔ checkpoint server.
	KCkptSave    // data: u64 seq + image bytes
	KCkptSaveAck // data: u64 seq
	_            // retired: the whole-image fetch (restarts fetch a manifest, then chunks)
	_            // retired: its reply

	// Checkpoint scheduler ↔ computing node.
	KSchedPoll // data: empty
	KSchedStat // data: NodeStatus
	KCkptOrder // data: empty — take a checkpoint now

	// Dispatcher ↔ everyone.
	KHello    // node announces itself; data: u64 incarnation
	KFinalize // node reached MPI finalize; data: empty

	// MPICH-V1 baseline: computing node ↔ channel memory.
	KCMPut // sender stores a message on the receiver's channel memory
	KCMGet // receiver asks its channel memory for the next message
	KCMMsg // channel memory delivers one message (u8 present + header+payload)

	// KFinalizeAck confirms a KFinalize so the daemon can stop
	// retransmitting it on a lossy fabric; data: empty. (Appended last
	// to keep the numeric values of the kinds above stable.)
	KFinalizeAck

	// Replica ↔ replica anti-entropy (appended after KFinalizeAck for
	// the same numbering-stability reason).
	KELSyncReq  // data: sync marks (node → RecvClock high-water)
	KELSyncResp // data: per-node event batches above the marks
	KCSSyncReq  // data: sync marks (rank → checkpoint seq high-water)
	KCSSyncResp // data: checkpoint entries above the marks

	// Chunked checkpoint transfer (appended after KCSSyncResp, same
	// numbering-stability reason). The save path streams an image as
	// fixed-size chunks, each acked individually; a restart fetches a
	// manifest first and then pulls chunks across the read quorum.
	KCkptChunk       // data: chunk frame (magic + seq/idx/count + len + CRC + body)
	KCkptChunkAck    // data: u64 seq + u32 chunk index
	KCkptManifestReq // data: u32 desired chunk size
	KCkptManifest    // data: CkptManifest (present, seq, size, clock, per-chunk CRCs)
	KCkptChunkFetch  // data: u64 seq + u32 first chunk + u32 chunk count + u32 chunk size
	KCkptChunkData   // data: chunk frame, same encoding as KCkptChunk

	// Determinant suppression (appended after KCkptChunkData, same
	// numbering-stability reason). KDetRelay carries determinants a
	// daemon received piggybacked on payload frames to the event-logger
	// replicas on behalf of their origin node; it is acked by the same
	// KEventAck (seq + cumulative mark) as KEventLog, sharing the
	// submitter's seq stream. KDetFlushReq/Resp are the recovery-time
	// direct merge: a restarting node asks every peer for the
	// piggybacked determinants it holds for it, closing the window where
	// a relay is still in flight to the loggers.
	KDetRelay     // data: u64 request seq + u32 origin node + event batch
	KDetFlushReq  // data: empty — "send me the determinants you hold for me"
	KDetFlushResp // data: event batch (the requester's own determinants)

	// Event-logger fleet rebalancing (appended after KDetFlushResp, same
	// numbering-stability reason). The dispatcher tracks per-shard live
	// membership and tells every compute rank when an EL shard drops
	// below / regains its write quorum; daemons reroute the shard's key
	// range to its ring successor and backfill retained determinants
	// (DESIGN.md §15).
	KELShardDown // data: u32 shard index — shard lost its write quorum
	KELShardUp   // data: u32 shard index — shard regained its quorum
)

// KindName returns a short human-readable name for diagnostics.
func KindName(k uint8) string {
	names := map[uint8]string{
		KPayload: "payload", KRestart1: "restart1", KRestart2: "restart2",
		KCkptNote: "ckpt-note", KEventLog: "event-log", KEventAck: "event-ack",
		KEventFetch: "event-fetch", KEventFetched: "event-fetched",
		KCkptSave: "ckpt-save", KCkptSaveAck: "ckpt-save-ack",
		KSchedPoll: "sched-poll", KSchedStat: "sched-stat", KCkptOrder: "ckpt-order",
		KHello: "hello", KFinalize: "finalize", KFinalizeAck: "finalize-ack",
		KCMPut: "cm-put", KCMGet: "cm-get", KCMMsg: "cm-msg",
		KELSyncReq: "el-sync-req", KELSyncResp: "el-sync-resp",
		KCSSyncReq: "cs-sync-req", KCSSyncResp: "cs-sync-resp",
		KCkptChunk: "ckpt-chunk", KCkptChunkAck: "ckpt-chunk-ack",
		KCkptManifestReq: "ckpt-manifest-req", KCkptManifest: "ckpt-manifest",
		KCkptChunkFetch: "ckpt-chunk-fetch", KCkptChunkData: "ckpt-chunk-data",
		KDetRelay: "det-relay", KDetFlushReq: "det-flush-req", KDetFlushResp: "det-flush-resp",
		KELShardDown: "el-shard-down", KELShardUp: "el-shard-up",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("kind-%d", k)
}

// PayloadHeader prefixes every inter-node payload frame: the sender's
// logical clock at emission (the message identifier of §4.1 together
// with the frame's From field), the per-destination channel sequence
// (1, 2, 3, … gap-free, so a receiver on a lossy network can detect a
// missing predecessor; a V2 receiver counts a 0 as malformed, and only
// the P4 device, which keeps no channel state, leaves it 0), and the
// device-level kind byte that the MPI channel layer uses. The encoding
// additionally frames the body with its length and CRC-32, so a frame
// truncated or bit-flipped in flight fails DecodePayload instead of
// handing garbage to the MPI layer — the receiver then treats it
// exactly like a dropped frame and the retry machinery re-delivers it.
type PayloadHeader struct {
	SenderClock uint64
	PairSeq     uint64
	DevKind     uint8
	// Span is an optional trace span id (causal parent link for the
	// receiver's trace). Zero means absent: the frame encodes exactly
	// as it did before spans existed, so runs with tracing disabled
	// put byte-identical frames on the (simulated) wire and pay zero
	// virtual-time or allocation overhead. A nonzero span is appended
	// after the fixed header, signaled by the top bit of the DevKind
	// byte (device kinds are small; bit 7 is never a real kind).
	Span uint64
	// Dets are suppressed determinants piggybacked on the frame: the
	// sender's not-yet-durable reception events riding an app message
	// they causally precede, so the receiver can relay them to the
	// event loggers off the sender's critical path. Empty means absent:
	// the frame encodes byte-identically to a det-free frame. A
	// non-empty block (u32 count + 32-byte event records, the
	// AppendEvents format) is appended after the span id, signaled by
	// bit 6 of the DevKind byte.
	Dets []core.Event
}

// PayloadHeaderLen is the encoded size of a PayloadHeader plus the body
// length and checksum framing.
const PayloadHeaderLen = 17 + 8

// PayloadSpanLen is the extra encoded size of a nonzero trace span id.
const PayloadSpanLen = 8

// payloadSpanFlag marks, on the encoded DevKind byte, that a span id
// follows the fixed header.
const payloadSpanFlag = 0x80

// payloadDetFlag marks, on the encoded DevKind byte, that a piggybacked
// determinant block follows the (optional) span id. Bit 6 is the second
// reserved bit: device kinds are small and never reach it.
const payloadDetFlag = 0x40

// payloadFlags are the DevKind bits reserved for framing.
const payloadFlags = payloadSpanFlag | payloadDetFlag

// PayloadSize is the encoded size of a payload frame with an n-byte
// body and no span id.
func PayloadSize(n int) int { return PayloadHeaderLen + n }

// PayloadSizeH is the encoded size of a payload frame with an n-byte
// body under header h (accounts for an optional span id and an optional
// piggybacked determinant block).
func PayloadSizeH(h PayloadHeader, n int) int {
	sz := PayloadHeaderLen + n
	if h.Span != 0 {
		sz += PayloadSpanLen
	}
	if len(h.Dets) > 0 {
		sz += EventsSize(len(h.Dets))
	}
	return sz
}

// AppendPayload appends the encoded frame to dst and returns the
// extended slice. With dst capacity of at least PayloadSizeH(h, len(body))
// — e.g. a GetBuf buffer — it performs no allocation.
func AppendPayload(dst []byte, h PayloadHeader, body []byte) []byte {
	return append(AppendPayloadHeader(dst, h, body), body...)
}

// AppendPayloadHeader appends the PayloadSizeH(h, 0) bytes of the frame
// that carries body ahead of the body itself, so a sender can write the
// frame as two parts and leave the body where it lies.
func AppendPayloadHeader(dst []byte, h PayloadHeader, body []byte) []byte {
	if h.DevKind&payloadFlags != 0 {
		panic(fmt.Sprintf("wire: DevKind %#x uses reserved framing bits 6-7", h.DevKind))
	}
	var hdr [PayloadHeaderLen + PayloadSpanLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], h.SenderClock)
	binary.BigEndian.PutUint64(hdr[8:16], h.PairSeq)
	hdr[16] = h.DevKind
	binary.BigEndian.PutUint32(hdr[17:21], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[21:25], crc32.ChecksumIEEE(body))
	n := PayloadHeaderLen
	if h.Span != 0 {
		hdr[16] |= payloadSpanFlag
		binary.BigEndian.PutUint64(hdr[PayloadHeaderLen:], h.Span)
		n += PayloadSpanLen
	}
	if len(h.Dets) > 0 {
		hdr[16] |= payloadDetFlag
	}
	dst = append(dst, hdr[:n]...)
	if len(h.Dets) > 0 {
		dst = AppendEvents(dst, h.Dets)
	}
	return dst
}

// EncodePayload prepends the header and the body's length/CRC framing.
func EncodePayload(h PayloadHeader, body []byte) []byte {
	return AppendPayload(make([]byte, 0, PayloadSizeH(h, len(body))), h, body)
}

// DecodePayload splits a payload frame into header and body, verifying
// the body's length and checksum. The body aliases data; a piggybacked
// determinant block is copied out into h.Dets.
func DecodePayload(data []byte) (PayloadHeader, []byte, error) {
	if len(data) < PayloadHeaderLen {
		return PayloadHeader{}, nil, fmt.Errorf("wire: payload frame of %d bytes too short", len(data))
	}
	hlen := PayloadHeaderLen
	var span uint64
	if data[16]&payloadSpanFlag != 0 {
		hlen += PayloadSpanLen
		if len(data) < hlen {
			return PayloadHeader{}, nil, fmt.Errorf("wire: payload frame of %d bytes too short for span id", len(data))
		}
		span = binary.BigEndian.Uint64(data[PayloadHeaderLen:hlen])
	}
	var dets []core.Event
	if data[16]&payloadDetFlag != 0 {
		if len(data) < hlen+4 {
			return PayloadHeader{}, nil, fmt.Errorf("wire: payload frame of %d bytes too short for det block", len(data))
		}
		n := int(binary.BigEndian.Uint32(data[hlen : hlen+4]))
		end := hlen + EventsSize(n)
		if n > len(data) || end > len(data) { // n guard keeps EventsSize from overflowing
			return PayloadHeader{}, nil, fmt.Errorf("wire: payload det block of %d events truncated", n)
		}
		var err error
		if dets, err = DecodeEvents(data[hlen:end]); err != nil {
			return PayloadHeader{}, nil, err
		}
		if len(dets) == 0 {
			// Canonical form: encoders omit the flag for an empty block,
			// so an accepted zero-count block must decode to the same
			// header the re-encoded frame will.
			dets = nil
		}
		hlen = end
	}
	body := data[hlen:]
	if n := binary.BigEndian.Uint32(data[17:21]); int(n) != len(body) {
		return PayloadHeader{}, nil, fmt.Errorf("wire: payload body of %d bytes, framed as %d", len(body), n)
	}
	if sum := binary.BigEndian.Uint32(data[21:25]); sum != crc32.ChecksumIEEE(body) {
		return PayloadHeader{}, nil, fmt.Errorf("wire: payload checksum mismatch")
	}
	return PayloadHeader{
		SenderClock: binary.BigEndian.Uint64(data[0:8]),
		PairSeq:     binary.BigEndian.Uint64(data[8:16]),
		DevKind:     data[16] &^ payloadFlags,
		Span:        span,
		Dets:        dets,
	}, body, nil
}

// --- Event batches -------------------------------------------------------

const eventLen = 4 + 8 + 8 + 4 + 8

// EventsSize is the encoded size of an n-event batch.
func EventsSize(n int) int { return 4 + eventLen*n }

// AppendEvents appends a serialized batch of reception events to dst.
// With sufficient dst capacity — EventsSize(len(evs)) — it performs no
// allocation.
func AppendEvents(dst []byte, evs []core.Event) []byte {
	var b [eventLen]byte
	binary.BigEndian.PutUint32(b[:4], uint32(len(evs)))
	dst = append(dst, b[:4]...)
	for _, ev := range evs {
		binary.BigEndian.PutUint32(b[0:], uint32(int32(ev.Sender)))
		binary.BigEndian.PutUint64(b[4:], ev.SenderClock)
		binary.BigEndian.PutUint64(b[12:], ev.RecvClock)
		binary.BigEndian.PutUint32(b[20:], ev.Probes)
		binary.BigEndian.PutUint64(b[24:], ev.Seq)
		dst = append(dst, b[:]...)
	}
	return dst
}

// EncodeEvents serializes a batch of reception events.
func EncodeEvents(evs []core.Event) []byte {
	return AppendEvents(make([]byte, 0, EventsSize(len(evs))), evs)
}

// DecodeEvents parses a batch of reception events.
func DecodeEvents(data []byte) ([]core.Event, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: event batch too short")
	}
	n := int(binary.BigEndian.Uint32(data[0:4]))
	if len(data) != 4+n*eventLen {
		return nil, fmt.Errorf("wire: event batch of %d bytes does not hold %d events", len(data), n)
	}
	evs := make([]core.Event, n)
	off := 4
	for i := range evs {
		evs[i] = core.Event{
			Sender:      int(int32(binary.BigEndian.Uint32(data[off:]))),
			SenderClock: binary.BigEndian.Uint64(data[off+4:]),
			RecvClock:   binary.BigEndian.Uint64(data[off+12:]),
			Probes:      binary.BigEndian.Uint32(data[off+20:]),
			Seq:         binary.BigEndian.Uint64(data[off+24:]),
		}
		off += eventLen
	}
	return evs, nil
}

// EventLogSize is the encoded size of a KEventLog frame holding n events.
func EventLogSize(n int) int { return 8 + EventsSize(n) }

// AppendEventLog appends a KEventLog frame to dst: the submitter's
// request sequence number followed by the event batch. With sufficient
// dst capacity — EventLogSize(len(evs)) — it performs no allocation.
func AppendEventLog(dst []byte, seq uint64, evs []core.Event) []byte {
	return AppendEvents(AppendU64(dst, seq), evs)
}

// EncodeEventLog prefixes the submitter's request sequence number to an
// event batch. The event logger echoes the sequence in its KEventAck,
// which lets a daemon match acks to in-flight batches when frames are
// lost, duplicated, or reordered, and lets the logger re-ack a
// retransmitted batch it already stored.
func EncodeEventLog(seq uint64, evs []core.Event) []byte {
	return AppendEventLog(make([]byte, 0, EventLogSize(len(evs))), seq, evs)
}

// DecodeEventLog splits a KEventLog payload.
func DecodeEventLog(data []byte) (uint64, []core.Event, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("wire: event log frame of %d bytes too short", len(data))
	}
	evs, err := DecodeEvents(data[8:])
	if err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint64(data), evs, nil
}

// --- Event acks -----------------------------------------------------------

// eventAckLen is the encoded size of a full KEventAck: the echoed
// request seq plus the server's cumulative mark.
const eventAckLen = 16

// AppendEventAck appends a KEventAck to dst: the echoed request seq and
// the server's cumulative mark cum — the highest sequence number such
// that the server has stored every batch of the same incarnation up to
// and including it. The mark lets the submitter complete older batches
// whose own acks were lost without waiting for a retransmit round trip.
func AppendEventAck(dst []byte, seq, cum uint64) []byte {
	return AppendU64(AppendU64(dst, seq), cum)
}

// EncodeEventAck encodes a KEventAck.
func EncodeEventAck(seq, cum uint64) []byte {
	return AppendEventAck(make([]byte, 0, eventAckLen), seq, cum)
}

// DecodeEventAck parses a KEventAck, which is exactly 16 bytes: any
// other length — a truncated ack included — is an error, and the
// submitter's retransmit timer recovers the batch it would have acked.
func DecodeEventAck(data []byte) (seq, cum uint64, err error) {
	if len(data) != eventAckLen {
		return 0, 0, fmt.Errorf("wire: event ack of %d bytes, want %d", len(data), eventAckLen)
	}
	return binary.BigEndian.Uint64(data), binary.BigEndian.Uint64(data[8:]), nil
}

// --- Determinant relay ----------------------------------------------------

// DetRelaySize is the encoded size of a KDetRelay frame holding n events.
func DetRelaySize(n int) int { return 8 + 4 + EventsSize(n) }

// AppendDetRelay appends a KDetRelay frame to dst: the relaying
// daemon's request seq (drawn from the same stream as its KEventLog
// batches, so one cumulative KEventAck mark retires both), the origin
// node the piggybacked determinants belong to, and the event batch.
// With sufficient dst capacity it performs no allocation.
func AppendDetRelay(dst []byte, seq uint64, origin int, evs []core.Event) []byte {
	dst = AppendU64(dst, seq)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(int32(origin)))
	dst = append(dst, b[:]...)
	return AppendEvents(dst, evs)
}

// DecodeDetRelay splits a KDetRelay payload.
func DecodeDetRelay(data []byte) (seq uint64, origin int, evs []core.Event, err error) {
	if len(data) < 12 {
		return 0, 0, nil, fmt.Errorf("wire: det relay frame of %d bytes too short", len(data))
	}
	evs, err = DecodeEvents(data[12:])
	if err != nil {
		return 0, 0, nil, err
	}
	return binary.BigEndian.Uint64(data), int(int32(binary.BigEndian.Uint32(data[8:12]))), evs, nil
}

// --- Small scalar payloads ----------------------------------------------

// AppendU64 appends a big-endian 64-bit value to dst.
func AppendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// EncodeU64 encodes a single 64-bit value (clocks, counts, sequence
// numbers).
func EncodeU64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeU64 decodes a value produced by EncodeU64.
func DecodeU64(data []byte) (uint64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("wire: expected 8-byte value, got %d", len(data))
	}
	return binary.BigEndian.Uint64(data), nil
}

// EncodeU32 encodes a 32-bit count.
func EncodeU32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

// DecodeU32 decodes a value produced by EncodeU32.
func DecodeU32(data []byte) (uint32, error) {
	if len(data) != 4 {
		return 0, fmt.Errorf("wire: expected 4-byte value, got %d", len(data))
	}
	return binary.BigEndian.Uint32(data), nil
}

// --- Scheduler status ------------------------------------------------------

// NodeStatus is what a computing node reports to the checkpoint
// scheduler (§4.6.2): the occupancy of its message log and its traffic
// ratio inputs.
type NodeStatus struct {
	Rank      int
	LogBytes  uint64
	SentBytes uint64
	RecvBytes uint64
}

// EncodeStatus serializes a NodeStatus.
func EncodeStatus(st NodeStatus) []byte {
	out := make([]byte, 4+8*3)
	binary.BigEndian.PutUint32(out[0:], uint32(int32(st.Rank)))
	binary.BigEndian.PutUint64(out[4:], st.LogBytes)
	binary.BigEndian.PutUint64(out[12:], st.SentBytes)
	binary.BigEndian.PutUint64(out[20:], st.RecvBytes)
	return out
}

// DecodeStatus parses a NodeStatus.
func DecodeStatus(data []byte) (NodeStatus, error) {
	if len(data) != 28 {
		return NodeStatus{}, fmt.Errorf("wire: bad status length %d", len(data))
	}
	return NodeStatus{
		Rank:      int(int32(binary.BigEndian.Uint32(data[0:]))),
		LogBytes:  binary.BigEndian.Uint64(data[4:]),
		SentBytes: binary.BigEndian.Uint64(data[12:]),
		RecvBytes: binary.BigEndian.Uint64(data[20:]),
	}, nil
}

// --- Checkpoint image framing ---------------------------------------------

// EncodeCkptSave prefixes the checkpoint sequence number to an image.
func EncodeCkptSave(seq uint64, image []byte) []byte {
	out := make([]byte, 8+len(image))
	binary.BigEndian.PutUint64(out, seq)
	copy(out[8:], image)
	return out
}

// DecodeCkptSave splits a KCkptSave payload.
func DecodeCkptSave(data []byte) (seq uint64, image []byte, err error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("wire: ckpt save frame too short")
	}
	return binary.BigEndian.Uint64(data), data[8:], nil
}

// --- Replica anti-entropy -------------------------------------------------

// EncodeSyncMarks serializes per-key high-water marks for a sync
// request: the requester asks its peers for everything above each mark
// (event-logger replicas key by computing node and RecvClock;
// checkpoint replicas key by rank and checkpoint seq). Keys are sorted
// so the encoding is deterministic.
func EncodeSyncMarks(marks map[int]uint64) []byte {
	keys := make([]int, 0, len(marks))
	for k := range marks {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]byte, 4+12*len(keys))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(keys)))
	off := 4
	for _, k := range keys {
		binary.BigEndian.PutUint32(out[off:], uint32(int32(k)))
		binary.BigEndian.PutUint64(out[off+4:], marks[k])
		off += 12
	}
	return out
}

// DecodeSyncMarks parses a sync-marks payload.
func DecodeSyncMarks(data []byte) (map[int]uint64, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: sync marks too short")
	}
	n := int(binary.BigEndian.Uint32(data[0:4]))
	if len(data) != 4+12*n {
		return nil, fmt.Errorf("wire: sync marks of %d bytes do not hold %d entries", len(data), n)
	}
	marks := make(map[int]uint64, n)
	off := 4
	for i := 0; i < n; i++ {
		k := int(int32(binary.BigEndian.Uint32(data[off:])))
		marks[k] = binary.BigEndian.Uint64(data[off+4:])
		off += 12
	}
	return marks, nil
}

// EncodeNodeEvents serializes a sync response: per computing node, the
// events the peer holds above the requested marks. Nodes are sorted for
// a deterministic encoding.
func EncodeNodeEvents(m map[int][]core.Event) []byte {
	nodes := make([]int, 0, len(m))
	for k := range m {
		nodes = append(nodes, k)
	}
	sort.Ints(nodes)
	out := EncodeU32(uint32(len(nodes)))
	for _, node := range nodes {
		out = append(out, EncodeU32(uint32(int32(node)))...)
		out = append(out, EncodeEvents(m[node])...)
	}
	return out
}

// AppendNodeEvents appends to dst the EncodeNodeEvents encoding of the
// one-node map {node: evs}, without building the map. With dst capacity
// for 8+EventsSize(len(evs)) bytes it performs no allocation.
func AppendNodeEvents(dst []byte, node int, evs []core.Event) []byte {
	dst = binary.BigEndian.AppendUint32(dst, 1)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(node)))
	return AppendEvents(dst, evs)
}

// DecodeNodeEvents parses a sync response.
func DecodeNodeEvents(data []byte) (map[int][]core.Event, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: node events too short")
	}
	n := int(binary.BigEndian.Uint32(data[0:4]))
	off := 4
	m := make(map[int][]core.Event, min(n, (len(data)-4)/8)) // n is the frame's claim; a node takes ≥ 8 bytes
	for i := 0; i < n; i++ {
		if len(data) < off+8 {
			return nil, fmt.Errorf("wire: node events truncated")
		}
		node := int(int32(binary.BigEndian.Uint32(data[off:])))
		cnt := int(binary.BigEndian.Uint32(data[off+4:]))
		end := off + 4 + 4 + cnt*eventLen
		if len(data) < end {
			return nil, fmt.Errorf("wire: node events truncated")
		}
		evs, err := DecodeEvents(data[off+4 : end])
		if err != nil {
			return nil, err
		}
		m[node] = evs
		off = end
	}
	if off != len(data) {
		return nil, fmt.Errorf("wire: node events have %d trailing bytes", len(data)-off)
	}
	return m, nil
}

// CkptEntry is one replicated checkpoint image in a KCSSyncResp.
type CkptEntry struct {
	Rank  int
	Seq   uint64
	Image []byte
}

// EncodeCkptEntries serializes a checkpoint sync response.
func EncodeCkptEntries(entries []CkptEntry) []byte {
	out := EncodeU32(uint32(len(entries)))
	for _, e := range entries {
		var hdr [16]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(int32(e.Rank)))
		binary.BigEndian.PutUint64(hdr[4:], e.Seq)
		binary.BigEndian.PutUint32(hdr[12:], uint32(len(e.Image)))
		out = append(out, hdr[:]...)
		out = append(out, e.Image...)
	}
	return out
}

// DecodeCkptEntries parses a checkpoint sync response.
func DecodeCkptEntries(data []byte) ([]CkptEntry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: ckpt entries too short")
	}
	n := int(binary.BigEndian.Uint32(data[0:4]))
	off := 4
	entries := make([]CkptEntry, 0, min(n, (len(data)-4)/16)) // n is the frame's claim; an entry takes ≥ 16 bytes
	for i := 0; i < n; i++ {
		if len(data) < off+16 {
			return nil, fmt.Errorf("wire: ckpt entries truncated")
		}
		rank := int(int32(binary.BigEndian.Uint32(data[off:])))
		seq := binary.BigEndian.Uint64(data[off+4:])
		sz := int(binary.BigEndian.Uint32(data[off+12:]))
		off += 16
		if len(data) < off+sz {
			return nil, fmt.Errorf("wire: ckpt entries truncated")
		}
		entries = append(entries, CkptEntry{Rank: rank, Seq: seq, Image: data[off : off+sz]})
		off += sz
	}
	if off != len(data) {
		return nil, fmt.Errorf("wire: ckpt entries have %d trailing bytes", len(data)-off)
	}
	return entries, nil
}

// --- Chunked checkpoint transfer ------------------------------------------

// chunkMagic brands every checkpoint chunk frame: a chunk is
// independently verifiable (magic, length, CRC-32) so a damaged chunk is
// rejected — and left unacked, hence retransmitted — without waiting for
// the whole image to assemble.
var chunkMagic = [4]byte{'M', 'V', 'C', 'H'}

// CkptChunkHeaderLen is the size of a chunk frame's header: magic, seq,
// idx, count, body length and CRC-32.
const CkptChunkHeaderLen = 4 + 8 + 4 + 4 + 4 + 4

// CkptChunkSize is the encoded size of a chunk frame with an n-byte body.
func CkptChunkSize(n int) int { return CkptChunkHeaderLen + n }

// AppendCkptChunk appends one checkpoint chunk frame to dst: chunk idx
// of count for checkpoint seq, carrying body bytes under their own
// magic/length/CRC-32 framing — AppendCkptChunkHeader followed by the
// body. With dst capacity of at least CkptChunkSize(len(body)) — e.g. a
// GetBuf buffer — it performs no allocation. The same encoding serves the
// save path (KCkptChunk) and the restart fetch path (KCkptChunkData).
func AppendCkptChunk(dst []byte, seq uint64, idx, count uint32, body []byte) []byte {
	return append(AppendCkptChunkHeader(dst, seq, idx, count, body), body...)
}

// AppendCkptChunkHeader appends the CkptChunkHeaderLen-byte header of the
// chunk frame that carries body, without the body itself, so a sender can
// write the frame as two parts and leave the body where it lies. The
// checksum covers the routing fields (seq, idx, count, body length) as
// well as the body: a bit flip that would steer an intact body into the
// wrong assembly slot is rejected at decode, not discovered after a whole
// image assembles corrupt. With CkptChunkHeaderLen bytes of spare
// capacity in dst it performs no allocation.
func AppendCkptChunkHeader(dst []byte, seq uint64, idx, count uint32, body []byte) []byte {
	start := len(dst)
	var hdr [CkptChunkHeaderLen]byte
	copy(hdr[0:4], chunkMagic[:])
	binary.BigEndian.PutUint64(hdr[4:12], seq)
	binary.BigEndian.PutUint32(hdr[12:16], idx)
	binary.BigEndian.PutUint32(hdr[16:20], count)
	binary.BigEndian.PutUint32(hdr[20:24], uint32(len(body)))
	dst = append(dst, hdr[:]...)
	// Checksum in place over dst (not over the stack header, which would
	// escape through crc32's indirect call and cost an allocation).
	sum := crc32.Update(crc32.ChecksumIEEE(dst[start+4:start+24]), crc32.IEEETable, body)
	binary.BigEndian.PutUint32(dst[start+24:start+28], sum)
	return dst
}

// DecodeCkptChunk parses a chunk frame, verifying magic, length framing
// and the checksum over both routing fields and body. The body aliases
// data.
func DecodeCkptChunk(data []byte) (seq uint64, idx, count uint32, body []byte, err error) {
	if len(data) < CkptChunkHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("wire: chunk frame of %d bytes shorter than its header", len(data))
	}
	if !bytes.Equal(data[0:4], chunkMagic[:]) {
		return 0, 0, 0, nil, fmt.Errorf("wire: bad chunk magic %x", data[0:4])
	}
	body = data[CkptChunkHeaderLen:]
	if n := binary.BigEndian.Uint32(data[20:24]); int(n) != len(body) {
		return 0, 0, 0, nil, fmt.Errorf("wire: chunk body of %d bytes, framed as %d", len(body), n)
	}
	sum := crc32.Update(crc32.ChecksumIEEE(data[4:24]), crc32.IEEETable, body)
	if sum != binary.BigEndian.Uint32(data[24:28]) {
		return 0, 0, 0, nil, fmt.Errorf("wire: chunk checksum mismatch")
	}
	seq = binary.BigEndian.Uint64(data[4:12])
	idx = binary.BigEndian.Uint32(data[12:16])
	count = binary.BigEndian.Uint32(data[16:20])
	if idx >= count || count == 0 {
		return 0, 0, 0, nil, fmt.Errorf("wire: chunk index %d outside count %d", idx, count)
	}
	return seq, idx, count, body, nil
}

// CkptChunkAckLen is the encoded size of a KCkptChunkAck.
const CkptChunkAckLen = 12

// AppendCkptChunkAck appends a per-chunk receipt: the checkpoint seq and
// the chunk index the server holds.
func AppendCkptChunkAck(dst []byte, seq uint64, idx uint32) []byte {
	var b [CkptChunkAckLen]byte
	binary.BigEndian.PutUint64(b[0:8], seq)
	binary.BigEndian.PutUint32(b[8:12], idx)
	return append(dst, b[:]...)
}

// DecodeCkptChunkAck parses a KCkptChunkAck.
func DecodeCkptChunkAck(data []byte) (seq uint64, idx uint32, err error) {
	if len(data) != CkptChunkAckLen {
		return 0, 0, fmt.Errorf("wire: chunk ack of %d bytes, want %d", len(data), CkptChunkAckLen)
	}
	return binary.BigEndian.Uint64(data), binary.BigEndian.Uint32(data[8:]), nil
}

// CkptChunkFetchLen is the encoded size of a KCkptChunkFetch.
const CkptChunkFetchLen = 20

// AppendCkptRangeFetch appends a restart-time chunk request: the run of
// count chunks starting at chunk first of the stored image at seq, cut at
// chunkSize bytes per chunk. The server answers with one KCkptChunkData
// per chunk of the run, in order, or with nothing when the run is not
// wholly inside that image.
func AppendCkptRangeFetch(dst []byte, seq uint64, first, count, chunkSize uint32) []byte {
	var b [CkptChunkFetchLen]byte
	binary.BigEndian.PutUint64(b[0:8], seq)
	binary.BigEndian.PutUint32(b[8:12], first)
	binary.BigEndian.PutUint32(b[12:16], count)
	binary.BigEndian.PutUint32(b[16:20], chunkSize)
	return append(dst, b[:]...)
}

// AppendCkptChunkFetch appends the request for the single chunk idx: a
// run of one.
func AppendCkptChunkFetch(dst []byte, seq uint64, idx, chunkSize uint32) []byte {
	return AppendCkptRangeFetch(dst, seq, idx, 1, chunkSize)
}

// DecodeCkptChunkFetch parses a KCkptChunkFetch. An empty run is
// malformed.
func DecodeCkptChunkFetch(data []byte) (seq uint64, first, count, chunkSize uint32, err error) {
	if len(data) != CkptChunkFetchLen {
		return 0, 0, 0, 0, fmt.Errorf("wire: chunk fetch of %d bytes, want %d", len(data), CkptChunkFetchLen)
	}
	count = binary.BigEndian.Uint32(data[12:])
	if count == 0 {
		return 0, 0, 0, 0, fmt.Errorf("wire: chunk fetch of an empty run")
	}
	return binary.BigEndian.Uint64(data), binary.BigEndian.Uint32(data[8:]), count,
		binary.BigEndian.Uint32(data[16:]), nil
}

// CkptManifest describes a stored checkpoint image so a restarting
// daemon can pull it chunk by chunk: the image seq and total size, the
// chunk size the per-chunk CRCs were computed at, a CRC over the whole
// encoded image (used to group replicas serving byte-identical copies),
// the image's receive clock, and one CRC-32 per chunk so each pulled
// chunk validates independently and only damaged chunks are re-fetched.
type CkptManifest struct {
	Present   bool
	Seq       uint64
	Size      uint64
	ChunkSize uint32
	ImageCRC  uint32
	// Clock is the protocol snapshot's H: the daemon asks the event
	// loggers for the determinants above it while the chunks travel.
	Clock     uint64
	ChunkCRCs []uint32
}

// Chunks returns the number of chunks the manifest describes.
func (m CkptManifest) Chunks() int { return len(m.ChunkCRCs) }

// manifestHeaderLen is the fixed part of an encoded manifest: present,
// seq, size, chunk size, image CRC, clock and the chunk count.
const manifestHeaderLen = 1 + 8 + 8 + 4 + 4 + 8 + 4

// EncodeCkptManifest serializes a manifest reply.
func EncodeCkptManifest(m CkptManifest) []byte {
	out := make([]byte, manifestHeaderLen+4*len(m.ChunkCRCs))
	if m.Present {
		out[0] = 1
	}
	binary.BigEndian.PutUint64(out[1:9], m.Seq)
	binary.BigEndian.PutUint64(out[9:17], m.Size)
	binary.BigEndian.PutUint32(out[17:21], m.ChunkSize)
	binary.BigEndian.PutUint32(out[21:25], m.ImageCRC)
	binary.BigEndian.PutUint64(out[25:33], m.Clock)
	binary.BigEndian.PutUint32(out[33:37], uint32(len(m.ChunkCRCs)))
	off := manifestHeaderLen
	for _, c := range m.ChunkCRCs {
		binary.BigEndian.PutUint32(out[off:], c)
		off += 4
	}
	return out
}

// DecodeCkptManifest parses a manifest reply.
func DecodeCkptManifest(data []byte) (CkptManifest, error) {
	if len(data) < manifestHeaderLen {
		return CkptManifest{}, fmt.Errorf("wire: manifest of %d bytes too short", len(data))
	}
	m := CkptManifest{
		Present:   data[0] == 1,
		Seq:       binary.BigEndian.Uint64(data[1:9]),
		Size:      binary.BigEndian.Uint64(data[9:17]),
		ChunkSize: binary.BigEndian.Uint32(data[17:21]),
		ImageCRC:  binary.BigEndian.Uint32(data[21:25]),
		Clock:     binary.BigEndian.Uint64(data[25:33]),
	}
	n := int(binary.BigEndian.Uint32(data[33:37]))
	if len(data) != manifestHeaderLen+4*n {
		return CkptManifest{}, fmt.Errorf("wire: manifest of %d bytes does not hold %d chunk CRCs", len(data), n)
	}
	if m.Present {
		if n == 0 || m.ChunkSize == 0 || uint64(n-1)*uint64(m.ChunkSize) >= m.Size || uint64(n)*uint64(m.ChunkSize) < m.Size {
			return CkptManifest{}, fmt.Errorf("wire: manifest geometry %d chunks × %d bytes cannot cover %d", n, m.ChunkSize, m.Size)
		}
	}
	m.ChunkCRCs = make([]uint32, n)
	off := manifestHeaderLen
	for i := range m.ChunkCRCs {
		m.ChunkCRCs[i] = binary.BigEndian.Uint32(data[off:])
		off += 4
	}
	return m, nil
}
