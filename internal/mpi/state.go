package mpi

import (
	"encoding/binary"
	"fmt"
)

// Checkpointable MPI-layer state. The application provides its own
// snapshot bytes; the protocol layer must add what it owns that the
// device-level replay cannot reconstruct: the collective and rendezvous
// sequence counters and — crucially — the unexpected-message queue.
// Messages sitting there already crossed the device (their reception
// events are logged, their clock ticks happened), so a restart from this
// checkpoint will not replay them; dropping them would lose messages.
//
// Outstanding requests (posted receives, deferred sends, rendezvous
// transfers in flight) are not serializable against the application's
// own state, so CheckpointPoint only fires when the process is quiescent
// and retries at the next safe point otherwise.
type procState struct {
	collSeq    uint32
	nextSendID uint32
	unexpected []inMsg
	user       []byte
}

// The state travels inside the checkpoint image, whose frame CRC covers
// it, in a fixed binary layout (all integers big-endian) in the style of
// the protocol snapshot's: deterministic, so an image's size — and every
// virtual time that depends on it — is a function of the state alone.
//
//	magic "MVP1" | u32 collSeq | u32 nextSendID
//	u32 n, then n × (u32 from, u32 tag, u8 rts, u32 id, u64 size, u32 len, data)
//	u32 len, user state
//
// Tags are int32 on the wire already (see pt2pt.go), and an RTS carries
// its announced size where an eager message carries its data.
var stateMagic = [4]byte{'M', 'V', 'P', '1'}

const (
	stateFixedLen = 4 + 4 + 4 + 4 + 4     // magic, counters, message count, user length
	inMsgHeadLen  = 4 + 4 + 1 + 4 + 8 + 4 // from, tag, rts, id, size, data length
)

func procStateSize(st *procState) int {
	n := stateFixedLen + len(st.user)
	for i := range st.unexpected {
		n += inMsgHeadLen + len(st.unexpected[i].data)
	}
	return n
}

// appendProcState appends the encoding of st to dst. With dst capacity
// of at least procStateSize(st) it performs no allocation.
func appendProcState(dst []byte, st *procState) []byte {
	dst = append(dst, stateMagic[:]...)
	dst = binary.BigEndian.AppendUint32(dst, st.collSeq)
	dst = binary.BigEndian.AppendUint32(dst, st.nextSendID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(st.unexpected)))
	for i := range st.unexpected {
		m := &st.unexpected[i]
		var b [inMsgHeadLen]byte
		binary.BigEndian.PutUint32(b[0:], uint32(int32(m.from)))
		binary.BigEndian.PutUint32(b[4:], uint32(int32(m.tag)))
		if m.rts {
			b[8] = 1
		}
		binary.BigEndian.PutUint32(b[9:], m.id)
		binary.BigEndian.PutUint64(b[13:], uint64(m.size))
		binary.BigEndian.PutUint32(b[21:], uint32(len(m.data)))
		dst = append(append(dst, b[:]...), m.data...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(st.user)))
	return append(dst, st.user...)
}

// decodeProcState parses an encoding produced by appendProcState. It
// accepts exactly the bytes the encoder can produce — re-encoding the
// result yields b again — and rejects truncation, trailing bytes and
// length prefixes larger than what remains. Message data and the user
// state alias b (capacity-capped, so appending to one cannot overwrite
// the next); empty ones are nil.
func decodeProcState(b []byte) (procState, error) {
	var st procState
	if len(b) < stateFixedLen || [4]byte(b[:4]) != stateMagic {
		return st, fmt.Errorf("mpi: checkpoint state of %d bytes lacks its header", len(b))
	}
	st.collSeq = binary.BigEndian.Uint32(b[4:])
	st.nextSendID = binary.BigEndian.Uint32(b[8:])
	n := int(binary.BigEndian.Uint32(b[12:]))
	off := 16
	if n > (len(b)-off-4)/inMsgHeadLen {
		return st, fmt.Errorf("mpi: checkpoint state claims %d unexpected messages in %d bytes", n, len(b)-off)
	}
	if n > 0 {
		st.unexpected = make([]inMsg, n)
	}
	for i := range st.unexpected {
		if len(b)-off < inMsgHeadLen+4 {
			return st, fmt.Errorf("mpi: checkpoint state message %d truncated", i)
		}
		h := b[off : off+inMsgHeadLen]
		if h[8] > 1 {
			return st, fmt.Errorf("mpi: checkpoint state message %d has rts byte %d", i, h[8])
		}
		dl := int(binary.BigEndian.Uint32(h[21:]))
		off += inMsgHeadLen
		if dl > len(b)-off-4 {
			return st, fmt.Errorf("mpi: checkpoint state message %d data of %d bytes truncated", i, dl)
		}
		st.unexpected[i] = inMsg{
			from: int(int32(binary.BigEndian.Uint32(h[0:]))),
			tag:  int(int32(binary.BigEndian.Uint32(h[4:]))),
			rts:  h[8] == 1,
			id:   binary.BigEndian.Uint32(h[9:]),
			size: int(binary.BigEndian.Uint64(h[13:])),
			data: view(b, off, dl),
		}
		off += dl
	}
	ul := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if ul != len(b)-off {
		return st, fmt.Errorf("mpi: checkpoint state user length %d, %d bytes remain", ul, len(b)-off)
	}
	st.user = view(b, off, ul)
	return st, nil
}

// view returns b[off:off+n] with its capacity capped, or nil when empty.
func view(b []byte, off, n int) []byte {
	if n == 0 {
		return nil
	}
	return b[off : off+n : off+n]
}

func (p *Proc) quiescent() bool {
	return len(p.posted) == 0 && len(p.deferred) == 0 &&
		len(p.sendsByID) == 0 && len(p.rvInflight) == 0
}

// encodeState encodes the process state around the application's
// snapshot in one exactly sized buffer, copying user once.
func (p *Proc) encodeState(user []byte) []byte {
	st := procState{collSeq: p.collSeq, nextSendID: p.nextSendID, unexpected: p.unexpected, user: user}
	return appendProcState(make([]byte, 0, procStateSize(&st)), &st)
}

func (p *Proc) restoreState(blob []byte) []byte {
	st, err := decodeProcState(blob)
	if err != nil {
		p.Abortf("decoding checkpoint state: %v", err)
	}
	p.collSeq = st.collSeq
	p.nextSendID = st.nextSendID
	p.unexpected = st.unexpected
	return st.user
}
