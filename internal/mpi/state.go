package mpi

import (
	"bytes"
	"encoding/gob"
	"io"
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
	CollSeq    uint32
	NextSendID uint32
	Unexpected []savedInMsg
	User       []byte
}

type savedInMsg struct {
	From int
	Tag  int
	RTS  bool
	ID   uint32
	Size int
	Data []byte
}

// Gob numbers types process-wide in the order it first meets them, and
// the numbers travel inside every encoding. Meeting procState while the
// package initializes gives it the same numbers in every process, so a
// checkpoint image — and every virtual time that depends on its size —
// does not change with whatever else the process gob-encoded earlier
// (a NAS kernel's state, say, in an earlier test of the same binary).
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(&procState{}); err != nil {
		panic(err)
	}
}

func (p *Proc) quiescent() bool {
	return len(p.posted) == 0 && len(p.deferred) == 0 &&
		len(p.sendsByID) == 0 && len(p.rvInflight) == 0
}

func (p *Proc) encodeState(user []byte) []byte {
	st := procState{
		CollSeq:    p.collSeq,
		NextSendID: p.nextSendID,
		User:       user,
	}
	for _, m := range p.unexpected {
		st.Unexpected = append(st.Unexpected, savedInMsg{
			From: m.from, Tag: m.tag, RTS: m.rts, ID: m.id, Size: m.size,
			Data: append([]byte(nil), m.data...),
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		p.Abortf("encoding checkpoint state: %v", err)
	}
	return buf.Bytes()
}

func (p *Proc) restoreState(blob []byte) []byte {
	var st procState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		p.Abortf("decoding checkpoint state: %v", err)
	}
	p.collSeq = st.CollSeq
	p.nextSendID = st.NextSendID
	p.unexpected = p.unexpected[:0]
	for _, m := range st.Unexpected {
		p.unexpected = append(p.unexpected, inMsg{
			from: m.From, tag: m.Tag, rts: m.RTS, id: m.ID, size: m.Size, data: m.Data,
		})
	}
	return st.User
}
