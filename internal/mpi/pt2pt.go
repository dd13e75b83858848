package mpi

import (
	"bytes"
	"encoding/binary"
)

// Message type bytes of the protocol layer.
const (
	mEager uint8 = 1 // complete payload
	mRTS   uint8 = 2 // rendezvous request-to-send (announces size)
	mCTS   uint8 = 3 // rendezvous clear-to-send (echoes sender id)
	mData  uint8 = 4 // rendezvous payload
)

const hdrLen = 1 + 4 + 4

// encodeMsg builds the protocol block header‖payload in one exactly
// sized allocation that the copies fill without a zeroing pass first,
// so a large payload's bytes are written once. The block is what the V2
// daemon keeps in its SAVED log and writes to the socket as it is.
func encodeMsg(mtype uint8, tag int, id uint32, payload []byte) []byte {
	var hdr [hdrLen]byte
	hdr[0] = mtype
	binary.BigEndian.PutUint32(hdr[1:], uint32(int32(tag)))
	binary.BigEndian.PutUint32(hdr[5:], id)
	return bytes.Join([][]byte{hdr[:], payload}, nil)
}

func decodeMsg(b []byte) (mtype uint8, tag int, id uint32, payload []byte) {
	if len(b) < hdrLen {
		panic("mpi: protocol block shorter than header")
	}
	return b[0], int(int32(binary.BigEndian.Uint32(b[1:]))), binary.BigEndian.Uint32(b[5:]), b[hdrLen:]
}

// Request is a nonblocking communication handle.
type Request struct {
	done   bool
	isSend bool

	// send fields
	to      int
	stag    int
	payload []byte
	id      uint32
	pushed  bool // transmission initiated (eager sent / RTS sent)

	// recv fields
	srcSel int // matching source (AnySource allowed)
	tagSel int // matching tag (AnyTag allowed)
	from   int
	rtag   int
	data   []byte
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Data returns the received payload of a completed receive request.
func (r *Request) Data() []byte { return r.data }

// Status returns the completion status of a receive request.
func (r *Request) Status() Status { return Status{Source: r.from, Tag: r.rtag, Size: len(r.data)} }

func match(srcSel, tagSel, from, tag int) bool {
	return (srcSel == AnySource || srcSel == from) && (tagSel == AnyTag || tagSel == tag)
}

// Isend starts a nonblocking send. The payload is not copied; the caller
// must not mutate it until the request completes.
func (p *Proc) Isend(to, tag int, data []byte) *Request {
	t0 := p.clock.Now()
	r := &Request{isSend: true, to: to, stag: tag, payload: data}
	if to == p.rank {
		p.deliverLocal(inMsg{from: p.rank, tag: tag, data: data})
		r.done = true
	} else if len(data) <= p.opt.EagerLimit && p.opt.EagerInIsend {
		p.pushSend(r)
	} else if len(data) > p.opt.EagerLimit && p.opt.EagerInIsend {
		// P4 rendezvous: the RTS goes out immediately; the payload
		// follows the CTS during a later progress call.
		p.pushSend(r)
	} else {
		// V2/V1: the send is only posted; transmission happens in
		// the completing call (MPI_Wait and friends).
		p.deferred = append(p.deferred, r)
	}
	p.stats.Add("MPI_Isend", p.clock.Now()-t0)
	return r
}

// Irecv starts a nonblocking receive matching (src, tag), with
// wildcards.
func (p *Proc) Irecv(src, tag int) *Request {
	t0 := p.clock.Now()
	r := &Request{srcSel: src, tagSel: tag}
	if !p.matchUnexpected(r) {
		p.posted = append(p.posted, r)
	}
	p.stats.Add("MPI_Irecv", p.clock.Now()-t0)
	return r
}

// Wait blocks until the request completes. For receive requests it
// returns the payload and status.
func (p *Proc) Wait(r *Request) ([]byte, Status) {
	t0 := p.clock.Now()
	p.flushDeferred()
	for !r.done {
		p.progressBlocking()
	}
	p.stats.Add("MPI_Wait", p.clock.Now()-t0)
	return r.data, r.Status()
}

// Waitall blocks until every request completes.
func (p *Proc) Waitall(rs []*Request) {
	t0 := p.clock.Now()
	p.flushDeferred()
	for _, r := range rs {
		for !r.done {
			p.progressBlocking()
		}
	}
	p.stats.Add("MPI_Wait", p.clock.Now()-t0)
}

// Test reports whether the request has completed, progressing the engine
// without blocking.
func (p *Proc) Test(r *Request) bool {
	t0 := p.clock.Now()
	p.flushDeferred()
	p.progressNonblocking()
	p.stats.Add("MPI_Test", p.clock.Now()-t0)
	return r.done
}

// Send is the blocking send.
func (p *Proc) Send(to, tag int, data []byte) {
	t0 := p.clock.Now()
	r := &Request{isSend: true, to: to, stag: tag, payload: data}
	if to == p.rank {
		p.deliverLocal(inMsg{from: p.rank, tag: tag, data: data})
		r.done = true
	} else {
		p.flushDeferred()
		p.pushSend(r)
	}
	for !r.done {
		p.progressBlocking()
	}
	p.stats.Add("MPI_Send", p.clock.Now()-t0)
}

// Recv is the blocking receive; it returns the payload and status.
func (p *Proc) Recv(src, tag int) ([]byte, Status) {
	t0 := p.clock.Now()
	p.flushDeferred()
	r := &Request{srcSel: src, tagSel: tag}
	if !p.matchUnexpected(r) {
		p.posted = append(p.posted, r)
	}
	for !r.done {
		p.progressBlocking()
	}
	p.stats.Add("MPI_Recv", p.clock.Now()-t0)
	return r.data, r.Status()
}

// Sendrecv exchanges messages without deadlock.
func (p *Proc) Sendrecv(to, stag int, data []byte, from, rtag int) ([]byte, Status) {
	rr := p.Irecv(from, rtag)
	sr := p.Isend(to, stag, data)
	p.Waitall([]*Request{sr, rr})
	return rr.data, rr.Status()
}

// Probe blocks until a message matching (src, tag) is available and
// returns its envelope without consuming it.
func (p *Proc) Probe(src, tag int) Status {
	t0 := p.clock.Now()
	p.flushDeferred()
	for {
		if st, ok := p.findUnexpected(src, tag); ok {
			p.stats.Add("MPI_Probe", p.clock.Now()-t0)
			return st
		}
		p.progressBlocking()
	}
}

// Iprobe reports whether a message matching (src, tag) is available,
// without consuming it.
func (p *Proc) Iprobe(src, tag int) (Status, bool) {
	t0 := p.clock.Now()
	p.flushDeferred()
	p.progressNonblocking()
	st, ok := p.findUnexpected(src, tag)
	p.stats.Add("MPI_Iprobe", p.clock.Now()-t0)
	return st, ok
}

func (p *Proc) findUnexpected(src, tag int) (Status, bool) {
	for _, m := range p.unexpected {
		if match(src, tag, m.from, m.tag) {
			sz := len(m.data)
			if m.rts {
				sz = m.size
			}
			return Status{Source: m.from, Tag: m.tag, Size: sz}, true
		}
	}
	return Status{}, false
}

// pushSend initiates transmission of a send request.
func (p *Proc) pushSend(r *Request) {
	if r.pushed {
		return
	}
	r.pushed = true
	if len(r.payload) <= p.opt.EagerLimit {
		p.dev.BSend(r.to, encodeMsg(mEager, r.stag, 0, r.payload))
		r.done = true
		return
	}
	p.nextSendID++
	r.id = p.nextSendID
	p.sendsByID[r.id] = r
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], uint64(len(r.payload)))
	p.dev.BSend(r.to, encodeMsg(mRTS, r.stag, r.id, sz[:]))
}

// flushDeferred pushes V2-style posted sends; every blocking MPI call
// does this first so deferred transmissions cannot starve.
func (p *Proc) flushDeferred() {
	if len(p.deferred) == 0 {
		return
	}
	ds := p.deferred
	p.deferred = p.deferred[:0]
	for _, r := range ds {
		p.pushSend(r)
	}
}

// matchUnexpected tries to satisfy a new receive from the unexpected
// queue. For a rendezvous envelope it sends the CTS and registers the
// inflight transfer; the request completes when the data block arrives.
func (p *Proc) matchUnexpected(r *Request) bool {
	for i, m := range p.unexpected {
		if !match(r.srcSel, r.tagSel, m.from, m.tag) {
			continue
		}
		p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
		if m.rts {
			p.rvInflight[rvKey(m.from, m.id)] = r
			r.from, r.rtag = m.from, m.tag
			p.dev.BSend(m.from, encodeMsg(mCTS, m.tag, m.id, nil))
			// Not done yet: the payload follows as mData.
			return true
		}
		r.from, r.rtag, r.data = m.from, m.tag, m.data
		r.done = true
		return true
	}
	return false
}

func rvKey(from int, id uint32) uint64 { return uint64(uint32(from))<<32 | uint64(id) }

// deliverLocal routes a self-message (never crossing the device).
func (p *Proc) deliverLocal(m inMsg) {
	p.dispatchEager(m)
}
