package daemon

import (
	"fmt"
	"time"

	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// P4 is the MPICH-P4 baseline driver: direct TCP transmission, no fault
// tolerance. Two modeled behaviours distinguish it from V2 (paper §5.2
// and figure 9):
//
//   - the driver is busy for the whole transmission of a payload (it
//     does not poll for incoming receptions while sending), expressed
//     here as a sleep of size/bandwidth during BSend, on top of the
//     half-duplex pair links the P4 network model uses;
//   - the MPI layer above it pushes payloads during MPI_Isend rather
//     than MPI_Wait (mpi.Options.EagerInIsend).
type P4 struct {
	rt      vtime.Runtime
	cfg     Config
	ep      transport.Endpoint
	in      *vtime.Mailbox[dEvent]
	rsp     *vtime.Mailbox[rankResp]
	arrived []transport.Frame
	stats   Stats

	// driverBPS is the byte rate used to model driver occupancy
	// during a blocking send; 0 disables the sleep (wall-clock runs).
	driverBPS float64
}

// StartP4 attaches a P4 daemon and returns the Device for its MPI
// process. driverBPS models the send-loop occupancy (use the network
// bandwidth in simulated runs, 0 in wall-clock runs).
func StartP4(rt vtime.Runtime, fab transport.Fabric, cfg Config, driverBPS float64) (Device, *P4) {
	d := &P4{rt: rt, cfg: cfg, driverBPS: driverBPS}
	d.ep = fab.Attach(cfg.Rank, fmt.Sprintf("p4-%d", cfg.Rank))
	d.in = vtime.NewMailbox[dEvent](rt, fmt.Sprintf("p4d%d", cfg.Rank))
	d.rsp = vtime.NewMailbox[rankResp](rt, fmt.Sprintf("p4r%d", cfg.Rank))
	pump(rt, fmt.Sprintf("pump-p4-%d", cfg.Rank), d.ep, d.in)
	rt.Go(fmt.Sprintf("daemon-p4-%d", cfg.Rank), d.run)
	return &proxy{rank: cfg.Rank, in: d.in, resp: d.rsp, ckpt: &noCkpt}, d
}

// Stats returns the daemon's counters.
func (d *P4) Stats() Stats { return d.stats }

func (d *P4) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); ok {
				d.rsp.Close()
				return
			}
			panic(r)
		}
	}()
	for {
		e := d.next()
		if e.isFrame {
			d.handleFrame(e.frame)
			continue
		}
		switch e.req.op {
		case opInit:
			d.reply(rankResp{rank: d.cfg.Rank, size: d.cfg.Size})
		case opSend:
			d.doSend(e.req.to, e.req.data)
		case opRecv:
			d.doRecv()
		case opProbe:
			d.doProbe()
		case opCkpt:
			d.reply(rankResp{}) // no fault tolerance: ignore
		case opFinish:
			if d.cfg.Dispatcher >= 0 {
				d.ep.Send(d.cfg.Dispatcher, wire.KFinalize, nil)
			}
			d.reply(rankResp{})
		}
	}
}

func (d *P4) next() dEvent {
	e, ok := d.in.Recv()
	if !ok || e.closed {
		panic(killedPanic{})
	}
	return e
}

func (d *P4) handleFrame(f transport.Frame) {
	if f.Kind == wire.KPayload {
		d.arrived = append(d.arrived, f)
		d.stats.RecvMsgs++
		d.stats.RecvBytes += int64(len(f.Data)) - wire.PayloadHeaderLen
	}
}

func (d *P4) doSend(to int, data []byte) {
	if to == d.cfg.Rank {
		panic("daemon: device-level self send")
	}
	// Two parts, as V2's first send: the baseline pays the same copies.
	head := wire.AppendPayloadHeader(wire.GetBuf(wire.PayloadHeaderLen), wire.PayloadHeader{}, data)
	transport.SendParts(d.ep, to, wire.KPayload, transport.Parts{Head: head, Body: data})
	d.stats.SentMsgs++
	d.stats.SentBytes += int64(len(data))
	// The P4 send loop owns the CPU until the payload is written out.
	if d.driverBPS > 0 && len(data) > 0 {
		d.rt.Sleep(time.Duration(float64(len(data)) / d.driverBPS * float64(time.Second)))
	}
	d.reply(rankResp{})
}

func (d *P4) doRecv() {
	for len(d.arrived) == 0 {
		e := d.next()
		if e.isFrame {
			d.handleFrame(e.frame)
		}
	}
	f := d.arrived[0]
	d.arrived = d.arrived[1:]
	_, body, err := wire.DecodePayload(f.Data)
	if err != nil {
		panic(fmt.Sprintf("daemon: p4 rank %d: corrupt payload: %v", d.cfg.Rank, err))
	}
	d.reply(rankResp{from: f.From, data: body})
}

func (d *P4) doProbe() {
	for {
		e, ok := d.in.TryRecv()
		if !ok {
			break
		}
		if e.closed {
			panic(killedPanic{})
		}
		if e.isFrame {
			d.handleFrame(e.frame)
		}
	}
	d.reply(rankResp{flag: len(d.arrived) > 0})
}

// reply answers the MPI process with no Unix-socket crossing: P4 runs
// inside the MPI process.
func (d *P4) reply(r rankResp) { d.rsp.SendAfter(0, r) }
