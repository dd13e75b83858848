package daemon

import (
	"fmt"

	"mpichv/internal/transport"
	"mpichv/internal/vtime"
	"mpichv/internal/wire"
)

// V1 is the MPICH-V1 baseline daemon (§3.2): every message transits
// through the receiver's reliable Channel Memory — "two serialized TCP
// streams", which halves the observable bandwidth and requires a
// reliable node per group of computing nodes. It is implemented here as
// the performance baseline of figures 5, 6 and 8; V1-style recovery
// (re-fetching the reception history from the Channel Memory) is not
// reproduced, since every fault-tolerance experiment in the paper runs
// on V2.
type V1 struct {
	rt    vtime.Runtime
	cfg   Config
	cm    func(rank int) int
	ep    transport.Endpoint
	in    *vtime.Mailbox[dEvent]
	rsp   *vtime.Mailbox[rankResp]
	stats Stats
}

// StartV1 attaches a V1 daemon; cm maps every rank to its Channel Memory
// node id.
func StartV1(rt vtime.Runtime, fab transport.Fabric, cfg Config, cm func(rank int) int) (Device, *V1) {
	d := &V1{rt: rt, cfg: cfg, cm: cm}
	d.ep = fab.Attach(cfg.Rank, fmt.Sprintf("v1-%d", cfg.Rank))
	d.in = vtime.NewMailbox[dEvent](rt, fmt.Sprintf("v1d%d", cfg.Rank))
	d.rsp = vtime.NewMailbox[rankResp](rt, fmt.Sprintf("v1r%d", cfg.Rank))
	pump(rt, fmt.Sprintf("pump-v1-%d", cfg.Rank), d.ep, d.in)
	rt.Go(fmt.Sprintf("daemon-v1-%d", cfg.Rank), d.run)
	return &proxy{rank: cfg.Rank, delay: cfg.Cost.UnixOverhead, in: d.in, resp: d.rsp, ckpt: &noCkpt}, d
}

// Stats returns the daemon's counters.
func (d *V1) Stats() Stats { return d.stats }

func (d *V1) run() {
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
			continue // unsolicited frames have no meaning for V1
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
			d.reply(rankResp{})
		case opFinish:
			if d.cfg.Dispatcher >= 0 {
				d.ep.Send(d.cfg.Dispatcher, wire.KFinalize, nil)
			}
			d.reply(rankResp{})
		}
	}
}

func (d *V1) next() dEvent {
	e, ok := d.in.Recv()
	if !ok || e.closed {
		panic(killedPanic{})
	}
	return e
}

// awaitCM blocks until the Channel Memory answers.
func (d *V1) awaitCM() transport.Frame {
	for {
		e := d.next()
		if e.isFrame && e.frame.Kind == wire.KCMMsg {
			return e.frame
		}
	}
}

func (d *V1) doSend(to int, data []byte) {
	if to == d.cfg.Rank {
		panic("daemon: device-level self send")
	}
	if c := unixCopy(&d.cfg.Cost, len(data)); c > 0 {
		d.rt.Sleep(c)
	}
	// The message is stored on the *receiver's* Channel Memory.
	d.ep.Send(d.cm(to), wire.KCMPut, wire.EncodeCMPut(to, data))
	d.stats.SentMsgs++
	d.stats.SentBytes += int64(len(data))
	d.reply(rankResp{})
}

func (d *V1) doRecv() {
	d.ep.Send(d.cm(d.cfg.Rank), wire.KCMGet, []byte{wire.CMGetBlock})
	f := d.awaitCM()
	present, origFrom, data, err := wire.DecodeCMMsg(f.Data)
	if err != nil || !present {
		panic(fmt.Sprintf("daemon: v1 rank %d: bad channel memory delivery (err=%v present=%v)", d.cfg.Rank, err, present))
	}
	d.stats.RecvMsgs++
	d.stats.RecvBytes += int64(len(data))
	if c := unixCopy(&d.cfg.Cost, len(data)); c > 0 {
		d.rt.Sleep(c)
	}
	d.reply(rankResp{from: origFrom, data: data})
}

func (d *V1) doProbe() {
	d.ep.Send(d.cm(d.cfg.Rank), wire.KCMGet, []byte{wire.CMGetProbe})
	f := d.awaitCM()
	present, _, _, err := wire.DecodeCMMsg(f.Data)
	if err != nil {
		panic(fmt.Sprintf("daemon: v1 rank %d: bad probe answer: %v", d.cfg.Rank, err))
	}
	d.reply(rankResp{flag: present})
}

func (d *V1) reply(r rankResp) { d.rsp.SendAfter(d.cfg.Cost.UnixOverhead, r) }

// ChannelMemory is the reliable store-and-forward node of MPICH-V1. One
// instance serves a group of computing nodes; in the paper's setups one
// Channel Memory serves 1 to 4 nodes.
type ChannelMemory struct {
	rt vtime.Runtime
	ep transport.Endpoint

	queues  map[int][]cmItem // destination rank → ordered messages
	waiting map[int]bool     // destination rank has a parked blocking get

	Stored int64
	Bytes  int64
}

type cmItem struct {
	from int
	data []byte
}

// StartChannelMemory attaches and runs a Channel Memory on node id.
func StartChannelMemory(rt vtime.Runtime, fab transport.Fabric, id int) *ChannelMemory {
	cm := &ChannelMemory{
		rt:      rt,
		ep:      fab.Attach(id, fmt.Sprintf("cm%d", id)),
		queues:  make(map[int][]cmItem),
		waiting: make(map[int]bool),
	}
	rt.Go(fmt.Sprintf("cm-%d", id), cm.run)
	return cm
}

func (cm *ChannelMemory) run() {
	for {
		f, ok := cm.ep.Inbox().Recv()
		if !ok {
			return
		}
		switch f.Kind {
		case wire.KCMPut:
			dest, data, err := wire.DecodeCMPut(f.Data)
			if err != nil {
				continue
			}
			cm.Stored++
			cm.Bytes += int64(len(data))
			cm.queues[dest] = append(cm.queues[dest], cmItem{from: f.From, data: data})
			if cm.waiting[dest] {
				cm.waiting[dest] = false
				cm.deliver(dest)
			}
		case wire.KCMGet:
			if len(f.Data) != 1 {
				continue
			}
			switch f.Data[0] {
			case wire.CMGetProbe:
				cm.ep.Send(f.From, wire.KCMMsg, wire.EncodeCMMsg(len(cm.queues[f.From]) > 0, 0, nil))
			case wire.CMGetBlock:
				if len(cm.queues[f.From]) > 0 {
					cm.deliver(f.From)
				} else {
					cm.waiting[f.From] = true
				}
			}
		}
	}
}

func (cm *ChannelMemory) deliver(dest int) {
	it := cm.queues[dest][0]
	cm.queues[dest] = cm.queues[dest][1:]
	cm.ep.Send(dest, wire.KCMMsg, wire.EncodeCMMsg(true, it.from, it.data))
}
