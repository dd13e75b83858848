// Package netsim models the paper's experimental network: a 48-port
// 100 Mbit/s Ethernet switch connecting 32 Athlon computing nodes and 12
// slower dual-PIII auxiliary machines (SC'03 paper, §5). The model is
// deliberately simple — a fixed per-message one-way cost plus a
// bandwidth-paced link resource per direction — because the experiments
// measure protocol-induced differences (message counts, synchronisation,
// payload routing), not wire physics. Constants are calibrated against
// the paper's own MPICH-P4 measurements; see Params2003.
package netsim

import (
	"time"

	"mpichv/internal/vtime"
)

// Class describes the fixed per-message cost class of a destination.
type Class int

const (
	// ClassCompute is a message between computing nodes (payloads,
	// rendezvous control, restart control).
	ClassCompute Class = iota
	// ClassService is a message to or from an auxiliary service node
	// (event logger, checkpoint server, scheduler, dispatcher). The
	// paper's auxiliary machines are slower dual-PIII boxes, so the
	// per-message cost is a little higher.
	ClassService
)

// Params calibrates the network model. All constants trace back to
// numbers reported in the paper.
type Params struct {
	// ComputeOverhead is the fixed one-way cost of a TCP message
	// between computing nodes. Paper figure 6: MPICH-P4 0-byte
	// one-way latency is 77 µs.
	ComputeOverhead time.Duration
	// ServiceOverhead is the fixed one-way cost of a message to/from a
	// service node. Calibrated together with ELService so that a V2
	// 0-byte send — one payload message plus a blocking event-log
	// round trip — costs 237 µs (paper §5.1):
	// 5 + 77 + 5 + 55 + 40 + 55 = 237.
	ServiceOverhead time.Duration
	// ELService is the event logger's per-event processing time. The
	// paper's auxiliary machines are dual PIII-500 boxes serving every
	// computing node, so simultaneous reception events (collective
	// bursts) queue behind each other — a big part of V2's penalty on
	// latency-bound kernels like CG and MG.
	ELService time.Duration
	// UnixOverhead is the cost of one crossing of the Unix socket
	// between an MPI process and its communication daemon (§4.4).
	UnixOverhead time.Duration
	// Bandwidth is the per-direction link bandwidth in bytes/second.
	// Paper figure 5: P4 peaks at 11.3 MB/s on 100 Mb/s Ethernet.
	Bandwidth float64
	// HalfDuplexPairs makes the two directions of a node pair share a
	// single link resource. This models the P4 driver, which does not
	// service incoming traffic while a blocking send loop runs, so
	// simultaneous transfers between a pair serialize (§5.2, Fig 9
	// discussion). V2's daemon polls for receptions after every chunk
	// and therefore keeps both directions busy (full duplex).
	HalfDuplexPairs bool
	// HalfDuplexMinBytes exempts small messages from pair
	// serialization: they are absorbed by the 2003-era ~64 KB socket
	// buffers without stalling the peer's send loop, which is why P4
	// still wins the figure 9 pattern at small sizes.
	HalfDuplexMinBytes int
	// UnixCopyPerByte is the per-byte cost of moving an eager payload
	// across the MPI-process↔daemon Unix socket (one copy each way).
	// Large rendezvous transfers pipeline through the daemon and do
	// not pay it; eager messages are store-and-forwarded. This is the
	// daemon-architecture tax that P4's in-process driver avoids, and
	// a large part of V2's penalty on kernels dominated by mid-size
	// eager messages (CG, MG).
	UnixCopyPerByte time.Duration
	// LogCopyPerByte is the sender-based logging penalty per payload
	// byte (copying into the SAVED log). Calibrated so the V2
	// ping-pong asymptote is 10.7 MB/s versus P4's 11.3 (figure 5):
	// 1/10.7e6 − 1/11.3e6 ≈ 5 ns/byte.
	LogCopyPerByte time.Duration
	// LogMemLimit is the in-memory budget for logged payloads per
	// node; beyond it the log spills to IDE disk (paper: 1 GB memory
	// + 1 GB swap; LU's poor performance is attributed to this).
	LogMemLimit int64
	// DiskCopyPerByte is the extra per-byte cost once the log spills
	// to disk (~15 MB/s 2003 IDE disk ≈ 67 ns/byte).
	DiskCopyPerByte time.Duration
	// EagerLimit is the largest payload sent eagerly; above it the
	// MPI layer uses the rendezvous protocol (figure 10 shows the
	// protocol switch between 64 KB and 128 KB).
	EagerLimit int
	// FlopRate is the sustained compute rate used to convert kernel
	// flop counts into virtual compute time (Athlon XP 1800+ running
	// NPB-class Fortran ≈ 2×10⁸ flop/s sustained).
	FlopRate float64
}

// Params2003 returns the model calibrated to the paper's testbed.
func Params2003() Params {
	return Params{
		ComputeOverhead:    77 * time.Microsecond,
		HalfDuplexMinBytes: 8 << 10,
		ServiceOverhead:    55 * time.Microsecond,
		ELService:          40 * time.Microsecond,
		UnixOverhead:       5 * time.Microsecond,
		UnixCopyPerByte:    15 * time.Nanosecond,
		Bandwidth:          11.3e6,
		LogCopyPerByte:     5 * time.Nanosecond,
		LogMemLimit:        1 << 30,
		DiskCopyPerByte:    67 * time.Nanosecond,
		EagerLimit:         64 << 10,
		FlopRate:           2e8,
	}
}

// Network tracks link occupancy and computes delivery delays. It must
// only be used from simulator actors (the token discipline makes method
// calls race-free without locking).
type Network struct {
	clock vtime.Clock
	p     Params
	res   map[linkKey]*resource

	// Stats
	Messages int64
	Bytes    int64
}

type linkKey struct{ a, b int }

type resource struct{ freeAt time.Duration }

// New returns a network model using clock for the current virtual time.
func New(clock vtime.Clock, p Params) *Network {
	return &Network{clock: clock, p: p, res: make(map[linkKey]*resource)}
}

// Params returns the calibration in use.
func (n *Network) Params() Params { return n.p }

func (n *Network) link(from, to, bytes int) *resource {
	k := linkKey{from, to}
	if n.p.HalfDuplexPairs && from > to && bytes >= n.p.HalfDuplexMinBytes {
		k = linkKey{to, from}
	}
	r := n.res[k]
	if r == nil {
		r = &resource{}
		n.res[k] = r
	}
	return r
}

// Delay reserves link capacity for a message of the given payload size
// and returns how long after "now" it arrives at the destination.
func (n *Network) Delay(from, to int, bytes int, class Class) time.Duration {
	n.Messages++
	n.Bytes += int64(bytes)
	now := n.clock.Now()
	overhead := n.p.ComputeOverhead
	if class == ClassService {
		overhead = n.p.ServiceOverhead
	}
	if from == to {
		// Loopback: no wire, just the software overhead.
		return overhead / 4
	}
	tx := time.Duration(float64(bytes) / n.p.Bandwidth * float64(time.Second))
	r := n.link(from, to, bytes)
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + tx
	return r.freeAt + overhead - now
}
