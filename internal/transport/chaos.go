package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpichv/internal/vtime"
)

// ChaosPolicy configures deterministic fault injection on a fabric.
// The rates are independent per-frame probabilities in [0,1]; the same
// seed over the same send sequence always produces the same fault
// schedule (exactly reproducible in a Sim, where sends are serialized).
type ChaosPolicy struct {
	Seed uint64

	// Drop silently loses the frame, like a lossy link or a peer's
	// kernel buffer overflowing.
	Drop float64
	// Duplicate delivers the frame twice, like a retransmission whose
	// original was not lost after all.
	Duplicate float64
	// Delay holds the frame back for up to MaxDelay of extra jitter
	// before it enters the fabric, reordering it against later sends.
	Delay    float64
	MaxDelay time.Duration // jitter bound for delayed frames (default 1ms)
	// Corrupt truncates the frame's payload to zero bytes, modeling a
	// frame whose checksum fails: every decoder rejects it and none can
	// mistake it for valid data. Frames that legitimately carry no
	// payload pass through unharmed (there is nothing to corrupt).
	Corrupt float64
	// Truncate cuts the frame's payload in half, modeling a transfer
	// severed mid-flight: length-framed decoders reject the stub, and
	// blobs whose framing survives (a checkpoint image inside a save
	// request) must be caught by their integrity checksum downstream.
	Truncate float64

	// Partitions are timed cuts between node pairs.
	Partitions []Partition
}

// Active reports whether the policy injects anything at all.
func (p ChaosPolicy) Active() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Delay > 0 || p.Corrupt > 0 ||
		p.Truncate > 0 || len(p.Partitions) > 0
}

// Lossy reports whether the policy can make a frame vanish (drop,
// corruption, partition) — the cases that need end-to-end retransmit
// and pull machinery rather than mere reordering tolerance.
func (p ChaosPolicy) Lossy() bool {
	return p.Drop > 0 || p.Corrupt > 0 || p.Truncate > 0 || len(p.Partitions) > 0
}

// Partition cuts every frame between nodes A and B, in both directions,
// during [From, Until). A negative A or B is a wildcard matching any
// node, so {A: 3, B: -1} isolates node 3 completely.
type Partition struct {
	A, B        int
	From, Until time.Duration
}

func (pt Partition) cuts(a, b int, now time.Duration) bool {
	if now < pt.From || now >= pt.Until {
		return false
	}
	match := func(x, y int) bool {
		return (pt.A < 0 || pt.A == x) && (pt.B < 0 || pt.B == y)
	}
	return match(a, b) || match(b, a)
}

// verdict is one frame's drawn fate.
type verdict struct {
	cut, drop, corrupt, dup, trunc bool
	jitter                         time.Duration
	reset, stall                   bool // ChaosProxy's socket-level faults
}

// judge draws the fate of an n-byte frame from node from to node to:
// the partition check (a negative id, a peer not yet known, is cut by
// none), then drop, corrupt, duplicate, delay and truncate. Every
// variate is consumed for every frame that is not cut, in this fixed
// order, so the stream — and with it the whole fault schedule — does not
// depend on which faults happen to trigger. The truncation roll is
// drawn only when the policy enables it, so older policies keep their
// exact variate streams.
func (p *ChaosPolicy) judge(rng *vtime.Stream, from, to, n int, now time.Duration) (v verdict) {
	for _, pt := range p.Partitions {
		if from >= 0 && to >= 0 && pt.cuts(from, to, now) {
			v.cut = true
			return v
		}
	}
	v.drop = rng.Float() < p.Drop
	v.corrupt = rng.Float() < p.Corrupt && n > 0
	v.dup = rng.Float() < p.Duplicate
	if rng.Float() < p.Delay {
		bound := p.MaxDelay
		if bound <= 0 {
			bound = time.Millisecond
		}
		v.jitter = max(time.Duration(rng.Float()*float64(bound)), time.Microsecond)
	}
	if p.Truncate > 0 {
		v.trunc = rng.Float() < p.Truncate && n > 1
	}
	return v
}

// ChaosFabric wraps any Fabric and injects the faults of a ChaosPolicy
// on every Send. Endpoints, inboxes and Kill pass straight through to
// the inner fabric, so daemons cannot tell they are running on a
// hostile network. The counters record what was injected; read them
// after the run (they are written atomically during it).
type ChaosFabric struct {
	rt    vtime.Runtime
	inner Fabric
	pol   ChaosPolicy

	mu  sync.Mutex
	rng vtime.Stream
	n   uint64 // delayed-delivery actor naming

	ChaosCounters
}

// ChaosCounters count the frames a ChaosPolicy touched, one counter per
// fault of the shared vocabulary; ChaosProxy's counters embed them.
type ChaosCounters struct {
	Dropped     int64 // frames silently lost
	Duplicated  int64 // frames delivered twice
	Delayed     int64 // frames held back by extra jitter
	Corrupted   int64 // frames truncated to an undecodable stub
	Truncated   int64 // frames cut in half mid-flight
	Partitioned int64 // frames cut by an active partition
}

// count records v: a frame counts once, under the first of cut, drop,
// corrupt and truncate it suffered, and otherwise as duplicated and/or
// delayed. The counters are written atomically.
func (c *ChaosCounters) count(v verdict) {
	switch {
	case v.cut:
		atomic.AddInt64(&c.Partitioned, 1)
	case v.drop:
		atomic.AddInt64(&c.Dropped, 1)
	case v.corrupt:
		atomic.AddInt64(&c.Corrupted, 1)
	case v.trunc:
		atomic.AddInt64(&c.Truncated, 1)
	default:
		if v.dup {
			atomic.AddInt64(&c.Duplicated, 1)
		}
		if v.jitter > 0 {
			atomic.AddInt64(&c.Delayed, 1)
		}
	}
}

// NewChaosFabric wraps inner with the given policy.
func NewChaosFabric(rt vtime.Runtime, inner Fabric, pol ChaosPolicy) *ChaosFabric {
	return &ChaosFabric{rt: rt, inner: inner, pol: pol, rng: vtime.NewStream(pol.Seed)}
}

// Policy returns the injection policy.
func (f *ChaosFabric) Policy() ChaosPolicy { return f.pol }

// Attach implements Fabric.
func (f *ChaosFabric) Attach(id int, name string) Endpoint {
	return &chaosEndpoint{fab: f, inner: f.inner.Attach(id, name)}
}

// Kill implements Fabric.
func (f *ChaosFabric) Kill(id int) { f.inner.Kill(id) }

type chaosEndpoint struct {
	fab   *ChaosFabric
	inner Endpoint
}

func (e *chaosEndpoint) ID() int                      { return e.inner.ID() }
func (e *chaosEndpoint) Inbox() *vtime.Mailbox[Frame] { return e.inner.Inbox() }
func (e *chaosEndpoint) Close()                       { e.inner.Close() }

func (e *chaosEndpoint) Send(to int, kind uint8, data []byte) bool {
	f := e.fab
	now := f.rt.Now()
	f.mu.Lock()
	v := f.pol.judge(&f.rng, e.inner.ID(), to, len(data), now)
	if !v.cut {
		f.n++
	}
	seq := f.n
	f.mu.Unlock()
	f.count(v)

	if v.cut || v.drop {
		return true // the frame vanished; the sender cannot tell
	}
	if v.corrupt {
		data = data[:0:0]
	} else if v.trunc {
		data = data[: len(data)/2 : len(data)/2]
	}
	if v.dup {
		// The duplicate travels undelayed; the original may jitter past
		// it, exercising reordering too. It owns its bytes: the
		// original's receiver may recycle the frame's buffer
		// (wire.PutBuf) after decoding it, and a shared backing array
		// would let that recycle scribble over this copy in flight.
		e.inner.Send(to, kind, append([]byte(nil), data...))
	}
	if v.jitter > 0 {
		f.rt.Go(fmt.Sprintf("chaos-delay-%d", seq), func() {
			f.rt.Sleep(v.jitter)
			e.inner.Send(to, kind, data)
		})
		return true
	}
	return e.inner.Send(to, kind, data)
}
