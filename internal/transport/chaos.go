package transport

import (
	"fmt"
	"sync"
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

// ChaosFabric wraps any Fabric and injects the faults of a ChaosPolicy
// on every Send. Endpoints, inboxes and Kill pass straight through to
// the inner fabric, so daemons cannot tell they are running on a
// hostile network. The counters record what was injected; read them
// after the run (they are guarded by the fabric's lock during it).
type ChaosFabric struct {
	rt    vtime.Runtime
	inner Fabric
	pol   ChaosPolicy

	mu  sync.Mutex
	rng uint64
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

// NewChaosFabric wraps inner with the given policy.
func NewChaosFabric(rt vtime.Runtime, inner Fabric, pol ChaosPolicy) *ChaosFabric {
	return &ChaosFabric{
		rt:    rt,
		inner: inner,
		pol:   pol,
		// splitmix-style seed scrambling so nearby seeds diverge.
		rng: (pol.Seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9,
	}
}

// Policy returns the injection policy.
func (f *ChaosFabric) Policy() ChaosPolicy { return f.pol }

// Attach implements Fabric.
func (f *ChaosFabric) Attach(id int, name string) Endpoint {
	return &chaosEndpoint{fab: f, inner: f.inner.Attach(id, name)}
}

// Kill implements Fabric.
func (f *ChaosFabric) Kill(id int) { f.inner.Kill(id) }

// roll draws the next uniform [0,1) variate. Callers hold f.mu.
func (f *ChaosFabric) roll() float64 {
	f.rng = f.rng*6364136223846793005 + 1442695040888963407
	return float64(f.rng>>11) / float64(1<<53)
}

func (f *ChaosFabric) cut(a, b int, now time.Duration) bool {
	for _, pt := range f.pol.Partitions {
		if pt.cuts(a, b, now) {
			return true
		}
	}
	return false
}

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
	if f.cut(e.inner.ID(), to, now) {
		f.Partitioned++
		f.mu.Unlock()
		return true
	}
	// All four rolls are consumed for every frame, in a fixed order, so
	// the variate stream — and with it the whole fault schedule — does
	// not depend on which faults happen to trigger.
	drop := f.roll() < f.pol.Drop
	corrupt := f.roll() < f.pol.Corrupt && len(data) > 0
	dup := f.roll() < f.pol.Duplicate
	var jitter time.Duration
	if f.roll() < f.pol.Delay {
		max := f.pol.MaxDelay
		if max <= 0 {
			max = time.Millisecond
		}
		jitter = time.Duration(f.roll() * float64(max))
		if jitter < time.Microsecond {
			jitter = time.Microsecond
		}
	}
	// The truncation roll is drawn only when the policy enables it, so
	// pre-existing policies keep their exact variate streams.
	trunc := false
	if f.pol.Truncate > 0 {
		trunc = f.roll() < f.pol.Truncate && len(data) > 1
	}
	switch {
	case drop:
		f.Dropped++
	case corrupt:
		f.Corrupted++
	case trunc:
		f.Truncated++
	default:
		if dup {
			f.Duplicated++
		}
		if jitter > 0 {
			f.Delayed++
		}
	}
	f.n++
	seq := f.n
	f.mu.Unlock()

	if drop {
		return true // the frame vanished; the sender cannot tell
	}
	if corrupt {
		data = data[:0:0]
	} else if trunc {
		data = data[: len(data)/2 : len(data)/2]
	}
	if dup {
		// The duplicate travels undelayed; the original may jitter past
		// it, exercising reordering too. It owns its bytes: the
		// original's receiver may recycle the frame's buffer
		// (wire.PutBuf) after decoding it, and a shared backing array
		// would let that recycle scribble over this copy in flight.
		e.inner.Send(to, kind, append([]byte(nil), data...))
	}
	if jitter > 0 {
		f.rt.Go(fmt.Sprintf("chaos-delay-%d", seq), func() {
			f.rt.Sleep(jitter)
			e.inner.Send(to, kind, data)
		})
		return true
	}
	return e.inner.Send(to, kind, data)
}
