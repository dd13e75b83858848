package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpichv/internal/trace"
	"mpichv/internal/vtime"
)

// ProxyPolicy configures a ChaosProxy. The embedded ChaosPolicy is the
// exact per-frame fault vocabulary of the simulated chaos fabric —
// drop, duplicate, delay/reorder, corrupt, truncate, timed partitions —
// applied verbatim to real byte streams: the proxy parses the length-
// framed wire protocol, so a "dropped frame" removes a whole frame from
// a live TCP stream without desynchronizing it, and a "truncated" one
// is re-framed with a consistent length so only its payload (which
// downstream integrity checks must catch) is damaged.
//
// On top of the shared vocabulary sit faults that only exist on real
// sockets:
//
//   - Reset tears down the connection pair mid-stream (RST-style); the
//     dialer must redial through the proxy.
//   - Stall freezes a direction for StallFor without closing anything —
//     the half-open case that read/write deadlines exist for.
//   - Bandwidth caps each direction's forwarding rate in bytes/second.
type ProxyPolicy struct {
	ChaosPolicy

	// Reset is the per-frame probability of closing both legs of the
	// connection carrying the frame.
	Reset float64
	// Stall is the per-frame probability of freezing the frame's
	// direction for StallFor (default 1s) while keeping the sockets
	// open: bytes pile up in kernel buffers until senders hit their
	// write deadlines.
	Stall    float64
	StallFor time.Duration
	// Bandwidth, when positive, caps each direction at this many
	// bytes/second by pacing frame forwarding.
	Bandwidth int64
}

// ChaosProxy fronts one node's TCP listener: peers dial the proxy's
// front address, the proxy dials the node's real (bind) address, and
// every frame of every connection crosses the fault injector in both
// directions. Because connections open with the transport's hello
// frame, the proxy learns which peer owns each inbound leg and applies
// node-pair partitions exactly like the simulated fabric: a frame from
// peer p toward the proxied node h travels the (p,h) edge, a reply
// travels (h,p).
//
// The variate stream is seeded and consumed in a fixed per-frame order
// (one shared stream across connections), so a given seed injects the
// same fault mix; exact frame interleaving across connections is
// scheduling-dependent, which is the nature of real sockets — the
// reproducible object is the seeded schedule, not the byte timeline.
type ChaosProxy struct {
	rt      vtime.Runtime
	home    int // node id of the proxied backend
	backend string
	ln      net.Listener
	pol     ProxyPolicy

	mu     sync.Mutex
	rng    uint64
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// Counters mirror ChaosFabric's, plus the proxy-only faults.
	// Written with atomics from the per-connection pipe goroutines;
	// read via Counters().
	ctr ProxyCounters
}

// ProxyCounters is a snapshot of a proxy's injection and forwarding
// counters, safe to read while the proxy is live.
type ProxyCounters struct {
	ChaosCounters
	Resets    int64
	Stalls    int64
	FramesIn  int64 // frames forwarded toward the backend
	FramesOut int64 // frames forwarded toward peers
	BytesIn   int64
	BytesOut  int64
}

// Counters returns an atomic snapshot of the proxy's counters.
func (p *ChaosProxy) Counters() ProxyCounters { return trace.LoadStats(&p.ctr) }

// NewChaosProxy listens on front and forwards to backend, injecting pol.
// front may use port 0; Addr reports the bound address.
func NewChaosProxy(rt vtime.Runtime, home int, front, backend string, pol ProxyPolicy) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", front)
	if err != nil {
		return nil, err
	}
	if pol.StallFor <= 0 {
		pol.StallFor = time.Second
	}
	if pol.MaxDelay <= 0 {
		pol.MaxDelay = time.Millisecond
	}
	p := &ChaosProxy{
		rt:      rt,
		home:    home,
		backend: backend,
		ln:      ln,
		pol:     pol,
		rng:     (pol.Seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9,
		conns:   make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's front address.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Policy returns the injection policy.
func (p *ChaosProxy) Policy() ProxyPolicy { return p.pol }

// Close stops accepting, severs every proxied connection and joins the
// proxy's goroutines (delayed frames included).
func (p *ChaosProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

func (p *ChaosProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *ChaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		if !p.track(c) || !p.track(b) {
			c.Close()
			b.Close()
			return
		}
		link := &proxyLink{proxy: p, client: c, backend: b, peer: -1}
		p.wg.Add(2)
		go link.pipe(true)
		go link.pipe(false)
	}
}

// proxyLink is one proxied connection pair. peer is the node id learned
// from the first inbound frame (the transport hello); until it is
// known, partitions that need the peer treat it as unknown and pass.
type proxyLink struct {
	proxy   *ChaosProxy
	client  net.Conn
	backend net.Conn
	peer    int32
	cmu     sync.Mutex // client-side write ordering (delayed frames); guards cw
	bmu     sync.Mutex // backend-side write ordering; guards bw
	cw, bw  frameWriter
}

func (l *proxyLink) sever() {
	l.client.Close()
	l.backend.Close()
}

// forward writes f toward the backend or toward the client under that
// side's write lock; a failed write severs the pair.
func (l *proxyLink) forward(toBackend bool, f Frame) {
	dst, mu, fw := l.client, &l.cmu, &l.cw
	if toBackend {
		dst, mu, fw = l.backend, &l.bmu, &l.bw
	}
	mu.Lock()
	defer mu.Unlock()
	if fw.write(dst, f) != nil {
		l.sever()
	}
}

// verdict is one frame's drawn fate, all variates consumed in fixed
// order exactly like the simulated chaos fabric so the fault schedule
// does not depend on which faults trigger.
type verdict struct {
	drop    bool
	corrupt bool
	dup     bool
	jitter  time.Duration
	trunc   bool
	reset   bool
	stall   bool
	cut     bool
}

func (p *ChaosProxy) judge(from, to int, payloadLen int) verdict {
	now := p.rt.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	var v verdict
	for _, pt := range p.pol.Partitions {
		if from >= 0 && to >= 0 && pt.cuts(from, to, now) {
			v.cut = true
			atomic.AddInt64(&p.ctr.Partitioned, 1)
			return v
		}
	}
	roll := func() float64 {
		p.rng = p.rng*6364136223846793005 + 1442695040888963407
		return float64(p.rng>>11) / float64(1<<53)
	}
	v.drop = roll() < p.pol.Drop
	v.corrupt = roll() < p.pol.Corrupt && payloadLen > 0
	v.dup = roll() < p.pol.Duplicate
	if roll() < p.pol.Delay {
		v.jitter = time.Duration(roll() * float64(p.pol.MaxDelay))
		if v.jitter < time.Microsecond {
			v.jitter = time.Microsecond
		}
	}
	if p.pol.Truncate > 0 {
		v.trunc = roll() < p.pol.Truncate && payloadLen > 1
	}
	if p.pol.Reset > 0 {
		v.reset = roll() < p.pol.Reset
	}
	if p.pol.Stall > 0 {
		v.stall = roll() < p.pol.Stall
	}
	switch {
	case v.reset:
		atomic.AddInt64(&p.ctr.Resets, 1)
	case v.drop:
		atomic.AddInt64(&p.ctr.Dropped, 1)
	case v.corrupt:
		atomic.AddInt64(&p.ctr.Corrupted, 1)
	case v.trunc:
		atomic.AddInt64(&p.ctr.Truncated, 1)
	default:
		if v.dup {
			atomic.AddInt64(&p.ctr.Duplicated, 1)
		}
		if v.jitter > 0 {
			atomic.AddInt64(&p.ctr.Delayed, 1)
		}
	}
	if v.stall && !v.reset {
		atomic.AddInt64(&p.ctr.Stalls, 1)
	}
	return v
}

// pipe forwards frames src → dst, inbound toward the backend when
// toBackend, applying the policy per frame.
func (l *proxyLink) pipe(toBackend bool) {
	p := l.proxy
	src := l.backend
	if toBackend {
		src = l.client
	}
	defer p.wg.Done()
	defer p.untrack(src)
	defer l.sever() // a dead leg kills the pair; half-open is Stall's job
	fr := newFrameReader(src)
	var budget int64 // bandwidth pacing debt, bytes
	var since time.Duration
	for {
		f, err := fr.read()
		if err != nil {
			return
		}
		if toBackend && atomic.LoadInt32(&l.peer) < 0 {
			// The transport's first frame identifies the dialing peer.
			atomic.StoreInt32(&l.peer, int32(f.From))
		}
		from, to := int(atomic.LoadInt32(&l.peer)), p.home
		if !toBackend {
			from, to = to, from
		}
		v := p.judge(from, to, len(f.Data))
		if v.reset {
			return // defer severs both legs: a mid-stream RST
		}
		if v.stall {
			// Half-open: stop reading and forwarding this direction.
			// Kernel buffers fill, the sender's write deadline fires.
			p.rt.Sleep(p.pol.StallFor)
		}
		if v.cut || v.drop {
			continue
		}
		if v.corrupt {
			f.Data = f.Data[:0]
		} else if v.trunc {
			f.Data = f.Data[:len(f.Data)/2]
		}
		n := int64(frameLen + len(f.Data))
		if toBackend {
			atomic.AddInt64(&p.ctr.FramesIn, 1)
			atomic.AddInt64(&p.ctr.BytesIn, n)
		} else {
			atomic.AddInt64(&p.ctr.FramesOut, 1)
			atomic.AddInt64(&p.ctr.BytesOut, n)
		}
		// Each frame is read into a body of its own, which nothing
		// mutates, so the duplicate and the delayed write share it.
		if v.dup {
			l.forward(toBackend, f)
		}
		if v.jitter > 0 {
			jitter := v.jitter
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.rt.Sleep(jitter)
				l.forward(toBackend, f)
			}()
		} else {
			l.forward(toBackend, f)
		}
		if p.pol.Bandwidth > 0 {
			// Token-bucket pacing: accumulate forwarded bytes and sleep
			// off the debt the configured rate cannot absorb.
			budget += n
			now := p.rt.Now()
			if since == 0 {
				since = now
			}
			earned := int64(float64(now-since) / float64(time.Second) * float64(p.pol.Bandwidth))
			if budget > earned {
				p.rt.Sleep(time.Duration(float64(budget-earned) / float64(p.pol.Bandwidth) * float64(time.Second)))
			}
		}
	}
}
