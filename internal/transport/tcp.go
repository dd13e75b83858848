package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mpichv/internal/trace"
	"mpichv/internal/vtime"
)

// TCPFabric connects nodes over real TCP sockets. Each attached node
// listens on its address from the address map; a single connection is
// kept per peer and used in both directions. Connections open with a
// hello frame identifying the dialer, so an accepted connection can be
// registered for sending — and, crucially, an inbound connection from a
// *restarted* peer replaces the stale cached connection to its dead
// predecessor, whose writes would otherwise vanish into a closed
// socket. A failed write is retried over fresh dials with bounded
// exponential backoff (see Backoff) before the frame is dropped.
//
// As in the paper's mpirun (§4.7), a socket disconnection is a trusty
// fault detector: readers that observe EOF stop delivering, and the
// launcher observes the worker's death directly.
type TCPFabric struct {
	rt    vtime.Runtime
	mu    sync.Mutex
	addrs map[int]string
	binds map[int]string // listen addresses when they differ from addrs
	eps   map[int]*tcpEndpoint
	stats TCPStats
}

// TCPStats are the fabric's liveness counters: what the retry machinery
// actually did on the wire. They are the real-socket analogue of the
// chaos fabric's injection counters and surface through the same typed
// metrics registry (AddTo), so a deployed run's BENCH artifacts carry
// them next to the daemon and store counters.
type TCPStats struct {
	Dials         int64 // successful outbound connections
	Redials       int64 // dials replacing a previously dropped connection
	Retransmits   int64 // Send attempts retried after a failed write/dial
	DroppedFrames int64 // frames dropped after exhausting every retry
	HelloTimeouts int64 // accepted connections that never sent their hello
	WriteTimeouts int64 // writes aborted by the per-call write deadline
	StaleReplaced int64 // cached connections replaced by a newer inbound one
}

// AddTo exports the counters into a metrics registry under the "tcp."
// namespace.
func (s TCPStats) AddTo(r *trace.Registry) {
	r.Counter("tcp.dials").Add(s.Dials)
	r.Counter("tcp.redials").Add(s.Redials)
	r.Counter("tcp.retransmits").Add(s.Retransmits)
	r.Counter("tcp.dropped_frames").Add(s.DroppedFrames)
	r.Counter("tcp.hello_timeouts").Add(s.HelloTimeouts)
	r.Counter("tcp.write_timeouts").Add(s.WriteTimeouts)
	r.Counter("tcp.stale_replaced").Add(s.StaleReplaced)
}

// Stats returns a snapshot of the fabric's counters. Safe to call
// concurrently with live traffic.
func (f *TCPFabric) Stats() TCPStats {
	return TCPStats{
		Dials:         atomic.LoadInt64(&f.stats.Dials),
		Redials:       atomic.LoadInt64(&f.stats.Redials),
		Retransmits:   atomic.LoadInt64(&f.stats.Retransmits),
		DroppedFrames: atomic.LoadInt64(&f.stats.DroppedFrames),
		HelloTimeouts: atomic.LoadInt64(&f.stats.HelloTimeouts),
		WriteTimeouts: atomic.LoadInt64(&f.stats.WriteTimeouts),
		StaleReplaced: atomic.LoadInt64(&f.stats.StaleReplaced),
	}
}

// AddTo folds a live snapshot of the fabric's counters into a registry.
func (f *TCPFabric) AddTo(r *trace.Registry) { f.Stats().AddTo(r) }

// helloKind is the transport-internal connection handshake frame; it is
// never delivered to the application.
const helloKind uint8 = 0xFF

// HelloTimeout bounds how long an accepted connection may stay silent
// before sending its identifying first frame. Without it a stalled (or
// malicious, or SIGSTOPped) dialer would pin a read goroutine forever
// and, worse, its connection could never be garbage collected.
var HelloTimeout = 3 * time.Second

// WriteTimeout bounds a single write call — one frame, or up to 1 MiB of
// a batch (see SendFrames). A half-open peer — crashed
// without a FIN, or SIGSTOPped with a full receive window — otherwise
// blocks the sending daemon indefinitely inside write(2). On expiry the
// connection is dropped and the send retried over a fresh dial, exactly
// like a hard write error.
var WriteTimeout = 5 * time.Second

// NewTCPFabric creates a fabric over the given node id → "host:port"
// address map.
func NewTCPFabric(rt vtime.Runtime, addrs map[int]string) *TCPFabric {
	m := make(map[int]string, len(addrs))
	for k, v := range addrs {
		m[k] = v
	}
	return &TCPFabric{rt: rt, addrs: m, binds: make(map[int]string), eps: make(map[int]*tcpEndpoint)}
}

// SetAddr registers or updates the address of a node id.
func (f *TCPFabric) SetAddr(id int, addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.addrs[id] = addr
}

// SetBind makes node id listen on addr while peers keep dialing the
// advertised address from the address map. This is how a ChaosProxy is
// interposed: the proxy owns the advertised (front) address and
// forwards to the bind (backend) address, so every inbound byte of the
// node crosses the fault injector.
func (f *TCPFabric) SetBind(id int, addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.binds[id] = addr
}

func (f *TCPFabric) bindAddr(id int) (addr string, bound bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b := f.binds[id]; b != "" {
		return b, true
	}
	return f.addrs[id], false
}

func (f *TCPFabric) addr(id int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addrs[id]
}

type tcpEndpoint struct {
	fab           *TCPFabric
	id            int
	inbox         *vtime.Mailbox[Frame]
	ln            net.Listener
	mu            sync.Mutex
	conns         map[int]net.Conn
	everConnected map[int]bool // peers we dialed at least once (redial counting)
	wmu           sync.Mutex   // serializes frame writes and guards fw
	fw            frameWriter
	closed        bool
}

// Attach implements Fabric. It returns an endpoint whose listener is
// already accepting; Attach panics if the node's address cannot be
// bound, since a node without its listener cannot participate at all.
func (f *TCPFabric) Attach(id int, name string) Endpoint {
	addr, bound := f.bindAddr(id)
	ep := &tcpEndpoint{
		fab:   f,
		id:    id,
		inbox: vtime.NewMailbox[Frame](f.rt, fmt.Sprintf("inbox(%s#%d)", name, id)),
		conns: make(map[int]net.Conn),
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		panic(fmt.Sprintf("transport: node %d cannot listen on %q: %v", id, addr, err))
	}
	ep.ln = ln
	if _, port, err := net.SplitHostPort(addr); !bound && (addr == "" || (err == nil && port == "0")) {
		// Ephemeral port: record the actual address for peers in the
		// same process (tests). With an explicit bind the advertised
		// address stays what peers must dial (the proxy front).
		f.SetAddr(id, ln.Addr().String())
	}
	f.mu.Lock()
	f.eps[id] = ep
	f.mu.Unlock()
	f.rt.Go(fmt.Sprintf("tcp-accept-%d", id), ep.acceptLoop)
	return ep
}

// Kill implements Fabric for in-process tests: it closes the endpoint.
func (f *TCPFabric) Kill(id int) {
	f.mu.Lock()
	ep := f.eps[id]
	delete(f.eps, id)
	f.mu.Unlock()
	if ep != nil {
		ep.Close()
	}
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.fab.rt.Go(fmt.Sprintf("tcp-read-%d", e.id), func() { e.readLoop(c, -1) })
	}
}

// register makes c the connection for peer, closing any previous one (a
// stale connection to a dead incarnation, or the loser of a
// simultaneous-dial race).
func (e *tcpEndpoint) register(peer int, c net.Conn) {
	e.mu.Lock()
	if e.closed {
		// Close already swept the map (it is nil now) and will not see
		// this connection: a hello that lands afterwards is refused.
		e.mu.Unlock()
		c.Close()
		return
	}
	old := e.conns[peer]
	e.conns[peer] = c
	e.mu.Unlock()
	if old != nil && old != c {
		atomic.AddInt64(&e.fab.stats.StaleReplaced, 1)
		old.Close()
	}
}

// readLoop drains one connection into the inbox. peer is the known
// remote node id for dialed connections; -1 for accepted ones, whose
// dialer is identified by its first frame — which must arrive within
// HelloTimeout, so a stalled dialer cannot pin an anonymous connection
// (and its goroutine) on the accept path forever. The deadline is set on
// the connection, so it bounds the reads the buffered frame reader makes.
func (e *tcpEndpoint) readLoop(c net.Conn, peer int) {
	defer c.Close()
	fr := newFrameReader(c)
	for {
		if peer < 0 && HelloTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(HelloTimeout))
		}
		f, err := fr.read()
		if err != nil {
			if peer < 0 && errors.Is(err, os.ErrDeadlineExceeded) {
				atomic.AddInt64(&e.fab.stats.HelloTimeouts, 1)
			}
			if peer >= 0 {
				e.mu.Lock()
				if e.conns[peer] == c {
					delete(e.conns, peer)
				}
				e.mu.Unlock()
			}
			return
		}
		if peer < 0 {
			// The first frame identifies the dialer; adopt the
			// connection for the reverse direction too, and lift the
			// handshake deadline — an identified connection may stay
			// quiet for as long as the protocol likes.
			peer = f.From
			c.SetReadDeadline(time.Time{})
			e.register(peer, c)
		}
		if f.Kind == helloKind {
			continue
		}
		if !e.inbox.Send(f) {
			return
		}
	}
}

func (e *tcpEndpoint) ID() int                      { return e.id }
func (e *tcpEndpoint) Inbox() *vtime.Mailbox[Frame] { return e.inbox }

func (e *tcpEndpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	conns := e.conns
	e.conns = nil
	e.mu.Unlock()
	e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	e.inbox.Close()
}

// conn returns the connection for a peer, dialing (with a hello) if
// none is registered. Callers hold wmu: the hello goes through fw.
func (e *tcpEndpoint) conn(to int) (net.Conn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("transport: endpoint %d closed", e.id)
	}
	if c := e.conns[to]; c != nil {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	addr := e.fab.addr(to)
	if addr == "" {
		return nil, fmt.Errorf("transport: no address for node %d", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := e.fw.write(c, Frame{From: e.id, Kind: helloKind}); err != nil {
		c.Close()
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("transport: endpoint %d closed", e.id)
	}
	if cur := e.conns[to]; cur != nil {
		// Lost a simultaneous-dial race; use the established one.
		e.mu.Unlock()
		c.Close()
		return cur, nil
	}
	e.conns[to] = c
	redial := e.everConnected[to]
	if e.everConnected == nil {
		e.everConnected = make(map[int]bool)
	}
	e.everConnected[to] = true
	e.mu.Unlock()
	atomic.AddInt64(&e.fab.stats.Dials, 1)
	if redial {
		atomic.AddInt64(&e.fab.stats.Redials, 1)
	}
	// Read replies arriving on the dialed connection too.
	e.fab.rt.Go(fmt.Sprintf("tcp-read-%d", e.id), func() { e.readLoop(c, to) })
	return c, nil
}

func (e *tcpEndpoint) dropConn(to int, c net.Conn) {
	e.mu.Lock()
	if e.conns != nil && e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	c.Close()
}

// sendRetries dial attempts with sendBackoff delays bound how long a
// send waits for an unreachable peer before dropping the frame (the
// delays sum to ~2.6 s). The early retries are fast so the common
// startup race (a peer's listener not yet bound) costs milliseconds;
// the capped tail covers the typical restart window (the launcher
// re-launches a killed worker in a few hundred milliseconds). A peer
// dead for longer loses the frame, like a crash — which the recovery
// protocol already tolerates.
const sendRetries = 12

var sendBackoff = Backoff{Base: 5 * time.Millisecond, Max: 500 * time.Millisecond}

func (e *tcpEndpoint) Send(to int, kind uint8, data []byte) bool {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.sendFrames(to, kind, []Parts{{Body: data}})
}

// SendFrames writes a batch of frames under one hold of the write lock;
// see the package-level SendFrames.
func (e *tcpEndpoint) SendFrames(to int, kind uint8, frames []Parts) bool {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.sendFrames(to, kind, frames)
}

// sendFrames writes frames to peer to; callers hold wmu. A failed write
// drops the connection and retries over a fresh dial from the frame it
// broke in: frames the kernel accepted whole are not sent twice.
func (e *tcpEndpoint) sendFrames(to int, kind uint8, frames []Parts) bool {
	for attempt := 0; attempt < sendRetries && len(frames) > 0; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&e.fab.stats.Retransmits, 1)
		}
		c, err := e.conn(to)
		if err != nil {
			if e.isClosed() {
				return false
			}
			time.Sleep(sendBackoff.Delay(attempt))
			continue
		}
		// writeFrames sets a deadline before every writev call, so none
		// is cleared afterwards: a later write replaces it, and the hello
		// goes out on a freshly dialled connection that never had one.
		done, err := e.fw.writeFrames(c, e.id, kind, frames, WriteTimeout)
		frames = frames[done:]
		if err == nil {
			return true
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// Half-open peer: the write stalled against a full window
			// instead of failing. Without the deadline this daemon
			// would be wedged inside write(2) for good.
			atomic.AddInt64(&e.fab.stats.WriteTimeouts, 1)
		}
		// Stale connection (the peer may have restarted): drop and
		// retry over a fresh dial.
		e.dropConn(to, c)
	}
	if e.isClosed() {
		return false
	}
	// Peer unreachable: the frames left are dropped, like a crash.
	atomic.AddInt64(&e.fab.stats.DroppedFrames, int64(len(frames)))
	return true
}

func (e *tcpEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
