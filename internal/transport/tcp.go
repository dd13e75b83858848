package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
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
// socket. Each peer has its own record: its connection, its queue of
// pending frames and one writer goroutine, which dials, retries a failed
// write over fresh dials with bounded exponential backoff (see Backoff)
// and drops the frames of a peer that stays unreachable. No sender waits
// for a dial or a back-off, and one peer's trouble delays no other
// peer's frames.
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
// blocks the writer (an inline Send, or the peer's writer goroutine)
// indefinitely inside write(2). On expiry the connection is dropped and
// the peer is given up on like a dead one: the frames not yet written,
// and every frame queued behind them, are dropped (DroppedFrames), so a
// stuck peer pins no more than what is sent to it within one
// WriteTimeout, and holds up a caller at most that long.
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
	fab    *TCPFabric
	id     int
	inbox  *vtime.Mailbox[Frame]
	ln     net.Listener
	done   chan struct{} // closed by Close: the peers' writers exit
	mu     sync.Mutex    // guards peers and closed
	peers  map[int]*tcpPeer
	closed bool
}

// tcpPeer is everything an endpoint keeps for one peer: the connection,
// the frames waiting for it, and the writer goroutine that dials, writes
// and redials for them. Whoever holds busy owns the connection's write
// side and fw: an inline Send, or the writer with a batch. Frames to one
// peer therefore leave in the order they were handed over, and a peer
// that is slow, half-open or dead holds up only its own frames.
type tcpPeer struct {
	id   int
	kick chan struct{} // 1-buffered: wakes the writer after a queue or a release
	fw   frameWriter   // used only by the holder of busy

	mu     sync.Mutex // guards the fields below
	conn   net.Conn
	q      []outFrame // frames waiting for the writer, oldest first
	spare  []outFrame // the writer's last batch, kept for its storage
	busy   bool       // someone is writing to conn, or dialing it
	dialed bool       // dialed at least once (redial counting)
	closed bool       // set by Close, which also swept conn and the queue
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
		done:  make(chan struct{}),
		peers: make(map[int]*tcpPeer),
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
		e.fab.rt.Go(fmt.Sprintf("tcp-read-%d", e.id), func() { e.readLoop(c, nil) })
	}
}

// peer returns the record for node id, creating it and starting its
// writer on first use; nil once the endpoint is closed.
func (e *tcpEndpoint) peer(id int) *tcpPeer {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	p := e.peers[id]
	if p == nil {
		p = &tcpPeer{id: id, kick: make(chan struct{}, 1)}
		e.peers[id] = p
		e.fab.rt.Go(fmt.Sprintf("tcp-write-%d-%d", e.id, id), func() { e.writeLoop(p) })
	}
	return p
}

// register makes c the connection for peer, closing any previous one (a
// stale connection to a dead incarnation, or the loser of a
// simultaneous-dial race). It returns nil, having closed c, if the
// endpoint is closed.
func (e *tcpEndpoint) register(peer int, c net.Conn) *tcpPeer {
	p := e.peer(peer)
	if p == nil {
		c.Close()
		return nil
	}
	p.mu.Lock()
	if p.closed {
		// Close already swept this peer and will not see c: a hello
		// that lands afterwards is refused.
		p.mu.Unlock()
		c.Close()
		return nil
	}
	old := p.conn
	p.conn = c
	p.mu.Unlock()
	if old != nil && old != c {
		atomic.AddInt64(&e.fab.stats.StaleReplaced, 1)
		old.Close()
	}
	return p
}

// readLoop drains one connection into the inbox. p is the peer of a
// dialed connection; nil for an accepted one, whose dialer is identified
// by its first frame — which must arrive within HelloTimeout, so a
// stalled dialer cannot pin an anonymous connection (and its goroutine)
// on the accept path forever. The deadline is set on the connection, so
// it bounds the reads the buffered frame reader makes.
func (e *tcpEndpoint) readLoop(c net.Conn, p *tcpPeer) {
	defer c.Close()
	fr := newFrameReader(c)
	for {
		if p == nil && HelloTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(HelloTimeout))
		}
		f, err := fr.read()
		if err != nil {
			if p != nil {
				p.forget(c)
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				atomic.AddInt64(&e.fab.stats.HelloTimeouts, 1)
			}
			return
		}
		if p == nil {
			// The first frame identifies the dialer; adopt the
			// connection for the reverse direction too, and lift the
			// handshake deadline — an identified connection may stay
			// quiet for as long as the protocol likes.
			c.SetReadDeadline(time.Time{})
			if p = e.register(f.From, c); p == nil {
				return
			}
		}
		if f.Kind == helloKind {
			continue
		}
		if !e.inbox.Send(f) {
			return
		}
	}
}

// forget unregisters c if it is still the peer's connection.
func (p *tcpPeer) forget(c net.Conn) {
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.mu.Unlock()
}

// wake makes the writer look at the queue; callers hold p.mu.
func (p *tcpPeer) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

func (e *tcpEndpoint) ID() int                      { return e.id }
func (e *tcpEndpoint) Inbox() *vtime.Mailbox[Frame] { return e.inbox }

// Close stops the endpoint: the listener, every peer's connection and
// writer (queued frames are discarded, as a crash would), and the inbox.
func (e *tcpEndpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	peers := e.peers
	e.mu.Unlock()
	close(e.done)
	e.ln.Close()
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		c := p.conn
		p.conn, p.q, p.spare = nil, nil, nil
		p.mu.Unlock()
		if c != nil {
			c.Close()
		}
	}
	e.inbox.Close()
}

// sendRetries dial attempts with sendBackoff delays bound how long a
// peer's writer keeps a batch for an unreachable peer before dropping
// it (the delays sum to ~2.6 s). The early retries are fast so the
// common startup race (a peer's listener not yet bound) costs
// milliseconds; the capped tail covers the typical restart window (the
// launcher re-launches a killed worker in a few hundred milliseconds). A
// peer dead for longer loses the frames, like a crash — which the
// recovery protocol already tolerates.
const sendRetries = 12

var sendBackoff = Backoff{Base: 5 * time.Millisecond, Max: 500 * time.Millisecond}

// Send writes the frame inline when the peer is connected and nothing
// is queued for it or being written to it; otherwise it queues the frame
// for the peer's writer. It never waits for a dial or a back-off. The
// inline write saves the hop to the writer goroutine, which is most of a
// small frame's cost; it blocks only while the peer's socket buffers are
// full, for at most WriteTimeout.
func (e *tcpEndpoint) Send(to int, kind uint8, data []byte) bool {
	p := e.peer(to)
	if p == nil {
		return false
	}
	f := [1]outFrame{{kind, Parts{Body: data}}}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	c := p.conn
	if c == nil || p.busy || len(p.q) > 0 {
		p.q = append(p.q, f[0])
		p.wake()
		p.mu.Unlock()
		return true
	}
	p.busy = true
	p.mu.Unlock()
	_, err := p.fw.writeFrames(c, e.id, f[:], WriteTimeout)
	retry := err != nil && e.broken(p, c, err, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busy = false
	if p.closed {
		return err == nil
	}
	if retry {
		// The writer retries the frame, ahead of anything queued while
		// it was being written.
		atomic.AddInt64(&e.fab.stats.Retransmits, 1)
		p.q = slices.Insert(p.q, 0, f[0])
	}
	if len(p.q) > 0 {
		p.wake()
	}
	return true
}

// SendFrames queues the batch for the peer's writer and returns; see
// the package-level SendFrames.
func (e *tcpEndpoint) SendFrames(to int, kind uint8, frames []Parts) bool {
	p := e.peer(to)
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	for _, f := range frames {
		p.q = append(p.q, outFrame{kind, f})
	}
	p.wake()
	return true
}

// writeLoop is p's writer: each wake-up it writes the queue out, batch
// by batch, until it is empty or someone else holds the connection.
func (e *tcpEndpoint) writeLoop(p *tcpPeer) {
	for {
		select {
		case <-p.kick:
		case <-e.done:
			return
		}
		p.mu.Lock()
		for len(p.q) > 0 && !p.busy && !p.closed {
			// Take the queue whole and leave the spare in its place, so
			// the two slices' storage serves every later batch.
			batch := p.q
			p.q, p.spare = p.spare[:0], nil
			p.busy = true
			p.mu.Unlock()
			e.writeBatch(p, batch)
			clear(batch) // do not pin the frames' bytes
			p.mu.Lock()
			p.busy = false
			if !p.closed {
				p.spare = batch[:0]
			}
		}
		p.mu.Unlock()
	}
}

// writeBatch writes frames to p; the caller holds busy. A failed write
// drops the connection and retries over a fresh dial from the frame it
// broke in: frames the kernel accepted whole are not sent twice. Frames
// still unwritten after sendRetries attempts are dropped.
func (e *tcpEndpoint) writeBatch(p *tcpPeer, frames []outFrame) {
	for attempt := 0; attempt < sendRetries && len(frames) > 0; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&e.fab.stats.Retransmits, 1)
		}
		c, err := e.conn(p)
		if err != nil {
			if p.isClosed() || !e.sleep(sendBackoff.Delay(attempt)) {
				return
			}
			continue
		}
		// writeFrames sets a deadline before every writev call, so none
		// is cleared afterwards: a later write replaces it, and the hello
		// goes out on a freshly dialled connection that never had one.
		done, err := p.fw.writeFrames(c, e.id, frames, WriteTimeout)
		frames = frames[done:]
		if err == nil || !e.broken(p, c, err, len(frames)) {
			return
		}
	}
	// Peer unreachable: the frames left are dropped, like a crash.
	e.drop(p, len(frames))
}

// broken drops c after a failed write that left unsent frames
// unwritten, and reports whether to retry them: the peer may have
// restarted, so the next attempt dials afresh. A write that hit the
// deadline is not retried. The peer is half-open: the write stalled
// against a full window instead of failing, and a fresh dial would stall
// the same way while everything sent to the peer piled up behind it. So
// the peer is given up on at once: the unsent frames and its whole queue
// are dropped.
func (e *tcpEndpoint) broken(p *tcpPeer, c net.Conn, err error, unsent int) (retry bool) {
	p.forget(c)
	c.Close()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	atomic.AddInt64(&e.fab.stats.WriteTimeouts, 1)
	e.drop(p, unsent+p.dropQueue())
	return false
}

// drop counts n frames to p as dropped, unless the endpoint closed.
func (e *tcpEndpoint) drop(p *tcpPeer, n int) {
	if n > 0 && !p.isClosed() {
		atomic.AddInt64(&e.fab.stats.DroppedFrames, int64(n))
	}
}

// dropQueue empties p's queue, releasing the frames' bytes, and returns
// how many frames it held.
func (p *tcpPeer) dropQueue() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.q)
	clear(p.q)
	p.q = p.q[:0]
	return n
}

// sleep waits d, or until the endpoint closes; it reports whether the
// endpoint is still open.
func (e *tcpEndpoint) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-e.done:
		return false
	}
}

// conn returns p's connection, dialing (with a hello) if none is
// registered. The caller holds busy: the hello goes through p.fw.
func (e *tcpEndpoint) conn(p *tcpPeer) (net.Conn, error) {
	p.mu.Lock()
	c, closed := p.conn, p.closed
	p.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("transport: endpoint %d closed", e.id)
	}
	if c != nil {
		return c, nil
	}

	addr := e.fab.addr(p.id)
	if addr == "" {
		return nil, fmt.Errorf("transport: no address for node %d", p.id)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := p.fw.write(c, Frame{From: e.id, Kind: helloKind}); err != nil {
		c.Close()
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("transport: endpoint %d closed", e.id)
	}
	if cur := p.conn; cur != nil {
		// Lost a simultaneous-dial race; use the established one.
		p.mu.Unlock()
		c.Close()
		return cur, nil
	}
	p.conn = c
	redial := p.dialed
	p.dialed = true
	p.mu.Unlock()
	atomic.AddInt64(&e.fab.stats.Dials, 1)
	if redial {
		atomic.AddInt64(&e.fab.stats.Redials, 1)
	}
	// Read replies arriving on the dialed connection too.
	e.fab.rt.Go(fmt.Sprintf("tcp-read-%d", e.id), func() { e.readLoop(c, p) })
	return c, nil
}

func (p *tcpPeer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}
