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
// listens on its address from the address map. Connections open with a
// hello frame identifying the dialer, so an accepted connection can be
// registered for sending — and an inbound connection from a *restarted*
// peer replaces the cached connection to its dead predecessor, whose
// writes would otherwise vanish into a closed socket. Each peer has its
// own record: the connection frames are written on, every connection
// still being read, the queue of pending frames and one writer
// goroutine. No sender waits for a dial, and one peer's trouble delays
// no other peer's frames.
//
// The fabric delivers each frame at most once and retransmits nothing.
// A failed dial or write drops the frames not yet written and the
// peer's whole queue (DroppedFrames), and the next frame to the peer
// dials once. Bytes the kernel accepted before a reset are lost whatever
// the transport does, so lost frames are recovered end to end by the
// protocol: a restarted node's peers re-send from their SAVED logs, the
// event-logger and checkpoint exchanges retransmit until acked, and a
// starved daemon pulls.
//
// Frames to one peer arrive in the order they were handed over while
// they travel one connection. When two endpoints dial each other at
// once, each ends up writing on the connection the other dialed, and
// the connection it replaced is drained, not closed: its reader runs
// until the far end closes it. Frames written before and after such a
// switch can arrive out of order, which the protocol tolerates as it
// does the chaos fabric's reordering.
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

// TCPStats are the fabric's liveness counters: what happened on the
// wire. They are the real-socket analogue of the chaos fabric's
// injection counters. A deployed worker reports them on its heartbeat,
// and the soak sums them into BENCH_soak.json.
type TCPStats struct {
	Dials         int64 // successful outbound connections
	Redials       int64 // dials replacing a previously dropped connection
	Retransmits   int64 // always 0: the fabric retransmits nothing (benchmarks/stack reads the field)
	DroppedFrames int64 // frames dropped by a failed dial or write
	HelloTimeouts int64 // accepted connections that never sent their hello
	WriteTimeouts int64 // writes aborted by the per-call write deadline
	StaleReplaced int64 // write connections replaced by a newer inbound one
}

// Stats returns a snapshot of the fabric's counters. Safe to call
// concurrently with live traffic.
func (f *TCPFabric) Stats() TCPStats { return trace.LoadStats(&f.stats) }

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
// the peer is given up on like any failed write: the frames not yet
// written, and every frame queued behind them, are dropped
// (DroppedFrames), so a stuck peer pins no more than what is sent to it
// within one WriteTimeout, and holds up a caller at most that long.
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

// tcpPeer is everything an endpoint keeps for one peer: the connection
// frames are written on, the connections still read, the frames waiting,
// and the writer goroutine that dials and writes for them. Whoever holds
// busy owns the write side of conn and fw: an inline Send, or the writer
// with a batch. Frames to one peer therefore leave in the order they
// were handed over, and a peer that is slow, half-open or dead holds up
// only its own frames.
type tcpPeer struct {
	id   int
	kick chan struct{} // 1-buffered: wakes the writer after a queue or a release
	fw   frameWriter   // used only by the holder of busy

	mu     sync.Mutex // guards the fields below
	conn   net.Conn   // the connection frames are written on; nil: dial
	conns  []net.Conn // every connection with a reader, conn among them
	q      []outFrame // frames waiting for the writer, oldest first
	spare  []outFrame // the writer's last batch, kept for its storage
	busy   bool       // someone is writing to conn, or dialing it
	dialed bool       // dialed at least once (redial counting)
	closed bool       // set by Close, which also swept conns and the queue
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

// register makes the accepted c the connection frames to peer are
// written on. A previous one (a stale connection to a dead incarnation,
// or this endpoint's own dial in a simultaneous-dial race) is no longer
// written but still read: the far end may have frames in flight on it,
// and its reader ends when the far end closes it. It returns nil, having
// closed c, if the endpoint is closed.
func (e *tcpEndpoint) register(peer int, c net.Conn) *tcpPeer {
	p := e.peer(peer)
	if p == nil {
		c.Close()
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		// Close already swept this peer and will not see c: a hello
		// that lands afterwards is refused.
		c.Close()
		return nil
	}
	if p.conn != nil {
		atomic.AddInt64(&e.fab.stats.StaleReplaced, 1)
	}
	p.conn = c
	p.conns = append(p.conns, c)
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

// forget unregisters c, whose reader ended or whose write failed; the
// next frame to p dials if c was the connection written on.
func (p *tcpPeer) forget(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == c {
		p.conn = nil
	}
	p.conns = slices.DeleteFunc(p.conns, func(x net.Conn) bool { return x == c })
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

// Close stops the endpoint: the listener, every peer's connections and
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
		conns := p.conns
		p.conn, p.conns, p.q, p.spare = nil, nil, nil, nil
		p.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	e.inbox.Close()
}

// Send writes the frame inline or queues it; it is the one-part case of
// sendParts.
func (e *tcpEndpoint) Send(to int, kind uint8, data []byte) bool {
	return e.sendParts(to, kind, Parts{Body: data})
}

// sendParts writes the frame Head‖Body inline when the peer is connected
// and nothing is queued for it or being written to it; otherwise it
// queues the frame for the peer's writer. It never waits for a dial. The
// inline write saves the hop to the writer goroutine, which is most of a
// small frame's cost, and writes the two parts as they lie, so a large
// body is neither joined to its head nor copied; it blocks only while
// the peer's socket buffers are full, for at most WriteTimeout. A failed
// inline write drops the frame and the peer's queue, as a failed batch
// does. The parts are borrowed until written, as SendFrames borrows
// them.
func (e *tcpEndpoint) sendParts(to int, kind uint8, parts Parts) bool {
	p := e.peer(to)
	if p == nil {
		return false
	}
	f := [1]outFrame{{kind, parts}}
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
	if err != nil {
		e.broken(p, c, err, 1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busy = false
	if len(p.q) > 0 {
		p.wake()
	}
	return err == nil || !p.closed
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

// writeBatch writes frames to p, dialing first if p has no connection;
// the caller holds busy. A failed dial drops the batch and p's queue.
func (e *tcpEndpoint) writeBatch(p *tcpPeer, frames []outFrame) {
	c, err := e.conn(p)
	if err != nil {
		e.drop(p, len(frames)+p.dropQueue())
		return
	}
	// writeFrames sets a deadline before every writev call, so none is
	// cleared afterwards: a later write replaces it, and the hello goes
	// out on a freshly dialled connection that never had one.
	if done, err := p.fw.writeFrames(c, e.id, frames, WriteTimeout); err != nil {
		e.broken(p, c, err, len(frames)-done)
	}
}

// broken gives p up after a failed write on c, which left unsent frames
// unwritten: c is closed, and the unsent frames and p's whole queue are
// dropped. A closed or reset connection and a half-open one that hit
// the write deadline are treated alike; the next frame to p dials once.
func (e *tcpEndpoint) broken(p *tcpPeer, c net.Conn, err error, unsent int) {
	p.forget(c)
	c.Close()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		atomic.AddInt64(&e.fab.stats.WriteTimeouts, 1)
	}
	e.drop(p, unsent+p.dropQueue())
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

// conn returns the connection p is written on, dialing (with a hello)
// if none is registered. The caller holds busy: the hello goes through
// p.fw.
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
	// The hello is out, so the peer may adopt c and write on it: c is
	// read in any case. An inbound connection registered during the
	// dial (a simultaneous dial) stays the one written on.
	p.conns = append(p.conns, c)
	if p.conn == nil {
		p.conn = c
	}
	cur, redial := p.conn, p.dialed
	p.dialed = true
	p.mu.Unlock()
	atomic.AddInt64(&e.fab.stats.Dials, 1)
	if redial {
		atomic.AddInt64(&e.fab.stats.Redials, 1)
	}
	e.fab.rt.Go(fmt.Sprintf("tcp-read-%d", e.id), func() { e.readLoop(c, p) })
	return cur, nil
}

func (p *tcpPeer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}
