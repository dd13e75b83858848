// Package transport moves frames between the nodes of a system. Three
// fabrics implement the same interface: a simulated fabric whose
// delivery times come from the netsim link model (used by all
// experiments), an immediate in-memory fabric (wall-clock tests), and a
// TCP fabric (real multi-process deployments, see cmd/vrun).
//
// A Frame is opaque to the fabric; the daemon package defines the kinds.
package transport

import (
	"fmt"

	"mpichv/internal/netsim"
	"mpichv/internal/vtime"
)

// Frame is the unit of exchange between nodes.
type Frame struct {
	From int
	Kind uint8
	Data []byte
}

// Endpoint is one node's attachment to a fabric.
type Endpoint interface {
	// ID returns the node id of this endpoint.
	ID() int
	// Send transmits a frame to node "to". Delivery is asynchronous;
	// frames to dead or missing nodes are silently dropped, like
	// writes to a broken TCP connection that nobody reads. Send
	// reports false if the local endpoint itself is closed. The
	// receiver owns data once it is sent, so the caller does not
	// touch it again. On TCP, Send writes the frame inline when the
	// peer is connected and nothing is queued for it, and queues it
	// for the peer's writer otherwise: it never waits for a dial,
	// though an inline write to a half-open peer can block up to
	// WriteTimeout. SendParts is the same rule for a frame in two
	// parts, and SendFrames always queues. TCP delivers each frame at
	// most once: a failed dial or write drops the peer's unwritten
	// frames, and recovering them is the protocol's job. Frames to one peer keep their order
	// on one connection; across a crossed-dial switch they may not.
	Send(to int, kind uint8, data []byte) bool
	// Inbox is the mailbox into which the fabric delivers frames.
	Inbox() *vtime.Mailbox[Frame]
	// Close detaches the endpoint; its inbox is closed.
	Close()
}

// partsSender is an endpoint that writes a frame's two parts itself.
type partsSender interface {
	sendParts(to int, kind uint8, p Parts) bool
}

// SendParts sends one frame to node "to" with data Head‖Body, under the
// rules of Send. A TCP endpoint writes the two parts inline, without
// joining them, when the peer is connected and idle, and queues the
// frame otherwise, exactly as it does a Send; it borrows the parts
// until they are written, as SendFrames does, so their bytes must not
// change after the call. This is how a payload leaves the sender: its
// body is the SAVED entry itself. Every other endpoint is sent one
// joined copy through Send, as SendFrames does.
func SendParts(ep Endpoint, to int, kind uint8, p Parts) bool {
	if s, ok := ep.(partsSender); ok {
		return s.sendParts(to, kind, p)
	}
	return ep.Send(to, kind, p.joined())
}

// batchSender is an endpoint that writes a batch of frames itself.
type batchSender interface {
	SendFrames(to int, kind uint8, frames []Parts) bool
}

// SendFrames sends frames to node "to", in order, each with data
// Head‖Body. A TCP endpoint copies the frames slice onto the peer's
// queue and returns, whether or not the peer is idle; the peer's writer
// sends the batch in a few bounded writev calls, in order with every
// other frame to that peer, and a failed write drops what is left of
// it, as Send does. It borrows the parts until they are written, so
// their bytes must not change after the call: callers pass immutable
// bytes only — image chunks and their headers, SAVED payloads, stored
// image slices — or fresh heads. Every other endpoint — simulated,
// in-memory, chaos, or a wrapper around any of them — is sent one
// joined copy per frame through Send, since its receiver owns the slice
// it gets; the bytes and the delivery times are those of Send with the
// joined data, frame by frame. It reports false if the local endpoint
// is closed.
func SendFrames(ep Endpoint, to int, kind uint8, frames []Parts) bool {
	if b, ok := ep.(batchSender); ok {
		return b.SendFrames(to, kind, frames)
	}
	for _, f := range frames {
		if !ep.Send(to, kind, f.joined()) {
			return false
		}
	}
	return true
}

// Fabric connects endpoints by node id.
type Fabric interface {
	// Attach creates the endpoint for a node id. Re-attaching an id
	// replaces the previous endpoint (a restarted node); frames in
	// flight toward the old endpoint are lost.
	Attach(id int, name string) Endpoint
	// Kill abruptly detaches a node, as a crash would: its inbox
	// closes and in-flight frames to it are dropped.
	Kill(id int)
}

// Classifier tells the simulated fabric which per-message cost class a
// node belongs to (computing node vs auxiliary service node).
type Classifier func(id int) netsim.Class

// SimFabric delivers frames on a simulated network with modeled delays.
type SimFabric struct {
	sim      *vtime.Sim
	net      *netsim.Network
	classify Classifier
	eps      map[int]*simEndpoint
}

// NewSimFabric builds a fabric over the given network model. classify
// may be nil, in which case every node is a computing node.
func NewSimFabric(sim *vtime.Sim, net *netsim.Network, classify Classifier) *SimFabric {
	if classify == nil {
		classify = func(int) netsim.Class { return netsim.ClassCompute }
	}
	return &SimFabric{sim: sim, net: net, classify: classify, eps: make(map[int]*simEndpoint)}
}

type simEndpoint struct {
	fab    *SimFabric
	id     int
	inbox  *vtime.Mailbox[Frame]
	closed bool
}

// Attach implements Fabric.
func (f *SimFabric) Attach(id int, name string) Endpoint {
	ep := &simEndpoint{
		fab:   f,
		id:    id,
		inbox: vtime.NewMailbox[Frame](f.sim, fmt.Sprintf("inbox(%s#%d)", name, id)),
	}
	if old := f.eps[id]; old != nil && !old.closed {
		old.closed = true
		old.inbox.Close()
	}
	f.eps[id] = ep
	return ep
}

// Kill implements Fabric.
func (f *SimFabric) Kill(id int) {
	if ep := f.eps[id]; ep != nil && !ep.closed {
		ep.closed = true
		ep.inbox.Close()
		delete(f.eps, id)
	}
}

func (e *simEndpoint) ID() int                      { return e.id }
func (e *simEndpoint) Inbox() *vtime.Mailbox[Frame] { return e.inbox }

func (e *simEndpoint) Close() {
	if !e.closed {
		e.closed = true
		e.inbox.Close()
		delete(e.fab.eps, e.id)
	}
}

func (e *simEndpoint) Send(to int, kind uint8, data []byte) bool {
	if e.closed {
		return false
	}
	dst := e.fab.eps[to]
	class := e.fab.classify(e.id)
	if c := e.fab.classify(to); c == netsim.ClassService {
		class = netsim.ClassService
	}
	delay := e.fab.net.Delay(e.id, to, len(data), class)
	if dst == nil || dst.closed {
		// The wire time was consumed, but nobody is listening.
		return true
	}
	dst.inbox.SendAfter(delay, Frame{From: e.id, Kind: kind, Data: data})
	return true
}

// MemFabric delivers frames immediately; it is the wall-clock in-memory
// fabric used by concurrency tests and examples that do not model time.
type MemFabric struct {
	rt  vtime.Runtime
	mu  chan struct{} // 1-token semaphore guarding eps in real mode
	eps map[int]*memEndpoint
}

// NewMemFabric returns an immediate-delivery fabric.
func NewMemFabric(rt vtime.Runtime) *MemFabric {
	f := &MemFabric{rt: rt, mu: make(chan struct{}, 1), eps: make(map[int]*memEndpoint)}
	f.mu <- struct{}{}
	return f
}

type memEndpoint struct {
	fab    *MemFabric
	id     int
	inbox  *vtime.Mailbox[Frame]
	closed bool
}

func (f *MemFabric) lock()   { <-f.mu }
func (f *MemFabric) unlock() { f.mu <- struct{}{} }

// Attach implements Fabric.
func (f *MemFabric) Attach(id int, name string) Endpoint {
	f.lock()
	defer f.unlock()
	ep := &memEndpoint{fab: f, id: id, inbox: vtime.NewMailbox[Frame](f.rt, fmt.Sprintf("inbox(%s#%d)", name, id))}
	if old := f.eps[id]; old != nil {
		old.closed = true
		old.inbox.Close()
	}
	f.eps[id] = ep
	return ep
}

// Kill implements Fabric.
func (f *MemFabric) Kill(id int) {
	f.lock()
	defer f.unlock()
	if ep := f.eps[id]; ep != nil {
		ep.closed = true
		ep.inbox.Close()
		delete(f.eps, id)
	}
}

func (e *memEndpoint) ID() int                      { return e.id }
func (e *memEndpoint) Inbox() *vtime.Mailbox[Frame] { return e.inbox }

func (e *memEndpoint) Close() {
	e.fab.lock()
	defer e.fab.unlock()
	if !e.closed {
		e.closed = true
		e.inbox.Close()
		delete(e.fab.eps, e.id)
	}
}

func (e *memEndpoint) Send(to int, kind uint8, data []byte) bool {
	e.fab.lock()
	if e.closed {
		e.fab.unlock()
		return false
	}
	dst := e.fab.eps[to]
	e.fab.unlock()
	if dst != nil {
		dst.inbox.Send(Frame{From: e.id, Kind: kind, Data: data})
	}
	return true
}
