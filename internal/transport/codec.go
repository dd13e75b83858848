package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
)

// Wire format for a frame: a 4-byte big-endian length of the remainder,
// then 4 bytes of sender id, 1 byte of kind, and the payload.

// MaxFrameSize bounds a decoded frame; larger frames indicate stream
// corruption.
const MaxFrameSize = 1 << 30

const frameHeaderLen = 4 + 1

// frameLen is everything in front of a frame's payload.
const frameLen = 4 + frameHeaderLen

// maxUpfront bounds the body buffer allocated on the word of a length
// prefix alone: a larger body grows only as its bytes actually arrive,
// so a corrupt or hostile prefix cannot make the reader allocate up to
// MaxFrameSize before a single body byte shows up.
const maxUpfront = 1 << 20

// frameWriter writes each frame with one write: the header and the
// frame's data — one part, or two laid end to end — go out as one writev
// on a connection. The header and the buffer list live in the writer, so
// a long-lived one — one per endpoint or proxy leg, guarded by its
// owner's write lock — allocates nothing per frame.
type frameWriter struct {
	hdr  [frameLen]byte
	bufs [3][]byte
	vec  net.Buffers
}

func (fw *frameWriter) write(w io.Writer, f Frame) error {
	return fw.writeParts(w, f.From, f.Kind, nil, f.Data)
}

// writeParts writes the frame whose data is head followed by body.
func (fw *frameWriter) writeParts(w io.Writer, from int, kind uint8, head, body []byte) error {
	n := len(head) + len(body)
	if frameHeaderLen+n > MaxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(fw.hdr[0:4], uint32(frameHeaderLen+n))
	binary.BigEndian.PutUint32(fw.hdr[4:8], uint32(int32(from)))
	fw.hdr[8] = kind
	if n == 0 {
		_, err := w.Write(fw.hdr[:])
		return err
	}
	fw.bufs = [3][]byte{fw.hdr[:], head, body}
	fw.vec = fw.bufs[:]
	_, err := fw.vec.WriteTo(w)
	fw.bufs = [3][]byte{} // do not pin the caller's parts
	return err
}

// WriteFrame encodes f onto w.
func WriteFrame(w io.Writer, f Frame) error {
	var fw frameWriter
	return fw.write(w, f)
}

// frameReader decodes the frames of one connection through one buffered
// reader kept for the connection's whole life: bytes read ahead of the
// current frame — the next frame, or the first frame that arrived in
// the same segment as a hello — stay in its buffer. The header is read
// into fixed scratch, so a frame costs no allocation beyond its body.
type frameReader struct {
	r   *bufio.Reader
	hdr [frameLen]byte
}

// newFrameReader wraps c in a default-sized (4 KiB) buffer. A larger one
// buys nothing on the hot path — a body that does not fit bypasses the
// buffer and is read straight into its own slice — and costs resident
// memory per connection.
func newFrameReader(c io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(c)}
}

func (fr *frameReader) read() (Frame, error) { return readFrame(fr.r, &fr.hdr) }

// ReadFrame decodes one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	return readFrame(r, new([frameLen]byte))
}

func readFrame(r io.Reader, hdr *[frameLen]byte) (Frame, error) {
	if _, err := io.ReadFull(r, hdr[0:4]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < frameHeaderLen || n > MaxFrameSize {
		return Frame{}, fmt.Errorf("transport: invalid frame length %d", n)
	}
	if _, err := io.ReadFull(r, hdr[4:frameLen]); err != nil {
		return Frame{}, err
	}
	f := Frame{
		From: int(int32(binary.BigEndian.Uint32(hdr[4:8]))),
		Kind: hdr[8],
	}
	if n > frameHeaderLen {
		body, err := readBody(r, int(n-frameHeaderLen))
		if err != nil {
			return Frame{}, err
		}
		f.Data = body
	}
	return f, nil
}

// readBody reads an n-byte body into a fresh slice: in one allocation
// when n ≤ maxUpfront, otherwise doubling from maxUpfront as bytes
// arrive.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxUpfront))
	for {
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		buf = slices.Grow(buf, min(len(buf), n-len(buf)))
	}
}
