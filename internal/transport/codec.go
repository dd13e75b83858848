package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"time"
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

// Parts is the data of one frame laid out in two pieces, Head followed
// by Body, for a sender that keeps a frame's bulk where it already lies
// (a checkpoint chunk inside its image) rather than copying it next to
// its header. Either piece may be empty.
type Parts struct{ Head, Body []byte }

// joined returns a fresh copy of Head‖Body, for a receiver that owns
// what it is handed.
func (p Parts) joined() []byte {
	return bytes.Join([][]byte{p.Head, p.Body}, nil)
}

// outFrame is one frame on its way out: its kind and its data in parts.
type outFrame struct {
	kind uint8
	Parts
}

// A writev call carries at most maxWritev bytes in at most maxIovecs
// buffers (IOV_MAX on Linux), so a batch of frames goes out as a few
// bounded calls and a per-call write deadline bounds a stall, not the
// size of the batch.
const (
	maxWritev = 1 << 20
	maxIovecs = 1024
)

// frameWriter writes a batch of frames — each a header, then its Head
// and Body — as one byte stream, in writev calls of at most maxWritev
// bytes and maxIovecs buffers each. The headers, the buffer list and the
// frame end offsets live in the writer, so a long-lived one — one per
// TCP peer or proxy leg, used by one writer at a time — allocates
// nothing once it has seen a batch of the size it is handed.
type frameWriter struct {
	hdrs [][frameLen]byte
	bufs [][]byte
	ends []int64 // stream offset just past each frame of the batch
	vec  net.Buffers
}

// deadliner is a connection whose writes take a deadline.
type deadliner interface{ SetWriteDeadline(time.Time) error }

func (fw *frameWriter) write(w io.Writer, f Frame) error {
	_, err := fw.writeFrames(w, f.From, []outFrame{{f.Kind, Parts{Body: f.Data}}}, 0)
	return err
}

// writeFrames writes frames in order and returns how many of them w
// accepted whole; on an error the frame it broke in, and all after it,
// were not (completely) written. With timeout > 0 and a w that takes
// write deadlines, every writev call gets its own deadline of now +
// timeout. A frame over MaxFrameSize fails the batch before any byte is
// written.
func (fw *frameWriter) writeFrames(w io.Writer, from int, frames []outFrame, timeout time.Duration) (int, error) {
	fw.hdrs = slices.Grow(fw.hdrs[:0], len(frames))[:len(frames)]
	fw.ends = fw.ends[:0]
	bufs := fw.bufs[:0]
	var end int64
	for i, f := range frames {
		n := len(f.Head) + len(f.Body)
		if frameHeaderLen+n > MaxFrameSize {
			clear(bufs)
			return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
		}
		h := &fw.hdrs[i]
		binary.BigEndian.PutUint32(h[0:4], uint32(frameHeaderLen+n))
		binary.BigEndian.PutUint32(h[4:8], uint32(int32(from)))
		h[8] = f.kind
		bufs = append(bufs, h[:])
		for _, p := range [2][]byte{f.Head, f.Body} {
			if len(p) > 0 {
				bufs = append(bufs, p)
			}
		}
		end += int64(frameLen + n)
		fw.ends = append(fw.ends, end)
	}
	fw.bufs = bufs
	defer clear(bufs) // do not pin the caller's frames

	var written int64
	for pos := 0; pos < len(bufs); {
		// The call's buffers: up to the caps, splitting the buffer that
		// straddles maxWritev and keeping its rest for the next call.
		stop, size := pos, 0
		for stop < len(bufs) && stop-pos < maxIovecs && size < maxWritev {
			size += len(bufs[stop])
			stop++
		}
		var rest []byte
		if over := size - maxWritev; over > 0 {
			last := bufs[stop-1]
			bufs[stop-1], rest = last[:len(last)-over], last[len(last)-over:]
		}
		if dw, ok := w.(deadliner); ok && timeout > 0 {
			dw.SetWriteDeadline(time.Now().Add(timeout))
		}
		fw.vec = bufs[pos:stop]
		n, err := fw.vec.WriteTo(w)
		written += n
		if err != nil {
			done, _ := slices.BinarySearch(fw.ends, written+1)
			return done, err
		}
		pos = stop
		if rest != nil {
			pos--
			bufs[pos] = rest
		}
	}
	return len(frames), nil
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
