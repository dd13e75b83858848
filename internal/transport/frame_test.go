package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// frameSizes straddle the connection reader's 4 KiB buffer: empty, one
// byte, a frame that exactly fills it (header included), one whose body
// alone fills it, one byte over, and a body far larger than the buffer.
var frameSizes = []int{0, 1, 4096 - frameLen, 4096, 4096 + 1, 256 << 10}

func sizedFrame(from, size int) Frame {
	f := Frame{From: from, Kind: uint8(size % 251)}
	if size > 0 {
		f.Data = make([]byte, size)
		for i := range f.Data {
			f.Data[i] = byte(i*7 + size)
		}
	}
	return f
}

func encodeFrames(t *testing.T, frames ...Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func sameFrame(a, b Frame) bool {
	return a.From == b.From && a.Kind == b.Kind && bytes.Equal(a.Data, b.Data)
}

// TestFrameReaderSplitAndCoalesced: the connection reader decodes the
// same frames whether the stream arrives one byte per write or with
// several frames in one write.
func TestFrameReaderSplitAndCoalesced(t *testing.T) {
	for _, size := range frameSizes {
		want := []Frame{sizedFrame(3, size), sizedFrame(-4, 1), sizedFrame(5, size)}
		stream := encodeFrames(t, want...)
		for _, split := range []bool{true, false} {
			t.Run(fmt.Sprintf("%dB/split=%v", size, split), func(t *testing.T) {
				client, server := net.Pipe()
				defer server.Close()
				go func() {
					defer client.Close()
					if !split {
						client.Write(stream)
						return
					}
					for i := range stream {
						if _, err := client.Write(stream[i : i+1]); err != nil {
							return
						}
					}
				}()
				fr := newFrameReader(server)
				for i, w := range want {
					got, err := fr.read()
					if err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					if !sameFrame(got, w) {
						t.Fatalf("frame %d: from %d kind %d %dB, want from %d kind %d %dB",
							i, got.From, got.Kind, len(got.Data), w.From, w.Kind, len(w.Data))
					}
				}
				if _, err := fr.read(); err == nil {
					t.Fatal("read past the last frame succeeded")
				}
			})
		}
	}
}

// TestTCPHelloAndFrameInOneWrite: a dialer whose hello and first frame
// share one write gets the frame delivered — the bytes the reader
// buffered past the hello survive the hello deadline being lifted.
func TestTCPHelloAndFrameInOneWrite(t *testing.T) {
	fab, eps := tcpFabric(t, nil, 1)
	ch := collect(eps[0])
	for i, size := range frameSizes {
		from := 10 + i
		want := sizedFrame(from, size)
		c, err := net.Dial("tcp", fab.addr(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(encodeFrames(t, Frame{From: from, Kind: helloKind}, want)); err != nil {
			t.Fatal(err)
		}
		got := recvN(ch, 1, 5*time.Second)
		c.Close()
		if len(got) != 1 || !sameFrame(got[0], want) {
			t.Fatalf("%dB: frame behind the hello lost or damaged: %d frames", size, len(got))
		}
	}
}

// TestTCPFrameAllocs: a frame crossing connected endpoints — Send plus
// the receiver's Recv — allocates its received body and nothing else.
func TestTCPFrameAllocs(t *testing.T) {
	_, eps := tcpFabric(t, nil, 2)
	a, b := eps[0], eps[1]
	for _, tc := range []struct {
		size int
		max  float64
	}{{0, 0}, {1 << 10, 1}} {
		data := sizedFrame(0, tc.size).Data
		hop := func() {
			a.Send(1, 7, data)
			if _, ok := b.Inbox().Recv(); !ok {
				t.Fatal("inbox closed")
			}
		}
		hop() // dial, and grow the inbox queue once
		if got := testing.AllocsPerRun(200, hop); got > tc.max {
			t.Errorf("%dB frame: %.1f allocs, want <= %.0f", tc.size, got, tc.max)
		}
	}
}

// TestTCPOversizedLengthBoundsAllocation: a connection that announces a
// frame of nearly MaxFrameSize and then hangs up must not make the
// endpoint allocate the announced size before the body shows up.
func TestTCPOversizedLengthBoundsAllocation(t *testing.T) {
	fab, eps := tcpFabric(t, nil, 1)
	b := eps[0]

	c, err := net.Dial("tcp", fab.addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msg := encodeFrames(t, Frame{From: 9, Kind: helloKind})
	msg = binary.BigEndian.AppendUint32(msg, 0x3FFFFFF0)
	msg = append(msg, make([]byte, 16)...)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	// The endpoint closes its side once the truncated body fails to read.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("endpoint did not drop the truncated frame's connection: n=%d err=%v", n, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("a %d-byte length prefix cost %d bytes of allocation", 0x3FFFFFF0, grew)
	}
	if f, ok := b.Inbox().TryRecv(); ok {
		t.Errorf("truncated frame delivered: from %d, %dB", f.From, len(f.Data))
	}
}
