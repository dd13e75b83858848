package mpi

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func sampleProcState() procState {
	return procState{
		collSeq:    1<<24 + 3,
		nextSendID: 9,
		unexpected: []inMsg{
			{from: 2, tag: 3, data: []byte("pending")},
			{from: 1, tag: -7, rts: true, id: 5, size: 1 << 20},
			{from: 0, tag: 1<<24 + 2, data: []byte{0}},
		},
		user: []byte("user state"),
	}
}

func encodeProcState(st procState) []byte {
	return appendProcState(make([]byte, 0, procStateSize(&st)), &st)
}

// TestProcStateEncodingIsExact: the encoder fills exactly the buffer
// procStateSize asks for, and decoding gives back every field.
func TestProcStateEncodingIsExact(t *testing.T) {
	for _, st := range []procState{{}, sampleProcState()} {
		b := encodeProcState(st)
		if len(b) != procStateSize(&st) || cap(b) != len(b) {
			t.Fatalf("encoded %d bytes into cap %d, size says %d", len(b), cap(b), procStateSize(&st))
		}
		got, err := decodeProcState(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.collSeq != st.collSeq || got.nextSendID != st.nextSendID || !bytes.Equal(got.user, st.user) ||
			len(got.unexpected) != len(st.unexpected) {
			t.Fatalf("decoded %+v, want %+v", got, st)
		}
		for i, m := range st.unexpected {
			g := got.unexpected[i]
			if g.from != m.from || g.tag != m.tag || g.rts != m.rts || g.id != m.id || g.size != m.size || !bytes.Equal(g.data, m.data) {
				t.Errorf("message %d: decoded %+v, want %+v", i, g, m)
			}
		}
	}
}

// TestDecodeProcStateRejects: every truncation, trailing bytes, a bad
// magic or rts byte, and length prefixes larger than what remains are
// errors, never panics or short reads.
func TestDecodeProcStateRejects(t *testing.T) {
	good := encodeProcState(sampleProcState())
	patched := func(off int, v uint32) []byte {
		b := bytes.Clone(good)
		binary.BigEndian.PutUint32(b[off:], v)
		return b
	}
	// Offsets into good: the message count at 12, the first message's
	// header at 16 (its data length at 16+21), the user length at
	// len(good)-4-len(user).
	userLenAt := len(good) - 4 - len("user state")
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"trailing byte", append(bytes.Clone(good), 0)},
		{"bad magic", append([]byte("MVP0"), good[4:]...)},
		{"bad rts byte", func() []byte { b := bytes.Clone(good); b[16+8] = 2; return b }()},
		{"message count past the end", patched(12, 1<<31)},
		{"one message too many", patched(12, 4)},
		{"message data past the end", patched(16+21, uint32(len(good)))},
		{"user length past the end", patched(userLenAt, 1<<20)},
		{"user length short", patched(userLenAt, 1)},
	}
	for n := range good {
		cases = append(cases, struct {
			name string
			b    []byte
		}{"truncated", good[:n]})
	}
	for _, c := range cases {
		if _, err := decodeProcState(c.b); err == nil {
			t.Errorf("%s (%d bytes): accepted", c.name, len(c.b))
		}
	}
}

// FuzzDecodeProcState: arbitrary input never panics the decoder, and
// whatever it accepts re-encodes to the same bytes, at the size
// procStateSize predicts.
func FuzzDecodeProcState(f *testing.F) {
	good := encodeProcState(sampleProcState())
	f.Add(good)
	f.Add(encodeProcState(procState{}))
	f.Add(encodeProcState(procState{user: make([]byte, 300)}))
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeProcState(data)
		if err != nil {
			return
		}
		if n := procStateSize(&st); n != len(data) {
			t.Fatalf("accepted %d bytes, size of decoded state %d", len(data), n)
		}
		if again := encodeProcState(st); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", data, again)
		}
	})
}
