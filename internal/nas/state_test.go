package nas

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// TestKernelStateCodecs: the CG and ADI states round-trip exactly, and
// the decoders reject every truncation, trailing bytes and a vector
// length larger than what remains.
func TestKernelStateCodecs(t *testing.T) {
	cg := cgState{Outer: 2, Rhs: []float64{1, -0.5, math.Inf(1)}, Value: 3.25}
	adi := adiState{It: 7, U: []float64{0.125, 2, -3}}
	for _, tc := range []struct {
		name   string
		enc    []byte
		decode func([]byte) (any, error)
		want   any
		lenAt  int // offset of the vector length
	}{
		{"cg", cg.encode(), func(b []byte) (any, error) {
			var s cgState
			err := s.decode(b)
			return s, err
		}, cg, 16},
		{"adi", adi.encode(), func(b []byte) (any, error) {
			var s adiState
			err := s.decode(b)
			return s, err
		}, adi, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.decode(tc.enc)
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %+v (%v), want %+v", got, err, tc.want)
			}
			bad := [][]byte{append(bytes.Clone(tc.enc), 0)}
			for n := range tc.enc {
				bad = append(bad, tc.enc[:n])
			}
			long := bytes.Clone(tc.enc)
			binary.LittleEndian.PutUint32(long[tc.lenAt:], 1<<30)
			bad = append(bad, long)
			for _, b := range bad {
				if _, err := tc.decode(b); err == nil {
					t.Errorf("%d bytes accepted", len(b))
				}
			}
		})
	}
}
