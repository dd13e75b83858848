package nas

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpichv/internal/mpi"
)

// Kernel states are the application part of a checkpoint image, in a
// fixed little-endian layout (vectors as mpi.Float64sToBytes lays them
// out) that the image frame's CRC covers:
//
//	CG:  u64 outer | f64 value | u32 n | n × f64 rhs
//	ADI: u64 it | u32 n | n × f64 u
//
// The decoders reject truncation, trailing bytes and a vector length
// other than what remains.

func (st *cgState) encode() []byte {
	b := make([]byte, 20, 20+8*len(st.Rhs))
	binary.LittleEndian.PutUint64(b, uint64(st.Outer))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(st.Value))
	binary.LittleEndian.PutUint32(b[16:], uint32(len(st.Rhs)))
	return append(b, mpi.Float64sToBytes(st.Rhs)...)
}

func (st *cgState) decode(b []byte) error {
	rhs, err := decodeVector(b, 16)
	if err != nil {
		return fmt.Errorf("nas: CG state: %w", err)
	}
	st.Outer = int(binary.LittleEndian.Uint64(b))
	st.Value = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	st.Rhs = rhs
	return nil
}

func (st *adiState) encode() []byte {
	b := make([]byte, 12, 12+8*len(st.U))
	binary.LittleEndian.PutUint64(b, uint64(st.It))
	binary.LittleEndian.PutUint32(b[8:], uint32(len(st.U)))
	return append(b, mpi.Float64sToBytes(st.U)...)
}

func (st *adiState) decode(b []byte) error {
	u, err := decodeVector(b, 8)
	if err != nil {
		return fmt.Errorf("nas: ADI state: %w", err)
	}
	st.It = int(binary.LittleEndian.Uint64(b))
	st.U = u
	return nil
}

// decodeVector parses the counted vector at b[off:], which must run to
// the end of b.
func decodeVector(b []byte, off int) ([]float64, error) {
	if len(b) < off+4 {
		return nil, fmt.Errorf("%d bytes truncated", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	if body := b[off+4:]; len(body) != 8*n {
		return nil, fmt.Errorf("vector of %d values in %d bytes", n, len(body))
	}
	return mpi.BytesToFloat64s(b[off+4:]), nil
}
