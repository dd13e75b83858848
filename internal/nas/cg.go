package nas

import "mpichv/internal/mpi"

// CG: the NPB conjugate-gradient kernel structure — outer power-method
// iterations, each running a fixed 25-step CG solve on a sparse
// symmetric diagonally-dominant matrix, row-partitioned. Every inner
// step performs a sparse matrix-vector product (assembling the search
// direction via an allgather of vector segments) and two dot-product
// allreduces: hundreds of dependent small-message exchanges per outer
// iteration. Each reception event must reach the event logger before
// the next emission, so this is MPICH-V2's worst case in figure 7.

const (
	cgN        = 1024
	cgNNZ      = 8
	cgShift    = 40.0
	cgInner    = 25 // CG steps per outer iteration (NPB cgitmax)
	cgRedOuter = 3  // reduced outer iterations actually executed
)

// CG returns the CG benchmark for a class.
func CG(class string) Benchmark {
	b := Benchmark{
		Name:  "CG",
		Class: class,
		Run:   runCG,
	}
	switch class {
	case "B":
		b.Iters, b.FullIters = cgRedOuter, 75
		b.FullFlops = 54.9e9
		b.MsgScale = 75000.0 / cgN
	default:
		b.Class = "A"
		b.Iters, b.FullIters = cgRedOuter, 15
		b.FullFlops = 1.50e9
		b.MsgScale = 14000.0 / cgN
	}
	return b
}

// cgMatrix is a CSR-ish sparse matrix, built identically on every rank.
type cgMatrix struct {
	n    int
	cols [][]int
	vals [][]float64
}

func buildCGMatrix(n int) *cgMatrix {
	m := &cgMatrix{n: n, cols: make([][]int, n), vals: make([][]float64, n)}
	rng := newLCG(42)
	add := func(i, j int, v float64) {
		m.cols[i] = append(m.cols[i], j)
		m.vals[i] = append(m.vals[i], v)
	}
	for i := 0; i < n; i++ {
		add(i, i, cgShift+float64(cgNNZ))
	}
	for i := 0; i < n; i++ {
		for k := 0; k < cgNNZ/2; k++ {
			j := rng.intn(n)
			if j == i {
				continue
			}
			v := rng.float() - 0.5
			add(i, j, v)
			add(j, i, v)
		}
	}
	return m
}

// spmvRows computes y = A·x for rows [lo,hi).
func (m *cgMatrix) spmvRows(lo, hi int, x, y []float64) {
	for i := lo; i < hi; i++ {
		var s float64
		cols, vals := m.cols[i], m.vals[i]
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i-lo] = s
	}
}

// blockRange splits n items over size ranks.
func blockRange(n, size, rank int) (lo, hi int) {
	base, rem := n/size, n%size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

// cgComm abstracts the two collective operations of the solver.
type cgComm interface {
	// assemble gathers the full vector from the local segments.
	assemble(seg []float64, full []float64)
	allreduce(x float64) float64
	charge()
}

type cgParallel struct {
	p *mpi.Proc
	b Benchmark
}

func (c *cgParallel) assemble(seg []float64, full []float64) {
	segs := c.p.Allgather(mpi.Float64sToBytes(seg))
	off := 0
	for rk := 0; rk < c.p.Size(); rk++ {
		s := mpi.BytesToFloat64s(segs[rk])
		copy(full[off:], s)
		off += len(s)
	}
}

func (c *cgParallel) allreduce(x float64) float64 { return c.p.AllreduceScalar(x, mpi.OpSum) }
func (c *cgParallel) charge()                     { chargePerIter(c.p, c.b) }

type cgSerialComm struct{}

func (cgSerialComm) assemble(seg []float64, full []float64) { copy(full, seg) }
func (cgSerialComm) allreduce(x float64) float64            { return x }
func (cgSerialComm) charge()                                {}

// cgSolve runs the fixed-iteration inner CG for A·x = rhs and returns
// (x, final residual rho).
func cgSolve(c cgComm, m *cgMatrix, lo, hi int, rhs []float64) ([]float64, float64) {
	local := hi - lo
	x := make([]float64, local)
	r := append([]float64(nil), rhs...)
	pv := make([]float64, m.n)
	q := make([]float64, local)
	plocal := append([]float64(nil), r...)
	rho := c.allreduce(dot(r, r))
	for it := 0; it < cgInner; it++ {
		c.assemble(plocal, pv)
		m.spmvRows(lo, hi, pv, q)
		alpha := rho / c.allreduce(dot(plocal, q))
		for i := range x {
			x[i] += alpha * plocal[i]
			r[i] -= alpha * q[i]
		}
		rhoNew := c.allreduce(dot(r, r))
		beta := rhoNew / rho
		rho = rhoNew
		for i := range plocal {
			plocal[i] = r[i] + beta*plocal[i]
		}
	}
	return x, rho
}

// cgState is the checkpointable outer-loop state.
type cgState struct {
	Outer int
	Rhs   []float64
	Value float64
}

// cgDriver runs the outer iterations: each solves against a right-hand
// side derived from the previous solution (the power-method chaining of
// NPB CG, simplified). When p is non-nil the outer loop is
// checkpointable: a restarted rank resumes from its last snapshot.
func cgDriver(c cgComm, m *cgMatrix, lo, hi, outer int, p *mpi.Proc) float64 {
	local := hi - lo
	st := cgState{Rhs: make([]float64, local)}
	for i := range st.Rhs {
		st.Rhs[i] = 1.0
	}
	if p != nil {
		p.SetStateProvider(st.encode)
		if blob, restarted := p.Restarted(); restarted && blob != nil {
			if err := st.decode(blob); err != nil {
				p.Abortf("decoding CG state: %v", err)
			}
		}
	}
	rhs := st.Rhs
	value := st.Value
	for it := st.Outer; it < outer; it++ {
		st.Outer, st.Rhs, st.Value = it, rhs, value
		if p != nil {
			p.CheckpointPoint()
		}
		c.charge()
		x, rho := cgSolve(c, m, lo, hi, rhs)
		// Normalize by the global norm to chain outer iterations.
		norm := c.allreduce(dot(x, x))
		if norm > 0 {
			inv := 1.0 / norm
			for i := range rhs {
				rhs[i] = x[i] * inv
			}
		}
		value = rho
	}
	return value
}

func runCG(p *mpi.Proc, b Benchmark) Result {
	m := buildCGMatrix(cgN)
	lo, hi := blockRange(cgN, p.Size(), p.Rank())
	value := cgDriver(&cgParallel{p: p, b: b}, m, lo, hi, b.Iters, p)
	ref := refValue(refKey("cg", b.Iters), func() float64 {
		return cgDriver(cgSerialComm{}, buildCGMatrix(cgN), 0, cgN, b.Iters, nil)
	})
	return Result{Value: value, Verified: close(value, ref), Iters: b.Iters}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
