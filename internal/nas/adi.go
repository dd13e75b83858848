package nas

import (
	"math"

	"mpichv/internal/mpi"
)

// BT and SP: ADI (alternating direction implicit) time stepping on a 3D
// grid with a square 2D process decomposition over x and y — the paper
// runs them on square process counts (up to 25). Every timestep sweeps
// the three directions; the x and y sweeps first exchange boundary
// faces with the two neighbours as a batch of non-blocking sends and
// receives completed by a Waitall — exactly the communication pattern
// of the paper's figure 9 synthetic benchmark ("a communication pattern
// identical to the one of BT/SP"), bidirectional and built from
// moderately large messages, where V2's full-duplex daemon beats P4.
//
// The scheme is a block-Jacobi ADI: each sweep solves tridiagonal
// systems along local lines with Dirichlet couplings taken from the
// neighbours' current faces, so the parallel run and a sequential
// emulation of the same partition compute identical values. BT carries
// 5 components per point and heavy per-step compute; SP carries 5
// components with lighter steps and twice the step count.

const (
	adiN      = 24  // reduced cube edge (full class A: 64, B: 102)
	adiChunks = 5   // face exchange is split into this many Isends
	adiSigma  = 0.4 // implicit diffusion weight
	adiTau    = 0.1 // forcing weight
	adiTagX   = 701
	adiTagY   = 702
)

// BT returns the BT benchmark for a class.
func BT(class string) Benchmark {
	b := Benchmark{Name: "BT", Class: class, Run: runADI, vars: 5, n: adiN, MaxProcs: 25}
	switch class {
	case "B":
		b.Iters, b.FullIters = 10, 200
		b.FullFlops = 721.5e9
		b.MsgScale = (102.0 / adiN) * (102.0 / adiN)
	default:
		b.Class = "A"
		b.Iters, b.FullIters = 10, 200
		b.FullFlops = 168.3e9
		b.MsgScale = (64.0 / adiN) * (64.0 / adiN)
	}
	return b
}

// SP returns the SP benchmark for a class.
func SP(class string) Benchmark {
	b := Benchmark{Name: "SP", Class: class, Run: runADI, vars: 5, n: adiN, MaxProcs: 25}
	switch class {
	case "B":
		b.Iters, b.FullIters = 10, 400
		b.FullFlops = 447.1e9
		b.MsgScale = (102.0 / adiN) * (102.0 / adiN)
	default:
		b.Class = "A"
		b.Iters, b.FullIters = 10, 400
		b.FullFlops = 102.0e9
		b.MsgScale = (64.0 / adiN) * (64.0 / adiN)
	}
	return b
}

// adiBlock is one process's subgrid: nz = full n planes, nyl × nxl
// horizontal block, vars components per point.
type adiBlock struct {
	n, vars  int
	nxl, nyl int
	x0, y0   int
	u        []float64
}

func (b *adiBlock) idx(k, j, i, v int) int {
	return (((k*b.nyl)+j)*b.nxl+i)*b.vars + v
}

func adiInit(bm Benchmark, q, pi, pj int) *adiBlock {
	n := bm.n
	xlo, xhi := blockRange(n, q, pi)
	ylo, yhi := blockRange(n, q, pj)
	b := &adiBlock{n: n, vars: bm.vars, nxl: xhi - xlo, nyl: yhi - ylo, x0: xlo, y0: ylo}
	b.u = make([]float64, n*b.nyl*b.nxl*b.vars)
	for k := 0; k < n; k++ {
		for j := 0; j < b.nyl; j++ {
			for i := 0; i < b.nxl; i++ {
				for v := 0; v < b.vars; v++ {
					gx, gy := xlo+i, ylo+j
					b.u[b.idx(k, j, i, v)] = math.Sin(0.13*float64(gx+1)+0.7*float64(v)) *
						math.Cos(0.19*float64(gy+1)) * math.Sin(0.07*float64(k+1))
				}
			}
		}
	}
	return b
}

// faces: the x-sweep needs the neighbours' boundary columns, the y-sweep
// their boundary rows. A face is [n][edge][vars] values.

// packXFace extracts column i as a face for an x-neighbour.
func (b *adiBlock) packXFace(i int) []float64 {
	out := make([]float64, b.n*b.nyl*b.vars)
	p := 0
	for k := 0; k < b.n; k++ {
		for j := 0; j < b.nyl; j++ {
			for v := 0; v < b.vars; v++ {
				out[p] = b.u[b.idx(k, j, i, v)]
				p++
			}
		}
	}
	return out
}

// packYFace extracts row j as a face for a y-neighbour.
func (b *adiBlock) packYFace(j int) []float64 {
	out := make([]float64, b.n*b.nxl*b.vars)
	p := 0
	for k := 0; k < b.n; k++ {
		for i := 0; i < b.nxl; i++ {
			for v := 0; v < b.vars; v++ {
				out[p] = b.u[b.idx(k, j, i, v)]
				p++
			}
		}
	}
	return out
}

// adiComm provides the neighbour faces for the two decomposed sweeps.
type adiComm interface {
	// exchangeX returns the west and east neighbour faces (nil at the
	// global boundary).
	exchangeX(b *adiBlock) (west, east []float64)
	exchangeY(b *adiBlock) (north, south []float64)
	charge()
	sum(x float64) float64
	checkpointPoint()
}

type adiParallel struct {
	p      *mpi.Proc
	bm     Benchmark
	q      int
	pi, pj int
}

func (c *adiParallel) rankAt(pi, pj int) int { return pj*c.q + pi }

// exchangeFaces swaps a face with up to two neighbours, each split into
// adiChunks non-blocking sends completed by one Waitall (the BT/SP
// pattern of figure 9).
func (c *adiParallel) exchangeFaces(tag int, lo, hi int, loFace, hiFace []float64) (loIn, hiIn []float64) {
	p := c.p
	var reqs []*mpi.Request
	var loRecv, hiRecv []*mpi.Request
	post := func(peer int, face []float64) []*mpi.Request {
		var rs []*mpi.Request
		for ch := 0; ch < adiChunks; ch++ {
			rs = append(rs, p.Irecv(peer, tag+ch))
		}
		for ch := 0; ch < adiChunks; ch++ {
			a, b := chunkRange(len(face), adiChunks, ch)
			reqs = append(reqs, p.IsendFloat64s(peer, tag+ch, face[a:b]))
		}
		return rs
	}
	if lo >= 0 {
		loRecv = post(lo, loFace)
	}
	if hi >= 0 {
		hiRecv = post(hi, hiFace)
	}
	for _, rs := range [][]*mpi.Request{loRecv, hiRecv} {
		reqs = append(reqs, rs...)
	}
	p.Waitall(reqs)
	assemble := func(rs []*mpi.Request, n int) []float64 {
		if rs == nil {
			return nil
		}
		out := make([]float64, n)
		for ch, r := range rs {
			a, b := chunkRange(n, adiChunks, ch)
			copy(out[a:b], mpi.BytesToFloat64s(r.Data()))
		}
		return out
	}
	return assemble(loRecv, len(loFace)), assemble(hiRecv, len(hiFace))
}

func chunkRange(n, chunks, ch int) (int, int) {
	base, rem := n/chunks, n%chunks
	a := ch*base + min(ch, rem)
	b := a + base
	if ch < rem {
		b++
	}
	return a, b
}

func (c *adiParallel) exchangeX(b *adiBlock) (west, east []float64) {
	lo, hi := -1, -1
	if c.pi > 0 {
		lo = c.rankAt(c.pi-1, c.pj)
	}
	if c.pi < c.q-1 {
		hi = c.rankAt(c.pi+1, c.pj)
	}
	return c.exchangeFaces(adiTagX, lo, hi, b.packXFace(0), b.packXFace(b.nxl-1))
}

func (c *adiParallel) exchangeY(b *adiBlock) (north, south []float64) {
	lo, hi := -1, -1
	if c.pj > 0 {
		lo = c.rankAt(c.pi, c.pj-1)
	}
	if c.pj < c.q-1 {
		hi = c.rankAt(c.pi, c.pj+1)
	}
	return c.exchangeFaces(adiTagY, lo, hi, b.packYFace(0), b.packYFace(b.nyl-1))
}

func (c *adiParallel) charge()               { chargePerIter(c.p, c.bm) }
func (c *adiParallel) sum(x float64) float64 { return c.p.AllreduceScalar(x, mpi.OpSum) }
func (c *adiParallel) checkpointPoint()      { c.p.CheckpointPoint() }

// adiSerial emulates the whole q×q partition sequentially; neighbours
// read each other's pre-sweep faces exactly like the parallel exchange.
type adiSerial struct {
	q      int
	blocks [][]*adiBlock // [pj][pi]
	pi, pj int
}

func (c *adiSerial) exchangeX(b *adiBlock) (west, east []float64) {
	if c.pi > 0 {
		west = c.blocks[c.pj][c.pi-1].packXFace(c.blocks[c.pj][c.pi-1].nxl - 1)
	}
	if c.pi < c.q-1 {
		east = c.blocks[c.pj][c.pi+1].packXFace(0)
	}
	return
}

func (c *adiSerial) exchangeY(b *adiBlock) (north, south []float64) {
	if c.pj > 0 {
		north = c.blocks[c.pj-1][c.pi].packYFace(c.blocks[c.pj-1][c.pi].nyl - 1)
	}
	if c.pj < c.q-1 {
		south = c.blocks[c.pj+1][c.pi].packYFace(0)
	}
	return
}

func (*adiSerial) charge()               {}
func (*adiSerial) sum(x float64) float64 { return x }
func (*adiSerial) checkpointPoint()      {}

// thomas solves (1+2σ)x_i − σ(x_{i−1}+x_{i+1}) = rhs_i in place.
func thomas(rhs []float64) {
	n := len(rhs)
	const a = -adiSigma
	b0 := 1 + 2*adiSigma
	cp := make([]float64, n)
	cp[0] = a / b0
	rhs[0] /= b0
	for i := 1; i < n; i++ {
		m := b0 - a*cp[i-1]
		cp[i] = a / m
		rhs[i] = (rhs[i] - a*rhs[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		rhs[i] -= cp[i] * rhs[i+1]
	}
}

// sweepX solves the x-direction systems of one block, with Dirichlet
// couplings from the neighbour faces folded into the RHS.
func sweepX(b *adiBlock, west, east []float64) {
	line := make([]float64, b.nxl)
	for k := 0; k < b.n; k++ {
		for j := 0; j < b.nyl; j++ {
			for v := 0; v < b.vars; v++ {
				for i := 0; i < b.nxl; i++ {
					line[i] = b.u[b.idx(k, j, i, v)]
				}
				if west != nil {
					line[0] += adiSigma * west[(k*b.nyl+j)*b.vars+v]
				}
				if east != nil {
					line[b.nxl-1] += adiSigma * east[(k*b.nyl+j)*b.vars+v]
				}
				thomas(line)
				for i := 0; i < b.nxl; i++ {
					b.u[b.idx(k, j, i, v)] = line[i]
				}
			}
		}
	}
}

func sweepY(b *adiBlock, north, south []float64) {
	line := make([]float64, b.nyl)
	for k := 0; k < b.n; k++ {
		for i := 0; i < b.nxl; i++ {
			for v := 0; v < b.vars; v++ {
				for j := 0; j < b.nyl; j++ {
					line[j] = b.u[b.idx(k, j, i, v)]
				}
				if north != nil {
					line[0] += adiSigma * north[(k*b.nxl+i)*b.vars+v]
				}
				if south != nil {
					line[b.nyl-1] += adiSigma * south[(k*b.nxl+i)*b.vars+v]
				}
				thomas(line)
				for j := 0; j < b.nyl; j++ {
					b.u[b.idx(k, j, i, v)] = line[j]
				}
			}
		}
	}
}

// sweepZ is fully local (z is not decomposed).
func sweepZ(b *adiBlock) {
	line := make([]float64, b.n)
	for j := 0; j < b.nyl; j++ {
		for i := 0; i < b.nxl; i++ {
			for v := 0; v < b.vars; v++ {
				for k := 0; k < b.n; k++ {
					line[k] = b.u[b.idx(k, j, i, v)]
				}
				thomas(line)
				for k := 0; k < b.n; k++ {
					b.u[b.idx(k, j, i, v)] = line[k]
				}
			}
		}
	}
}

// adiStep advances one timestep.
func adiStep(c adiComm, b *adiBlock) {
	w, e := c.exchangeX(b)
	sweepX(b, w, e)
	n, s := c.exchangeY(b)
	sweepY(b, n, s)
	sweepZ(b)
	// Forcing keeps the field from decaying to zero.
	for k := 0; k < b.n; k++ {
		for j := 0; j < b.nyl; j++ {
			for i := 0; i < b.nxl; i++ {
				for v := 0; v < b.vars; v++ {
					gx, gy := b.x0+i, b.y0+j
					b.u[b.idx(k, j, i, v)] += adiTau * math.Sin(0.05*float64(gx+gy+k+v+1))
				}
			}
		}
	}
}

// adiState is the checkpointable application state.
type adiState struct {
	It int
	U  []float64
}

func runADI(p *mpi.Proc, bm Benchmark) Result {
	q := Square(p.Size())
	if q*q != p.Size() {
		p.Abortf("%s requires a square number of processes, got %d", bm.Name, p.Size())
	}
	pi, pj := p.Rank()%q, p.Rank()/q
	c := &adiParallel{p: p, bm: bm, q: q, pi: pi, pj: pj}
	blk := adiInit(bm, q, pi, pj)

	st := adiState{U: blk.u}
	p.SetStateProvider(st.encode)
	if blob, restarted := p.Restarted(); restarted && blob != nil {
		if err := st.decode(blob); err != nil {
			p.Abortf("decoding ADI state: %v", err)
		}
		blk.u = st.U
	}

	for ; st.It < bm.Iters; st.It++ {
		c.checkpointPoint()
		c.charge()
		adiStep(c, blk)
		st.U = blk.u
	}
	var local float64
	for _, v := range blk.u {
		local += v * v
	}
	value := math.Sqrt(c.sum(local))
	ref := refValue(refKey("adi", bm.Name, bm.Class, q, bm.Iters), func() float64 { return adiSerialValue(bm, q) })
	return Result{Value: value, Verified: close(value, ref), Iters: bm.Iters}
}

// adiSerialValue runs the same partitioned scheme sequentially.
func adiSerialValue(bm Benchmark, q int) float64 {
	s := &adiSerial{q: q, blocks: make([][]*adiBlock, q)}
	for pj := 0; pj < q; pj++ {
		s.blocks[pj] = make([]*adiBlock, q)
		for pi := 0; pi < q; pi++ {
			s.blocks[pj][pi] = adiInit(bm, q, pi, pj)
		}
	}
	for it := 0; it < bm.Iters; it++ {
		// Jacobi-coupled sweeps: all x-exchanges happen against the
		// pre-sweep state, then all x-sweeps run, and likewise for y —
		// matching the simultaneous parallel exchange.
		type fpair struct{ w, e []float64 }
		fx := make([][]fpair, q)
		for pj := 0; pj < q; pj++ {
			fx[pj] = make([]fpair, q)
			for pi := 0; pi < q; pi++ {
				s.pi, s.pj = pi, pj
				w, e := s.exchangeX(s.blocks[pj][pi])
				fx[pj][pi] = fpair{w, e}
			}
		}
		for pj := 0; pj < q; pj++ {
			for pi := 0; pi < q; pi++ {
				sweepX(s.blocks[pj][pi], fx[pj][pi].w, fx[pj][pi].e)
			}
		}
		fy := make([][]fpair, q)
		for pj := 0; pj < q; pj++ {
			fy[pj] = make([]fpair, q)
			for pi := 0; pi < q; pi++ {
				s.pi, s.pj = pi, pj
				n, so := s.exchangeY(s.blocks[pj][pi])
				fy[pj][pi] = fpair{n, so}
			}
		}
		for pj := 0; pj < q; pj++ {
			for pi := 0; pi < q; pi++ {
				blk := s.blocks[pj][pi]
				sweepY(blk, fy[pj][pi].w, fy[pj][pi].e)
				sweepZ(blk)
				for k := 0; k < blk.n; k++ {
					for j := 0; j < blk.nyl; j++ {
						for i := 0; i < blk.nxl; i++ {
							for v := 0; v < blk.vars; v++ {
								gx, gy := blk.x0+i, blk.y0+j
								blk.u[blk.idx(k, j, i, v)] += adiTau * math.Sin(0.05*float64(gx+gy+k+v+1))
							}
						}
					}
				}
			}
		}
	}
	var total float64
	for pj := 0; pj < q; pj++ {
		for pi := 0; pi < q; pi++ {
			for _, v := range s.blocks[pj][pi].u {
				total += v * v
			}
		}
	}
	return math.Sqrt(total)
}
