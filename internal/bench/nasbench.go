package bench

import (
	"fmt"
	"io"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/mpi"
	"mpichv/internal/nas"
	"mpichv/internal/netsim"
)

// paramsFor scales the network model for a kernel's reduced message
// sizes (see nas package doc): dividing the bandwidth, the eager limit
// and the log budgets by MsgScale makes the reduced-size messages take
// exactly as long — and trip the same protocol thresholds — as the
// full-class messages would on the real network.
func paramsFor(b nas.Benchmark) netsim.Params {
	p := netsim.Params2003()
	s := b.MsgScale
	if s > 1 {
		p.Bandwidth /= s
		p.EagerLimit = int(float64(p.EagerLimit) / s)
		p.HalfDuplexMinBytes = int(float64(p.HalfDuplexMinBytes) / s)
		p.LogMemLimit = int64(float64(p.LogMemLimit) / s)
		p.LogCopyPerByte = time.Duration(float64(p.LogCopyPerByte) * s)
		p.DiskCopyPerByte = time.Duration(float64(p.DiskCopyPerByte) * s)
		p.UnixCopyPerByte = time.Duration(float64(p.UnixCopyPerByte) * s)
	}
	return p
}

// NASRun is one kernel execution on one implementation.
type NASRun struct {
	Bench    nas.Benchmark
	Impl     cluster.Impl
	Procs    int
	Elapsed  time.Duration // extrapolated to the full iteration count
	Mops     float64       // full-class Mop/s
	Verified bool
	Result   cluster.Result
}

// RunNAS executes one kernel on a simulated cluster of the given
// implementation.
func RunNAS(b nas.Benchmark, impl cluster.Impl, procs int, cfg cluster.Config) NASRun {
	cfg.Impl = impl
	cfg.N = procs
	if cfg.Params.Bandwidth == 0 {
		cfg.Params = paramsFor(b)
	}
	results := make([]nas.Result, procs)
	res := cluster.Run(cfg, func(p *mpi.Proc) {
		results[p.Rank()] = b.Run(p, b)
	})
	run := NASRun{Bench: b, Impl: impl, Procs: procs, Result: res, Verified: true}
	run.Elapsed = time.Duration(float64(res.Elapsed) * b.ExtrapFactor())
	if run.Elapsed > 0 {
		run.Mops = b.FullFlops / 1e6 / run.Elapsed.Seconds()
	}
	for _, r := range results {
		if !r.Verified {
			run.Verified = false
		}
	}
	return run
}

func nasProcs(b nas.Benchmark, quick bool) []int {
	if b.MaxProcs == 25 { // BT/SP need squares
		if quick {
			return []int{4, 16}
		}
		return []int{1, 4, 9, 16, 25}
	}
	if quick {
		return []int{4, 16}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// Figure7Data runs the NPB suite on P4 and V2 across process counts.
func Figure7Data(quick bool) []NASRun {
	suite := nas.All()
	if quick {
		suite = []nas.Benchmark{nas.CG("A"), nas.MG("A"), nas.FT("A"), nas.LU("A"), nas.BT("A"), nas.SP("A")}
	}
	var out []NASRun
	for _, b := range suite {
		for _, procs := range nasProcs(b, quick) {
			for _, impl := range []cluster.Impl{cluster.P4, cluster.V2} {
				out = append(out, RunNAS(b, impl, procs, cluster.Config{}))
			}
		}
	}
	return out
}

// Figure7 regenerates the NPB performance comparison.
func Figure7(w io.Writer, quick bool) error {
	runs := Figure7Data(quick)
	t := newTable(w)
	t.row("bench", "procs", "impl", "time", "Mop/s", "verified")
	for _, r := range runs {
		t.row(r.Bench.ID(), r.Procs, r.Impl, r.Elapsed.Round(time.Millisecond),
			fmt.Sprintf("%.0f", r.Mops), r.Verified)
	}
	t.flush()
	return nil
}

// Breakdown is a compute/communication split (figure 8).
type Breakdown struct {
	Bench   string
	Impl    cluster.Impl
	Procs   int
	Total   time.Duration
	Compute time.Duration
	Comm    time.Duration
}

func breakdownOf(b nas.Benchmark, impl cluster.Impl, procs int) Breakdown {
	cfg := cluster.Config{}
	if impl == cluster.V1 {
		cfg.CMFanIn = 4 // the paper's figure 8 setup uses N/4 Channel Memories
	}
	run := RunNAS(b, impl, procs, cfg)
	out := Breakdown{Bench: b.ID(), Impl: impl, Procs: procs, Total: run.Elapsed}
	var n int
	for _, st := range run.Result.PerRank {
		if st == nil {
			continue
		}
		out.Compute += st.ComputeTime()
		out.Comm += st.CommTime()
		n++
	}
	if n > 0 {
		f := time.Duration(n)
		out.Compute = time.Duration(float64(out.Compute/f) * b.ExtrapFactor())
		out.Comm = time.Duration(float64(out.Comm/f) * b.ExtrapFactor())
	}
	return out
}

// Figure8Data produces the execution-time breakdown of CG-A-8 and
// BT-B-9 for the three implementations.
func Figure8Data(quick bool) []Breakdown {
	var out []Breakdown
	cg := nas.CG("A")
	bt := nas.BT("B")
	if quick {
		bt = nas.BT("A")
	}
	for _, impl := range []cluster.Impl{cluster.P4, cluster.V1, cluster.V2} {
		out = append(out, breakdownOf(cg, impl, 8))
	}
	for _, impl := range []cluster.Impl{cluster.P4, cluster.V1, cluster.V2} {
		out = append(out, breakdownOf(bt, impl, 9))
	}
	return out
}

// Figure8 regenerates the breakdown comparison.
func Figure8(w io.Writer, quick bool) error {
	t := newTable(w)
	t.row("bench", "procs", "impl", "total", "compute", "comm")
	for _, b := range Figure8Data(quick) {
		t.row(b.Bench, b.Procs, b.Impl, b.Total.Round(time.Millisecond),
			b.Compute.Round(time.Millisecond), b.Comm.Round(time.Millisecond))
	}
	t.flush()
	return nil
}

// CallDecomposition is one row of Table 1.
type CallDecomposition struct {
	Bench string
	Impl  cluster.Impl
	Send  time.Duration // MPI_(I)send
	Irecv time.Duration
	Wait  time.Duration
	Total time.Duration
}

func decompose(b nas.Benchmark, impl cluster.Impl, procs int) CallDecomposition {
	run := RunNAS(b, impl, procs, cluster.Config{})
	out := CallDecomposition{Bench: fmt.Sprintf("%s %d", b.ID(), procs), Impl: impl}
	var n int
	for _, st := range run.Result.PerRank {
		if st == nil {
			continue
		}
		out.Send += st.Get("MPI_Isend").Time + st.Get("MPI_Send").Time
		out.Irecv += st.Get("MPI_Irecv").Time
		out.Wait += st.Get("MPI_Wait").Time + st.Get("MPI_Recv").Time
		out.Total += st.CommTime()
		n++
	}
	if n > 0 {
		f := time.Duration(n)
		scale := b.ExtrapFactor()
		out.Send = time.Duration(float64(out.Send/f) * scale)
		out.Irecv = time.Duration(float64(out.Irecv/f) * scale)
		out.Wait = time.Duration(float64(out.Wait/f) * scale)
		out.Total = time.Duration(float64(out.Total/f) * scale)
	}
	return out
}

// Table1Data reproduces the call decomposition for BT-A-9 and CG-A-8.
func Table1Data(quick bool) []CallDecomposition {
	var out []CallDecomposition
	for _, impl := range []cluster.Impl{cluster.P4, cluster.V2} {
		out = append(out, decompose(nas.BT("A"), impl, 9))
	}
	for _, impl := range []cluster.Impl{cluster.P4, cluster.V2} {
		out = append(out, decompose(nas.CG("A"), impl, 8))
	}
	return out
}

// Table1 regenerates the MPI function time decomposition.
func Table1(w io.Writer, quick bool) error {
	t := newTable(w)
	t.row("bench", "impl", "MPI_(I)send", "MPI_Irecv", "MPI_Wait(+Recv)", "total comm")
	for _, d := range Table1Data(quick) {
		t.row(d.Bench, d.Impl, d.Send.Round(time.Millisecond), d.Irecv.Round(time.Millisecond),
			d.Wait.Round(time.Millisecond), d.Total.Round(time.Millisecond))
	}
	t.flush()
	return nil
}
