// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed. Each experiment prints the
// same rows/series the paper reports and returns structured data so the
// test suite can assert the paper's qualitative findings (who wins, by
// roughly what factor, where the crossovers fall).
//
// Absolute magnitudes are calibrated to the paper's own P4 measurements
// (netsim.Params2003), but the claims under test are the shapes — see
// EXPERIMENTS.md for the paper-vs-measured record.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Run regenerates the experiment, writing the rows to w. Quick
	// mode trims sweeps for fast regression runs.
	Run func(w io.Writer, quick bool) error
	// Data, when set, regenerates the experiment as a structured value
	// suitable for json.Marshal — the machine-readable twin of Run,
	// emitted by vbench -json as BENCH_<id>.json.
	Data func(quick bool) (any, error)
}

// Experiments returns the full index, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig5", Title: "Figure 5: ping-pong bandwidth, P4 vs V1 vs V2", Run: Figure5,
			Data: func(q bool) (any, error) { return pingPongSeries(Figure5Data(q)), nil }},
		{ID: "fig6", Title: "Figure 6: ping-pong latency, P4 vs V1 vs V2", Run: Figure6,
			Data: func(q bool) (any, error) { return pingPongSeries(Figure6Data(q)), nil }},
		{ID: "fig7", Title: "Figure 7: NAS Parallel Benchmarks, P4 vs V2", Run: Figure7},
		{ID: "fig8", Title: "Figure 8: execution time breakdown, CG-A and BT-B", Run: Figure8},
		{ID: "tab1", Title: "Table 1: MPI call time decomposition, BT-A-9 and CG-A-8", Run: Table1},
		{ID: "fig9", Title: "Figure 9: synthetic Isend/Irecv/Waitall bandwidth, P4 vs V2", Run: Figure9},
		{ID: "fig10", Title: "Figure 10: re-execution performance (token ring)", Run: Figure10},
		{ID: "fig11", Title: "Figure 11: BT-A with faults during execution", Run: Figure11},
		{ID: "sched", Title: "§4.6.2: checkpoint scheduling policies (round-robin vs adaptive)", Run: SchedPolicies},
		{ID: "ablate", Title: "Ablations: WAITLOGGED gating, payload routing, garbage collection", Run: Ablations},
		{ID: "chaos", Title: "Chaos: BT-A under lossy links, node kills and a service outage", Run: Chaos,
			Data: func(q bool) (any, error) { return ChaosData(q), nil }},
		{ID: "elrep", Title: "Replication: event-logger quorum size vs overhead under chaos", Run: ELRep,
			Data: func(q bool) (any, error) { return ELRepData(q), nil }},
		{ID: "perf", Title: "Perf: pipelined determinant logging, window × size", Run: Perf,
			Data: func(q bool) (any, error) { return PerfData(q), nil }},
		{ID: "detsupp", Title: "DetSupp: adaptive determinant suppression + piggybacking vs pessimistic", Run: DetSupp,
			Data: func(q bool) (any, error) { return DetSuppData(q), nil }},
		{ID: "ckpt", Title: "Ckpt: incremental chunked checkpointing, log × chunk × delta × drop", Run: CkptBench,
			Data: func(q bool) (any, error) { return CkptBenchData(q), nil }},
		{ID: "trace", Title: "Trace: causal tracing overhead, HB audit and critical-path breakdown", Run: TraceBench,
			Data: func(q bool) (any, error) { return TraceData(q) }},
		{ID: "soak", Title: "Soak: real-socket deployment under process kills and live chaos", Run: SoakBench,
			Data: SoakData},
		{ID: "fleet", Title: "Fleet: sharded event loggers at 1000 ranks", Run: Fleet,
			Data: func(q bool) (any, error) { return FleetData(q), nil }},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table is a tiny tabwriter helper.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// sizeLabel formats a message size like the paper's axes.
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
