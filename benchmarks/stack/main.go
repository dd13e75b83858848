// Command stack is the wall-clock benchmark of the real path: MPI ranks
// over V2 daemons over loopback TCP sockets to event loggers and
// checkpoint servers with write-ahead logs, assembled in one process the
// way deploy.ServeWith wires a deployment. See README.md.
//
//	stack --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's contract)
//	stack                                                  every workload, end to end and traced, as a table
//	stack -selfcheck                                       two sets of end-to-end runs, compared by the bounds
//	stack -record F -runs N                                N end-to-end runs per workload, appended to F
//	stack -compare OLD NEW                                 the paired rule over two recorded files
//	stack -manifest                                        print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// memoryLimitKB fails a run whose resident set passes 4 GiB: checkpoint
// images grow with every byte a rank ever sent (README, findings), and
// a benchmark must fail before the machine does.
const memoryLimitKB = 4 << 20

func guardMemory() {
	go func() {
		for range time.Tick(200 * time.Millisecond) {
			if rss := procStatusKB("VmRSS"); rss > memoryLimitKB {
				fmt.Fprintf(os.Stderr, "stack: resident set %.0f MB passed the 4 GiB guard\n", rss/1024)
				os.Exit(3)
			}
		}
	}()
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json; everything the benchmark writes stays
// under it.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// output is the last line of a run's standard output.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func render(specs []metricSpec, m metrics, res *result) output {
	out := output{Correct: res.failed == 0, Attempted: max(res.ops, 1), Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, s := range specs {
		out.Metrics[s.Name] = metricJSON{Value: m[s.Name], Unit: s.Unit}
	}
	return out
}

// setupCycles is how many times a single-system workload assembles its
// stack before the measured region, only to time it; the workloads that
// run trials in fresh systems time every one of those instead.
var setupCycles = map[string]int{"pingpong_0b": 10, "halo_ckpt": 10}

// endToEndRun is a --trace 0 run: tracing off, the numbers a user sees.
func endToEndRun(name string, env *runEnv) (metrics, *result, error) {
	var setups []float64
	for i := 0; i < setupCycles[name]; i++ {
		e := *env
		e.budget = 0
		res, err := runWorkload(name, &e)
		if err != nil {
			return nil, nil, err
		}
		if res.failed > 0 {
			return nil, res, nil
		}
		setups = append(setups, res.setups...)
	}
	res, err := runWorkload(name, env)
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	laps := nsToUs(res.laps)
	m.set("setup_s", median(append(setups, res.setups...)))
	m.set("lap_p50_us", quantile(laps, 0.5))
	m.set("lap_p99_us", quantile(laps, 0.99))
	m.set("msgs_per_s", median(res.rates))
	m.set("stall_p50_ms", median(res.stalls))
	if res.rssKB == 0 {
		if lap := env.sz.rssLap(name); lap > 0 {
			fmt.Fprintf(os.Stderr, "stack: %s: the region ended after %d laps, before lap %d where peak_rss_mb is read; the value at exit is reported instead\n",
				name, len(res.laps), lap)
		}
		res.rssKB = procStatusKB("VmHWM")
	}
	m.set("peak_rss_mb", res.rssKB/1024)
	return m, res, nil
}

// tracedRun is a --trace 1 run: an untraced reference region for the
// counters, the same region traced, the ladder and the microbenchmarks,
// sharing the run's seconds.
func tracedRun(name string, env *runEnv, traceFile string) (metrics, *result, error) {
	m := metrics{}
	seconds := env.budget
	env.budget = seconds / 4

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	ref, err := runWorkload(name, env)
	if err != nil {
		return nil, nil, err
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	msgs := float64(ref.msgs)
	m.set("proc.allocs_per_msg", ratio(float64(m1.Mallocs-m0.Mallocs), msgs))
	m.set("proc.cpu_s_per_1k_msgs", ratio((cpu1-cpu0).Seconds()*1e3, msgs))
	m.set("proc.alloc_bytes_per_payload_byte", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(ref.payloadBytes)))
	m.set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	m.set("transport.tcp_dials", float64(ref.tcp.Dials))
	m.set("transport.tcp_retransmits", float64(ref.tcp.Retransmits))
	m.set("transport.tcp_dropped_frames", float64(ref.tcp.DroppedFrames))
	m.set("transport.tcp_stale_replaced", float64(ref.tcp.StaleReplaced))
	m.set("eventlog.duplicates", float64(ref.elDuplicates))
	m.set("ckpt.image_bytes_last", float64(ref.csImageLast))
	m.set("ckpt.saved_bytes", float64(ref.csSavedBytes))
	sent := float64(ref.ds.SentMsgs)
	m.set("daemon.el_waits_per_msg", ratio(float64(ref.ds.ELWaits), sent))
	m.set("daemon.el_wait_us_per_msg", ratio(float64(ref.ds.ELWaitNS)/1e3, sent))
	m.set("daemon.events_logged_per_msg", ratio(float64(ref.ds.EventsLogged), sent))
	m.set("daemon.retransmits", float64(ref.ds.Retransmits))
	m.set("daemon.chunk_retransmits", float64(ref.ds.ChunkRetransmits))
	m.set("daemon.saved_log_bytes_end", float64(ref.savedLogEnd))
	m.set("daemon.gc_freed_bytes", float64(ref.ds.GCFreedBytes))
	m.set("daemon.replayed", float64(ref.ds.Replayed))
	m.set("daemon.resent", float64(ref.ds.Resent))
	m.set("mpi.payload_MBps", median(ref.rates)*ratio(float64(ref.payloadBytes), float64(ref.msgs))/1e6)

	tr := newTracer()
	env.tr = tr
	traced, err := runWorkload(name, env)
	env.tr = nil
	if err != nil {
		return nil, nil, err
	}
	spec := servicePlane()
	if name == "pingpong_0b" || name == "pingpong_256k" {
		spec = pingpongStack()
	}
	rep := tr.analyze(spec.elq, spec.csq)
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.writeSpans(traceFile); err != nil {
		return nil, nil, err
	}
	tmsgs := float64(traced.msgs)
	m.set("transport.payload_flight_p50_us", rep.flightP50Us)
	m.set("transport.send_busy_us_per_msg", ratio(rep.sendBusyUs, tmsgs))
	m.set("transport.frames_per_msg", ratio(float64(rep.frames), tmsgs))
	m.set("transport.wire_bytes_per_payload_byte", ratio(float64(rep.wireBytes), float64(traced.payloadBytes)))
	m.set("eventlog.ack_wait_p50_us", rep.ackWaitP50Us)
	m.set("eventlog.ack_wait_share", ratio(rep.ackUs, rep.lapUs))
	m.set("ckpt.commit_p50_ms", rep.commitP50Ms)
	m.set("mpi.call_send_p50_us", rep.callSendP50Us)
	m.set("mpi.call_recv_p50_us", rep.callRecvP50Us)
	m.set("harness.traced_lap_us", rep.lapUs)
	m.set("harness.traced_flight_us", rep.flightUs)
	m.set("harness.traced_ack_wait_us", rep.ackUs)
	m.set("harness.traced_residual_us", rep.lapUs-rep.flightUs-rep.ackUs)
	refP50, tracedP50 := median(nsToUs(ref.laps)), median(nsToUs(traced.laps))
	m.set("harness.trace_overhead_pct", 100*(ratio(tracedP50, refP50)-1))

	all := &result{ops: ref.ops + traced.ops, failed: ref.failed + traced.failed,
		problems: append(ref.problems, traced.problems...)}
	failed, problems := runLadder(env, seconds*3/100, m)
	all.failed += failed
	all.problems = append(all.problems, problems...)
	if err := runMicro(seconds*8/1000, env.dir, env.seed, m); err != nil {
		all.problem("microbenchmark: %v", err)
	}
	return m, all, nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print one JSON line")
		seed      = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds   = flag.Int("seconds", runSeconds, "seconds to measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and compare by the bounds")
		record    = flag.String("record", "", "append -runs end-to-end runs per workload to this file")
		runs      = flag.Int("runs", 10, "runs per workload for -record")
		compare   = flag.Bool("compare", false, "apply the paired rule to two recorded files: -compare OLD NEW")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files: OLD NEW"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *selfcheck:
		os.Exit(selfCheck(*seed, *seconds))
	case *record != "":
		os.Exit(recordRuns(*record, *runs, *seed, *seconds))
	case *workload == "":
		os.Exit(runAll(*seed, *seconds))
	default:
		os.Exit(runOne(*workload, *seed, *seconds, *trace))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stack:", err)
	os.Exit(2)
}

// runOne is the driver's contract: one workload, one mode, one JSON
// object as the last line of standard output.
func runOne(name string, seed uint64, seconds, trace int) int {
	guardMemory()
	root := repoRoot()
	work := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)
	budget := time.Duration(seconds) * time.Second
	env := &runEnv{seed: seed, budget: budget, deadline: time.Now().Add(budget + 90*time.Second), dir: work, sz: fullSizes}
	var m metrics
	var res *result
	var err error
	specs := endToEnd
	if trace == 0 {
		m, res, err = endToEndRun(name, env)
	} else {
		specs = perLayer
		m, res, err = tracedRun(name, env, filepath.Join(root, "benchmarks", "stack", "out", "trace-"+name+".json"))
	}
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "stack:", name+":", p)
	}
	fmt.Fprintf(os.Stderr, "stack: %s seed %d: %d ops, %d failed; nproc %d, GOMAXPROCS %d, %s, host loopback (no link)\n",
		name, seed, res.ops, res.failed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	line, _ := json.Marshal(render(specs, m, res))
	fmt.Println(string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}
