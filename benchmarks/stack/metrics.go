package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricSpec is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

type workloadSpec struct {
	Name string
	Why  string
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

var workloads = []workloadSpec{
	{"pingpong_0b", "2 ranks, 0-byte round trips, one message in flight: every lap crosses the WAITLOGGED gate twice, so per-message fixed costs do all the work and the payload path does none (paper Fig 6)"},
	{"pingpong_256k", "same stack, 256 KiB rendezvous payloads: copies, the sender-based log and frame writes do the work; per-message event logging is a small share (paper Fig 5)"},
	{"halo_ckpt", "4 ranks, 3 event loggers, 2 checkpoint servers, 8 messages in flight and a checkpoint every 250 iterations: the only concurrency at the loggers, and chunk writes beside event appends (paper Figs 7-8)"},
	{"ring_recover", "same service plane, a rank is killed mid-run and replays a fixed number of laps from its checkpoint: recovery code does the work; fault-free optimisations should not move it (paper Fig 10)"},
}

// Every workload reports every end-to-end metric, as the driver
// requires. stall_p50_ms is what makes that possible for checkpoint
// stalls and recovery time: see README.md.
//
// The bounds of the timing metrics are set by the sandbox, not by the
// metrics: undisturbed, ten runs spread 1-5 % (quartile distance over
// median), but the 2-core VM slows down by 1.7x for ~25 s every few
// minutes, two consecutive runs land in it, and two such runs in ten
// stretch the quartile distance to 15-20 %. Smaller changes are resolved
// by -compare on alternating pairs.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"lap_p50_us", "us", "lower", 0.25},
	{"lap_p99_us", "us", "lower", 0.25},
	{"msgs_per_s", "1/s", "higher", 0.25},
	{"stall_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayer lists the layer metrics in README order: the source of each
// (S timed public calls or a fake client, L ladder rung, T traced run,
// C counters of an untraced run) is in the README's table.
var perLayer = []metricSpec{
	// wire
	lower("wire.payload_encode_ns", "ns"),
	lower("wire.payload_decode_ns", "ns"),
	lower("wire.eventlog_encode_ns", "ns"),
	lower("wire.eventlog_decode_ns", "ns"),
	lower("wire.allocs_per_op", "count"),
	// vtime
	lower("vtime.mailbox_hop_ns", "ns"),
	// transport
	lower("transport.tcp_frame_rtt_p50_us", "us"),
	lower("transport.p4_tcp_lap_p50_us", "us"),
	lower("transport.payload_flight_p50_us", "us"),
	lower("transport.send_busy_us_per_msg", "us"),
	lower("transport.frames_per_msg", "count"),
	higher("transport.tcp_stream_MBps", "MB/s"),
	lower("transport.wire_bytes_per_payload_byte", "ratio"),
	lower("transport.tcp_allocs_per_frame", "count"),
	lower("transport.tcp_dials", "count"),
	lower("transport.tcp_retransmits", "count"),
	lower("transport.tcp_dropped_frames", "count"),
	lower("transport.tcp_stale_replaced", "count"),
	// walog
	lower("walog.append_small_ns", "ns"),
	lower("walog.v2_tcp_wal_lap_p50_us", "us"),
	higher("walog.append_chunk_MBps", "MB/s"),
	higher("walog.load_MBps", "MB/s"),
	// eventlog
	lower("eventlog.store_add_ns", "ns"),
	lower("eventlog.submit_ack_p50_us", "us"),
	lower("eventlog.v2_tcp_nowal_lap_p50_us", "us"),
	lower("eventlog.ack_wait_p50_us", "us"),
	lower("eventlog.ack_wait_share", "ratio"),
	lower("eventlog.quorum_ack_p50_us", "us"),
	lower("eventlog.v2_tcp_q3_lap_p50_us", "us"),
	higher("eventlog.submits_per_s_4clients", "1/s"),
	higher("eventlog.fetch_events_per_s", "1/s"),
	lower("eventlog.duplicates", "count"),
	// ckpt
	higher("ckpt.image_encode_MBps", "MB/s"),
	higher("ckpt.image_decode_MBps", "MB/s"),
	higher("ckpt.put_chunk_MBps", "MB/s"),
	lower("ckpt.materialize_ms", "ms"),
	lower("ckpt.save_commit_p50_ms", "ms"),
	lower("ckpt.commit_p50_ms", "ms"),
	lower("ckpt.image_bytes_last", "B"),
	lower("ckpt.saved_bytes", "B"),
	higher("ckpt.fetch_MBps", "MB/s"),
	// core
	lower("core.send_commit_ns", "ns"),
	higher("core.snapshot_encode_MBps", "MB/s"),
	higher("core.replay_events_per_s", "1/s"),
	// daemon
	lower("daemon.v2_mem_lap_p50_us", "us"),
	lower("daemon.el_waits_per_msg", "ratio"),
	lower("daemon.el_wait_us_per_msg", "us"),
	lower("daemon.events_logged_per_msg", "ratio"),
	lower("daemon.v2_tcp_detadaptive_lap_p50_us", "us"),
	lower("daemon.retransmits", "count"),
	lower("daemon.chunk_retransmits", "count"),
	lower("daemon.saved_log_bytes_end", "B"),
	higher("daemon.gc_freed_bytes", "B"),
	lower("daemon.replayed", "count"),
	lower("daemon.resent", "count"),
	// mpi
	lower("mpi.p4_mem_lap_p50_us", "us"),
	lower("mpi.call_send_p50_us", "us"),
	lower("mpi.call_recv_p50_us", "us"),
	lower("mpi.eager_64k_lap_p50_us", "us"),
	lower("mpi.rndv_64k1_lap_p50_us", "us"),
	higher("mpi.payload_MBps", "MB/s"),
	// whole worker, and the harness itself
	lower("proc.allocs_per_msg", "count"),
	lower("proc.cpu_s_per_1k_msgs", "s"),
	lower("proc.alloc_bytes_per_payload_byte", "ratio"),
	lower("proc.gc_pause_ms", "ms"),
	lower("harness.traced_lap_us", "us"),
	lower("harness.traced_flight_us", "us"),
	lower("harness.traced_ack_wait_us", "us"),
	lower("harness.traced_residual_us", "us"),
	lower("harness.trace_overhead_pct", "%"),
}

// metrics is what one run emits: name → value, units from the specs.
type metrics map[string]float64

// set stores a finite value; a division by a zero count (a metric that
// does not apply to this workload) reads 0.
func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// procStatusKB reads one "kB" field of /proc/self/status (VmHWM, VmRSS).
func procStatusKB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(field+":")) {
			f := bytes.Fields(line)
			if len(f) >= 2 {
				v, _ := strconv.ParseFloat(string(f[1]), 64)
				return v
			}
		}
	}
	return 0
}

// cpuTime is user+system CPU time of this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
