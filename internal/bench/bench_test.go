package bench

import (
	"bytes"
	"testing"
	"time"

	"mpichv/internal/cluster"
	"mpichv/internal/nas"
	"mpichv/internal/sched"
)

// These tests assert the qualitative findings of the paper's evaluation
// on the simulated testbed: who wins, by roughly what factor, and where
// the crossovers fall.

func TestFigure5Shape(t *testing.T) {
	data := Figure5Data(false)
	last := len(data[cluster.P4]) - 1
	p4 := data[cluster.P4][last].MBperS
	v1 := data[cluster.V1][last].MBperS
	v2 := data[cluster.V2][last].MBperS
	t.Logf("4MB bandwidth: P4=%.2f V1=%.2f V2=%.2f MB/s", p4, v1, v2)
	// Paper: P4 11.3, V2 10.7, V1 about half of P4.
	if p4 < 10.5 || p4 > 12 {
		t.Errorf("P4 bandwidth %.2f out of the calibrated 11.3 MB/s band", p4)
	}
	if v2 < 10 || v2 >= p4 {
		t.Errorf("V2 bandwidth %.2f should be just below P4 %.2f", v2, p4)
	}
	if v1 < 0.4*p4 || v1 > 0.6*p4 {
		t.Errorf("V1 bandwidth %.2f should be about half of P4 %.2f", v1, p4)
	}
}

func TestFigure6Shape(t *testing.T) {
	data := Figure6Data(false)
	p4 := data[cluster.P4][0].OneWay
	v1 := data[cluster.V1][0].OneWay
	v2 := data[cluster.V2][0].OneWay
	t.Logf("0-byte one-way latency: P4=%v V1=%v V2=%v", p4, v1, v2)
	within := func(d, want time.Duration) bool {
		return d > want*90/100 && d < want*110/100
	}
	if !within(p4, 77*time.Microsecond) {
		t.Errorf("P4 latency %v, calibration target 77µs", p4)
	}
	if !within(v2, 237*time.Microsecond) {
		t.Errorf("V2 latency %v, calibration target 237µs", v2)
	}
	if v1 <= p4 || v1 >= v2 {
		t.Errorf("V1 latency %v should fall between P4 %v and V2 %v", v1, p4, v2)
	}
}

func TestFigure9Shape(t *testing.T) {
	data := Figure9Data(false)
	find := func(impl cluster.Impl, size int) float64 {
		for _, r := range data[impl] {
			if r.Size == size {
				return r.MBperS
			}
		}
		t.Fatalf("missing size %d", size)
		return 0
	}
	// Paper: V2 reaches about twice the P4 bandwidth at 64 KB; P4
	// wins at small sizes where V2's latency dominates.
	r64 := find(cluster.V2, 64<<10) / find(cluster.P4, 64<<10)
	r1k := find(cluster.V2, 1<<10) / find(cluster.P4, 1<<10)
	t.Logf("V2/P4: 1KB=%.2f 64KB=%.2f", r1k, r64)
	if r64 < 1.5 {
		t.Errorf("V2 should approach 2x P4 at 64KB, got %.2f", r64)
	}
	if r1k > 1.0 {
		t.Errorf("P4 should win at 1KB, got V2/P4=%.2f", r1k)
	}
}

func TestFigure7Shape(t *testing.T) {
	// Quick subset: CG (latency-bound, V2 loses big), FT (bandwidth
	// bound, V2 close), BT (Isend/Waitall pattern, V2 at or above
	// P4). Paper figure 7.
	ratio := func(b nas.Benchmark, procs int) float64 {
		p4 := RunNAS(b, cluster.P4, procs, cluster.Config{})
		v2 := RunNAS(b, cluster.V2, procs, cluster.Config{})
		if !p4.Verified || !v2.Verified {
			t.Fatalf("%s unverified", b.ID())
		}
		return float64(v2.Elapsed) / float64(p4.Elapsed)
	}
	cg := ratio(nas.CG("A"), 8)
	ft := ratio(nas.FT("A"), 8)
	bt := ratio(nas.BT("A"), 9)
	t.Logf("V2/P4 time ratios: CG-A-8=%.2f FT-A-8=%.2f BT-A-9=%.2f", cg, ft, bt)
	if cg < 1.15 {
		t.Errorf("CG should suffer visibly on V2 (ratio %.2f)", cg)
	}
	if ft > 1.30 {
		t.Errorf("FT should stay close to P4 on V2 (ratio %.2f)", ft)
	}
	if bt > 1.05 {
		t.Errorf("BT should match or beat P4 on V2 (ratio %.2f)", bt)
	}
	if !(bt < ft || ft < cg) && !(bt < cg) {
		t.Errorf("ordering should trend BT ≤ FT < CG, got %v %v %v", bt, ft, cg)
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1Data(true)
	// rows: BT-P4, BT-V2, CG-P4, CG-V2.
	btP4, btV2, cgP4, cgV2 := rows[0], rows[1], rows[2], rows[3]
	t.Logf("BT: P4 send=%v wait=%v | V2 send=%v wait=%v", btP4.Send, btP4.Wait, btV2.Send, btV2.Wait)
	t.Logf("CG: P4 total=%v | V2 total=%v", cgP4.Total, cgV2.Total)
	// Paper: P4 spends its time in (I)send, V2 in Wait.
	if btP4.Send < btP4.Wait {
		t.Errorf("P4 BT should be Isend-heavy: send=%v wait=%v", btP4.Send, btP4.Wait)
	}
	if btV2.Wait < btV2.Send {
		t.Errorf("V2 BT should be Wait-heavy: send=%v wait=%v", btV2.Send, btV2.Wait)
	}
	// Paper: V2 increases CG communication time by about 3x (we allow
	// a broad band), and V2 beats P4 on BT's communication total.
	cgRatio := float64(cgV2.Total) / float64(cgP4.Total)
	if cgRatio < 1.5 {
		t.Errorf("V2 should inflate CG comm time substantially, got %.2fx", cgRatio)
	}
	if btV2.Total >= btP4.Total {
		t.Errorf("V2 should lower BT comm total (P4 %v, V2 %v)", btP4.Total, btV2.Total)
	}
}

func TestFigure10Shape(t *testing.T) {
	one := Reexec(1<<10, 1)
	all := Reexec(1<<10, 8)
	r1 := float64(one.Reexec) / float64(one.Reference)
	r8 := float64(all.Reexec) / float64(all.Reference)
	t.Logf("re-execution ratios at 1KB: x=1 %.2f, x=8 %.2f", r1, r8)
	// Paper: one restart re-executes in about half the reference time;
	// all-restart stays below the reference.
	if r1 > 0.75 {
		t.Errorf("single-restart ratio %.2f should be well below 1 (paper ≈ 0.5)", r1)
	}
	if r8 >= 1.0 {
		t.Errorf("8-restart ratio %.2f should stay below the reference", r8)
	}
	if r1 >= r8 {
		t.Errorf("re-execution should grow with restarts: x1=%.2f x8=%.2f", r1, r8)
	}

	// Rendezvous knee: the reference per-byte time jumps between 64KB
	// and 128KB.
	e64 := Reexec(64<<10, 0).Reference
	e128 := Reexec(128<<10, 0).Reference
	perByte64 := float64(e64) / float64(64<<10)
	perByte128 := float64(e128) / float64(128<<10)
	t.Logf("per-byte reference: 64KB=%.2f 128KB=%.2f", perByte64, perByte128)
	if perByte128 < perByte64 {
		t.Errorf("eager→rendezvous switch should show between 64KB and 128KB")
	}
}

func TestFigure11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 11 sweep is slow")
	}
	pts := Figure11Data(true)
	for _, pt := range pts {
		if !pt.Verified {
			t.Errorf("faults=%d: result failed verification", pt.Faults)
		}
		t.Logf("faults=%d time=%v ratio=%.2f restarts=%d ckpts=%d",
			pt.Faults, pt.Elapsed.Round(time.Millisecond), pt.Ratio, pt.Restarts, pt.Ckpts)
	}
	last := pts[len(pts)-1]
	if last.Ratio >= 2.0 {
		t.Errorf("%d faults should stay under 2x the fault-free time, got %.2fx", last.Faults, last.Ratio)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Ratio < 0.95 {
			t.Errorf("faulty run %d faster than fault-free (%.2f)", pts[i].Faults, pts[i].Ratio)
		}
	}
}

func TestSchedulerPolicyClaim(t *testing.T) {
	n := 16
	results := sched.ComparePolicies(n, 4000, 25)
	byKey := map[string]sched.SimResult{}
	for _, r := range results {
		byKey[r.Scheme+"/"+r.Policy] = r
	}
	for _, scheme := range []string{"point-to-point", "all-to-all", "broadcast", "reduce"} {
		rr := byKey[scheme+"/round-robin"]
		ad := byKey[scheme+"/adaptive"]
		t.Logf("%s: rr ckpt=%.0f log=%.0f | adaptive ckpt=%.0f log=%.0f",
			scheme, rr.MeanCkptBytes, rr.MeanLogBytes, ad.MeanCkptBytes, ad.MeanLogBytes)
		// "never provides a worse scheduling" (checkpoint traffic).
		if ad.MeanCkptBytes > rr.MeanCkptBytes*1.01 {
			t.Errorf("%s: adaptive ckpt traffic %.0f worse than round-robin %.0f",
				scheme, ad.MeanCkptBytes, rr.MeanCkptBytes)
		}
	}
	// "up to n times better ... for asynchronous broadcast".
	rr := byKey["broadcast/round-robin"]
	ad := byKey["broadcast/adaptive"]
	if ad.MeanCkptBytes*2 > rr.MeanCkptBytes {
		t.Errorf("broadcast: adaptive %.0f should be far below round-robin %.0f",
			ad.MeanCkptBytes, rr.MeanCkptBytes)
	}
}

func TestELRepQuorumSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos BT sweep takes a while")
	}
	for _, pt := range ELRepData(true) {
		if !pt.Verified {
			t.Errorf("R=%d Q=%d: numerics failed verification", pt.Replicas, pt.Quorum)
		}
		// Quick mode runs only majority quorums, which must always pass
		// the recovery audit — a replica loss may cost redundancy, never
		// a logged event.
		if !pt.AuditOK {
			t.Errorf("R=%d Q=%d: %s", pt.Replicas, pt.Quorum, pt.Audit)
		}
		if pt.Replicas >= 2 && pt.Synced == 0 {
			t.Errorf("R=%d Q=%d: killed replica resynced nothing from its peers", pt.Replicas, pt.Quorum)
		}
	}
}

func TestPerfWindowShape(t *testing.T) {
	// The pipelined determinant window must beat stop-and-wait on the
	// latency-bound small-message burst (where logger round-trips
	// dominate) and never lose anywhere: a deeper window can only
	// overlap waits that stop-and-wait serializes. Stop-and-wait already
	// ships the burst's events as adaptive batches, so what the window
	// adds on top is the overlap of those batches — about 1.15× at 0 B,
	// not the 2.6× it bought over one-frame-per-event logging.
	pts := PerfData(true)
	byKey := func(size, window int) PerfPoint {
		for _, pt := range pts {
			if pt.Size == size && pt.Window == window {
				return pt
			}
		}
		t.Fatalf("missing point size=%d window=%d", size, window)
		return PerfPoint{}
	}
	small := byKey(0, 8)
	t.Logf("0B window=8: %.2fx vs stop-and-wait", small.Speedup)
	if small.Speedup < 1.1 {
		t.Errorf("window=8 speedup %.2fx at 0B, want ≥ 1.1x over stop-and-wait", small.Speedup)
	}
	for _, pt := range pts {
		if pt.Speedup < 0.99 {
			t.Errorf("size=%d window=%d: pipelining SLOWED the run (%.2fx)",
				pt.Size, pt.Window, pt.Speedup)
		}
		if pt.Events == 0 || pt.ELWaits == 0 {
			t.Errorf("size=%d window=%d: workload did not stress WAITLOGGED (events=%d waits=%d)",
				pt.Size, pt.Window, pt.Events, pt.ELWaits)
		}
	}
}

func TestDetSuppShape(t *testing.T) {
	// The suppression acceptance bar: on a deterministic ring the
	// adaptive classifier must log strictly fewer determinants per
	// message than the pessimistic baseline — at least a 2× reduction —
	// and the time spent blocked in WAITLOGGED must drop with it. This
	// is the CI gate bench-smoke runs.
	pts := DetSuppData(true)
	byKey := func(mode string, size int) DetSuppPoint {
		for _, pt := range pts {
			if pt.Mode == mode && pt.Size == size {
				return pt
			}
		}
		t.Fatalf("missing point mode=%s size=%d", mode, size)
		return DetSuppPoint{}
	}
	for _, size := range []int{0, 4 << 10} {
		off, adaptive := byKey("off", size), byKey("adaptive", size)
		if off.Forced == 0 {
			t.Fatalf("size=%d: baseline logged no gated determinants; the workload is broken", size)
		}
		if adaptive.ForcedPerMsg >= off.ForcedPerMsg {
			t.Errorf("size=%d: adaptive forced %.3f determinants/msg, baseline %.3f — no reduction",
				size, adaptive.ForcedPerMsg, off.ForcedPerMsg)
		}
		if adaptive.Forced*2 > off.Forced {
			t.Errorf("size=%d: adaptive forced %d determinants vs baseline %d, want ≥ 2× reduction",
				size, adaptive.Forced, off.Forced)
		}
		if adaptive.Suppressed == 0 {
			t.Errorf("size=%d: adaptive suppressed nothing", size)
		}
		if adaptive.ELWaitUS >= off.ELWaitUS && off.ELWaitUS > 0 {
			t.Errorf("size=%d: WAITLOGGED time did not drop (adaptive %dµs vs off %dµs)",
				size, adaptive.ELWaitUS, off.ELWaitUS)
		}
		t.Logf("size=%d: forced/msg %.3f → %.3f, el-wait %dµs → %dµs, speedup %.2fx",
			size, off.ForcedPerMsg, adaptive.ForcedPerMsg, off.ELWaitUS, adaptive.ELWaitUS, adaptive.Speedup)
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes a while")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			t.Logf("\n%s", buf.String())
		})
	}
}

func TestCkptBenchShape(t *testing.T) {
	// The delta acceptance bar: on the steady-state mostly-stable SAVED
	// log, delta shipping must cut the bytes pushed per checkpoint at
	// least in half, and must cost nothing when it is switched off —
	// delta-off monolithic and delta-off chunked are the same bytes at
	// drop 0 up to per-chunk framing.
	pts := CkptBenchData(true)
	byKey := func(chunk int, delta bool, drop float64) CkptPoint {
		for _, pt := range pts {
			if pt.Chunk == chunk && pt.Delta == delta && pt.Drop == drop {
				return pt
			}
		}
		t.Fatalf("missing point chunk=%d delta=%v drop=%v", chunk, delta, drop)
		return CkptPoint{}
	}
	for _, pt := range pts {
		if pt.Ckpts == 0 {
			t.Errorf("chunk=%d delta=%v drop=%v: no checkpoints completed", pt.Chunk, pt.Delta, pt.Drop)
		}
		if pt.Delta && pt.DeltaCkpts == 0 {
			t.Errorf("chunk=%d drop=%v: delta mode never shipped a delta", pt.Chunk, pt.Drop)
		}
		if !pt.Delta && pt.DeltaCkpts != 0 {
			t.Errorf("chunk=%d drop=%v: %d deltas with delta shipping off", pt.Chunk, pt.Drop, pt.DeltaCkpts)
		}
		if pt.Delta && pt.Reduction < 2 {
			t.Errorf("chunk=%d drop=%v: delta reduction %.2fx, want ≥ 2x", pt.Chunk, pt.Drop, pt.Reduction)
		}
		t.Logf("log=%dKB chunk=%d delta=%v drop=%.1f%%: %d ckpts, %dB/ckpt, %.1fx, retrans=%d",
			pt.LogKB, pt.Chunk, pt.Delta, pt.Drop*100, pt.Ckpts, pt.BytesPerCkpt, pt.Reduction, pt.Retrans)
	}
	mono := byKey(-1, false, 0)
	chunked := byKey(1024, false, 0)
	if chunked.BytesPerCkpt > mono.BytesPerCkpt*110/100 {
		t.Errorf("chunked delta-off ships %dB/ckpt vs monolithic %dB/ckpt; framing overhead above 10%%",
			chunked.BytesPerCkpt, mono.BytesPerCkpt)
	}
}
