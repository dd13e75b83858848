package cluster

import (
	"reflect"
	"testing"
	"time"

	"mpichv/internal/dispatcher"
	"mpichv/internal/transport"
)

// TestELWindowDeterminismUnderChaos is the guard on the pipelined
// determinant window: under the same seeded link chaos, a run with
// stop-and-wait logging (ELWindow=1) and a run with a deep window
// (ELWindow=8) must produce the exact same application transcript —
// the window changes when WAITLOGGED releases, never what the
// application observes — and both must audit clean.
func TestELWindowDeterminismUnderChaos(t *testing.T) {
	const n, rounds = 4, 15
	// Link-only chaos (no kills): with faults, the two runs legitimately
	// interleave receptions differently before the crash, and replay
	// pins each run only to its own pre-crash order.
	pol := transport.ChaosPolicy{
		Seed:      7,
		Drop:      0.02,
		Duplicate: 0.01,
		Delay:     0.05,
		MaxDelay:  200 * time.Microsecond,
	}
	type run struct {
		res    Result
		finals []uint64
		seqs   [][]uint64
	}
	runWith := func(window int) run {
		res, finals, seqs := chaosRing(Config{
			Impl: V2, N: n,
			ELWindow: window,
			Chaos:    pol,
			Trace:    true,
		}, rounds)
		return run{res, finals, seqs}
	}
	sw, pipe := runWith(1), runWith(8)

	for _, r := range []struct {
		name string
		run  run
	}{{"stop-and-wait", sw}, {"window=8", pipe}} {
		if r.run.res.Chaos.Dropped+r.run.res.Chaos.Duplicated+r.run.res.Chaos.Delayed == 0 {
			t.Errorf("%s: chaos injected nothing", r.name)
		}
		if rep := Audit(r.run.res); !rep.OK() {
			t.Errorf("%s: audit failed: %s", r.name, rep.Summary())
		}
		if hb := AuditTrace(r.run.res); !hb.OK() {
			t.Errorf("%s: hb-audit failed: %s", r.name, hb.Summary())
		}
	}
	if !reflect.DeepEqual(sw.finals, pipe.finals) {
		t.Errorf("final tokens diverged: stop-and-wait %v, window=8 %v", sw.finals, pipe.finals)
	}
	if !reflect.DeepEqual(sw.seqs, pipe.seqs) {
		t.Errorf("delivery transcripts diverged:\nstop-and-wait %v\nwindow=8      %v", sw.seqs, pipe.seqs)
	}
}

// TestCkptChunkingDeterminism is the ablation guard on the checkpoint
// data path: monolithic images, default chunking, a pathological odd
// chunk size, and delta shipping on/off are pure transport choices — a
// rank killed mid-run must restore the exact same state (and hence the
// same finals) under every one of them. The byte-identity of the
// reassembled image itself is pinned in the ckpt package; this pins
// that nothing above it can tell the difference either.
func TestCkptChunkingDeterminism(t *testing.T) {
	const n, iters = 4, 50
	type ablation struct {
		name    string
		chunk   int
		noDelta bool
	}
	cases := []ablation{
		{"monolithic+delta", -1, false},
		{"chunk=default+delta", 0, false},
		{"chunk=97+delta", 97, false},
		{"chunk=default+nodelta", 0, true},
		{"monolithic+nodelta", -1, true},
	}
	want := ckptExpect(n, iters)
	for _, c := range cases {
		finals := make([]float64, n)
		res := Run(Config{
			Impl: V2, N: n,
			Checkpointing:  true,
			ELReplicas:     3,
			SchedPeriod:    2 * time.Millisecond,
			CkptChunk:      c.chunk,
			CkptNoDelta:    c.noDelta,
			DetectionDelay: 3 * time.Millisecond,
			Chaos:          transport.ChaosPolicy{Seed: 31, Drop: 0.01, Delay: 0.02, MaxDelay: 200 * time.Microsecond},
			Faults:         []dispatcher.Fault{{Time: 25 * time.Millisecond, Rank: 2}},
			Trace:          true,
		}, ckptProgram(iters, finals))

		if res.Restarts != 1 {
			t.Errorf("%s: restarts = %d, want 1", c.name, res.Restarts)
		}
		for r, v := range finals {
			if v != want {
				t.Errorf("%s: rank %d acc = %v, want %v", c.name, r, v, want)
			}
		}
		if res.CS.Saves == 0 {
			t.Errorf("%s: no checkpoints stored", c.name)
		}
		if c.noDelta && res.Daemon.DeltaCkpts != 0 {
			t.Errorf("%s: shipped %d deltas with delta shipping disabled", c.name, res.Daemon.DeltaCkpts)
		}
		if !c.noDelta && res.Daemon.DeltaCkpts == 0 {
			t.Errorf("%s: never shipped a delta", c.name)
		}
		if c.chunk < 0 && res.Daemon.ChunkRetransmits != 0 {
			t.Errorf("%s: %d chunk retransmits in monolithic mode", c.name, res.Daemon.ChunkRetransmits)
		}
		if rep := Audit(res); !rep.OK() {
			t.Errorf("%s: %s", c.name, rep.Summary())
		}
		if hb := AuditTrace(res); !hb.OK() {
			t.Errorf("%s: %s", c.name, hb.Summary())
		}
		t.Logf("%s: saves=%d deltas=%d shipped=%dB retrans=%d manifests=%d",
			c.name, res.CS.Saves, res.Daemon.DeltaCkpts, res.Daemon.CkptBytes,
			res.Daemon.ChunkRetransmits, res.Daemon.ManifestFetches)
	}
}
