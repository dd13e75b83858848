package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mpichv/internal/daemon"
	"mpichv/internal/dispatcher"
	"mpichv/internal/trace"
	"mpichv/internal/transport"
)

// TestMetricsAreTheResultStructs: the registry's daemon.*, el.*, ckpt.*
// and chaos.* counters are Result.Daemon, EL, CS and Chaos field for
// field, and Result.Daemon is the field-wise sum of Result.Daemons. The
// run has all four namespaces at work: checkpoints, a compute kill, an
// event-logger and a checkpoint-server replica kill (so both kinds of
// store have two incarnations to sum) and a lossy fabric.
func TestMetricsAreTheResultStructs(t *testing.T) {
	const n, iters = 4, 50
	finals := make([]float64, n)
	res := Run(Config{
		Impl: V2, N: n,
		Checkpointing:  true,
		ELReplicas:     3, // implies CSReplicas=3, quorum 2
		SchedPeriod:    time.Millisecond,
		DetectionDelay: 3 * time.Millisecond,
		Chaos:          transport.ChaosPolicy{Seed: 17, Drop: 0.01, Delay: 0.02, MaxDelay: 200 * time.Microsecond},
		Faults: []dispatcher.Fault{
			{Time: 8 * time.Millisecond, Rank: ELBase + 1},
			{Time: 10 * time.Millisecond, Rank: CSBase + 1},
			{Time: 30 * time.Millisecond, Rank: 2},
		},
	}, ckptProgram(iters, finals))
	if res.Restarts != 1 || res.ServiceRestarts != 2 {
		t.Fatalf("restarts = %d, service restarts = %d; want 1 and 2", res.Restarts, res.ServiceRestarts)
	}
	if res.Daemon.Checkpoints == 0 || res.CS.Saves == 0 || res.EL.Logged == 0 || res.Chaos.Dropped == 0 {
		t.Fatalf("a subsystem did no work: checkpoints=%d saves=%d logged=%d dropped=%d",
			res.Daemon.Checkpoints, res.CS.Saves, res.EL.Logged, res.Chaos.Dropped)
	}

	var sum daemon.Stats
	sv := reflect.ValueOf(&sum).Elem()
	for _, d := range res.Daemons {
		dv := reflect.ValueOf(d)
		for i := 0; i < dv.NumField(); i++ {
			sv.Field(i).SetInt(sv.Field(i).Int() + dv.Field(i).Int())
		}
	}
	if sum != res.Daemon {
		t.Errorf("Daemon = %+v, want the sum of Daemons %+v", res.Daemon, sum)
	}

	got := res.Metrics.Snapshot().Counters
	for _, c := range []struct {
		ns string
		v  any
	}{{"daemon", res.Daemon}, {"el", res.EL}, {"ckpt", res.CS}, {"chaos", res.Chaos}} {
		want := trace.NewRegistry()
		want.AddStats(c.ns, c.v)
		wantC := want.Snapshot().Counters
		if len(wantC) != reflect.TypeOf(c.v).NumField() {
			t.Errorf("%s: %d counters from a struct of %d fields", c.ns, len(wantC), reflect.TypeOf(c.v).NumField())
		}
		for k, v := range got {
			if strings.HasPrefix(k, c.ns+".") {
				if w, ok := wantC[k]; !ok || v != w {
					t.Errorf("metric %s = %d, struct field = %d (present: %v)", k, v, w, ok)
				}
			}
		}
		for k := range wantC {
			if _, ok := got[k]; !ok {
				t.Errorf("metric %s missing", k)
			}
		}
	}
	// A few names pinned by hand, acronyms included.
	for k, want := range map[string]int64{
		"daemon.el_wait_ns":        res.Daemon.ELWaitNS,
		"daemon.gc_freed_bytes":    res.Daemon.GCFreedBytes,
		"daemon.checkpoints":       res.Daemon.Checkpoints,
		"el.logged":                res.EL.Logged,
		"el.synced_in":             res.EL.SyncedIn,
		"ckpt.saved_bytes":         res.CS.SavedBytes,
		"ckpt.chain_compactions":   res.CS.ChainCompactions,
		"chaos.dropped":            res.Chaos.Dropped,
		"chaos.partitioned":        res.Chaos.Partitioned,
		"daemon.below_quorum_acks": res.Daemon.BelowQuorumAcks,
	} {
		if v, ok := got[k]; !ok || v != want {
			t.Errorf("metric %s = %d (present: %v), want %d", k, v, ok, want)
		}
	}
}
