package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	r.Counter("x").Add(4)
	if c.Value() != 7 {
		t.Errorf("counter = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(1.5)
	r.Gauge("y").Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %g", g.Value())
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 5 || s.Sum != 1015 || s.Min != 1 || s.Max != 1000 {
		t.Errorf("stats: %+v", s)
	}
	if s.Mean != 203 {
		t.Errorf("mean = %g", s.Mean)
	}
	// Quantiles are bucket upper bounds: rank ceil(.5*5)=3 lands in the
	// bucket of 4, rank ceil(.99*5)=5 in the bucket of 1000 (2^10).
	if s.P50 != 4 {
		t.Errorf("p50 = %g", s.P50)
	}
	if s.P99 != 1024 {
		t.Errorf("p99 = %g", s.P99)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if s := h.Stats(); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty stats: %+v", s)
	}
	h.Observe(-5) // clamped to zero
	if s := h.Stats(); s.Min != 0 || s.Max != 0 || s.Count != 1 {
		t.Errorf("clamped stats: %+v", s)
	}
	// A sample beyond 2^63 still lands in the last bucket.
	h.Observe(1e300)
	if s := h.Stats(); s.Count != 2 || s.Max != 1e300 {
		t.Errorf("huge stats: %+v", s)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1e300, 63}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

// statsFixture has the field shapes the subsystem Stats structs use:
// acronyms at either end of a name, an embedded struct, and fields
// that are not counters.
type statsFixture struct {
	ELWaitNS     int64
	GCFreedBytes int64
	embeddedStats
	Label  string // not an int64: never folded
	Rounds int    // not an int64 either
	hidden int64  // unexported: never folded
}

type embeddedStats struct {
	FramesIn int64
	SyncedIn int64
}

func TestAddStats(t *testing.T) {
	v := statsFixture{ELWaitNS: 1, GCFreedBytes: 2, Label: "x", Rounds: 9, hidden: 7}
	v.FramesIn, v.SyncedIn = 3, 4
	r := NewRegistry()
	r.AddStats("d", v)
	r.AddStats("d", &v) // a pointer folds the same fields; counters accumulate
	want := map[string]int64{"d.el_wait_ns": 2, "d.gc_freed_bytes": 4, "d.frames_in": 6, "d.synced_in": 8}
	if got := r.Snapshot().Counters; !reflect.DeepEqual(got, want) {
		t.Errorf("counters = %v, want %v", got, want)
	}
}

func TestSumAndLoadStats(t *testing.T) {
	a := statsFixture{ELWaitNS: 1, GCFreedBytes: 2, Label: "a", Rounds: 1, hidden: 1}
	a.FramesIn, a.SyncedIn = 3, 4
	b := statsFixture{ELWaitNS: 10, GCFreedBytes: 20, Label: "b", Rounds: 2, hidden: 2}
	b.FramesIn, b.SyncedIn = 30, 40
	SumStats(&a, b)
	want := statsFixture{ELWaitNS: 11, GCFreedBytes: 22, Label: "a", Rounds: 1, hidden: 1}
	want.FramesIn, want.SyncedIn = 33, 44
	if a != want {
		t.Errorf("sum = %+v, want %+v", a, want)
	}
	got := LoadStats(&a)
	want.Label, want.Rounds, want.hidden = "", 0, 0 // only the counters are copied
	if got != want {
		t.Errorf("load = %+v, want %+v", got, want)
	}
	fs := StatsFields(&a)
	if len(fs) != 4 || fs[0] != &a.ELWaitNS || fs[2] != &a.FramesIn || fs[3] != &a.SyncedIn {
		t.Errorf("fields = %v: want the four int64 fields in declaration order", fs)
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"ELWaitNS": "el_wait_ns", "GCFreedBytes": "gc_freed_bytes", "SyncedIn": "synced_in",
		"FramesIn": "frames_in", "DetEpochFlushes": "det_epoch_flushes", "Dials": "dials",
		"BelowQuorumAcks": "below_quorum_acks", "CkptBytes": "ckpt_bytes",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSnapshotAndFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(7)
	s := r.Snapshot()
	if s.Counters["a.count"] != 1 || s.Counters["b.count"] != 2 {
		t.Errorf("counters: %v", s.Counters)
	}
	if s.Gauges["g"] != 3 {
		t.Errorf("gauges: %v", s.Gauges)
	}
	if s.Histograms["h"].Count != 1 {
		t.Errorf("histograms: %v", s.Histograms)
	}
	out := s.Format()
	if !strings.Contains(out, "counter a.count 1") ||
		!strings.Contains(out, "gauge g 3") ||
		!strings.Contains(out, "hist h count=1") {
		t.Errorf("format:\n%s", out)
	}
	// Sorted render: a.count before b.count.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Error("counters not sorted")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(float64(j))
				r.Histogram("h").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != 800 {
		t.Errorf("counter = %d, want 800", v)
	}
	if s := r.Histogram("h").Stats(); s.Count != 800 {
		t.Errorf("histogram count = %d, want 800", s.Count)
	}
}
