package trace

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a typed metrics registry: named counters, gauges and
// histograms with one uniform export path (Snapshot) feeding the
// vbench -json artifacts. The per-actor Stats structs remain the
// zero-cost collection layer on hot paths; the cluster harness and the
// soak fold them into a Registry at teardown with AddStats, so every
// run exports the same namespaced metric set regardless of which
// subsystem produced it.
//
// All methods are safe for concurrent use; instruments are created on
// first touch and live for the registry's lifetime.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a point-in-time value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates observations into power-of-two buckets plus
// exact count/sum/min/max, which is cheap, allocation-free after
// construction, and deterministic — quantiles are reported as bucket
// upper bounds.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [64]int64 // buckets[i] counts v with 2^(i-1) < v <= 2^i (buckets[0]: v <= 1)
}

func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v)))
	if b > 63 {
		b = 63
	}
	return b
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// HistStats is a histogram summary suitable for JSON export.
type HistStats struct {
	Count         int64
	Sum, Min, Max float64
	Mean          float64
	P50, P90, P99 float64
}

// Stats summarizes the histogram. Quantiles are upper bounds of the
// bucket containing the quantile rank.
func (h *Histogram) Stats() HistStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	q := func(p float64) float64 {
		rank := int64(math.Ceil(p * float64(h.count)))
		var seen int64
		for i, n := range h.buckets {
			seen += n
			if seen >= rank {
				if i == 0 {
					return 1
				}
				return math.Pow(2, float64(i))
			}
		}
		return h.max
	}
	s.P50, s.P90, s.P99 = q(0.50), q(0.90), q(0.99)
	return s
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddStats folds a subsystem's counter struct (or a pointer to one)
// into the registry: every int64 field, embedded structs included,
// becomes the counter ns + "." + the field name in snake case (ELWaitNS
// → el_wait_ns, GCFreedBytes → gc_freed_bytes). The struct is the only
// list of a subsystem's counters; this is their one path into the
// registry. Counters accumulate, so folding several structs under one
// namespace sums them.
func (r *Registry) AddStats(ns string, v any) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	for _, f := range int64Fields(rv.Type(), nil) {
		r.Counter(ns + "." + f.name).Add(rv.FieldByIndex(f.index).Int())
	}
}

// SumStats adds every int64 field of src into the same field of *dst.
func SumStats[T any](dst *T, src T) {
	d := StatsFields(dst)
	for i, f := range StatsFields(&src) {
		*d[i] += *f
	}
}

// LoadStats copies a counter struct that live goroutines bump with
// sync/atomic, reading every int64 field with an atomic load.
func LoadStats[T any](src *T) T {
	var out T
	d := StatsFields(&out)
	for i, f := range StatsFields(src) {
		*d[i] = atomic.LoadInt64(f)
	}
	return out
}

// StatsFields returns a pointer to every int64 field of the counter
// struct p points to, in declaration order, embedded structs included:
// the order AddStats folds them in and a text form can print them in.
func StatsFields(p any) []*int64 {
	rv := reflect.ValueOf(p).Elem()
	fs := int64Fields(rv.Type(), nil)
	out := make([]*int64, len(fs))
	for i, f := range fs {
		out[i] = rv.FieldByIndex(f.index).Addr().Interface().(*int64)
	}
	return out
}

type statsField struct {
	name  string
	index []int
}

// int64Fields lists the exported int64 fields of struct type t in
// declaration order, descending into embedded structs.
func int64Fields(t reflect.Type, prefix []int) []statsField {
	var out []statsField
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		index := append(append([]int(nil), prefix...), i)
		switch {
		case sf.Anonymous && sf.Type.Kind() == reflect.Struct:
			out = append(out, int64Fields(sf.Type, index)...)
		case sf.IsExported() && sf.Type.Kind() == reflect.Int64:
			out = append(out, statsField{snakeCase(sf.Name), index})
		}
	}
	return out
}

// snakeCase lower-cases a Go field name, starting a new word at every
// upper-case letter that follows a lower-case one or ends an acronym
// (ELWaitNS → el_wait_ns).
func snakeCase(s string) string {
	isUpper := func(c byte) bool { return 'A' <= c && c <= 'Z' }
	isLower := func(c byte) bool { return 'a' <= c && c <= 'z' || '0' <= c && c <= '9' }
	b := make([]byte, 0, len(s)+4)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isUpper(c) {
			if i > 0 && (isLower(s[i-1]) || isUpper(s[i-1]) && i+1 < len(s) && isLower(s[i+1])) {
				b = append(b, '_')
			}
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}

// Snapshot is a consistent, JSON-friendly export of every instrument.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistStats
}

// Snapshot exports the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]string, 0, len(r.counters))
	for k := range r.counters {
		counters = append(counters, k)
	}
	gauges := make([]string, 0, len(r.gauges))
	for k := range r.gauges {
		gauges = append(gauges, k)
	}
	hists := make([]string, 0, len(r.hists))
	for k := range r.hists {
		hists = append(hists, k)
	}
	cm, gm, hm := r.counters, r.gauges, r.hists
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistStats, len(hists)),
	}
	for _, k := range counters {
		s.Counters[k] = cm[k].Value()
	}
	for _, k := range gauges {
		s.Gauges[k] = gm[k].Value()
	}
	for _, k := range hists {
		s.Histograms[k] = hm[k].Stats()
	}
	return s
}

// Format renders the snapshot as sorted "name value" lines for logs.
func (s Snapshot) Format() string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "counter %s %d\n", k, s.Counters[k])
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "gauge %s %g\n", k, s.Gauges[k])
	}
	keys = keys[:0]
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "hist %s count=%d mean=%.3g p50=%.3g p99=%.3g\n", k, h.Count, h.Mean, h.P50, h.P99)
	}
	return b.String()
}
