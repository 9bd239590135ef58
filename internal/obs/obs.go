// Package obs is the observability substrate of the measurement stack: a
// lock-cheap metrics registry (counters, gauges, bounded histograms) and a
// per-rank ring-buffer event tracer for the simulated MPI runtime.
//
// The paper's method rests on trusting measured counts at the hw/sw
// interface (§II, Table I); obs makes the harness itself measurable, so a
// surprising model or a retried campaign can be diagnosed from what the
// ranks actually did instead of re-run blind. The design follows the usual
// production split: instruments are created once (a mutex-guarded
// registry), then updated on hot paths with a single atomic operation and
// no allocation; trace events go into per-rank rings owned by exactly one
// goroutine, so tracing adds no synchronization to the runtime at all.
//
// Instruments are nil-safe: a nil *Registry hands out nil instruments, and
// every update on a nil *Counter, *Gauge or *Histogram is a no-op. Each
// layer therefore resolves the instruments it reports into once, from a
// registry that may be nil, holds them as plain fields or locals, and
// updates them unconditionally; there are no per-layer wrapper types and
// no nil checks at the call sites.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (retries, quarantines,
// cache hits). Updates are a single atomic add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored: counters only grow).
// A nil counter ignores every update.
func (c *Counter) Add(d int64) {
	if c != nil && d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins metric (pool size, in-flight runs).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. A nil gauge ignores it.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the most recently stored value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed, bounded buckets: one bucket
// per half-open interval [Edges[i], Edges[i+1]), an implicit overflow
// bucket [Edges[last], +inf), and an underflow count below Edges[0]. The
// bucket layout is immutable after creation, so Observe is a binary search
// plus one atomic increment — safe for concurrent use with no locking.
type Histogram struct {
	edges  []float64
	counts []atomic.Int64 // len(edges): counts[i] covers [edges[i], edges[i+1])
	under  atomic.Int64
	sum    atomic.Uint64 // CAS-accumulated float64 bits of the running sum
	total  atomic.Int64
}

func newHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			panic(fmt.Sprintf("obs: histogram edges not ascending at %d", i))
		}
	}
	e := make([]float64, len(edges))
	copy(e, edges)
	return &Histogram{edges: e, counts: make([]atomic.Int64, len(e))}
}

// Observe records one observation. NaN counts as underflow. A nil
// histogram ignores it.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.total.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	if math.IsNaN(v) || v < h.edges[0] {
		h.under.Add(1)
		return
	}
	lo, hi := 0, len(h.edges)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.edges[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	h.counts[lo].Add(1)
}

// Total returns the number of observations, including underflow.
func (h *Histogram) Total() int64 { return h.total.Load() }

// Sum returns the running sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot captures a consistent-enough view for reporting (individual
// loads are atomic; cross-bucket skew is bounded by in-flight Observes).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Edges:  append([]float64(nil), h.edges...),
		Counts: make([]int64, len(h.counts)),
		Under:  h.under.Load(),
		Total:  h.total.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpEdges returns n ascending bucket edges starting at start and growing
// by factor — the usual layout for latency histograms.
func ExpEdges(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExpEdges wants n >= 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds named instruments. Lookup/creation takes a mutex;
// instruments themselves are updated lock-free, so the intended pattern is
// to resolve instruments once per campaign (or cache the pointer) and hit
// only atomics afterwards.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given edges
// on first use. Later calls ignore edges (the first creation wins), so
// concurrent instrument resolution is safe. A nil registry returns a nil
// (no-op) histogram.
func (r *Registry) Histogram(name string, edges []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(edges)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Edges  []float64 `json:"edges"`
	Counts []int64   `json:"counts"`
	Under  int64     `json:"under,omitempty"`
	Total  int64     `json:"total"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time view of a registry, with deterministic
// (name-sorted) iteration order for rendering and golden tests.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// CounterNames returns the counter names of a snapshot in sorted order.
func (s Snapshot) CounterNames() []string {
	out := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HistogramNames returns the histogram names of a snapshot in sorted order.
func (s Snapshot) HistogramNames() []string {
	out := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
