package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
)

func TestCounterAddIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Errorf("Counter = %d, want 6", got)
	}
}

// A layer built without a registry resolves nil instruments and updates
// them unconditionally, so every update on a nil instrument, and every
// accessor on a nil registry, must be a no-op.
func TestNilInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpEdges(1, 2, 3))
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	g.Set(1.5)
	h.Observe(0.25)
	h.Observe(math.NaN())
}

func TestGaugeLastValueWins(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Error("zero gauge should read 0")
	}
	g.Set(3.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Errorf("Gauge = %g, want -1.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99.9, 100, 1e6, math.NaN()} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Total != 8 {
		t.Errorf("Total = %d, want 8", s.Total)
	}
	if s.Under != 2 { // 0.5 and NaN
		t.Errorf("Under = %d, want 2", s.Under)
	}
	want := []int64{2, 2, 2} // [1,10): 1,5; [10,100): 10,99.9; [100,inf): 100,1e6
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("Counts[%d] = %d, want %d", i, c, want[i])
		}
	}
	// NaN poisons the sum by design; bucket counts stay exact.
	if !math.IsNaN(s.Sum) {
		t.Errorf("Sum = %g, want NaN (a NaN was observed)", s.Sum)
	}
}

func TestHistogramSum(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(2)
	h.Observe(3.5)
	if got := h.Sum(); got != 5.5 {
		t.Errorf("Sum = %g, want 5.5", got)
	}
	if got := h.Total(); got != 2 {
		t.Errorf("Total = %d, want 2", got)
	}
}

func TestExpEdges(t *testing.T) {
	got := ExpEdges(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpEdges = %v, want %v", got, want)
		}
	}
}

// TestRegistryConcurrentAccess hammers one registry from many goroutines:
// instrument resolution and updates must race-cleanly produce exact totals.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{1, 10}).Observe(5)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["c"]; got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["h"].Total; got != workers*per {
		t.Errorf("histogram total = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["h"].Sum; got != 5*workers*per {
		t.Errorf("histogram sum = %g, want %d", got, 5*workers*per)
	}
}

func TestHistogramFirstEdgesWin(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", []float64{1, 2})
	b := r.Histogram("h", []float64{100, 200, 300})
	if a != b {
		t.Fatal("same name must resolve to one histogram")
	}
	if got := len(r.Snapshot().Histograms["h"].Edges); got != 2 {
		t.Errorf("edges len = %d, want 2 (first creation wins)", got)
	}
}

func TestSnapshotNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zz", "aa", "mm"} {
		r.Counter(n).Inc()
		r.Histogram(n, []float64{1}).Observe(1)
	}
	s := r.Snapshot()
	if !sort.StringsAreSorted(s.CounterNames()) {
		t.Errorf("CounterNames not sorted: %v", s.CounterNames())
	}
	if !sort.StringsAreSorted(s.HistogramNames()) {
		t.Errorf("HistogramNames not sorted: %v", s.HistogramNames())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs").Add(7)
	r.Gauge("pool").Set(4)
	r.Histogram("lat", []float64{1, 10}).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["runs"] != 7 || s.Gauges["pool"] != 4 || s.Histograms["lat"].Total != 1 {
		t.Errorf("round-trip mismatch: %+v", s)
	}
}
