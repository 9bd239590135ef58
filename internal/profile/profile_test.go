package profile

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestEnterExitAndMetrics(t *testing.T) {
	p := New()
	p.Enter("solver")
	p.AddMetric(Flop, 100)
	p.Enter("allreduce")
	p.AddMetric(BytesSent, 64)
	p.Exit("allreduce")
	p.Exit("solver")
	p.AddMetric(Flop, 1)

	if got := p.MetricTotal("flop"); got != 101 {
		t.Errorf("flop total = %g, want 101", got)
	}
	if got := p.PathMetric("main/solver/allreduce", "bytes_sent"); got != 64 {
		t.Errorf("path bytes = %g, want 64", got)
	}
	if got := p.PathMetric("main/solver", "flop"); got != 100 {
		t.Errorf("solver flop = %g, want 100", got)
	}
	if got := p.PathMetric("main/bogus", "flop"); got != 0 {
		t.Errorf("missing path = %g, want 0", got)
	}
	if got := p.PathMetric("wrong-root", "flop"); got != 0 {
		t.Errorf("wrong root = %g, want 0", got)
	}
}

func TestExitMismatchPanics(t *testing.T) {
	p := New()
	p.Enter("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched Exit")
		}
	}()
	p.Exit("b")
}

func TestExitRootPanics(t *testing.T) {
	p := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Exit at root")
		}
	}()
	p.Exit("main")
}

func TestInRegion(t *testing.T) {
	p := New()
	p.InRegion("kernel", func() {
		p.AddMetric(Flop, 5)
		if p.Depth() != 1 {
			t.Errorf("depth inside region = %d, want 1", p.Depth())
		}
	})
	if p.Depth() != 0 {
		t.Errorf("depth after region = %d, want 0", p.Depth())
	}
	if got := p.PathMetric("main/kernel", "flop"); got != 5 {
		t.Errorf("kernel flop = %g, want 5", got)
	}
}

func TestVisitsCount(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		p.InRegion("iter", func() {})
	}
	flat := p.Flatten()
	var found bool
	for _, pm := range flat {
		if pm.Path == "main/iter" {
			found = true
			if pm.Visits != 3 {
				t.Errorf("visits = %d, want 3", pm.Visits)
			}
		}
	}
	if !found {
		t.Fatal("main/iter not in flattened profile")
	}
}

func TestFlattenSorted(t *testing.T) {
	p := New()
	p.InRegion("z", func() {})
	p.InRegion("a", func() {})
	flat := p.Flatten()
	for i := 1; i < len(flat); i++ {
		if flat[i].Path < flat[i-1].Path {
			t.Fatalf("paths not sorted: %q after %q", flat[i].Path, flat[i-1].Path)
		}
	}
}

func TestMergeProfiles(t *testing.T) {
	a := New()
	a.InRegion("solve", func() { a.AddMetric(BytesSent, 10) })
	b := New()
	b.InRegion("solve", func() { b.AddMetric(BytesSent, 20) })
	b.InRegion("io", func() { b.AddMetric(BytesSent, 1) })
	a.Merge(b)
	if got := a.PathMetric("main/solve", "bytes_sent"); got != 30 {
		t.Errorf("merged solve bytes = %g, want 30", got)
	}
	if got := a.PathMetric("main/io", "bytes_sent"); got != 1 {
		t.Errorf("merged io bytes = %g, want 1", got)
	}
	if a.Root().Visits != 2 {
		t.Errorf("merged root visits = %d, want 2 (processes)", a.Root().Visits)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := New()
	p.InRegion("solve", func() {
		p.AddMetric(Flop, 42)
		p.InRegion("inner", func() { p.AddMetric(Flop, 1) })
	})
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profiler
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.PathMetric("main/solve/inner", "flop"); got != 1 {
		t.Errorf("restored inner flop = %g, want 1", got)
	}
	// The restored profiler must be usable for further recording.
	back.InRegion("solve", func() { back.AddMetric(Flop, 8) })
	if got := back.PathMetric("main/solve", "flop"); got != 50 {
		t.Errorf("post-restore solve flop = %g, want 50", got)
	}
}

func TestMetricTotalEmpty(t *testing.T) {
	if got := New().MetricTotal("x"); got != 0 {
		t.Errorf("empty total = %g, want 0", got)
	}
}

// goldenProfile builds a tree exercising every encoding case: nested and
// repeated regions, zero-valued adds (Barrier's empty payload), a region
// with no metric, floats that encode in exponent form, and a merge.
func goldenProfile() *Profiler {
	p := New()
	p.AddMetric(Flop, 3)
	p.Enter("solver")
	p.AddMetric(Flop, 1.5e21)
	p.AddMetric(Loads, 2.5e-7)
	p.Enter("MPI_Barrier")
	p.AddMetric(BytesSent, 0)
	p.AddMetric(BytesRecv, 0)
	p.Exit("MPI_Barrier")
	p.Enter("MPI_Allreduce")
	p.AddMetric(BytesSent, 16)
	p.AddMetric(BytesRecv, 16)
	p.Exit("MPI_Allreduce")
	p.Exit("solver")
	p.Enter("io")
	p.Exit("io")
	p.Enter("solver")
	p.AddMetric(Stores, 7)
	p.Enter("MPI_Allreduce")
	p.AddMetric(BytesSent, 8)
	p.Exit("MPI_Allreduce")
	p.Exit("solver")
	p.Enter("idle")
	p.Exit("idle")
	q := New()
	q.Enter("io")
	q.AddMetric(Stores, 0.1)
	q.Exit("io")
	q.Enter("halo")
	q.AddMetric(BytesRecv, 123456789.25)
	q.Exit("halo")
	p.Merge(q)
	return p
}

// goldenJSON and goldenFlat are the MarshalJSON bytes and Flatten output
// of goldenProfile as produced by the map-per-node profiler the fixed
// slots replaced; the encoding must not change.
const goldenJSON = `{"name":"main","metrics":{"flop":3},"visits":2,"children":[` +
	`{"name":"solver","metrics":{"flop":1.5e+21,"loads":2.5e-7,"stores":7},"visits":2,"children":[` +
	`{"name":"MPI_Barrier","metrics":{"bytes_recv":0,"bytes_sent":0},"visits":1},` +
	`{"name":"MPI_Allreduce","metrics":{"bytes_recv":16,"bytes_sent":24},"visits":2}]},` +
	`{"name":"io","metrics":{"stores":0.1},"visits":2},` +
	`{"name":"idle","visits":1},` +
	`{"name":"halo","metrics":{"bytes_recv":123456789.25},"visits":1}]}`

var goldenFlat = []PathMetrics{
	{"main", 2, map[string]float64{"flop": 3}},
	{"main/halo", 1, map[string]float64{"bytes_recv": 123456789.25}},
	{"main/idle", 1, nil},
	{"main/io", 2, map[string]float64{"stores": 0.1}},
	{"main/solver", 2, map[string]float64{"flop": 1.5e21, "loads": 2.5e-7, "stores": 7}},
	{"main/solver/MPI_Allreduce", 2, map[string]float64{"bytes_recv": 16, "bytes_sent": 24}},
	{"main/solver/MPI_Barrier", 1, map[string]float64{"bytes_recv": 0, "bytes_sent": 0}},
}

func TestGoldenEncoding(t *testing.T) {
	p := goldenProfile()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenJSON {
		t.Errorf("MarshalJSON:\n got %s\nwant %s", data, goldenJSON)
	}
	if got := p.Flatten(); !reflect.DeepEqual(got, goldenFlat) {
		t.Errorf("Flatten:\n got %v\nwant %v", got, goldenFlat)
	}

	// Decoding the golden bytes and encoding again is the identity, and the
	// restored tree flattens the same way.
	var back Profiler
	if err := json.Unmarshal([]byte(goldenJSON), &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != goldenJSON {
		t.Errorf("re-encoded:\n got %s\nwant %s", again, goldenJSON)
	}
	if got := back.Flatten(); !reflect.DeepEqual(got, goldenFlat) {
		t.Errorf("restored Flatten:\n got %v\nwant %v", got, goldenFlat)
	}
}

func TestUnmarshalUnknownMetric(t *testing.T) {
	var p Profiler
	err := json.Unmarshal([]byte(`{"name":"main","children":[{"name":"a","metrics":{"bytes":1}}]}`), &p)
	if err == nil || !strings.Contains(err.Error(), `"bytes"`) {
		t.Fatalf("unknown metric name: err = %v, want one naming it", err)
	}
}

func TestMetricNames(t *testing.T) {
	for m := Metric(0); m < NumMetrics; m++ {
		back, ok := MetricByName(m.String())
		if !ok || back != m {
			t.Errorf("MetricByName(%q) = %v, %v", m.String(), back, ok)
		}
	}
	if _, ok := MetricByName("bytes"); ok {
		t.Error(`MetricByName("bytes") resolved`)
	}
	if v, ok := New().Root().Metric(Flop); v != 0 || ok {
		t.Errorf("unset Flop = %g, %v; want 0, false", v, ok)
	}
}
