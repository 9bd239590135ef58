package workload

import (
	"math"
	"strings"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/counters"
	"extrareq/internal/pmnf"
)

func TestRunWithPathsAttributesComm(t *testing.T) {
	c, err := RunWithPaths(apps.NewMILC(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Samples) != 25 {
		t.Fatalf("got %d samples", len(c.Samples))
	}
	paths := c.Paths()
	var haveAllreduce, haveHalo bool
	for _, p := range paths {
		if strings.Contains(p, "cg/MPI_Allreduce") {
			haveAllreduce = true
		}
		if strings.Contains(p, "halo") {
			haveHalo = true
		}
	}
	if !haveAllreduce || !haveHalo {
		t.Fatalf("missing expected call paths in %v", paths)
	}
	// Per-path volumes must sum to the whole-program comm volume.
	for _, s := range c.Samples {
		var sum float64
		for _, v := range s.CommByPath() {
			sum += v
		}
		total := s.Values["bytes_sent_recv"]
		if total <= 0 {
			t.Fatalf("sample p=%d n=%d has no comm", s.P, s.N)
		}
		if diff := (sum - total) / total; diff > 0.01 || diff < -0.01 {
			t.Errorf("p=%d n=%d: path sum %g != total %g", s.P, s.N, sum, total)
		}
	}
}

// Every value the runtime counts is also attributed to exactly one call
// path: summed over paths, the per-path means equal the per-process
// counter means, for every proxy, at a power-of-two p and at one that is
// not.
func TestPathSumsMatchCounters(t *testing.T) {
	grid := Grid{Procs: []int{3, 8}, Ns: []int{64}, Seed: 11}
	for _, app := range apps.All() {
		c, err := RunWithPaths(app, grid)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range c.Samples {
			results, err := app.Run(apps.Config{Procs: s.P, N: s.N, Seed: grid.Seed})
			if err != nil {
				t.Fatal(err)
			}
			mean := func(events ...counters.Event) float64 {
				var sum int64
				for _, r := range results {
					for _, e := range events {
						sum += r.Counters.Value(e)
					}
				}
				return float64(sum) / float64(len(results))
			}
			pathSum := func(names ...string) float64 {
				var sum float64
				for _, ms := range s.PathMetrics {
					for _, n := range names {
						sum += ms[n]
					}
				}
				return sum
			}
			for _, chk := range []struct {
				name       string
				paths, ctr float64
			}{
				{"flop", pathSum("flop"), mean(counters.FLOP)},
				{"loads", pathSum("loads"), mean(counters.Load)},
				{"stores", pathSum("stores"), mean(counters.Store)},
				{"bytes_sent+bytes_recv", pathSum("bytes_sent", "bytes_recv"), mean(counters.BytesSent, counters.BytesRecv)},
			} {
				if math.Abs(chk.paths-chk.ctr) > 1e-9*math.Max(1, chk.ctr) {
					t.Errorf("%s p=%d n=%d %s: path sum %g != counter mean %g",
						app.Name(), s.P, s.N, chk.name, chk.paths, chk.ctr)
				}
			}
			if got, want := mean(counters.FLOP), s.Values["flop"]; got != want {
				t.Errorf("%s p=%d n=%d: rerun flop mean %g != campaign value %g", app.Name(), s.P, s.N, got, want)
			}
		}
	}
}

func TestFitCommPathAllreduceShape(t *testing.T) {
	c, err := RunWithPaths(apps.NewMILC(), Grid{
		Procs: []int{2, 4, 8, 16, 32},
		Ns:    []int{128, 256, 512, 1024, 2048},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var allreducePath string
	for _, p := range c.Paths() {
		if strings.HasSuffix(p, "cg/MPI_Allreduce") {
			allreducePath = p
		}
	}
	if allreducePath == "" {
		t.Fatal("allreduce path not found")
	}
	info, err := FitCommPath(c, allreducePath, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The CG allreduce volume is ∝ 2·log2(p), independent of n.
	fp, ok := info.Model.DominantFactor("p")
	if !ok {
		t.Fatalf("allreduce path model %s has no p growth", info.Model)
	}
	if poly, lg := fp.GrowthKey(); poly > 0.2 || lg == 0 {
		t.Errorf("allreduce path p factor %+v, want logarithmic (model %s)", fp, info.Model)
	}
	if _, ok := info.Model.DominantFactor("n"); ok {
		// A small n-dependence could sneak in via jittered iteration
		// counts; it must not be polynomial.
		fn, _ := info.Model.DominantFactor("n")
		if poly, _ := fn.GrowthKey(); poly > 0.2 {
			t.Errorf("allreduce path has polynomial n growth: %s", info.Model)
		}
	}
}

func TestCommHotSpots(t *testing.T) {
	c, err := RunWithPaths(apps.NewMILC(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := CommHotSpots(c, 1<<20, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot spots found")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Predicted > hot[i-1].Predicted {
			t.Fatalf("hot spots not sorted: %v", hot)
		}
	}
	// MILC's n-proportional halo dominates at large n (the paper's 10^9·n
	// comm term).
	if !strings.Contains(hot[0].Path, "halo") {
		t.Errorf("top hot spot = %s, want the halo exchange", hot[0].Path)
	}
	for _, h := range hot {
		if h.Model == nil {
			t.Errorf("hot spot %s missing model", h.Path)
		}
	}
	_ = pmnf.Allreduce
}

func TestMetricNames(t *testing.T) {
	names := MetricNames()
	if len(names) != 5 {
		t.Fatalf("got %d metric names", len(names))
	}
	for _, n := range names {
		if n == "" {
			t.Error("empty metric name")
		}
	}
}

func TestRunWithPathsValidation(t *testing.T) {
	if _, err := RunWithPaths(apps.NewKripke(), Grid{}); err == nil {
		t.Fatal("empty grid accepted")
	}
}
