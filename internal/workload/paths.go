package workload

import (
	"fmt"
	"sort"
	"strings"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/pmnf"
	"extrareq/internal/profile"
	"extrareq/internal/simmpi"
)

// Per-call-path communication measurement. The paper acquires communication
// "at the granularity of individual function call paths", which "allows
// bottlenecks to be precisely attributed to individual program locations"
// (§II-B). RunWithPaths records, per configuration, the mean per-process
// communication volume of every call path, and FitCommPath models a single
// path's scaling.

// PathSample extends Sample with per-call-path metric attribution.
type PathSample struct {
	Sample
	// PathMetrics maps call paths ("main/cg/MPI_Allreduce") to the mean
	// per-process value of each profile metric recorded there ("flop",
	// "loads", "stores", "bytes_sent", "bytes_recv").
	PathMetrics map[string]map[string]float64 `json:"path_metrics"`
}

// CommByPath returns the per-path communication volume (bytes sent plus
// received).
func (s PathSample) CommByPath() map[string]float64 {
	out := map[string]float64{}
	for path, ms := range s.PathMetrics {
		if v := ms["bytes_sent"] + ms["bytes_recv"]; v > 0 {
			out[path] = v
		}
	}
	return out
}

// PathCampaign is a campaign with call-path attribution.
type PathCampaign struct {
	App     string       `json:"app"`
	Grid    Grid         `json:"grid"`
	Samples []PathSample `json:"samples"`
}

// RunWithPaths measures the app once per grid configuration, serially on
// the caller's goroutine, and attributes communication volume to call
// paths. It is the per-call-path side channel of the Scheduler path: no
// faults, retries, repeats, cache or locality probe (stack distance stays
// 0), so its samples carry the communication metrics that matter here and
// are not a substitute for a campaign.
func RunWithPaths(app apps.App, grid Grid) (*PathCampaign, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	c := &PathCampaign{App: app.Name(), Grid: grid}
	for _, p := range grid.Procs {
		for _, n := range grid.Ns {
			results, err := app.Run(apps.Config{Procs: p, N: n, Seed: grid.Seed})
			if err != nil {
				return nil, fmt.Errorf("workload: %s at p=%d n=%d: %w", app.Name(), p, n, err)
			}
			ps := PathSample{
				Sample:      Sample{P: p, N: n, Values: extract(results, 0)},
				PathMetrics: metricsByPath(results),
			}
			c.Samples = append(c.Samples, ps)
		}
	}
	return c, nil
}

// metricsByPath merges the per-rank profiles and returns the mean
// per-process value of every profile metric per call path.
func metricsByPath(results []simmpi.Result) map[string]map[string]float64 {
	merged := profile.New()
	for _, r := range results {
		merged.Merge(r.Profile)
	}
	out := map[string]map[string]float64{}
	for _, pm := range merged.Flatten() {
		if len(pm.Metrics) == 0 {
			continue
		}
		ms := map[string]float64{}
		for k, v := range pm.Metrics {
			if v != 0 {
				ms[k] = v / float64(len(results))
			}
		}
		if len(ms) > 0 {
			out[pm.Path] = ms
		}
	}
	return out
}

// Paths lists every call path with communication volume, sorted.
func (c *PathCampaign) Paths() []string {
	seen := map[string]bool{}
	for _, s := range c.Samples {
		for p := range s.CommByPath() {
			seen[p] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AllPaths lists every call path with any recorded metric, sorted.
func (c *PathCampaign) AllPaths() []string {
	seen := map[string]bool{}
	for _, s := range c.Samples {
		for p := range s.PathMetrics {
			seen[p] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PathMeasurements converts one call path's communication volumes into
// model-generator input. Configurations where the path did not communicate
// contribute zero.
func (c *PathCampaign) PathMeasurements(path string) []modeling.Measurement {
	var out []modeling.Measurement
	for _, s := range c.Samples {
		out = append(out, modeling.Measurement{
			Coords: []float64{float64(s.P), float64(s.N)},
			Values: []float64{s.CommByPath()[path]},
		})
	}
	return out
}

// PathMetricMeasurements converts one call path's values of an arbitrary
// profile metric ("flop", "loads", ...) into model-generator input.
func (c *PathCampaign) PathMetricMeasurements(path, metric string) []modeling.Measurement {
	var out []modeling.Measurement
	for _, s := range c.Samples {
		var v float64
		if ms, ok := s.PathMetrics[path]; ok {
			v = ms[metric]
		}
		out = append(out, modeling.Measurement{
			Coords: []float64{float64(s.P), float64(s.N)},
			Values: []float64{v},
		})
	}
	return out
}

// FitCommPath models the communication volume of a single call path,
// with the collective basis functions enabled for p.
func FitCommPath(c *PathCampaign, path string, opts *modeling.Options) (*modeling.ModelInfo, error) {
	o := cloneOptions(opts)
	o.Collectives = map[string]bool{"p": true}
	info, err := modeling.FitMulti(modelParams, c.PathMeasurements(path), o)
	if err != nil {
		return nil, fmt.Errorf("workload: fitting comm path %s of %s: %w", path, c.App, err)
	}
	return info, nil
}

// CommHotSpots fits every MPI leaf path and returns them ordered by
// predicted per-process volume at the given configuration, largest first —
// the "which program location will dominate communication at scale"
// question.
type HotSpot struct {
	Path  string
	Model *pmnf.Model
	// Predicted is the model's per-process volume at the query point.
	Predicted float64
}

// CommHotSpots ranks the MPI call paths by extrapolated volume at (p, n).
func CommHotSpots(c *PathCampaign, p, n float64, opts *modeling.Options) ([]HotSpot, error) {
	var out []HotSpot
	for _, path := range c.Paths() {
		if !strings.Contains(path, "MPI_") {
			continue
		}
		info, err := FitCommPath(c, path, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, HotSpot{Path: path, Model: info.Model, Predicted: info.Model.Eval(p, n)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Predicted > out[j].Predicted })
	return out, nil
}

// MetricNames lists the Table I metric identifiers used in Sample.Values.
func MetricNames() []string {
	var out []string
	for _, m := range metrics.All() {
		out = append(out, m.String())
	}
	return out
}
