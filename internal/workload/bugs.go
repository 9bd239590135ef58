package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"extrareq/internal/modeling"
	"extrareq/internal/pmnf"
	"extrareq/internal/profile"
)

// Scaling-bug detection — the original purpose of the Extra-P line of work
// (the paper's reference [5], "Using automated performance modeling to find
// scalability bugs in complex codes"): fit a scaling model per call path
// and flag the paths whose requirement grows super-logarithmically with the
// process count. The paper's requirements-engineering workflow inherits
// this per-location diagnosis (§II-B, §II-C).

// ScalingBug is one flagged call path.
type ScalingBug struct {
	Path   string
	Metric string
	Model  *pmnf.Model
	// PGrowth is the dominant p-factor of the model.
	PGrowth pmnf.Factor
	// Severity is the model value at the reference point divided by its
	// value at the measured baseline — how much this location's requirement
	// inflates between the largest measurement and the target scale.
	Severity float64
	// Share is the path's fraction of the whole-program metric at the
	// reference point.
	Share float64
}

// severityRef is the reference scale for severity ranking.
type severityRef struct{ p, n float64 }

// FindScalingBugs fits every call path's model for the given profile metric
// (a profile metric name such as "flop", "loads" or "stores", or "comm" for
// bytes sent+received) and returns, ranked by severity, the paths whose
// dominant process-count growth is super-logarithmic (polynomial in p, or a
// linear collective). refP and refN define the target scale. Any other
// metric name is an error: it would read zeros everywhere and report a
// clean program.
func FindScalingBugs(c *PathCampaign, metric string, refP, refN float64, opts *modeling.Options) ([]ScalingBug, error) {
	if _, ok := profile.MetricByName(metric); !ok && metric != "comm" {
		var names []string
		for m := profile.Metric(0); m < profile.NumMetrics; m++ {
			names = append(names, m.String())
		}
		return nil, fmt.Errorf("workload: unknown scaling-bug metric %q (have %s, comm)",
			metric, strings.Join(names, ", "))
	}
	if len(c.Samples) == 0 {
		return nil, fmt.Errorf("workload: empty campaign")
	}
	baseP, baseN := measuredMax(c)

	var total float64
	perPath := map[string][]modeling.Measurement{}
	for _, path := range c.AllPaths() {
		ms := pathMetric(c, path, metric)
		nonzero := false
		for _, m := range ms {
			if m.Values[0] > 0 {
				nonzero = true
				break
			}
		}
		if nonzero {
			perPath[path] = ms
		}
	}

	var bugs []ScalingBug
	models := map[string]*pmnf.Model{}
	for path, ms := range perPath {
		o := cloneOptions(opts)
		if metric == "comm" {
			o.Collectives = map[string]bool{"p": true}
		}
		info, err := modeling.FitMulti(modelParams, ms, o)
		if err != nil {
			return nil, fmt.Errorf("workload: fitting %s of %s: %w", metric, path, err)
		}
		models[path] = info.Model
		total += math.Max(info.Model.Eval(refP, refN), 0)
	}

	for path, model := range models {
		fp, ok := model.DominantFactor("p")
		if !ok {
			continue
		}
		if poly, _ := fp.GrowthKey(); poly <= 0 {
			continue // logarithmic or constant growth is healthy
		}
		atRef := model.Eval(refP, refN)
		atBase := model.Eval(baseP, baseN)
		sev := math.Inf(1)
		if atBase > 0 {
			sev = atRef / atBase
		}
		share := 0.0
		if total > 0 {
			share = math.Max(atRef, 0) / total
		}
		bugs = append(bugs, ScalingBug{
			Path:     path,
			Metric:   metric,
			Model:    model,
			PGrowth:  fp,
			Severity: sev,
			Share:    share,
		})
	}
	sort.SliceStable(bugs, func(i, j int) bool { return bugs[i].Severity > bugs[j].Severity })
	return bugs, nil
}

// pathMetric returns measurements for a metric name, where "comm" selects
// bytes sent plus received.
func pathMetric(c *PathCampaign, path, metric string) []modeling.Measurement {
	if metric != "comm" {
		return c.PathMetricMeasurements(path, metric)
	}
	sent := c.PathMetricMeasurements(path, "bytes_sent")
	recv := c.PathMetricMeasurements(path, "bytes_recv")
	out := make([]modeling.Measurement, len(sent))
	for i := range sent {
		out[i] = modeling.Measurement{
			Coords: sent[i].Coords,
			Values: []float64{sent[i].Values[0] + recv[i].Values[0]},
		}
	}
	return out
}

// measuredMax returns the largest measured (p, n).
func measuredMax(c *PathCampaign) (p, n float64) {
	for _, s := range c.Samples {
		p = math.Max(p, float64(s.P))
		n = math.Max(n, float64(s.N))
	}
	return p, n
}

// FormatBug renders one scaling bug as a single diagnostic line.
func FormatBug(b ScalingBug) string {
	return fmt.Sprintf("%s: %s grows like %s with p (model %s): ×%.3g from measured max to target, %.1f%% of program total",
		b.Path, b.Metric, b.PGrowth.Format("p"), b.Model, b.Severity, 100*b.Share)
}

// IsMPIPath reports whether a call path ends in an MPI operation.
func IsMPIPath(path string) bool {
	i := strings.LastIndex(path, "/")
	return i >= 0 && strings.HasPrefix(path[i+1:], "MPI_")
}
