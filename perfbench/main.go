// Command perfbench is the repository benchmark: time to requirement
// models through extrareq.Run, and reqserve latency through its HTTP API,
// on three seeded workloads. See README.md for the workloads, the metrics
// and how to run one workload at one seed.
//
//	go run . --workload fullgrid-cold --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// measured untraced; with --trace 1 they are the per-layer ones, from
// traced sweeps that alternate with untraced ones, and the line before
// carries the tracing overhead: traced minus untraced.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"extrareq/internal/obs"
)

var workloadNames = []string{"fullgrid-cold", "adaptive-cold", "serve-mix"}

// sweepRec is one sweep: a five-proxy sweep at one grid seed, or one
// serve-mix replay.
type sweepRec struct {
	group   int64   // grid seed (batch); 0 for serve-mix
	ops     float64 // 1 sweep (batch) or the replay's requests (serve-mix)
	wall    float64 // s
	cpu     float64 // s
	allocMB float64
	points  float64 // configurations simulated
	agree   float64 // share of models that agree with their reference
	cal     float64 // CPU s of the calibration kernel run just before the sweep
}

// window is what one measured stretch of a workload produced.
type window struct {
	setup  []setupRound         // one per set-up round
	sweeps []sweepRec           // one per sweep
	lat    []float64            // ms per campaign (batch) or request (serve)
	class  map[string][]float64 // ms per request, by class
	heap   []float64            // MB of live heap at the end of each GC cycle
	proc   procDelta            // the whole measured stretch

	attempted, failed int
	failures, notes   []string
}

func (w *window) fail(format string, a ...any) {
	w.failed++
	if len(w.failures) < 10 {
		w.failures = append(w.failures, fmt.Sprintf(format, a...))
	}
}

func (w *window) note(format string, a ...any) {
	if len(w.notes) < 10 {
		w.notes = append(w.notes, fmt.Sprintf(format, a...))
	}
}

// perSweep aggregates one quantity over the sweeps: the median within
// each group (grid seed), averaged over the groups. Medians keep sweeps
// that the host's CPU steal slowed from setting the value; grouping keeps
// one grid seed's costlier selection from counting more than another's.
func (w *window) perSweep(f func(sweepRec) float64) float64 {
	groups := map[int64][]float64{}
	for _, s := range w.sweeps {
		groups[s.group] = append(groups[s.group], f(s))
	}
	sum := 0.0
	for _, xs := range groups {
		sum += median(xs)
	}
	return sum / float64(max(len(groups), 1))
}

func (w *window) ops() int {
	n := 0.0
	for _, s := range w.sweeps {
		n += s.ops
	}
	return int(n)
}

func (d *procDelta) add(o procDelta) {
	d.Wall += o.Wall
	d.CPU += o.CPU
	d.AllocMB += o.AllocMB
	d.GCCycles += o.GCCycles
	// Weight the GC share by CPU time so replays combine correctly.
	if d.CPU > 0 {
		d.GCCPUFraction += (o.GCCPUFraction - d.GCCPUFraction) * o.CPU / d.CPU
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits are the end-to-end metrics the result line carries, in
// BENCHMARK.json order. Wall-clock latencies and throughput are printed
// with the named metrics but not gated: on a host whose hypervisor steals
// CPU they spread more from run to run than the bound a regression check
// may use. The CPU cost of an op is gated instead, as cpu_s_per_op_norm:
// it covers every layer a workload runs, steal does not count in it, and
// the calibration scaling takes out the drift of the host's speed.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s_per_op_norm", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
	{"points_measured", "count"},
	{"model_agreement", "ratio"},
}

// setupRound is what one set-up round cost. Set-up time is gated as CPU
// time scaled like cpu_s_per_op_norm: on a host whose hypervisor steals
// CPU, the wall time of the same set-up varied 1.5x between runs, and raw
// CPU time moved by a third between two sets of runs as the host's speed
// drifted, while the scaled CPU time measures the work moved into set-up,
// which is what the gate is for.
type setupRound struct {
	wall, cpu float64
	cpuNorm   float64 // cpu scaled by the calibration kernel
}

func setupValues(setup []setupRound, f func(setupRound) float64) []float64 {
	out := make([]float64, len(setup))
	for i, r := range setup {
		out[i] = f(r)
	}
	return out
}

// peakHeapPercentile picks the peak live heap from the GC-cycle samples:
// a high percentile rather than the maximum, which depends on where a
// handful of GC cycles happened to land.
const peakHeapPercentile = 95

func endToEnd(setup []setupRound, w *window) map[string]metric {
	v := map[string]float64{
		"setup_s":           median(setupValues(setup, func(r setupRound) float64 { return r.cpuNorm })),
		"cpu_s_per_op_norm": w.perSweep(func(s sweepRec) float64 { return scaleCPU(s.cpu, s.cal) / s.ops }),
		"alloc_mb_per_op":   w.perSweep(func(s sweepRec) float64 { return s.allocMB / s.ops }),
		"peak_heap_mb":      percentile(w.heap, peakHeapPercentile),
		"points_measured":   w.perSweep(func(s sweepRec) float64 { return s.points }),
		"model_agreement":   w.perSweep(func(s sweepRec) float64 { return s.agree }),
	}
	out := map[string]metric{}
	for _, m := range e2eUnits {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

// named are the metrics under the names the workload's users know them
// by, each with its unit and sample count; they are printed for the
// workloads they apply to.
type named struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func namedMetrics(wl string, setup []setupRound, w *window) map[string]named {
	e2e, ops, n := endToEnd(setup, w), w.ops(), len(w.sweeps)
	out := map[string]named{
		"setup_s":           {e2e["setup_s"].Value, "s", len(setup)},
		"setup_cpu_s":       {median(setupValues(setup, func(r setupRound) float64 { return r.cpu })), "s", len(setup)},
		"setup_wall_s":      {median(setupValues(setup, func(r setupRound) float64 { return r.wall })), "s", len(setup)},
		"cpu_s_per_op":      {w.perSweep(func(s sweepRec) float64 { return s.cpu / s.ops }), "s", ops},
		"cpu_s_per_op_norm": {e2e["cpu_s_per_op_norm"].Value, "s", ops},
		"calibration_s":     {w.perSweep(func(s sweepRec) float64 { return s.cal }), "s", n},
		"alloc_mb_per_op":   {e2e["alloc_mb_per_op"].Value, "MB", ops},
		"peak_heap_mb":      {e2e["peak_heap_mb"].Value, "MB", len(w.heap)},
		"error_ratio":       {ratio(float64(w.failed), float64(w.attempted)), "ratio", w.attempted},
		"sweep_s":           {w.perSweep(func(s sweepRec) float64 { return s.wall }), "s", n},
		"points_measured":   {e2e["points_measured"].Value, "count", n},
		"model_agreement":   {e2e["model_agreement"].Value, "ratio", n},
	}
	if wl == "serve-mix" {
		out["serve_p99_ms"] = named{percentile(w.lat, 99), "ms", len(w.lat)}
		out["serve_rps"] = named{float64(ops) / w.proc.Wall, "1/s", ops}
		total := 0.0
		for _, x := range w.lat {
			total += x
		}
		for _, c := range []string{classHit, classModels, classAssemble, classFresh} {
			out[c+"_p50_ms"] = named{median(w.class[c]), "ms", len(w.class[c])}
			sum := 0.0
			for _, x := range w.class[c] {
				sum += x
			}
			out[c+"_time_share"] = named{ratio(sum, total), "ratio", len(w.class[c])}
		}
		return out
	}
	out["campaign_p50_s"] = named{median(w.lat) / 1e3, "s", len(w.lat)}
	out["campaign_p90_s"] = named{percentile(w.lat, 90) / 1e3, "s", len(w.lat)}
	return out
}

// detail is the line printed before the result: everything a reader
// needs to interpret the numbers.
type detail struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostFacts `json:"host"`
	// StealShare is the share of the host's CPU time its hypervisor took
	// away during the run: the main source of wall-clock noise.
	StealShare float64          `json:"steal_share"`
	Named      map[string]named `json:"named_metrics"`
	// TailPercentile is the highest percentile with at least ten samples
	// beyond it, and Tail the latency there.
	TailPercentile float64           `json:"tail_percentile"`
	Tail           float64           `json:"tail_ms"`
	Failures       []string          `json:"failures,omitempty"`
	Notes          []string          `json:"notes,omitempty"`
	Overhead       map[string]metric `json:"tracing_overhead,omitempty"`
	TraceFile      string            `json:"trace_file,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload to run: fullgrid-cold, adaptive-cold or serve-mix")
	seed := flag.Int64("seed", 42, "workload seed: picks the grid seed and the serve-mix request sequence")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "1 alternates untraced and traced sweeps and reports per-layer metrics")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds int, traced bool) error {
	known := false
	for _, n := range workloadNames {
		known = known || n == wl
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %v)", wl, workloadNames)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	ctx := context.Background()
	d := time.Duration(seconds) * time.Second
	det := detail{Workload: wl, Seed: seed, Seconds: seconds, Trace: traced, Host: readHost()}
	steal0 := readSteal()

	var setup []setupRound
	var untraced, tracedW *window
	var layers map[string]metric
	var tr *tracer
	var err error
	switch wl {
	case "serve-mix":
		b := &serveBench{seq: genServeSeq(seed), checks: newServeChecks()}
		var st *serveTrace
		if traced {
			st = &serveTrace{tr: newTracer()}
		}
		if untraced, tracedW, err = b.measure(d, st); err != nil {
			return err
		}
		setup = append(untraced.setup, tracedW.setup...)
		if traced {
			tr = st.tr
			layers = serveLayers(st, tracedW)
		}
	default:
		b := newBatchBench(wl == "adaptive-cold", seed)
		if setup, err = b.setup(ctx); err != nil {
			return err
		}
		var bt *batchTrace
		if traced {
			bt = &batchTrace{tr: newTracer(), reg: obs.NewRegistry()}
		}
		untraced, tracedW = b.measure(ctx, d, bt)
		if traced {
			tr = bt.tr
			layers = batchLayers(bt, tracedW)
		}
	}

	w := merge(untraced, tracedW)
	res := result{Metrics: endToEnd(setup, untraced)}
	if traced {
		res.Metrics = layers
		det.Overhead = overhead(namedMetrics(wl, setup, untraced), namedMetrics(wl, setup, tracedW))
		det.TraceFile = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", wl, seed))
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(det.TraceFile, tr.snapshot()); err != nil {
			return err
		}
	}
	det.Named = namedMetrics(wl, setup, untraced)
	det.TailPercentile = tailPercentile(len(untraced.lat))
	det.Tail = percentile(untraced.lat, det.TailPercentile)
	det.StealShare = readSteal().since(steal0)
	det.Failures, det.Notes = w.failures, w.notes
	res.Attempted, res.Failed = w.attempted, w.failed
	res.Correct = w.failed == 0 && w.attempted > 0

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(det); err != nil {
		return err
	}
	return enc.Encode(res)
}

// merge combines the untraced and traced windows' operation accounting.
func merge(a, b *window) *window {
	return &window{
		attempted: a.attempted + b.attempted,
		failed:    a.failed + b.failed,
		failures:  append(append([]string(nil), a.failures...), b.failures...),
		notes:     append(append([]string(nil), a.notes...), b.notes...),
	}
}

// notCost are the named metrics that tracing cannot make dearer: set-up
// runs once for both kinds of sweep, the calibration kernel runs outside
// the traced code, and the rest are outcomes, not costs.
var notCost = map[string]bool{
	"setup_s": true, "setup_cpu_s": true, "setup_wall_s": true, "calibration_s": true, "error_ratio": true,
	"points_measured": true, "model_agreement": true,
	"hit_time_share": true, "models_time_share": true, "assemble_time_share": true, "fresh_time_share": true,
}

// overhead is traced minus untraced, per named cost metric, with the
// relative change as a share of the untraced value.
func overhead(untraced, traced map[string]named) map[string]metric {
	out := map[string]metric{}
	for name, u := range untraced {
		if notCost[name] {
			continue
		}
		t := traced[name]
		out[name] = metric{Value: t.Value - u.Value, Unit: u.Unit}
		if u.Value != 0 {
			out[name+".share"] = metric{Value: (t.Value - u.Value) / u.Value, Unit: "ratio"}
		}
	}
	return out
}
