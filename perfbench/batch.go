package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"extrareq"
	"extrareq/internal/adaptive"
	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/pmnf"
	"extrareq/internal/workload"
)

// The batch workloads (fullgrid-cold, adaptive-cold) are one caller
// running extrareq.Run with models, in sequence, for all five proxies on
// the same 5×5 grid. No cache is configured, so every campaign simulates
// every configuration it selects.
var (
	batchProcs = []int{2, 4, 8, 16, 32}
	batchNs    = []int{128, 256, 512, 1024, 2048}
)

// How many grid seeds one run cycles through. Which configurations an
// adaptive campaign selects, and so what it costs, depends on the grid
// seed; averaging every run over a dozen seeds keeps one seed's luck from
// setting a run's numbers. A fixed grid costs the same at every seed, so
// fullgrid-cold needs only one seed per set-up round.
const (
	fixedGridSeeds    = 3
	adaptiveGridSeeds = 12
)

// gridSeeds derives n grid seeds from the benchmark seed, which is itself
// the first of them.
func gridSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := []int64{seed}
	for len(out) < n {
		out = append(out, rng.Int63n(1<<31))
	}
	return out
}

// batchSpecs are one sweep's campaigns at one grid seed, which drives the
// simulated measurement jitter.
func batchSpecs(gridSeed int64) []extrareq.Spec {
	var specs []extrareq.Spec
	for _, app := range extrareq.PaperAppNames() {
		specs = append(specs, extrareq.Spec{App: app, Grid: workload.Grid{
			Procs: append([]int(nil), batchProcs...),
			Ns:    append([]int(nil), batchNs...),
			Seed:  gridSeed,
		}})
	}
	return specs
}

// modelSet is one campaign's fitted models per Table II metric.
type modelSet map[metrics.Metric]*pmnf.Model

// fingerprint renders every model with full-precision coefficients, so
// two sets agree exactly when model strings and coefficients are equal.
func (m modelSet) fingerprint() string {
	s := ""
	for _, k := range metrics.All() {
		s += k.String() + "=" + m[k].Format(func(c float64) string {
			return strconv.FormatFloat(c, 'g', -1, 64)
		}) + ";"
	}
	return s
}

func modelsOf(r *workload.FitResult) (modelSet, error) {
	if r == nil {
		return nil, fmt.Errorf("no models")
	}
	out := modelSet{}
	for _, m := range metrics.All() {
		info := r.Info[m]
		if info == nil || info.Model == nil {
			return nil, fmt.Errorf("no %s model", m)
		}
		out[m] = info.Model
	}
	return out, nil
}

// agrees applies the rule the adaptive tests use: the same growth shape,
// or predictions within 10% at the grid's (p_max, n_max) corner.
func agrees(a, ref *pmnf.Model) bool {
	if adaptive.ModelShape(a) == adaptive.ModelShape(ref) {
		return true
	}
	p := float64(batchProcs[len(batchProcs)-1])
	n := float64(batchNs[len(batchNs)-1])
	va, vr := a.Eval(p, n), ref.Eval(p, n)
	d := math.Max(math.Abs(va), math.Abs(vr))
	return d == 0 || math.Abs(va-vr)/d <= 0.10
}

// campaignResult is what one campaign gave back.
type campaignResult struct {
	models modelSet
	work   campaignWork
}

// campaignWork is what one campaign did, as its registry and outcome
// count it. The traced path must do exactly what extrareq.Run does.
type campaignWork struct {
	measured, fitTasks, adaptiveRounds float64
}

func workOf(measured int, reg regTotals) campaignWork {
	return campaignWork{measured: float64(measured), fitTasks: reg.fitTasks, adaptiveRounds: reg.adaptiveRounds}
}

// runOne is one campaign through extrareq.Run, exactly as a user calls it,
// with a registry of its own so its work can be counted.
func runOne(ctx context.Context, spec extrareq.Spec, adaptiveRun bool) (campaignResult, error) {
	reg := obs.NewRegistry()
	opts := []extrareq.Option{extrareq.WithObservability(reg, nil)}
	if adaptiveRun {
		opts = append(opts, extrareq.WithAdaptiveGrid(extrareq.AdaptiveOptions{}))
	}
	res, err := extrareq.Run(ctx, spec, opts...)
	if err != nil {
		return campaignResult{}, err
	}
	ms, err := modelsOf(res.Requirements)
	return campaignResult{models: ms, work: workOf(res.PointsMeasured, readRegTotals(reg))}, err
}

// batchTrace is the traced run's shared instrumentation.
type batchTrace struct {
	tr    *tracer
	reg   *obs.Registry
	run   runnerCounts
	stats campaign.Stats
}

// runOneTraced composes the same calls extrareq.Run makes — a fresh
// in-memory scheduler, the campaign (fixed-grid or adaptive), then one
// model fit with a fresh fit cache — with the scheduler wrapped, so each
// layer is timed from outside. The sweep checks that it measures, fits and
// refines exactly as much as Run does for the same campaign.
func runOneTraced(ctx context.Context, spec extrareq.Spec, adaptiveRun bool, bt *batchTrace) (campaignResult, error) {
	app, ok := apps.ByName(spec.App)
	if !ok {
		return campaignResult{}, fmt.Errorf("unknown app %q", spec.App)
	}
	reg0 := readRegTotals(bt.reg)
	root, t0 := bt.tr.begin()
	defer bt.tr.end(root, 0, "bench.campaign", t0)
	ctx = withSpan(ctx, root)
	sched, err := campaign.New(campaign.Options{})
	if err != nil {
		return campaignResult{}, err
	}
	defer sched.Close()
	r := &tracedRunner{Scheduler: sched, tr: bt.tr, n: &bt.run}
	req := campaign.Request{App: app, Grid: spec.Grid, Metrics: bt.reg}
	var c *workload.Campaign
	var measured int
	if adaptiveRun {
		id, t1 := bt.tr.begin()
		res, err := adaptive.Run(withSpan(ctx, id), r, req, adaptive.Options{})
		bt.tr.end(id, root, "adaptive.run", t1)
		if err != nil {
			return campaignResult{}, err
		}
		c, measured = res.Campaign, res.PointsMeasured
	} else {
		out, err := r.Run(ctx, req)
		if err != nil {
			return campaignResult{}, err
		}
		c, measured = out.Campaign, out.PointsMeasured
	}
	addStats(&bt.stats, sched.Stats())
	id, t2 := bt.tr.begin()
	fits, _, err := workload.FitAllObserved([]*workload.Campaign{c}, nil, 0, modeling.NewFitCache(), bt.reg)
	bt.tr.end(id, root, "modeling.fit", t2)
	if err != nil {
		return campaignResult{}, err
	}
	ms, err := modelsOf(fits[0])
	return campaignResult{models: ms, work: workOf(measured, readRegTotals(bt.reg).sub(reg0))}, err
}

func addStats(dst *campaign.Stats, s campaign.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.PointHits += s.PointHits
	dst.PointMisses += s.PointMisses
	dst.Bytes += s.Bytes
	dst.DiskErrors += s.DiskErrors
}

// batchBench holds one batch workload's inputs and its set-up reference.
type batchBench struct {
	adaptive bool
	seeds    []int64
	ref      map[int64][]modelSet // fixed-grid models per grid seed, from set-up
	// first holds the fingerprints of the first adaptive sweep per grid
	// seed; fixed-grid sweeps are checked against ref instead.
	first map[int64][]string
	// work is what extrareq.Run did for each campaign of the first
	// untraced sweep per grid seed; work[seed][i] for the i-th app.
	work map[int64][]campaignWork
}

func newBatchBench(adaptiveRun bool, seed int64) *batchBench {
	n := fixedGridSeeds
	if adaptiveRun {
		n = adaptiveGridSeeds
	}
	return &batchBench{adaptive: adaptiveRun, seeds: gridSeeds(seed, n),
		ref: map[int64][]modelSet{}, first: map[int64][]string{}, work: map[int64][]campaignWork{}}
}

const setupRounds = 3

// setup computes the fixed-grid reference models the measured sweeps are
// checked against, one full sweep per grid seed, split over setupRounds
// rounds of equal work; it returns what each round cost. The calibration
// kernel runs before each sweep, as in the measured sweeps.
func (b *batchBench) setup(ctx context.Context) ([]setupRound, error) {
	var rounds []setupRound
	for round := 0; round < setupRounds; round++ {
		var r setupRound
		for i := round; i < len(b.seeds); i += setupRounds {
			g := b.seeds[i]
			cal := calibrate()
			p0 := readProc()
			for _, spec := range batchSpecs(g) {
				res, err := runOne(ctx, spec, false)
				if err != nil {
					return nil, fmt.Errorf("set-up %s: %w", spec.App, err)
				}
				b.ref[g] = append(b.ref[g], res.models)
			}
			d := p0.to(readProc())
			r.wall, r.cpu, r.cpuNorm = r.wall+d.Wall, r.cpu+d.CPU, r.cpuNorm+scaleCPU(d.CPU, cal)
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// measure runs whole cycles of sweeps, one sweep per grid seed, until d
// has passed; the calibration kernel runs before each sweep. With bt
// non-nil the cycles alternate between untraced and traced, ending on a
// traced one, so both windows see the same warm-up and host conditions;
// the traced cycles go to the second window.
func (b *batchBench) measure(ctx context.Context, d time.Duration, bt *batchTrace) (untraced, traced *window) {
	untraced, traced = &window{}, &window{}
	hp := startLiveHeap()
	defer hp.finish()
	deadline := time.Now().Add(d)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline) || (bt != nil && cycle%2 == 1); cycle++ {
		w, t := untraced, (*batchTrace)(nil)
		if bt != nil && cycle%2 == 1 {
			w, t = traced, bt
		}
		c0 := readProc()
		for _, g := range b.seeds {
			cal := calibrate()
			s0 := readProc()
			rec := b.sweep(ctx, g, w, t)
			d := s0.to(readProc())
			rec.wall, rec.cpu, rec.allocMB, rec.cal = d.Wall, d.CPU, d.AllocMB, cal
			w.sweeps = append(w.sweeps, rec)
			w.heap = append(w.heap, hp.take()...)
		}
		w.proc.add(c0.to(readProc()))
	}
	return untraced, traced
}

// sweep runs the five campaigns at grid seed g and checks them. A
// fixed-grid sweep must reproduce the set-up reference exactly; an
// adaptive sweep must reproduce the run's first sweep at g. Every sweep
// must measure, fit and refine exactly as much as the first untraced
// sweep at g did through extrareq.Run, so the traced path cannot drift
// from what Run does.
func (b *batchBench) sweep(ctx context.Context, g int64, w *window, bt *batchTrace) sweepRec {
	points, agreeing, total := 0, 0, 0
	ref := b.ref[g]
	firstSweep := b.work[g] == nil
	var fps []string
	var work []campaignWork
	for i, spec := range batchSpecs(g) {
		c0 := time.Now()
		var res campaignResult
		var err error
		if bt != nil {
			res, err = runOneTraced(ctx, spec, b.adaptive, bt)
		} else {
			res, err = runOne(ctx, spec, b.adaptive)
		}
		w.lat = append(w.lat, msSince(c0))
		w.attempted++
		if err != nil {
			w.fail("%s: %v", spec.App, err)
			fps, work = append(fps, ""), append(work, campaignWork{})
			continue
		}
		points += int(res.work.measured)
		fps, work = append(fps, res.models.fingerprint()), append(work, res.work)
		for _, m := range metrics.All() {
			total++
			if agrees(res.models[m], ref[i][m]) {
				agreeing++
			} else if firstSweep {
				w.note("grid seed %d, %s %s: model %s outside the fixed-grid rule (reference %s)",
					g, spec.App, m, res.models[m], ref[i][m])
			}
		}
	}
	if firstSweep {
		b.work[g] = work
		if b.adaptive {
			b.first[g] = fps
		}
	}
	for i, fp := range fps {
		if fp == "" {
			continue
		}
		app := extrareq.PaperAppNames()[i]
		if b.adaptive && fp != b.first[g][i] {
			w.fail("grid seed %d, %s: models differ from the first sweep", g, app)
		}
		if !b.adaptive && fp != ref[i].fingerprint() {
			w.fail("grid seed %d, %s: models differ from the set-up reference", g, app)
		}
		if work[i] != b.work[g][i] {
			w.fail("grid seed %d, %s: did %+v, extrareq.Run did %+v",
				g, app, work[i], b.work[g][i])
		}
	}
	return sweepRec{group: g, ops: 1, points: float64(points), agree: ratio(float64(agreeing), float64(total))}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
