// Package adaptive closes the measurement loop the ROADMAP calls
// model-driven adaptive experiment design: instead of measuring a fixed
// (p, n) grid, a campaign starts from a minimal seed that satisfies the
// paper's five-point rule per axis (the grid's baseline lines), fits the
// requirement models, scores the remaining grid configurations by expected
// model-confidence gain, and measures only the most informative batch —
// repeating until the winning model strings are stable and leave-one-out
// cross-validation stops improving, or until a hard point budget is
// reached.
//
// The engine composes with the existing machinery instead of replacing it:
// every selected configuration is measured as a 1×1-grid sub-request
// through a campaign scheduler, so the shared worker pool, fault
// injection, retries/quarantine, observability, and the point cache all
// apply unchanged. Because ComputePointKey excludes the grid axes, the
// points an adaptive run measures are the same cache entries a fixed-grid
// campaign of the same spec would write — a fleet mixing adaptive and
// fixed-grid campaigns over one store converges together, measuring each
// point at most once.
//
// Determinism: the seed, the scores, the tie-breaks, and the stopping rule
// are all pure functions of the request and the (deterministic) measured
// bytes, and batch results are folded in canonical grid order regardless
// of scheduling. Two adaptive runs of the same request and options are
// byte-identical, across repeats and worker counts — which is what makes
// the campaign-level cache entry (keyed by the seed spec + adaptive
// options) sound.
package adaptive

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"sync"

	"extrareq/internal/campaign"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/pmnf"
	"extrareq/internal/workload"
)

// Options tune the refinement loop. The zero value selects the documented
// defaults; all numeric fields participate in the adaptive cache key.
type Options struct {
	// BatchSize is the number of configurations measured per refinement
	// round; <= 0 selects max(1, fullGrid/8).
	BatchSize int
	// MaxPoints is the hard budget on selected configurations (seed
	// included); <= 0 selects half the full grid, which guarantees the
	// ≤ 50% measurement bound. The five-point-rule seed is always
	// measured, even when it alone exceeds the budget.
	MaxPoints int
	// Improvement is the relative cross-validated-SMAPE improvement below
	// which a refit with unchanged winning model strings counts as
	// stable; <= 0 selects 0.02.
	Improvement float64
	// StableRounds is the number of consecutive stable refits required to
	// converge; <= 0 selects 1.
	StableRounds int
	// Progress, when non-nil, receives refinement updates (for job
	// snapshots). Like the observability handles it does not participate
	// in the cache key.
	Progress func(Update) `json:"-"`
}

// Update is one refinement progress snapshot. Saved stays 0 until the run
// finishes (the engine cannot know what it will skip before it stops), so
// the value is monotone over a run's updates.
type Update struct {
	// Round counts fits over the measured set (the seed fit is round 1).
	Round int
	// Selected is the number of configurations chosen so far.
	Selected int
	// FullGrid is the size of the requested grid.
	FullGrid int
	// Saved is FullGrid minus the final selection; 0 while running.
	Saved int
	// Done marks the final update of a run.
	Done bool
}

// defaults resolves the documented default for every unset numeric field,
// given the full-grid size. ComputeKey hashes the resolved values, so an
// explicit Options{BatchSize: 3} and the zero value share a key on a grid
// whose default batch is 3 — they run identically.
func (o Options) defaults(fullGrid int) Options {
	if o.BatchSize <= 0 {
		o.BatchSize = max(1, fullGrid/8)
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = fullGrid / 2
	}
	if o.Improvement <= 0 {
		o.Improvement = 0.02
	}
	if o.StableRounds <= 0 {
		o.StableRounds = 1
	}
	return o
}

// Runner is the scheduler surface the engine needs: measurement with the
// full point-cache machinery, plus lookup/publish of campaign-level
// entries for the adaptive key. *campaign.Scheduler implements it, and so
// does the serve layer's Runner.
type Runner interface {
	Run(ctx context.Context, req campaign.Request) (*campaign.Outcome, error)
	Lookup(ctx context.Context, key campaign.Key) ([]byte, bool)
	PutEntry(ctx context.Context, key campaign.Key, data []byte) error
}

// Result is a finished adaptive campaign. Campaign.Grid holds the full
// requested grid (the spec), while Campaign.Samples holds only the
// selected configurations' samples; Report.Configs counts the selection.
// The embedded Outcome carries Key, the adaptive campaign key (the
// fixed-grid key of the seed spec salted with the resolved adaptive
// options); CacheHit, set when nothing was measured; and PointsReused /
// PointsMeasured, which split the selected configurations by assembly
// path (point-cache hit vs. executed).
type Result struct {
	campaign.Outcome
	// PointsSaved counts full-grid configurations never selected at all.
	PointsSaved int
	// FullGridPoints is the size of the requested grid.
	FullGridPoints int
	// Rounds counts fits over the measured set (0 for a cache hit).
	Rounds int
	// Converged reports the run stopped on the stability rule rather than
	// the point budget (cache hits report true).
	Converged bool
}

// ComputeKey returns the campaign-level cache address of an adaptive run:
// the fixed-grid key of the seed spec (app, grid, seed, repeats, faults,
// retries, min-points) salted with the resolved adaptive options. Two
// requests share the key exactly when the refinement they describe is
// byte-identical.
func ComputeKey(req campaign.Request, opts Options) campaign.Key {
	procs, ns := axisValues(req.Grid.Procs), axisValues(req.Grid.Ns)
	o := opts.defaults(len(procs) * len(ns))
	h := sha256.New()
	fmt.Fprintf(h, "extrareq/adaptive/v%d\n", campaign.KeyVersion)
	fmt.Fprintf(h, "base:%s\n", campaign.ComputeKey(req))
	fmt.Fprintf(h, "batch:%d\nmaxpoints:%d\nimprovement:%g\nstable:%d\n",
		o.BatchSize, o.MaxPoints, o.Improvement, o.StableRounds)
	var k campaign.Key
	h.Sum(k[:0])
	return k
}

// Run executes one adaptive campaign through r. The request is the seed
// spec — exactly what a fixed-grid campaign would take; Grid is the full
// candidate grid, of which the engine measures a subset.
func Run(ctx context.Context, r Runner, req campaign.Request, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Grid.Validate(); err != nil {
		return nil, err
	}
	reg := req.Metrics
	e := &engine{
		r:          r,
		req:        req,
		procs:      axisValues(req.Grid.Procs),
		ns:         axisValues(req.Grid.Ns),
		mRounds:    reg.Counter(obs.MetricAdaptiveRounds),
		mMeasured:  reg.Counter(obs.MetricAdaptivePointsMeasured),
		mReused:    reg.Counter(obs.MetricAdaptivePointsReused),
		mSaved:     reg.Counter(obs.MetricAdaptivePointsSaved),
		mConverged: reg.Counter(obs.MetricAdaptiveConverged),
		mBudget:    reg.Counter(obs.MetricAdaptiveBudgetStop),
		mCacheHit:  reg.Counter(obs.MetricAdaptiveCacheHit),
	}
	e.full = len(e.procs) * len(e.ns)
	e.opts = opts.defaults(e.full)
	e.key = ComputeKey(req, opts)
	e.samples = make(map[[2]int]workload.Sample, e.opts.MaxPoints)
	e.outcomes = make(map[[2]int]workload.ConfigOutcome, e.opts.MaxPoints)
	return e.run(ctx)
}

// engine is the per-run state of one refinement loop.
type engine struct {
	r    Runner
	req  campaign.Request
	opts Options
	key  campaign.Key

	// adaptive_* instruments, resolved once per run (nil without a
	// registry).
	mRounds, mMeasured, mReused, mSaved *obs.Counter
	mConverged, mBudget, mCacheHit      *obs.Counter

	procs, ns []int // sorted distinct axis values
	full      int

	mu       sync.Mutex // guards the fields below during batch measurement
	samples  map[[2]int]workload.Sample
	outcomes map[[2]int]workload.ConfigOutcome
	reused   int
	measured int
	done     int // selected configurations finished, for Progress
	plan     string

	rounds    int
	converged bool
}

func (e *engine) run(ctx context.Context) (*Result, error) {
	// Byte-identical repeats come straight from the adaptive campaign
	// entry, exactly like fixed-grid repeats.
	if data, ok := e.r.Lookup(ctx, e.key); ok {
		if c, rep, err := campaign.Decode(e.key, data); err == nil {
			e.mCacheHit.Inc()
			sel := rep.Configs
			e.reportProgress(sel, sel, 0)
			e.update(Update{Round: 0, Selected: sel, FullGrid: e.full,
				Saved: e.full - sel, Done: true})
			return &Result{
				Outcome: campaign.Outcome{Campaign: c, Report: rep, Key: e.key,
					CacheHit: true, PointsReused: sel},
				PointsSaved: e.full - sel, FullGridPoints: e.full, Converged: true,
			}, nil
		}
	}

	if err := e.measure(ctx, e.seedPoints()); err != nil {
		return nil, err
	}
	fitPrev, errPrev := e.fit()
	e.rounds++
	e.mRounds.Inc()
	e.update(Update{Round: e.rounds, Selected: e.selected(), FullGrid: e.full})

	stable := 0
	for {
		remaining := e.remaining()
		if len(remaining) == 0 {
			e.converged = true // the whole grid is measured; nothing to refine
			break
		}
		if e.selected() >= e.opts.MaxPoints {
			break // budget stop
		}
		k := min(e.opts.BatchSize, e.opts.MaxPoints-e.selected())
		batch := e.pick(remaining, fitPrev, k)
		if err := e.measure(ctx, batch); err != nil {
			return nil, err
		}
		fitCur, errCur := e.fit()
		e.rounds++
		e.mRounds.Inc()
		e.update(Update{Round: e.rounds, Selected: e.selected(), FullGrid: e.full})
		if errPrev == nil && errCur == nil &&
			sameModels(fitPrev, fitCur) && maxImprovement(fitPrev, fitCur) < e.opts.Improvement {
			stable++
		} else {
			stable = 0
		}
		fitPrev, errPrev = fitCur, errCur
		if stable >= e.opts.StableRounds {
			e.converged = true
			break
		}
	}
	return e.finish(ctx)
}

// finish assembles the campaign + report from the per-point records in
// canonical grid order, publishes the adaptive campaign entry, and emits
// the final progress update.
func (e *engine) finish(ctx context.Context) (*Result, error) {
	pts := e.selectedPoints()
	samples := make([]workload.Sample, len(pts))
	outcomes := make([]workload.ConfigOutcome, len(pts))
	for i, pt := range pts {
		samples[i], outcomes[i] = e.samples[pt], e.outcomes[pt]
	}
	c, rep, err := workload.Assemble(e.req.App.Name(), e.plan, e.req.Grid, samples, outcomes, e.req.MinPoints)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Outcome: campaign.Outcome{Campaign: c, Report: rep, Key: e.key,
			PointsReused: e.reused, PointsMeasured: e.measured},
		PointsSaved:    e.full - e.selected(),
		FullGridPoints: e.full,
		Rounds:         e.rounds,
		Converged:      e.converged,
	}
	res.CacheHit = res.PointsMeasured == 0
	if e.converged {
		e.mConverged.Inc()
	} else {
		e.mBudget.Inc()
	}
	e.mSaved.Add(int64(res.PointsSaved))
	// Publish the finished run under the adaptive key so repeats are
	// byte-identical cache hits. Best-effort like every cache write: a
	// degraded store must not fail a measured campaign.
	if data, err := campaign.EncodeEntry(e.key, e.req.App.Name(), c, rep); err == nil {
		_ = e.r.PutEntry(ctx, e.key, data)
	}
	e.update(Update{Round: e.rounds, Selected: e.selected(), FullGrid: e.full,
		Saved: res.PointsSaved, Done: true})
	return res, nil
}

func (e *engine) selected() int { return len(e.outcomes) }

func (e *engine) update(u Update) {
	if e.opts.Progress != nil {
		e.opts.Progress(u)
	}
}

// reportProgress forwards cumulative, monotone counts to the request's
// campaign-style callbacks. total is always the full grid size: the spec
// the caller asked about, of which an adaptive run completes only the
// selected part.
func (e *engine) reportProgress(done, reused, measured int) {
	if e.req.Progress != nil {
		e.req.Progress(done, e.full)
	}
	if e.req.PointProgress != nil {
		e.req.PointProgress(reused, measured)
	}
}

// seedPoints returns the baseline lines of the grid — every (p, n_min) and
// (p_min, n) — in canonical order. The seed covers every distinct value of
// both axes, so it satisfies the five-point rule exactly when the
// requested grid does: adaptive refinement can never introduce a coverage
// warning the full grid would not also have reported.
func (e *engine) seedPoints() [][2]int {
	var pts [][2]int
	pMin, nMin := e.procs[0], e.ns[0]
	for _, p := range e.procs {
		for _, n := range e.ns {
			if p == pMin || n == nMin {
				pts = append(pts, [2]int{p, n})
			}
		}
	}
	return pts
}

// selectedPoints returns the selected configurations in canonical
// (p-major, n-minor) grid order.
func (e *engine) selectedPoints() [][2]int {
	pts := make([][2]int, 0, len(e.outcomes))
	for _, p := range e.procs {
		for _, n := range e.ns {
			if _, ok := e.outcomes[[2]int{p, n}]; ok {
				pts = append(pts, [2]int{p, n})
			}
		}
	}
	return pts
}

// remaining returns the unselected configurations in canonical order.
func (e *engine) remaining() [][2]int {
	var pts [][2]int
	for _, p := range e.procs {
		for _, n := range e.ns {
			if _, ok := e.outcomes[[2]int{p, n}]; !ok {
				pts = append(pts, [2]int{p, n})
			}
		}
	}
	return pts
}

// measure runs every point of the batch as a 1×1-grid sub-request through
// the scheduler, concurrently, and folds the results into the engine's
// per-point records. Results are keyed by configuration, so the fold order
// (and therefore every downstream byte) is independent of scheduling.
func (e *engine) measure(ctx context.Context, pts [][2]int) error {
	outs := make([]*campaign.Outcome, len(pts))
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	for i, pt := range pts {
		wg.Add(1)
		go func(i int, pt [2]int) {
			defer wg.Done()
			sub := e.req
			sub.Grid = workload.Grid{Procs: []int{pt[0]}, Ns: []int{pt[1]},
				Seed: e.req.Grid.Seed, Repeats: e.req.Grid.Repeats}
			// MinPoints 1: a single point is complete coverage of its own
			// 1×1 grid; the adaptive report applies the real threshold to
			// the assembled selection instead.
			sub.MinPoints = 1
			sub.Progress = nil
			sub.PointProgress = nil
			outs[i], errs[i] = e.r.Run(ctx, sub)
			e.fold(pt, outs[i], errs[i])
		}(i, pt)
	}
	wg.Wait()
	var batchReused, batchMeasured int
	for i, err := range errs {
		if err != nil && !quarantinedRun(outs[i]) {
			return fmt.Errorf("adaptive: measuring (p=%d, n=%d): %w", pts[i][0], pts[i][1], err)
		}
		if out := outs[i]; out == nil || out.Report == nil || len(out.Report.Outcomes) != 1 {
			return fmt.Errorf("adaptive: measuring (p=%d, n=%d): runner returned no outcome record",
				pts[i][0], pts[i][1])
		}
		batchReused += outs[i].PointsReused
		batchMeasured += outs[i].PointsMeasured
	}
	e.mReused.Add(int64(batchReused))
	e.mMeasured.Add(int64(batchMeasured))
	return nil
}

// fold records one sub-run's result under the engine lock and forwards
// monotone cumulative progress. A sub-run whose only configuration was
// quarantined returns an all-lost error together with a report carrying
// the genuine quarantine record — the same record a fixed-grid campaign
// stores for that point — so it is folded like any other outcome.
func (e *engine) fold(pt [2]int, out *campaign.Outcome, err error) {
	if err != nil && !quarantinedRun(out) {
		return
	}
	if out == nil || out.Report == nil || len(out.Report.Outcomes) != 1 {
		// A Runner that breaks the one-point contract; measure reports it.
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.outcomes[pt] = out.Report.Outcomes[0]
	if out.Campaign != nil && len(out.Campaign.Samples) == 1 {
		e.samples[pt] = out.Campaign.Samples[0]
	}
	if out.Report.Plan != "" {
		e.plan = out.Report.Plan
	}
	e.reused += out.PointsReused
	e.measured += out.PointsMeasured
	e.done++
	e.reportProgress(e.done, e.reused, e.measured)
}

// quarantinedRun reports whether a failed 1×1 sub-run is the all-lost case
// (its single configuration exhausted the retry budget), which the engine
// treats as a quarantined point rather than a run failure.
func quarantinedRun(out *campaign.Outcome) bool {
	return out != nil && out.Report != nil &&
		len(out.Report.Outcomes) == 1 && out.Report.Outcomes[0].Quarantined
}

// fit generates the five requirement models from the measured set so far.
// MinPoints is lowered to the axis size for grids below the five-point
// rule — the interim fits guide point selection; the caller's final fit
// applies its own threshold. A fit error (e.g. an axis value lost to
// quarantine) is tolerated: selection falls back to pure extrapolation
// leverage and the stability rule cannot advance.
func (e *engine) fit() (*workload.FitResult, error) {
	c := &workload.Campaign{App: e.req.App.Name(), Grid: e.req.Grid}
	for _, pt := range e.selectedPoints() {
		if s, ok := e.samples[pt]; ok {
			c.Samples = append(c.Samples, s)
		}
	}
	opts := modeling.DefaultOptions()
	opts.MinPoints = min(opts.MinPoints, len(e.procs), len(e.ns))
	return workload.Fit(c, opts)
}

// pick scores the remaining candidates and returns the top k. The score of
// a candidate is the interpolated leave-one-out error of the current
// models around it (how poorly the models predict that neighbourhood from
// their other points) weighted by extrapolation leverage toward large p
// and n — the paper's requirements are extrapolations to exascale, so
// confidence at the top of the grid is worth more than in the interior.
// Ties break deterministically toward larger p, then larger n.
func (e *engine) pick(remaining [][2]int, fit *workload.FitResult, k int) [][2]int {
	type scored struct {
		pt    [2]int
		score float64
	}
	cands := make([]scored, len(remaining))
	for i, pt := range remaining {
		u := e.uncertainty(fit, pt)
		lev := 1 + (e.axisPos(e.procs, pt[0])+e.axisPos(e.ns, pt[1]))/2
		cands[i] = scored{pt: pt, score: u * lev}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].pt[0] != cands[j].pt[0] {
			return cands[i].pt[0] > cands[j].pt[0]
		}
		return cands[i].pt[1] > cands[j].pt[1]
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([][2]int, k)
	for i := range out {
		out[i] = cands[i].pt
	}
	return out
}

// uncertainty interpolates the models' per-point leave-one-out errors at a
// candidate: for each metric, the inverse-squared-distance-weighted mean
// of the fold errors in normalized log2 axis space, averaged over the
// metrics. Without usable fits it returns 1 for every candidate, reducing
// selection to pure leverage.
func (e *engine) uncertainty(fit *workload.FitResult, pt [2]int) float64 {
	if fit == nil {
		return 1
	}
	cp := e.axisPos(e.procs, pt[0])
	cn := e.axisPos(e.ns, pt[1])
	sum, nm := 0.0, 0
	for _, m := range metrics.All() {
		info := fit.Info[m]
		if info == nil || len(info.CVFolds) == 0 {
			continue
		}
		var wsum, esum float64
		for _, f := range info.CVFolds {
			if len(f.Coords) != 2 {
				continue
			}
			dp := cp - e.axisPos(e.procs, int(f.Coords[0]))
			dn := cn - e.axisPos(e.ns, int(f.Coords[1]))
			w := 1 / (dp*dp + dn*dn + 1e-6)
			wsum += w
			esum += w * f.Err
		}
		if wsum > 0 {
			sum += esum / wsum
			nm++
		}
	}
	if nm == 0 {
		return 1
	}
	return sum / float64(nm)
}

// axisPos maps an axis value to its normalized log2 position in [0, 1]
// (0 for a single-valued axis). Values off the grid (which cannot occur
// for fold coordinates) clamp via the log-space formula unchanged.
func (e *engine) axisPos(axis []int, v int) float64 {
	lo, hi := float64(axis[0]), float64(axis[len(axis)-1])
	if lo <= 0 || hi <= lo {
		return 0
	}
	return (math.Log2(float64(v)) - math.Log2(lo)) / (math.Log2(hi) - math.Log2(lo))
}

// sameModels reports whether two fits selected the same winning model
// structure for every metric. Structure — which terms won, Table II's
// currency — is what model selection decides; coefficients legitimately
// drift with every added point and would keep the stability rule from
// ever firing.
func sameModels(a, b *workload.FitResult) bool {
	for _, m := range metrics.All() {
		ia, ib := a.Info[m], b.Info[m]
		if ia == nil || ib == nil || ModelShape(ia.Model) != ModelShape(ib.Model) {
			return false
		}
	}
	return true
}

// ModelShape renders a model's growth-term structure with the
// coefficients blanked: "c·p·n + c·n". The constant is dropped — every
// PMNF model carries one, and a solver can leave a vestigial ~1e-9
// constant where another run leaves exactly 0 — so two models share a
// shape exactly when the search selected the same growth hypothesis.
func ModelShape(m *pmnf.Model) string {
	if m == nil {
		return ""
	}
	c := m.Clone()
	c.Constant = 0
	return c.Format(func(float64) string { return "c" })
}

// maxImprovement returns the largest relative cross-validated-SMAPE
// improvement over the metrics (negative when every metric got worse).
func maxImprovement(prev, cur *workload.FitResult) float64 {
	best := math.Inf(-1)
	for _, m := range metrics.All() {
		ip, ic := prev.Info[m], cur.Info[m]
		if ip == nil || ic == nil {
			continue
		}
		denom := math.Max(ip.CVScore, 1e-9)
		if imp := (ip.CVScore - ic.CVScore) / denom; imp > best {
			best = imp
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// axisValues returns the sorted distinct values of one grid axis.
func axisValues(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}
