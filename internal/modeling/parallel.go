package modeling

// Parallel model fitting. The paper's workflow fits one model per
// region×metric series; the series are independent, so they fan out across
// a worker pool. Three guarantees make the pool a drop-in replacement for
// the serial loop:
//
//  1. Determinism: FitAllObserved returns outcomes in task order regardless
//     of the worker count, and every individual fit is deterministic, so the
//     pool produces byte-identical models to a serial loop.
//  2. Content-keyed caching: a FitCache memoizes fits under a fingerprint
//     of the task *content* (parameters, measurements, aggregator, and
//     generator options — never the task's display key), so identical
//     measurement sets are fitted exactly once per cache lifetime, even
//     when several workers reach the same fingerprint at once.
//  3. Bounded concurrency: at most `workers` fits run at once (default
//     GOMAXPROCS), each writing only its own result slot.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"extrareq/internal/obs"
)

// Agg names a deterministic aggregator over repeated observations. Fit
// tasks carry the name instead of a func value so that task content is
// hashable for the cache.
type Agg int

// The aggregators of the paper's methodology: mean for counter metrics,
// median for the locality metric (§II-B).
const (
	AggMean Agg = iota
	AggMedian
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggMedian:
		return "median"
	default:
		return "mean"
	}
}

// fn returns the aggregation function.
func (a Agg) fn() func(Measurement) float64 {
	if a == AggMedian {
		return Measurement.Median
	}
	return Measurement.Mean
}

// FitTask is one independent model-fitting job: a measurement series plus
// the generator configuration. Key is a caller-chosen label (for example
// "region/metric") carried through to the outcome; it does not participate
// in cache fingerprints.
type FitTask struct {
	Key    string
	Params []string
	Ms     []Measurement
	Agg    Agg
	Opts   *Options
}

// FitOutcome is the result of one FitTask.
type FitOutcome struct {
	Key  string
	Info *ModelInfo
	Err  error
}

// The fit_* metric names FitAllObserved reports under (documented in
// DESIGN.md §6c).
const (
	// MetricFitTasks counts fit tasks processed (cache hits included).
	MetricFitTasks = "fit_tasks_total"
	// MetricFitCacheHits counts tasks served from the content cache.
	MetricFitCacheHits = "fit_cache_hits_total"
	// MetricFitErrors counts tasks whose fit returned an error.
	MetricFitErrors = "fit_errors_total"
	// MetricFitSeconds is the per-task latency histogram.
	MetricFitSeconds = "fit_seconds"
)

// FitSecondsEdges is the bucket layout of MetricFitSeconds: exponential
// from 10µs (a cache hit) to ~2.6s (a large multi-parameter search).
func FitSecondsEdges() []float64 { return obs.ExpEdges(1e-5, 4, 10) }

// fitMetrics holds the resolved instruments so workers touch only
// atomics on the per-task path (all nil without a registry).
type fitMetrics struct {
	tasks, hits, errors *obs.Counter
	seconds             *obs.Histogram
}

// FitAllObserved fits every task across a pool of workers and returns the
// outcomes in task order. workers <= 0 selects GOMAXPROCS. A non-nil cache
// memoizes fits by content: tasks with identical parameters, measurements,
// aggregator, and options share one fitted model (the returned *ModelInfo
// is shared and must be treated as read-only). A non-nil registry receives
// task counts, cache hits, fit errors, and a per-task latency histogram;
// the pool's goroutines carry pprof labels either way, so fitting shows up
// attributably in CPU and goroutine profiles.
func FitAllObserved(tasks []FitTask, workers int, cache *FitCache, reg *obs.Registry) []FitOutcome {
	out := make([]FitOutcome, len(tasks))
	if len(tasks) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	fm := fitMetrics{
		tasks:   reg.Counter(MetricFitTasks),
		hits:    reg.Counter(MetricFitCacheHits),
		errors:  reg.Counter(MetricFitErrors),
		seconds: reg.Histogram(MetricFitSeconds, FitSecondsEdges()),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("pool", "modeling.FitAllObserved", "worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					out[i] = fitOne(tasks[i], cache, &fm)
				}
			})
		}(w)
	}
	wg.Wait()
	return out
}

// fitOne runs one task, consulting the cache when provided.
func fitOne(t FitTask, cache *FitCache, fm *fitMetrics) FitOutcome {
	fm.tasks.Inc()
	start := time.Now()
	defer func() { fm.seconds.Observe(time.Since(start).Seconds()) }()
	var info *ModelInfo
	var err error
	if cache == nil {
		info, err = FitMultiAggregated(t.Params, t.Ms, t.Agg.fn(), t.Opts)
	} else if e, owner := cache.claim(fingerprint(t)); owner {
		e.info, e.err = FitMultiAggregated(t.Params, t.Ms, t.Agg.fn(), t.Opts)
		close(e.done)
		info, err = e.info, e.err
	} else {
		<-e.done
		fm.hits.Inc()
		info, err = e.info, e.err
	}
	if err != nil {
		fm.errors.Inc()
	}
	return FitOutcome{Key: t.Key, Info: info, Err: err}
}

// FitCache memoizes fitted models under content fingerprints. It is
// single-flight: the first task to reach a fingerprint fits it, and every
// other task with that fingerprint — concurrent or later — waits for and
// shares that one result, counting as a hit. Safe for concurrent use; the
// zero value is not usable, call NewFitCache.
type FitCache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*fitEntry
	hits    atomic.Int64
}

// fitEntry is one fingerprint's fit; info and err are valid once done is
// closed.
type fitEntry struct {
	done chan struct{}
	info *ModelInfo
	err  error
}

// NewFitCache returns an empty cache.
func NewFitCache() *FitCache {
	return &FitCache{entries: map[[sha256.Size]byte]*fitEntry{}}
}

// Len reports the number of cached fits, in-flight ones included.
func (c *FitCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits reports how many lookups were served from the cache.
func (c *FitCache) Hits() int64 { return c.hits.Load() }

// claim returns the entry for fp. owner is true when the caller created
// it and must fill it and close done; otherwise the caller is a hit and
// must wait on done before reading the result.
func (c *FitCache) claim(fp [sha256.Size]byte) (e *fitEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fp]; ok {
		c.hits.Add(1)
		return e, false
	}
	e = &fitEntry{done: make(chan struct{})}
	c.entries[fp] = e
	return e, true
}

// fingerprint hashes the content of a fit task: parameters, measurements,
// aggregator, and every generator option that influences the result. The
// task Key is deliberately excluded — identical series fitted under
// different labels share one cache entry.
func fingerprint(t FitTask) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 8)
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}

	str(t.Agg.String())
	u64(uint64(len(t.Params)))
	for _, p := range t.Params {
		str(p)
	}
	u64(uint64(len(t.Ms)))
	for _, m := range t.Ms {
		u64(uint64(len(m.Coords)))
		for _, c := range m.Coords {
			f64(c)
		}
		u64(uint64(len(m.Values)))
		for _, v := range m.Values {
			f64(v)
		}
	}

	opts := t.Opts
	if opts == nil {
		opts = DefaultOptions()
	}
	u64(uint64(len(opts.PolyExponents)))
	for _, e := range opts.PolyExponents {
		f64(e)
	}
	u64(uint64(len(opts.LogExponents)))
	for _, e := range opts.LogExponents {
		f64(e)
	}
	colls := make([]string, 0, len(opts.Collectives))
	for k, v := range opts.Collectives {
		if v {
			colls = append(colls, k)
		}
	}
	sort.Strings(colls)
	u64(uint64(len(colls)))
	for _, k := range colls {
		str(k)
	}
	u64(uint64(opts.MaxTerms))
	f64(opts.Improvement)
	if opts.AllowNegative {
		u64(1)
	} else {
		u64(0)
	}
	f64(opts.NoiseFloor)
	u64(uint64(opts.MinPoints))
	// The reference-path flag is fingerprinted so equivalence tests that
	// fit the same series through both paths never share a cache entry.
	if opts.reference {
		u64(1)
	} else {
		u64(0)
	}

	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}
