package obs

// Metric names of the instruments the serving, adaptive and remote-store
// layers report into. Those layers resolve the instruments themselves (see
// the package doc); the names live here so dashboards, tests and the
// benchmark read one set of constants.

// Server-level RED metrics (rate, errors, duration) plus the queueing
// signals a campaign service needs to explain its own behavior under load:
// how deep the admission queue is, how much duplicate work was coalesced
// away, and how many requests were shed instead of queued unboundedly.
const (
	// MetricServerRequests counts every submission that reached admission
	// (accepted or shed).
	MetricServerRequests = "server_requests_total"
	// MetricServerErrors counts submissions that finished with an error
	// (campaign failures, cancelled waiters — not sheds).
	MetricServerErrors = "server_errors_total"
	// MetricServerShed counts submissions rejected by admission control:
	// queue full, tenant over rate, or server draining.
	MetricServerShed = "server_shed_total"
	// MetricServerCoalesced counts submissions that attached to an
	// already-running identical campaign instead of starting their own.
	MetricServerCoalesced = "server_coalesce_hits"
	// MetricServerQueueDepth gauges flights admitted but not yet finished.
	MetricServerQueueDepth = "server_queue_depth"
	// MetricServerInflight gauges campaign executions currently running.
	MetricServerInflight = "server_inflight"
	// MetricServerLatency is the per-request latency histogram (seconds),
	// measured from admission to response.
	MetricServerLatency = "server_request_seconds"
)

// RequestSecondsEdges is the bucket layout of the server request-latency
// histogram: 100µs to ~26s in x4 steps, matching workload.RunSecondsEdges
// so campaign and request latencies line up in dashboards.
func RequestSecondsEdges() []float64 { return ExpEdges(1e-4, 4, 10) }

// Adaptive-campaign metrics. The adaptive engine (internal/adaptive)
// replaces fixed measurement grids with model-driven refinement; operators
// need to see how hard it is working (rounds, batches), how much it is
// saving (points measured vs. skipped), and why runs stop (convergence vs.
// budget exhaustion).
const (
	// MetricAdaptiveRounds counts fit-score-measure refinement rounds
	// (the seed fit counts as round one).
	MetricAdaptiveRounds = "adaptive_rounds"
	// MetricAdaptivePointsMeasured counts configurations executed by
	// adaptive runs (cache misses among the selected points).
	MetricAdaptivePointsMeasured = "adaptive_points_measured"
	// MetricAdaptivePointsReused counts selected configurations served
	// from the point cache instead of being executed.
	MetricAdaptivePointsReused = "adaptive_points_reused"
	// MetricAdaptivePointsSaved counts full-grid configurations adaptive
	// runs never selected at all — the measurement budget the refinement
	// loop saved over the fixed grid.
	MetricAdaptivePointsSaved = "adaptive_points_saved"
	// MetricAdaptiveConverged counts runs that stopped because the winning
	// model strings were stable and cross-validation stopped improving.
	MetricAdaptiveConverged = "adaptive_converged"
	// MetricAdaptiveBudgetStop counts runs that stopped on the hard point
	// budget (or candidate exhaustion) before the models converged.
	MetricAdaptiveBudgetStop = "adaptive_budget_stop"
	// MetricAdaptiveCacheHit counts adaptive runs answered entirely from
	// their own campaign-level cache entry (seed spec + adaptive options).
	MetricAdaptiveCacheHit = "adaptive_cache_hit"
)

// Remote point-store metrics. The campaign scheduler's persistence seam
// can be an HTTP client talking to a peer reqserve (or any server speaking
// the /v1/points protocol); unlike the local disk tier, that path has real
// failure modes — slow networks, 5xx bursts, partitions — that operators
// must be able to see without reading logs.
const (
	// MetricStoreRemoteHit counts remote loads that returned an entry.
	MetricStoreRemoteHit = "store_remote_hit"
	// MetricStoreRemoteMiss counts remote loads answered 404 (the entry
	// does not exist remotely) or degraded to a miss by the breaker.
	MetricStoreRemoteMiss = "store_remote_miss"
	// MetricStoreRemoteError counts remote operations that failed after
	// exhausting their retry budget (transport errors, 5xx, timeouts).
	MetricStoreRemoteError = "store_remote_error"
	// MetricStoreRemoteDropped counts writes dropped instead of sent:
	// breaker open, write-behind queue full, or store closed.
	MetricStoreRemoteDropped = "store_remote_dropped"
	// MetricStoreRemoteSeconds is the per-operation latency histogram
	// (seconds), covering retries within one logical Load/Store.
	MetricStoreRemoteSeconds = "store_remote_seconds"
	// MetricStoreRemoteBreakerOpen gauges the circuit breaker: 1 while
	// open (remote traffic suppressed), 0 while closed or probing.
	MetricStoreRemoteBreakerOpen = "store_remote_breaker_open"
	// MetricStoreRemoteBreakerOpens counts closed/half-open → open
	// transitions, so flapping remotes are visible even when the gauge
	// reads 0 at scrape time.
	MetricStoreRemoteBreakerOpens = "store_remote_breaker_opens"
)

// RemoteStoreSecondsEdges is the bucket layout of MetricStoreRemoteSeconds:
// 100µs to ~26s in x4 steps, matching RequestSecondsEdges so client- and
// server-side latencies line up in dashboards.
func RemoteStoreSecondsEdges() []float64 { return ExpEdges(1e-4, 4, 10) }
