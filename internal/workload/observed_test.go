package workload

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/simmpi"
)

// tracedRingApp is ringApp with the observability knobs passed through,
// mirroring what the real proxy apps do via Config.runOptions.
type tracedRingApp struct{ ringApp }

func (tracedRingApp) Run(cfg apps.Config) ([]simmpi.Result, error) {
	opt := &simmpi.Options{Faults: cfg.Faults, Timeout: cfg.Timeout, Tracer: cfg.Tracer, TraceTag: cfg.TraceTag}
	return simmpi.RunOpt(cfg.Procs, opt, func(p *simmpi.Proc) error {
		p.Counters.Alloc(int64(cfg.N) * 8)
		p.AddFlops(int64(cfg.N * cfg.Procs))
		right := (p.Rank() + 1) % p.Size()
		left := (p.Rank() - 1 + p.Size()) % p.Size()
		// 140 communication events per rank, enough that every injected
		// kill (drawn from the runtime's kill window) actually fires.
		for i := 0; i < 70; i++ {
			p.SendRecv(right, []float64{float64(i)}, left)
		}
		return nil
	})
}

// jsonlSummary is the trailer record of one ring in a JSONL trace dump.
type jsonlSummary struct {
	Run       int64  `json:"run"`
	Tag       string `json:"tag"`
	Rank      int    `json:"rank"`
	Kind      string `json:"kind"`
	SentBytes int64  `json:"sent_bytes"`
	RecvBytes int64  `json:"recv_bytes"`
	SentMsgs  int64  `json:"sent_msgs"`
	RecvMsgs  int64  `json:"recv_msgs"`
}

// readSummaries parses a JSONL dump and groups the per-ring summary
// records by run tag.
func readSummaries(t *testing.T, dump []byte) map[string][]jsonlSummary {
	t.Helper()
	out := map[string][]jsonlSummary{}
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r jsonlSummary
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if r.Kind == string(obs.KindSummary) {
			out[r.Tag] = append(out[r.Tag], r)
		}
	}
	return out
}

// TestObservedCampaignTraceReconcilesWithSamples is the PR's acceptance
// test: a fault-injected resilient campaign run with a tracer and a
// metrics registry must produce (1) a JSONL event stream whose per-rank
// byte totals, summed per successful run, exactly reproduce the campaign's
// counter-derived Table II communication metric, and (2) campaign_*
// counters that agree with the campaign report. Perturbation faults are
// deliberately absent from the plan: they scale counter readings after the
// run, intentionally breaking the trace/counter equality this test pins.
func TestObservedCampaignTraceReconcilesWithSamples(t *testing.T) {
	plan := simmpi.NewFaultPlan(1)
	plan.Kill = 0.5
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	r := &ResilientRunner{
		App:     tracedRingApp{},
		Faults:  plan,
		Retries: 8,
		Sleep:   noSleep,
		Metrics: reg,
		Tracer:  tr,
	}
	c, report, err := r.Run(context.Background(), resilientGrid)
	if err != nil {
		t.Fatalf("campaign failed: %v\n%s", err, report.Render())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	byTag := readSummaries(t, buf.Bytes())

	// Per surviving configuration: the successful attempt is the last one
	// (outcome.Attempts, 1-based), its run is tagged app/p/n/attempt/rep.
	// The sample's comm metric is mean(sent)+mean(recv) over ranks, which
	// the per-rank trace totals must reproduce exactly.
	commName := metrics.CommBytes.String()
	checked := 0
	for _, out := range report.Outcomes {
		if out.Quarantined {
			continue
		}
		tag := fmt.Sprintf("RingTest/p=%d/n=%d/attempt=%d/rep=0", out.P, out.N, out.Attempts)
		sums, ok := byTag[tag]
		if !ok {
			t.Errorf("no trace summaries for successful run %q", tag)
			continue
		}
		if len(sums) != out.P {
			t.Errorf("%s: %d ring summaries, want %d", tag, len(sums), out.P)
			continue
		}
		var sentTotal, recvTotal int64
		for _, s := range sums {
			sentTotal += s.SentBytes
			recvTotal += s.RecvBytes
		}
		want := float64(sentTotal)/float64(out.P) + float64(recvTotal)/float64(out.P)
		var sample *Sample
		for i := range c.Samples {
			if c.Samples[i].P == out.P && c.Samples[i].N == out.N {
				sample = &c.Samples[i]
			}
		}
		if sample == nil {
			t.Errorf("no sample for p=%d n=%d", out.P, out.N)
			continue
		}
		if got := sample.Values[commName]; got != want {
			t.Errorf("p=%d n=%d: sample %s = %v, traced = %v", out.P, out.N, commName, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no configuration was reconciled")
	}

	// The registry's campaign counters must agree with the report.
	snap := reg.Snapshot()
	var attempts, failures int64
	for _, out := range report.Outcomes {
		attempts += int64(out.Attempts)
		failures += int64(len(out.Errors))
	}
	if got := snap.Counters[MetricAttempts]; got != attempts {
		t.Errorf("%s = %d, want %d", MetricAttempts, got, attempts)
	}
	if got := snap.Counters[MetricRetries]; got != failures {
		t.Errorf("%s = %d, want %d", MetricRetries, got, failures)
	}
	if got := snap.Counters[MetricRecovered]; got != int64(report.Recovered) {
		t.Errorf("%s = %d, want %d", MetricRecovered, got, report.Recovered)
	}
	if got := snap.Counters[MetricQuarantined]; got != int64(len(report.Quarantined)) {
		t.Errorf("%s = %d, want %d", MetricQuarantined, got, len(report.Quarantined))
	}
	// One run per attempt (single-repeat grid), every run timed.
	if got := snap.Counters[MetricRuns]; got != attempts {
		t.Errorf("%s = %d, want %d", MetricRuns, got, attempts)
	}
	if got := snap.Histograms[MetricRunSeconds].Total; got != attempts {
		t.Errorf("%s total = %d, want %d", MetricRunSeconds, got, attempts)
	}
	// The plan must actually have bitten (otherwise this test exercises
	// nothing), and the kills must show up as fault events in the stream.
	if failures == 0 {
		t.Fatal("no attempt ever failed — the fault plan never fired")
	}
	if !strings.Contains(buf.String(), `"kind":"fault"`) {
		t.Error("JSONL stream has no fault events despite injected kills")
	}
}

// TestFitAllObservedMetrics: the fit pool reports task, cache-hit, and
// latency metrics; a task set of identical copies is fitted exactly once,
// every other copy counting as a cache hit, however many workers race on
// the shared fingerprint.
func TestFitAllObservedMetrics(t *testing.T) {
	var ms []modeling.Measurement
	for _, n := range []float64{32, 64, 128, 256, 512} {
		ms = append(ms, modeling.Measurement{Coords: []float64{n}, Values: []float64{2 * n}})
	}
	task := modeling.FitTask{Key: "k", Params: []string{"n"}, Ms: ms}
	for _, in := range []struct{ tasks, workers int }{{4, 2}, {64, 8}} {
		t.Run(fmt.Sprintf("tasks=%d/workers=%d", in.tasks, in.workers), func(t *testing.T) {
			tasks := make([]modeling.FitTask, in.tasks)
			for i := range tasks {
				tasks[i] = task
			}
			reg := obs.NewRegistry()
			cache := modeling.NewFitCache()
			outs := modeling.FitAllObserved(tasks, in.workers, cache, reg)
			for _, o := range outs {
				if o.Err != nil {
					t.Fatalf("fit failed: %v", o.Err)
				}
				if o.Info != outs[0].Info {
					t.Fatal("identical tasks returned different fits")
				}
			}
			snap := reg.Snapshot()
			want := int64(in.tasks)
			if got := snap.Counters[modeling.MetricFitTasks]; got != want {
				t.Errorf("%s = %d, want %d", modeling.MetricFitTasks, got, want)
			}
			if got := snap.Counters[modeling.MetricFitCacheHits]; got != want-1 {
				t.Errorf("%s = %d, want %d (one miss, the rest hits)", modeling.MetricFitCacheHits, got, want-1)
			}
			if got := cache.Hits(); got != want-1 {
				t.Errorf("cache.Hits() = %d, want %d", got, want-1)
			}
			if got := cache.Len(); got != 1 {
				t.Errorf("cache.Len() = %d, want 1", got)
			}
			if got := snap.Counters[modeling.MetricFitErrors]; got != 0 {
				t.Errorf("%s = %d, want 0", modeling.MetricFitErrors, got)
			}
			if got := snap.Histograms[modeling.MetricFitSeconds].Total; got != want {
				t.Errorf("%s total = %d, want %d", modeling.MetricFitSeconds, got, want)
			}
		})
	}
}

var _ apps.App = tracedRingApp{}
