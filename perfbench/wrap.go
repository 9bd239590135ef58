package main

import (
	"context"
	"sync/atomic"

	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/metrics"
	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// The wrappers below time each layer from outside, through interfaces the
// program already accepts: an apps.App inside a campaign.Request, a
// campaign.Store through campaign.Options.Store, and a serve/adaptive
// Runner around the *campaign.Scheduler. Each keeps Name() and forwards
// every method, so campaign keys and results are unchanged.

// tracedApp times one campaign's simulated runs and locality probes.
// parent is the campaign.run span the runs belong to.
type tracedApp struct {
	apps.App
	tr     *tracer
	parent int64
}

func (a tracedApp) Run(cfg apps.Config) ([]simmpi.Result, error) {
	id, t0 := a.tr.begin()
	defer a.tr.end(id, a.parent, "apps.run", t0)
	return a.App.Run(cfg)
}

func (a tracedApp) LocalityProbe(n int, rec trace.Recorder) {
	id, t0 := a.tr.begin()
	defer a.tr.end(id, a.parent, "apps.probe", t0)
	a.App.LocalityProbe(n, rec)
}

// storeCounts are the Store wrapper's counters.
type storeCounts struct {
	loads, loadHits, writes, bytes atomic.Int64
}

// tracedStore times the scheduler's persistent tier.
type tracedStore struct {
	inner campaign.Store
	tr    *tracer
	n     *storeCounts
}

func (s *tracedStore) Load(ctx context.Context, k campaign.Key) ([]byte, bool) {
	id, t0 := s.tr.begin()
	data, ok := s.inner.Load(ctx, k)
	s.tr.end(id, parentOf(ctx), "campaign.store_load", t0)
	if id == 0 {
		return data, ok
	}
	s.n.loads.Add(1)
	if ok {
		s.n.loadHits.Add(1)
		s.n.bytes.Add(int64(len(data)))
	}
	return data, ok
}

func (s *tracedStore) Store(ctx context.Context, k campaign.Key, data []byte) error {
	id, t0 := s.tr.begin()
	err := s.inner.Store(ctx, k, data)
	s.tr.end(id, parentOf(ctx), "campaign.store_write", t0)
	if id == 0 {
		return err
	}
	s.n.writes.Add(1)
	if err == nil {
		s.n.bytes.Add(int64(len(data)))
	}
	return err
}

func (s *tracedStore) Sync(ctx context.Context) error {
	id, t0 := s.tr.begin()
	defer s.tr.end(id, parentOf(ctx), "campaign.store_sync", t0)
	return s.inner.Sync(ctx)
}

// Status forwards the inner store's health, or reports what the scheduler
// reports for a store without one.
func (s *tracedStore) Status() campaign.StoreStatus {
	if r, ok := s.inner.(campaign.StatusReporter); ok {
		return r.Status()
	}
	return campaign.StoreStatus{Kind: "store"}
}

// runnerCounts accumulate what the scheduler's outcomes report.
type runnerCounts struct {
	runs, measured, reused, retries, quarantined atomic.Int64
	flops, commBytes                             atomic.Int64
}

// tracedRunner times campaign.Scheduler.Run and Lookup for the serve and
// adaptive layers; every other method is the embedded scheduler's own.
type tracedRunner struct {
	*campaign.Scheduler
	tr *tracer
	n  *runnerCounts
}

// spanParent is the span a runner call belongs to: the caller's, when its
// context carries one, otherwise the client request waiting on this key.
func (r *tracedRunner) spanParent(ctx context.Context, k campaign.Key) int64 {
	if p := parentOf(ctx); p != 0 {
		return p
	}
	return r.tr.keyParent(k.String())
}

func (r *tracedRunner) Run(ctx context.Context, req campaign.Request) (*campaign.Outcome, error) {
	id, t0 := r.tr.begin()
	parent := r.spanParent(ctx, campaign.ComputeKey(req))
	if id != 0 {
		req.App = tracedApp{App: req.App, tr: r.tr, parent: id}
	}
	out, err := r.Scheduler.Run(withSpan(ctx, id), req)
	r.tr.end(id, parent, "campaign.run", t0)
	if id == 0 {
		return out, err
	}
	r.n.runs.Add(1)
	if out != nil {
		r.n.measured.Add(int64(out.PointsMeasured))
		r.n.reused.Add(int64(out.PointsReused))
		if rep := out.Report; rep != nil {
			r.n.retries.Add(int64(rep.ExtraRuns))
			r.n.quarantined.Add(int64(len(rep.Quarantined)))
		}
		if c := out.Campaign; c != nil {
			for _, s := range c.Samples {
				r.n.flops.Add(int64(s.Values[metrics.Flops.String()]))
				r.n.commBytes.Add(int64(s.Values[metrics.CommBytes.String()]))
			}
		}
	}
	return out, err
}

func (r *tracedRunner) Lookup(ctx context.Context, k campaign.Key) ([]byte, bool) {
	id, t0 := r.tr.begin()
	parent := r.spanParent(ctx, k)
	data, ok := r.Scheduler.Lookup(withSpan(ctx, id), k)
	r.tr.end(id, parent, "campaign.lookup", t0)
	return data, ok
}
