package main

import (
	"runtime"
	"time"

	"extrareq/internal/campaign"
)

// layerUnits are the per-layer metrics, in BENCHMARK.json order. Times and
// counts are per sweep (a five-proxy sweep, or one serve-mix replay), so
// runs of different lengths compare directly.
var layerUnits = []struct{ name, unit string }{
	{"apps.run_calls", "count/sweep"},
	{"apps.busy_s", "s/sweep"},
	{"apps.probe_s", "s/sweep"},
	{"apps.share", "ratio"},
	{"apps.flops_total", "count/sweep"},
	{"apps.bytes_total", "B/sweep"},
	{"workload.retries", "count/sweep"},
	{"workload.quarantined", "count/sweep"},
	{"campaign.run_calls", "count/sweep"},
	{"campaign.run_s", "s/sweep"},
	{"campaign.self_s", "s/sweep"},
	{"campaign.points_measured", "count/sweep"},
	{"campaign.points_reused", "count/sweep"},
	{"campaign.entry_hit_ratio", "ratio"},
	{"campaign.point_hit_ratio", "ratio"},
	{"campaign.store_load_calls", "count/sweep"},
	{"campaign.store_load_s", "s/sweep"},
	{"campaign.store_load_hit_ratio", "ratio"},
	{"campaign.store_write_calls", "count/sweep"},
	{"campaign.store_write_s", "s/sweep"},
	{"campaign.store_sync_s", "s/sweep"},
	{"campaign.store_bytes", "B/sweep"},
	{"modeling.fit_s", "s/sweep"},
	{"modeling.fit_tasks", "count/sweep"},
	{"modeling.fit_cache_hit_ratio", "ratio"},
	{"modeling.share", "ratio"},
	{"adaptive.rounds", "count/sweep"},
	{"adaptive.subrequests", "count/sweep"},
	{"adaptive.runner_covered_s", "s/sweep"},
	{"adaptive.self_s", "s/sweep"},
	{"adaptive.share", "ratio"},
	{"serve.self_s", "s/sweep"},
	{"serve.runner_calls", "count/sweep"},
	{"serve.coalesced", "count/sweep"},
	{"serve.shed", "count/sweep"},
	{"runtime.busy_cores", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles", "count/sweep"},
}

// workers is the scheduler pool size every workload runs with.
func workers() float64 { return float64(runtime.GOMAXPROCS(0)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerInputs is everything the per-layer report is computed from.
type layerInputs struct {
	ix     *spanIndex
	w      *window
	run    *runnerCounts
	store  *storeCounts // nil when the workload has no store
	stats  campaign.Stats
	reg    regTotals
	sweeps float64
}

func (in layerInputs) report() map[string]metric {
	ix, w, per := in.ix, in.w, func(v float64) float64 { return v / in.sweeps }
	sec := func(d time.Duration) float64 { return per(d.Seconds()) }
	v := map[string]float64{}

	nRun, runT, _, _ := ix.layerTotals("apps.run")
	_, probeT, _, _ := ix.layerTotals("apps.probe")
	v["apps.run_calls"] = per(float64(nRun))
	v["apps.busy_s"] = sec(runT)
	v["apps.probe_s"] = sec(probeT)
	v["apps.share"] = ratio((runT + probeT).Seconds(), w.proc.Wall*workers())
	v["apps.flops_total"] = per(float64(in.run.flops.Load()))
	v["apps.bytes_total"] = per(float64(in.run.commBytes.Load()))
	v["workload.retries"] = per(float64(in.run.retries.Load()))
	v["workload.quarantined"] = per(float64(in.run.quarantined.Load()))

	nCamp, campT, campSelf, _ := ix.layerTotals("campaign.run")
	v["campaign.run_calls"] = per(float64(nCamp))
	v["campaign.run_s"] = sec(campT)
	v["campaign.self_s"] = sec(campSelf)
	v["campaign.points_measured"] = per(float64(in.run.measured.Load()))
	v["campaign.points_reused"] = per(float64(in.run.reused.Load()))
	st := in.stats
	v["campaign.entry_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	v["campaign.point_hit_ratio"] = ratio(float64(st.PointHits), float64(st.PointHits+st.PointMisses))
	if sc := in.store; sc != nil {
		_, loadT, _, _ := ix.layerTotals("campaign.store_load")
		_, writeT, _, _ := ix.layerTotals("campaign.store_write")
		_, syncT, _, _ := ix.layerTotals("campaign.store_sync")
		v["campaign.store_load_calls"] = per(float64(sc.loads.Load()))
		v["campaign.store_load_s"] = sec(loadT)
		v["campaign.store_load_hit_ratio"] = ratio(float64(sc.loadHits.Load()), float64(sc.loads.Load()))
		v["campaign.store_write_calls"] = per(float64(sc.writes.Load()))
		v["campaign.store_write_s"] = sec(writeT)
		v["campaign.store_sync_s"] = sec(syncT)
		v["campaign.store_bytes"] = per(float64(sc.bytes.Load()))
	}

	v["modeling.fit_s"] = per(in.reg.fitSeconds)
	v["modeling.fit_tasks"] = per(in.reg.fitTasks)
	v["modeling.fit_cache_hit_ratio"] = ratio(in.reg.fitHits, in.reg.fitTasks)
	v["modeling.share"] = ratio(in.reg.fitSeconds, w.proc.Wall*workers())

	_, _, adSelf, adCovered := ix.layerTotals("adaptive.run")
	v["adaptive.rounds"] = per(in.reg.adaptiveRounds)
	v["adaptive.subrequests"] = per(float64(ix.childCount("adaptive.run", "campaign.run")))
	v["adaptive.runner_covered_s"] = sec(adCovered)
	v["adaptive.self_s"] = sec(adSelf)
	v["adaptive.share"] = ratio(adSelf.Seconds(), w.proc.Wall)

	_, _, srvSelf, _ := ix.layerTotals("serve.request")
	v["serve.self_s"] = sec(srvSelf)
	v["serve.runner_calls"] = per(float64(ix.childCount("serve.request", "campaign.run") + ix.childCount("serve.request", "campaign.lookup")))
	v["serve.coalesced"] = per(in.reg.coalesced)
	v["serve.shed"] = per(in.reg.shed)

	v["runtime.busy_cores"] = ratio(w.proc.CPU, w.proc.Wall)
	v["runtime.gc_cpu_fraction"] = w.proc.GCCPUFraction
	v["runtime.gc_cycles"] = per(w.proc.GCCycles)

	out := map[string]metric{}
	for _, m := range layerUnits {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

// childCount counts spans named child whose parent is a span named parent.
func (ix *spanIndex) childCount(parent, child string) int {
	names := map[int64]string{}
	for _, s := range ix.spans {
		names[s.ID] = s.Name
	}
	n := 0
	for _, s := range ix.spans {
		if s.Name == child && names[s.Parent] == parent {
			n++
		}
	}
	return n
}

func batchLayers(bt *batchTrace, w *window) map[string]metric {
	return layerInputs{
		ix: indexSpans(bt.tr.snapshot()), w: w, run: &bt.run,
		stats: bt.stats, reg: readRegTotals(bt.reg), sweeps: float64(max(len(w.sweeps), 1)),
	}.report()
}

func serveLayers(st *serveTrace, w *window) map[string]metric {
	return layerInputs{
		ix: indexSpans(st.tr.snapshot()), w: w, run: &st.run, store: &st.store,
		stats: st.stats, reg: st.reg, sweeps: float64(max(len(w.sweeps), 1)),
	}.report()
}
