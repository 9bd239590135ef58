package extrareq

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/workload"
)

// Run and RunAll measure through the campaign scheduler's shared pool and
// fit through workload.FitAllObserved; their contract — byte-identical
// results to the plain pipeline — is checked here against a bare serial
// workload.ResilientRunner (nil Exec) followed by workload.Fit or
// workload.FitAllObserved.

func smallGrid() Grid {
	return Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 11, Repeats: 2}
}

// fitGrid satisfies the five-point rule on both axes while staying far
// below paper scale, for tests that fit models.
func fitGrid() Grid {
	return Grid{Procs: []int{2, 4, 8, 16, 32}, Ns: []int{128, 256, 512, 1024, 2048}, Seed: 11}
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestRunMatchesLegacyHealthyPipeline(t *testing.T) {
	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("Kripke not registered")
	}
	grid := fitGrid()
	want, _, err := (&workload.ResilientRunner{App: app}).Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), Spec{App: "Kripke", Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asJSON(t, want), asJSON(t, res.Campaign)) {
		t.Error("Run campaign differs from the serial bare runner")
	}
	if res.Report == nil || res.Report.Degraded() {
		t.Errorf("healthy run report = %+v, want non-nil and undegraded", res.Report)
	}
	if res.Requirements == nil {
		t.Fatal("Run did not fit models")
	}
	wantFit, err := workload.Fit(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asJSON(t, wantFit), asJSON(t, res.Requirements)) {
		t.Error("Run requirements differ from the plain Fit path")
	}
}

func TestRunMatchesLegacyResilientPipeline(t *testing.T) {
	plan, err := ParseFaultSpec("drop=0.02,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	app, ok := apps.ByName("LULESH")
	if !ok {
		t.Fatal("LULESH not registered")
	}
	grid := smallGrid()
	// Most runs under this plan hang on a dropped message until the run
	// watchdog fires, so the time is spent waiting, not computing: the
	// serial reference runs alongside Run and the test waits once.
	type campaignRun struct {
		c   *Campaign
		rep *CampaignReport
		err error
	}
	ref := make(chan campaignRun, 1)
	go func() {
		r := &workload.ResilientRunner{App: app, Faults: plan, Retries: 2, MinPoints: 3}
		c, rep, err := r.Run(context.Background(), grid)
		ref <- campaignRun{c, rep, err}
	}()

	res, err := Run(context.Background(), Spec{App: "LULESH", Grid: grid},
		WithFaults(plan), WithRetries(2), WithMinPoints(3), WithoutModels())
	want := <-ref
	if want.err != nil {
		t.Fatal(want.err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Requirements != nil {
		t.Error("WithoutModels still fitted models")
	}
	if !bytes.Equal(asJSON(t, want.c), asJSON(t, res.Campaign)) {
		t.Error("Run campaign differs from the serial resilient runner")
	}
	if !bytes.Equal(asJSON(t, want.rep), asJSON(t, res.Report)) {
		t.Error("Run report differs from the serial resilient runner")
	}
}

func TestRunAllDerivesPerAppPlans(t *testing.T) {
	// The paper-scale default grids are too costly to run twice under
	// -race, so the pipeline is exercised end to end on small ones.
	// Perturb-only faults keep runs failure-free (no watchdog timeouts)
	// while still making each app's derived seed observable in the data.
	prev := defaultGridFor
	defaultGridFor = func(app string) Grid {
		g := fitGrid()
		g.Seed = int64(len(app)) // vary a little across apps
		return g
	}
	t.Cleanup(func() { defaultGridFor = prev })

	plan, err := ParseFaultSpec("perturb=0.02,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	// The plain pipeline: per-app derived plans over the (substituted)
	// default grids, serial bare runners, one shared fit cache.
	all := apps.All()
	campaigns := make([]*Campaign, len(all))
	reports := make([]*CampaignReport, len(all))
	for i, a := range all {
		r := &workload.ResilientRunner{App: a, Faults: plan.Derive(appSalt(a.Name())), Retries: 2}
		campaigns[i], reports[i], err = r.Run(context.Background(), defaultGridFor(a.Name()))
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
	wantFits, wantClasses, err := workload.FitAllObserved(campaigns, nil, 0, NewFitCache(), nil)
	if err != nil {
		t.Fatal(err)
	}

	results, classes, err := RunAll(context.Background(), WithFaults(plan), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(all) {
		t.Fatalf("RunAll returned %d results, want %d", len(results), len(all))
	}
	for i := range results {
		if !bytes.Equal(asJSON(t, campaigns[i]), asJSON(t, results[i].Campaign)) {
			t.Errorf("%s: RunAll campaign differs from the serial pipeline", all[i].Name())
		}
		if !bytes.Equal(asJSON(t, reports[i]), asJSON(t, results[i].Report)) {
			t.Errorf("%s: RunAll report differs from the serial pipeline", all[i].Name())
		}
		// Fit diagnostics can hold ±Inf on tiny grids, which JSON refuses;
		// DeepEqual still demands exact equality.
		if !reflect.DeepEqual(wantFits[i], results[i].Requirements) {
			t.Errorf("%s: RunAll requirements differ from the serial pipeline", all[i].Name())
		}
	}
	if !reflect.DeepEqual(wantClasses, classes) {
		t.Error("RunAll error classes differ from the serial pipeline")
	}
}

func TestRunCacheHitEqualsMiss(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{App: "MILC", Grid: fitGrid()}

	miss, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit {
		t.Fatal("first run hit an empty cache")
	}
	// A second Run builds a fresh scheduler, so the hit exercises the
	// on-disk store.
	hit, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if !bytes.Equal(asJSON(t, miss.Campaign), asJSON(t, hit.Campaign)) {
		t.Error("cache hit campaign is not byte-identical to the miss")
	}
	if !bytes.Equal(asJSON(t, miss.Report), asJSON(t, hit.Report)) {
		t.Error("cache hit report is not byte-identical to the miss")
	}
	if !bytes.Equal(asJSON(t, miss.Requirements), asJSON(t, hit.Requirements)) {
		t.Error("cache hit requirements are not byte-identical to the miss")
	}
}

func TestRunUnknownApp(t *testing.T) {
	if _, err := Run(context.Background(), Spec{App: "nope"}); err == nil {
		t.Fatal("Run accepted an unknown application")
	}
}

func TestRunZeroGridSelectsDefault(t *testing.T) {
	prev := defaultGridFor
	var asked string
	defaultGridFor = func(app string) Grid {
		asked = app
		return smallGrid()
	}
	t.Cleanup(func() { defaultGridFor = prev })

	res, err := Run(context.Background(), Spec{App: "icoFoam"}, WithoutModels())
	if err != nil {
		t.Fatal(err)
	}
	if asked != "icoFoam" {
		t.Errorf("default grid resolved for %q, want icoFoam", asked)
	}
	if !bytes.Equal(asJSON(t, smallGrid()), asJSON(t, res.Campaign.Grid)) {
		t.Errorf("zero grid ran %+v, want the substituted default", res.Campaign.Grid)
	}
}
