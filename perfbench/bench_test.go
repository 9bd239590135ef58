package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"extrareq/internal/adaptive"
	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/workload"
)

func TestSeedPicksInputs(t *testing.T) {
	if !reflect.DeepEqual(genServeSeq(42), genServeSeq(42)) {
		t.Error("seed 42 gave two different serve-mix sequences")
	}
	if reflect.DeepEqual(genServeSeq(42), genServeSeq(43)) {
		t.Error("seeds 42 and 43 gave the same serve-mix sequence")
	}
	if !reflect.DeepEqual(gridSeeds(42, 12), gridSeeds(42, 12)) {
		t.Error("seed 42 gave two different sets of grid seeds")
	}
	if reflect.DeepEqual(gridSeeds(42, 12), gridSeeds(43, 12)) {
		t.Error("seeds 42 and 43 gave the same grid seeds")
	}
	if g := gridSeeds(42, 3); g[0] != 42 || len(g) != 3 {
		t.Errorf("gridSeeds(42, 3) = %v, want 3 seeds starting with 42", g)
	}
	if reflect.DeepEqual(batchSpecs(42), batchSpecs(43)) {
		t.Error("grid seeds 42 and 43 gave the same batch grids")
	}
}

// Every op of a sequence must be answerable whatever the two clients'
// interleaving: hits and models name a key served by an earlier op that
// they (transitively) wait for.
func TestServeSeqDependencies(t *testing.T) {
	seq := genServeSeq(7)
	if got := len(seq.Ops) - seq.Setup; got != replayOps {
		t.Fatalf("replay has %d ops, want %d", got, replayOps)
	}
	waits := func(i, j int) bool {
		for i >= 0 {
			if i == j {
				return true
			}
			i = seq.Ops[i].After
		}
		return false
	}
	classes := map[string]int{}
	for i, op := range seq.Ops {
		classes[op.Class]++
		if op.After >= i {
			t.Fatalf("op %d waits for later op %d", i, op.After)
		}
		if op.Class == classHit || op.Class == classModels {
			if !waits(op.After, op.Ref) {
				t.Errorf("op %d (%s) does not wait for op %d that serves its key", i, op.Class, op.Ref)
			}
		}
	}
	for _, c := range []string{classSeed, classHit, classModels, classAssemble, classFresh} {
		if classes[c] == 0 {
			t.Errorf("sequence has no %s op", c)
		}
	}
}

// Every seed's replay has the same composition, so replays of different
// seeds do the same work, and its served set outgrows the campaign LRU.
func TestServeSeqComposition(t *testing.T) {
	count := func(seq serveSeq) (map[string]int, int) {
		classes, keys := map[string]int{}, map[string]bool{}
		for i, op := range seq.Ops {
			if i >= seq.Setup {
				classes[op.Class]++
			}
			keys[opKey(op)] = true
		}
		return classes, len(keys)
	}
	a, keysA := count(genServeSeq(1))
	b, keysB := count(genServeSeq(2))
	if !reflect.DeepEqual(a, b) || keysA != keysB {
		t.Errorf("seeds 1 and 2 replay %v over %d keys and %v over %d keys", a, keysA, b, keysB)
	}
	n := len(apps.Names())
	want := map[string]int{classHit: replayHits, classModels: replayModels,
		classFresh: n * freshPerApp, classAssemble: replayOps - replayHits - replayModels - n*freshPerApp}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("replay classes %v, want %v", a, want)
	}
	if keysA <= 64 {
		t.Errorf("served set has %d keys, want more than the 64-entry campaign LRU", keysA)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The chosen percentile leaves at least ten samples beyond it.
	for _, n := range []int{100, 150, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		cut := percentile(xs, tailPercentile(n))
		beyond := 0
		for _, x := range xs {
			if x >= cut {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples at or beyond p%v, want >= 10", n, beyond, tailPercentile(n))
		}
	}
}

func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "adaptive.run", Start: ms(0), End: ms(100)},
		// Two overlapping sub-requests cover [10, 60]; summing them
		// would count 60 ms.
		{ID: 2, Parent: 1, Name: "campaign.run", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "campaign.run", Start: ms(30), End: ms(60)},
		// One that outlives its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "campaign.run", Start: ms(90), End: ms(120)},
		// A grandchild does not reduce the parent's self time twice.
		{ID: 5, Parent: 2, Name: "apps.run", Start: ms(15), End: ms(20)},
	}
	ix := indexSpans(spans)
	if got, want := ix.self(spans[0]), ms(40); got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
	n, total, self, covered := ix.layerTotals("campaign.run")
	if n != 3 || total != ms(90) || self != ms(85) || covered != ms(5) {
		t.Errorf("campaign.run totals = %d, %v, %v, %v; want 3, 90ms, 85ms, 5ms", n, total, self, covered)
	}
	if got := ix.childCount("adaptive.run", "campaign.run"); got != 3 {
		t.Errorf("childCount = %d, want 3", got)
	}
}

func TestWrappersKeepKeysAndResults(t *testing.T) {
	app, _ := apps.ByName("Kripke")
	grid := workload.Grid{Procs: []int{2, 4}, Ns: []int{16, 32}, Seed: 3}
	tr := newTracer()
	req := campaign.Request{App: app, Grid: grid}
	wrapped := campaign.Request{App: tracedApp{App: app, tr: tr}, Grid: grid}
	if campaign.ComputeKey(req) != campaign.ComputeKey(wrapped) {
		t.Error("wrapping the app changed the campaign key")
	}
	if adaptive.ComputeKey(req, adaptive.Options{}) != adaptive.ComputeKey(wrapped, adaptive.Options{}) {
		t.Error("wrapping the app changed the adaptive key")
	}

	ctx := context.Background()
	plain, err := campaign.New(campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want, err := plain.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	disk, err := campaign.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := campaign.New(campaign.Options{Store: &tracedStore{inner: disk, tr: tr, n: &storeCounts{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	r := &tracedRunner{Scheduler: sched, tr: tr, n: &runnerCounts{}}
	got, err := r.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key {
		t.Errorf("traced run key %s, plain %s", got.Key, want.Key)
	}
	wantEntry, _ := plain.Lookup(ctx, want.Key)
	gotEntry, ok := r.Lookup(ctx, got.Key)
	if !ok || string(gotEntry) != string(wantEntry) {
		t.Error("traced run stored a different campaign entry")
	}
	if got := sched.StoreStatus().Kind; got != "disk" {
		t.Errorf("store kind through the wrapper = %q, want %q", got, "disk")
	}

	ix := indexSpans(tr.snapshot())
	if n, _, _, _ := ix.layerTotals("apps.run"); n != 4 {
		t.Errorf("%d apps.run spans, want one per configuration (4)", n)
	}
	if got := ix.childCount("campaign.run", "apps.run"); got != 4 {
		t.Errorf("%d apps.run spans under campaign.run, want 4", got)
	}
	if got := ix.childCount("campaign.run", "campaign.store_write"); got == 0 {
		t.Error("store writes are not attributed to the campaign that made them")
	}
}
