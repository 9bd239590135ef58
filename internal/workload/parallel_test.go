package workload

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
)

// poolExec is a k-goroutine ExecFunc standing in for the campaign
// scheduler's shared pool, so tests can compare pooled measurement against
// the runner's serial reference (nil Exec).
func poolExec(k int) ExecFunc {
	return func(n int, run func(i int)) error {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					run(i)
				}
			}()
		}
		wg.Wait()
		return nil
	}
}

// measure measures a healthy campaign through a ResilientRunner on a
// GOMAXPROCS-wide pool, the way the campaign scheduler runs it.
func measure(app apps.App, grid Grid) (*Campaign, error) {
	r := &ResilientRunner{App: app, Exec: poolExec(runtime.GOMAXPROCS(0))}
	c, _, err := r.Run(context.Background(), grid)
	return c, err
}

// renderFitResults stringifies fitted campaigns for byte comparison.
func renderFitResults(t *testing.T, fits []*FitResult) string {
	t.Helper()
	var b strings.Builder
	for _, f := range fits {
		for _, m := range metrics.All() {
			info := f.Info[m]
			fmt.Fprintf(&b, "%s/%s = %s (cv=%.17g)\n", f.App.Name, m, info.Model, info.CVScore)
		}
	}
	return b.String()
}

// TestFitAllParallelWorkerCountIndependent is the table-driven determinism
// test of FitAllObserved: fitting the same campaigns must render
// byte-identically for every worker count, with and without a shared
// cache, and Fit must agree with it campaign by campaign.
func TestFitAllParallelWorkerCountIndependent(t *testing.T) {
	c1, err := measure(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := measure(apps.NewLULESH(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	campaigns := []*Campaign{c1, c2}

	ref, refErrs, err := FitAllObserved(campaigns, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderFitResults(t, ref)

	var single []*FitResult
	for _, c := range campaigns {
		f, err := Fit(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, f)
	}
	if got := renderFitResults(t, single); got != want {
		t.Errorf("Fit differs from FitAllObserved:\n--- FitAllObserved ---\n%s--- Fit ---\n%s", want, got)
	}

	cases := []struct {
		name    string
		workers int
		cached  bool
	}{
		{"workers=2", 2, false},
		{"workers=4", 4, false},
		{"workers=8", 8, false},
		{"gomaxprocs", 0, false},
		{"workers=4 cached", 4, true},
		{"gomaxprocs cached", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cache *modeling.FitCache
			if tc.cached {
				cache = modeling.NewFitCache()
			}
			fits, errs, err := FitAllObserved(campaigns, nil, tc.workers, cache, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderFitResults(t, fits); got != want {
				t.Errorf("output differs from serial fit:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
			}
			if len(errs) != len(refErrs) {
				t.Errorf("error classes: %d, want %d", len(errs), len(refErrs))
			}
		})
	}
}

// TestFitAllObservedCacheReuse verifies that a shared cache lets a second
// fit of a campaign with identical samples reuse the first one's models.
func TestFitAllObservedCacheReuse(t *testing.T) {
	c, err := measure(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	cache := modeling.NewFitCache()
	first, _, err := FitAllObserved([]*Campaign{c}, nil, 4, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries := cache.Len()
	second, _, err := FitAllObserved([]*Campaign{c}, nil, 4, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != entries {
		t.Errorf("second fit grew the cache from %d to %d entries", entries, cache.Len())
	}
	if cache.Hits() == 0 {
		t.Error("second fit recorded no cache hits")
	}
	for _, m := range metrics.All() {
		if first[0].Info[m] != second[0].Info[m] {
			t.Errorf("%s: refit despite identical campaign", m)
		}
	}
}
