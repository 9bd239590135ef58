package workload

import (
	"context"
	"sort"
	"sync"
	"testing"

	"extrareq/internal/apps"
)

// Progress must fire once per configuration with unique done values that
// cover 1..total, regardless of worker interleaving.
func TestResilientRunnerProgress(t *testing.T) {
	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("app Kripke not registered")
	}
	grid := Grid{Procs: []int{2, 4}, Ns: []int{64, 128, 256}, Seed: 3}
	var mu sync.Mutex
	var dones []int
	var totals []int
	r := &ResilientRunner{
		App:  app,
		Exec: poolExec(3),
		Progress: func(done, total int) {
			mu.Lock()
			dones = append(dones, done)
			totals = append(totals, total)
			mu.Unlock()
		},
	}
	if _, _, err := r.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	wantTotal := len(grid.Procs) * len(grid.Ns)
	if len(dones) != wantTotal {
		t.Fatalf("got %d progress callbacks, want %d", len(dones), wantTotal)
	}
	sort.Ints(dones)
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done values %v do not cover 1..%d", dones, wantTotal)
		}
	}
	for _, tot := range totals {
		if tot != wantTotal {
			t.Fatalf("total %d reported, want %d", tot, wantTotal)
		}
	}
}
