package workload

import (
	"strings"
	"testing"

	"extrareq/internal/apps"
)

func TestFindScalingBugsKripkeLoads(t *testing.T) {
	// The Kripke sweep's per-zone schedule scan is the paper's flagged
	// n·p loads term; the bug finder must locate it at the sweep path.
	c, err := RunWithPaths(apps.NewKripke(), DefaultGrid("Kripke"))
	if err != nil {
		t.Fatal(err)
	}
	bugs, err := FindScalingBugs(c, "loads", 1<<20, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bugs) == 0 {
		t.Fatal("no scaling bugs found; expected the sweep's n·p loads")
	}
	top := bugs[0]
	if !strings.Contains(top.Path, "sweep") {
		t.Errorf("top bug at %s, want the sweep path", top.Path)
	}
	if poly, _ := top.PGrowth.GrowthKey(); poly < 0.5 {
		t.Errorf("top bug p-growth %+v, want ~linear", top.PGrowth)
	}
	if top.Severity <= 1 {
		t.Errorf("severity = %g, want > 1", top.Severity)
	}
	if line := FormatBug(top); !strings.Contains(line, "loads") {
		t.Errorf("FormatBug output: %s", line)
	}
}

func TestFindScalingBugsCleanMetric(t *testing.T) {
	// Kripke's FLOPs are p-independent: no computation scaling bugs.
	c, err := RunWithPaths(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	bugs, err := FindScalingBugs(c, "flop", 1<<20, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bugs) != 0 {
		for _, b := range bugs {
			t.Errorf("unexpected flop bug: %s", FormatBug(b))
		}
	}
}

func TestFindScalingBugsIcoFoamFlops(t *testing.T) {
	// icoFoam's pressure CG couples p into computation (iterations grow
	// with sqrt(n·p)) — the finder must flag the CG path.
	c, err := RunWithPaths(apps.NewIcoFoam(), DefaultGrid("icoFoam"))
	if err != nil {
		t.Fatal(err)
	}
	bugs, err := FindScalingBugs(c, "flop", 1<<20, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bugs) == 0 {
		t.Fatal("expected a flop scaling bug in icoFoam")
	}
	if !strings.Contains(bugs[0].Path, "pressure_cg") {
		t.Errorf("top bug at %s, want pressure_cg", bugs[0].Path)
	}
}

func TestFindScalingBugsEmptyCampaign(t *testing.T) {
	if _, err := FindScalingBugs(&PathCampaign{}, "flop", 10, 10, nil); err == nil {
		t.Fatal("empty campaign accepted")
	}
}

// An unknown metric name reads zeros on every path, which used to come
// back as "no scaling bugs"; it must be an error naming the valid metrics.
func TestFindScalingBugsUnknownMetric(t *testing.T) {
	c := &PathCampaign{Samples: []PathSample{{
		Sample:      Sample{P: 2, N: 64},
		PathMetrics: map[string]map[string]float64{"main/sweep": {"loads": 1}},
	}}}
	bugs, err := FindScalingBugs(c, "bogus", 1<<20, 1<<14, nil)
	if err == nil {
		t.Fatalf("metric \"bogus\" accepted, returned %d bugs", len(bugs))
	}
	for _, want := range []string{`"bogus"`, "flop", "loads", "stores", "bytes_sent", "bytes_recv", "comm"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestIsMPIPath(t *testing.T) {
	cases := map[string]bool{
		"main/cg/MPI_Allreduce":  true,
		"main/halo/MPI_Sendrecv": true,
		"main/sweep":             false,
		"main/MPI_less/kernel":   false,
	}
	for path, want := range cases {
		if got := IsMPIPath(path); got != want {
			t.Errorf("IsMPIPath(%q) = %v, want %v", path, got, want)
		}
	}
}
