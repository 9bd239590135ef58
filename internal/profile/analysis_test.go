package profile

import "testing"

// buildTestProfile makes: main(flop 1) -> solver(flop 10) -> {cg(flop 80),
// precond(flop 5)}, main -> io(flop 4).
func buildTestProfile() *Profiler {
	p := New()
	p.AddMetric(Flop, 1)
	p.Enter("solver")
	p.AddMetric(Flop, 10)
	p.Enter("cg")
	p.AddMetric(Flop, 80)
	p.Exit("cg")
	p.Enter("precond")
	p.AddMetric(Flop, 5)
	p.Exit("precond")
	p.Exit("solver")
	p.Enter("io")
	p.AddMetric(Flop, 4)
	p.Exit("io")
	return p
}

func TestInclusiveMetric(t *testing.T) {
	p := buildTestProfile()
	cases := []struct {
		path string
		want float64
	}{
		{"main", 100},
		{"main/solver", 95},
		{"main/solver/cg", 80},
		{"main/io", 4},
	}
	for _, c := range cases {
		got, ok := p.InclusiveMetric(c.path, "flop")
		if !ok || got != c.want {
			t.Errorf("InclusiveMetric(%q) = %g ok=%v, want %g", c.path, got, ok, c.want)
		}
	}
	if _, ok := p.InclusiveMetric("main/nope", "flop"); ok {
		t.Error("missing path should report !ok")
	}
	if _, ok := p.InclusiveMetric("wrong/solver", "flop"); ok {
		t.Error("wrong root should report !ok")
	}
}

func TestHotPath(t *testing.T) {
	p := buildTestProfile()
	// solver holds 95/100, cg holds 80/95: the hot path descends to cg.
	if got := p.HotPath("flop"); got != "main/solver/cg" {
		t.Errorf("HotPath = %q, want main/solver/cg", got)
	}
	// With a metric nobody recorded, the hot path is just the root.
	if got := p.HotPath("bytes_sent"); got != "main" {
		t.Errorf("HotPath(bytes_sent) = %q, want main", got)
	}
}

func TestHotPathStopsBelowMajority(t *testing.T) {
	p := New()
	p.InRegion("a", func() { p.AddMetric(Flop, 30) })
	p.InRegion("b", func() { p.AddMetric(Flop, 30) })
	p.InRegion("c", func() { p.AddMetric(Flop, 40) })
	// No child holds >= half of the total (100): stop at root.
	if got := p.HotPath("flop"); got != "main" {
		t.Errorf("HotPath = %q, want main (no majority child)", got)
	}
}

func TestTopPaths(t *testing.T) {
	p := buildTestProfile()
	top := p.TopPaths("flop", 2)
	if len(top) != 2 {
		t.Fatalf("got %d entries", len(top))
	}
	if top[0].Path != "main/solver/cg" || top[0].Exclusive != 80 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Path != "main/solver" || top[1].Exclusive != 10 {
		t.Errorf("top[1] = %+v", top[1])
	}
	if top[0].Inclusive != 80 || top[1].Inclusive != 95 {
		t.Errorf("inclusive values: %+v", top)
	}
	// k larger than the tree returns everything.
	if got := p.TopPaths("flop", 100); len(got) != 5 {
		t.Errorf("TopPaths(100) returned %d paths, want 5", len(got))
	}
}
