package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extrareq"
	"extrareq/internal/codesign"
	"extrareq/internal/extrap"
)

// writeCampaigns measures a small Kripke grid the way reqgen does and
// writes it as JSON and as Extra-P text, returning both paths.
func writeCampaigns(t *testing.T) (jsonPath, extrapPath string) {
	t.Helper()
	dir := t.TempDir()
	grid := extrareq.Grid{Procs: []int{2, 4, 8, 16, 32}, Ns: []int{32, 64, 128, 256, 512}, Seed: 42}
	res, err := extrareq.Run(context.Background(), extrareq.Spec{App: "Kripke", Grid: grid}, extrareq.WithoutModels())
	if err != nil {
		t.Fatal(err)
	}
	jsonPath = filepath.Join(dir, "kripke.json")
	if err := res.Campaign.Save(jsonPath); err != nil {
		t.Fatal(err)
	}
	e, err := extrap.FromCampaign(res.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := extrap.Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	extrapPath = filepath.Join(dir, "kripke.txt")
	if err := os.WriteFile(extrapPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return jsonPath, extrapPath
}

func runReqmodel(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("reqmodel %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// Fitting a JSON campaign prints Table II, the quality table and the
// plots on request, and -export writes models codesign can load.
func TestRunFitsAndExports(t *testing.T) {
	jsonPath, extrapPath := writeCampaigns(t)
	export := filepath.Join(t.TempDir(), "models.json")
	out := runReqmodel(t, "-quality", "-plot", "flop", "-export", export, jsonPath)
	for _, want := range []string{
		"Model fit quality.",
		"Kripke: #FLOP vs n",
		"Table II: Per-process requirements models.",
		"wrote models to " + export,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := codesign.LoadApps(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Name != "Kripke" {
		t.Fatalf("exported %d apps (%v), want Kripke alone", len(loaded), loaded)
	}

	// The Extra-P text of the same campaign fits to the same Table II.
	table := runReqmodel(t, jsonPath)
	if got := runReqmodel(t, extrapPath); got != strings.Replace(table, "Kripke", "kripke", 1) {
		t.Errorf("Extra-P input fits differently from JSON input:\n%s\nvs\n%s", got, table)
	}
}

func TestRunByRegion(t *testing.T) {
	_, extrapPath := writeCampaigns(t)
	out := runReqmodel(t, "-byregion", extrapPath)
	if !strings.HasPrefix(out, extrapPath+":\n") || !strings.Contains(out, "/flop = ") {
		t.Errorf("per-region output:\n%s", out)
	}
}

func TestRunRejects(t *testing.T) {
	jsonPath, _ := writeCampaigns(t)
	if err := run(nil, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("no input files: err = %v, want errUsage", err)
	}
	for name, args := range map[string][]string{
		"unknown metric": {"-plot", "bogus", jsonPath},
		"missing file":   {filepath.Join(t.TempDir(), "absent.json")},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil || errors.Is(err, errUsage) {
			t.Errorf("%s: err = %v, want a reported failure", name, err)
		}
	}
}
