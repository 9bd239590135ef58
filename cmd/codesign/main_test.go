package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCodesign runs the command in-process and returns its stdout.
func runCodesign(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("codesign %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// Every study renders from the paper models.
func TestEveryStudy(t *testing.T) {
	cases := map[string]string{
		"upgrade":     "System upgrade C: Double the memory",
		"exascale":    "does not fit", // icoFoam at exascale (Table VII)
		"walkthrough": "Table IV: Workflow for determining the requirements of LULESH",
		"rated":       "Rated exascale study for LULESH",
		"port":        "Porting LULESH: requirement balance shifts",
		"share":       "Space-shared system study.",
		"assess":      "Recommended upgrade:",
	}
	for study, want := range cases {
		t.Run(study, func(t *testing.T) {
			out := runCodesign(t, "-study", study)
			if !strings.Contains(out, want) {
				t.Errorf("-study %s output lacks %q:\n%s", study, want, out)
			}
		})
	}
}

// -study assess output is pinned byte for byte for a straw-man system, a
// custom system, and inline custom models.
func TestAssessGolden(t *testing.T) {
	cases := map[string][]string{
		"assess_milc_vector.golden":   {"-app", "MILC", "-system", "Vector"},
		"assess_custom_system.golden": {"-app", "Kripke", "-system", "custom", "-p", "1e6", "-mem", "2e9", "-flops", "1e10"},
		"assess_custom_models.golden": {"-app", "Relearn", "-system", "Hybrid", "-custom-models",
			"bytes_used=1e3*n; flop=1e8*n^1.5*p^0.5; bytes_sent_recv=1e4*n; loads_stores=1e8*n; stack_distance=100"},
	}
	for golden, args := range cases {
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := runCodesign(t, append([]string{"-study", "assess"}, args...)...); got != string(want) {
				t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

func TestRunRejects(t *testing.T) {
	cases := map[string][]string{
		"unknown study":  {"-study", "bogus"},
		"unknown source": {"-source", "bogus"},
		"unknown app":    {"-study", "assess", "-app", "bogus"},
		"unknown system": {"-study", "assess", "-system", "bogus"},
		"bad model spec": {"-custom-models", "flop=("},
		"missing models": {"-models", filepath.Join(t.TempDir(), "absent.json")},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args, io.Discard, io.Discard); err == nil || errors.Is(err, errUsage) {
				t.Errorf("codesign %s: err = %v, want a reported failure", strings.Join(args, " "), err)
			}
		})
	}
	if err := run([]string{"-no-such-flag"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: err = %v, want errUsage", err)
	}
}

// The documented workflow end to end: reqgen measures a small grid,
// reqmodel -export fits it, and codesign -models studies the fitted models.
func TestReqgenReqmodelCodesignRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := func(name string) string {
		path := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", path, "extrareq/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return path
	}
	campaign := filepath.Join(dir, "kripke.json")
	models := filepath.Join(dir, "models.json")
	steps := [][]string{
		{bin("reqgen"), "-app", "Kripke", "-procs", "2,4,8,16,32", "-ns", "32,64,128,256,512", "-out", campaign},
		{bin("reqmodel"), "-export", models, campaign},
	}
	for _, step := range steps {
		if out, err := exec.Command(step[0], step[1:]...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", filepath.Base(step[0]), err, out)
		}
	}
	out := runCodesign(t, "-study", "upgrade", "-models", models)
	if !strings.Contains(out, "Ratios                    Kripke  Baseline") {
		t.Errorf("upgrade study over the fitted models lacks the Kripke column:\n%s", out)
	}
	if out := runCodesign(t, "-study", "assess", "-app", "Kripke", "-models", models); !strings.Contains(out, `Design assessment: Kripke on "Vector"`) {
		t.Errorf("assessment over the fitted models:\n%s", out)
	}
}
