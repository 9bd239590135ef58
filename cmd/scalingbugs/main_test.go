package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The Kripke loads hunt is pinned byte for byte: one super-linear location,
// the sweep, with its model and severity.
func TestRunKripkeLoadsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "kripke_loads.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-app", "Kripke", "-metric", "loads"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output differs from kripke_loads.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunRejects(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-p", "x"}, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Errorf("bad flag value: err = %v, want errUsage", err)
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
	if err := run([]string{"-app", "bogus"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown app: err = %v", err)
	}
	stdout.Reset()
	err := run([]string{"-metric", "bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "comm") {
		t.Errorf("unknown metric: err = %v, want one listing the valid metrics", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown metric printed a verdict: %q", stdout.String())
	}
}
