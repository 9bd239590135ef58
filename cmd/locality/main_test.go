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

// The default sweep (n = 8..64, b = 4) is pinned byte for byte: the
// distance table and the four fitted stack-distance models.
func TestRunDefaultGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output differs from default.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunRejects(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-b", "x"}, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Errorf("bad flag value: err = %v, want errUsage", err)
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
	// main adds the one "locality:" prefix; the error itself carries none.
	for _, ns := range []string{"8,x", "8,1"} {
		err := run([]string{"-ns", ns}, &stdout, &stderr)
		if err == nil {
			t.Errorf("-ns %s accepted", ns)
		} else if strings.HasPrefix(err.Error(), "locality:") {
			t.Errorf("-ns %s: error %q repeats the command prefix", ns, err)
		}
	}
}
