// Command scalingbugs runs the scaling-bug hunt that the Extra-P line of
// work pioneered (the paper's reference [5]): it measures a proxy
// application with per-call-path attribution, fits a scaling model for
// every program location, and reports the locations whose requirement grows
// super-logarithmically with the process count, ranked by how much they
// inflate between the measured scale and a target scale.
//
// Usage:
//
//	scalingbugs -app Kripke -metric loads
//	scalingbugs -app icoFoam -metric flop -p 1048576 -n 16384
//	scalingbugs -app MILC -metric comm
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"extrareq/internal/apps"
	"extrareq/internal/workload"
)

// errUsage reports a command line the flag set rejected; the usage text
// is already on stderr.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "scalingbugs:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("scalingbugs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "Kripke", "application to analyze")
	metric := fs.String("metric", "loads", "metric: flop, loads, stores, bytes_sent, bytes_recv, or comm")
	p := fs.Float64("p", 1<<20, "target process count")
	n := fs.Float64("n", 1<<14, "target problem size per process")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	app, ok := apps.ByName(*appName)
	if !ok {
		return fmt.Errorf("unknown application %q (have %v)", *appName, apps.Names())
	}
	fmt.Fprintf(stderr, "scalingbugs: measuring %s with call-path attribution...\n", app.Name())
	c, err := workload.RunWithPaths(app, workload.DefaultGrid(app.Name()))
	if err != nil {
		return err
	}
	bugs, err := workload.FindScalingBugs(c, *metric, *p, *n, nil)
	if err != nil {
		return err
	}
	if len(bugs) == 0 {
		fmt.Fprintf(stdout, "%s: no %s scaling bugs — every program location grows at most logarithmically with p.\n",
			app.Name(), *metric)
		return nil
	}
	fmt.Fprintf(stdout, "%s: %d program location(s) with super-logarithmic %s growth (target p=%g, n=%g):\n\n",
		app.Name(), len(bugs), *metric, *p, *n)
	for i, b := range bugs {
		fmt.Fprintf(stdout, "%2d. %s\n", i+1, workload.FormatBug(b))
	}
	return nil
}
