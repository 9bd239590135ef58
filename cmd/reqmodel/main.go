// Command reqmodel fits requirements models from measurement campaigns
// written by reqgen (the Extra-P step of the paper's workflow) and prints
// them in Table II style together with fit-quality statistics.
//
// Usage:
//
//	reqmodel kripke.json lulesh.json ...
//	reqmodel -quality kripke.json       # include per-metric fit quality
//	reqmodel -byregion profile.txt      # per-region models of a multi-region Extra-P file
//
// All campaign×metric fits are fanned across one worker pool with a shared
// fit cache, so fitting many files scales with the core count while the
// output stays byte-identical to fitting them one at a time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"extrareq"
	"extrareq/internal/codesign"
	"extrareq/internal/extrap"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/report"
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
		fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reqmodel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quality := fs.Bool("quality", false, "print per-metric fit quality (CV SMAPE, R²)")
	export := fs.String("export", "", "write the fitted models as JSON (consumable by 'codesign -models')")
	plotMetric := fs.String("plot", "", "render ASCII charts of one metric vs its model (e.g. 'flop', 'bytes_used')")
	byRegion := fs.Bool("byregion", false, "fit every region×metric series of Extra-P text files separately")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errUsage
	}
	if *byRegion {
		return fitByRegion(stdout, fs.Args())
	}

	// Load everything first, then fan every campaign×metric fit across one
	// worker pool with a shared cache (identical series across files fit
	// only once).
	campaigns := make([]*workload.Campaign, fs.NArg())
	for i, path := range fs.Args() {
		c, err := loadCampaign(path)
		if err != nil {
			return err
		}
		campaigns[i] = c
	}
	fits, _, err := workload.FitAllObserved(campaigns, nil, 0, modeling.NewFitCache(), nil)
	if err != nil {
		return err
	}
	var fitted []extrareq.App
	for i, fit := range fits {
		fitted = append(fitted, fit.App)
		if *plotMetric != "" {
			m, ok := metrics.ByName(*plotMetric)
			if !ok {
				return fmt.Errorf("unknown metric %q", *plotMetric)
			}
			fmt.Fprintln(stdout, report.ModelPlot(campaigns[i], fit.Info[m], m))
		}
	}
	if *quality {
		fmt.Fprintln(stdout, report.QualityTable(fits))
	}
	table, err := extrareq.RenderTable2(fitted, extrareq.DefaultBaseline())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, table)

	if *export != "" {
		data, err := codesign.SaveApps(fitted)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*export, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote models to %s\n", *export)
	}
	return nil
}

// fitByRegion fits every region×metric series of the given Extra-P text
// files through the parallel pipeline and prints one model per series.
func fitByRegion(w io.Writer, paths []string) error {
	cache := modeling.NewFitCache()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		e, err := extrap.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		fits, err := extrap.FitExperiment(e, nil, 0, cache)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:\n", path)
		for _, s := range fits {
			if s.Err != nil {
				fmt.Fprintf(w, "  %s/%s: unfittable: %v\n", s.Region, s.Metric, s.Err)
				continue
			}
			fmt.Fprintf(w, "  %s/%s = %s  (CV SMAPE %.1f%%, R² %.3f)\n",
				s.Region, s.Metric, s.Info.Model, s.Info.SMAPE, s.Info.RSquared)
		}
	}
	return nil
}

// loadCampaign reads a campaign from JSON (".json") or the Extra-P text
// format (any other extension).
func loadCampaign(path string) (*workload.Campaign, error) {
	if strings.HasSuffix(path, ".json") {
		return workload.Load(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := extrap.Read(f)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return extrap.ToCampaign(e, name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reqmodel:", err)
	os.Exit(1)
}
