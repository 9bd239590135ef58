// Command codesign runs the paper's co-design studies from requirements
// models: the relative upgrade comparison (Tables III-V), the absolute
// exascale straw-man study (Tables VI-VII), and the complete assessment of
// one application on one candidate system (§II-E).
//
// Usage:
//
//	codesign -study upgrade                 # Table V from the paper models
//	codesign -study exascale                # Table VII
//	codesign -study walkthrough -app LULESH # Table IV
//	codesign -study upgrade -p 1048576 -mem 4294967296
//	codesign -study upgrade -models m.json      # fitted models from reqmodel
//	codesign -study upgrade -source measured    # measure + fit, then study
//	codesign -study assess -app MILC -system Vector
//	codesign -study assess -app Kripke -system custom -p 1e6 -mem 2e9 -flops 1e10
//	codesign -study assess -app X -custom-models 'bytes_used=1e3*n; flop=1e8*n^1.5*p^0.5; ...'
//
// -study assess prints the operating point, the absolute per-process
// requirements with bottleneck flags, the rated per-resource service
// times, and the upgrade comparison with a recommendation. -system names a
// Table VI straw man, or 'custom' for a system of -p processors with -mem
// bytes and -flops flop/s each.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"extrareq"
	"extrareq/internal/codesign"
	"extrareq/internal/machine"
)

// errUsage reports a command line the flag set rejected; the flag package
// has already printed the complaint and the usage text.
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
	fs := flag.NewFlagSet("codesign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		study   = fs.String("study", "upgrade", "study: 'upgrade' (Table V), 'exascale' (Table VII), 'walkthrough' (Table IV), 'rated', 'port', 'share', or 'assess' (one app on one system)")
		appName = fs.String("app", "LULESH", "application for the single-app studies (walkthrough, rated, port, assess)")
		p       = fs.Float64("p", 0, "baseline process count (default 2^16); processor count of -system custom")
		mem     = fs.Float64("mem", 0, "baseline memory per process in bytes (default 2 GiB); memory per processor of -system custom")
		p2      = fs.Float64("p2", 1<<20, "target system process count for -study port")
		mem2    = fs.Float64("mem2", 256<<20, "target system memory per process for -study port")
		sysName = fs.String("system", "Vector", "system for -study assess: a Table VI straw-man name, or 'custom'")
		flops   = fs.Float64("flops", 1e10, "flop/s per processor of -system custom")
		models  = fs.String("models", "", "JSON file with fitted models (default: the paper's Table II models)")
		custom  = fs.String("custom-models", "", "inline model spec for -app, replacing every other model source, e.g. 'bytes_used=1e3*n; flop=1e8*n^1.5*p^0.5; bytes_sent_recv=1e4*n; loads_stores=1e8*n; stack_distance=100'")
		source  = fs.String("source", "paper", "model source: 'paper' (published Table II models) or 'measured' (run the full measure+fit pipeline)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	var apps []extrareq.App
	switch {
	case *custom != "":
		app, err := codesign.ParseApp(*appName, *custom)
		if err != nil {
			return err
		}
		apps = []extrareq.App{app}
	case *models != "":
		data, err := os.ReadFile(*models)
		if err != nil {
			return err
		}
		if apps, err = codesign.LoadApps(data); err != nil {
			return err
		}
	case *source == "measured":
		fmt.Fprintln(stderr, "codesign: measuring all five proxy applications (this takes a few seconds)...")
		results, _, err := extrareq.RunAll(context.Background())
		if err != nil {
			return err
		}
		for _, r := range results {
			apps = append(apps, r.Requirements.App)
		}
	case *source == "paper":
		apps = extrareq.PaperApps()
	default:
		return fmt.Errorf("unknown source %q (want 'paper' or 'measured')", *source)
	}
	base := extrareq.DefaultBaseline()
	if *p > 0 {
		base.P = *p
	}
	if *mem > 0 {
		base.Mem = *mem
	}

	switch *study {
	case "upgrade":
		fmt.Fprintln(stdout, extrareq.RenderTable3())
		out, err := extrareq.StudyUpgrades(apps, base)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, extrareq.RenderTable5(out, names(apps)))
	case "exascale":
		fmt.Fprintln(stdout, extrareq.RenderTable6())
		res, err := extrareq.StudyExascale(apps)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, extrareq.RenderTable7(res))
	case "walkthrough":
		app, err := byName(apps, *appName)
		if err != nil {
			return err
		}
		out, err := extrareq.RenderTable4(app, base, machine.Upgrades()[0])
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, out)
	case "rated":
		app, err := byName(apps, *appName)
		if err != nil {
			return err
		}
		outcomes, err := extrareq.StudyRated(app, func(s extrareq.System) extrareq.Rates {
			return extrareq.DefaultRates(s.FlopsPerProcessor)
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, extrareq.RenderRated(app.Name, outcomes))
	case "port":
		app, err := byName(apps, *appName)
		if err != nil {
			return err
		}
		res, err := extrareq.StudyPort(app, base, extrareq.Skeleton{P: *p2, Mem: *mem2})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, extrareq.RenderPort(res))
	case "share":
		// Equal shares across all loaded apps that have footprint models.
		fractions := make([]float64, len(apps))
		for i := range fractions {
			fractions[i] = 1 / float64(len(apps))
		}
		outcomes, err := extrareq.StudyShared(apps, base, fractions)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, extrareq.RenderShared(outcomes))
	case "assess":
		app, err := byName(apps, *appName)
		if err != nil {
			return err
		}
		sys, err := system(*sysName, base, *flops)
		if err != nil {
			return err
		}
		d, err := extrareq.Assess(app, sys, extrareq.DefaultRates(sys.FlopsPerProcessor))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, extrareq.RenderDesign(d))
	default:
		return fmt.Errorf("unknown study %q (want upgrade, exascale, walkthrough, rated, port, share, or assess)", *study)
	}
	return nil
}

// system resolves -system: a Table VI straw man by name, or 'custom' for a
// one-node system with the baseline's process count and memory per process.
func system(name string, base extrareq.Skeleton, flops float64) (extrareq.System, error) {
	if name == "custom" {
		return extrareq.System{
			Name: "custom", Nodes: 1,
			Processors: base.P, MemPerProcessor: base.Mem, FlopsPerProcessor: flops,
		}, nil
	}
	for _, s := range extrareq.StrawMen() {
		if s.Name == name {
			return s, nil
		}
	}
	return extrareq.System{}, fmt.Errorf("unknown system %q (Table VI names, or 'custom')", name)
}

func names(apps []extrareq.App) []string {
	var out []string
	for _, a := range apps {
		out = append(out, a.Name)
	}
	return out
}

func byName(apps []extrareq.App, name string) (extrareq.App, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return extrareq.App{}, fmt.Errorf("app %q not found", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "codesign:", err)
	os.Exit(1)
}
