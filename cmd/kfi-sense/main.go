// Kfi-sense runs the whole-target static error-sensitivity analyzer
// (internal/staticsense) over a built kernel image and reports, without
// executing a single injection, how each injection space — code, data,
// stack, and system registers — splits across the classification lattice,
// including the fraction predicted inert.
//
//	kfi-sense -platform both
//	kfi-sense -platform g4 -target data
//	kfi-sense -platform p4 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"kfi/internal/cc"
	"kfi/internal/cli"
	"kfi/internal/kernel"
	"kfi/internal/staticsense"
	"kfi/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kfi-sense:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-sense", flag.ContinueOnError)
	var (
		platformFlag = fs.String("platform", "both", "target platform: p4, g4, or both")
		scale        = fs.Int("scale", 1, "benchmark workload scale (changes the compiled image)")
		target       = fs.String("target", "all", "restrict the sweep report to one target class: code, data, stack, sysreg, or all")
		asJSON       = fs.Bool("json", false, "emit the per-target, per-class tallies as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	platforms, err := cli.ParsePlatforms(*platformFlag)
	if err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", *scale)
	}
	switch *target {
	case "all", "code", "data", "stack", "sysreg":
	default:
		return fmt.Errorf("unknown -target %q (want code, data, stack, sysreg, or all)", *target)
	}

	var reports []*staticsense.Report
	for _, p := range platforms {
		uimg, err := cc.Compile(workload.Program(*scale), p, kernel.UserBases)
		if err != nil {
			return err
		}
		sys, err := kernel.BuildSystem(p, uimg, workload.StandardProcs(), kernel.Options{})
		if err != nil {
			return err
		}
		an, err := staticsense.NewAnalyzer(staticsense.Config{
			Image:              sys.KernelImage,
			Prog:               sys.Prog,
			Proc:               sys.Src.Proc,
			KStackSize:         sys.KStackSize,
			HostReadGlobals:    kernel.HostReadGlobals(),
			HostReadTaskFields: kernel.HostReadTaskFields(),
		})
		if err != nil {
			return err
		}
		r, err := filterReport(an.Sweep(), *target)
		if err != nil {
			return err
		}
		reports = append(reports, r)
	}

	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	for _, r := range reports {
		fmt.Fprint(w, r.Render())
	}
	return nil
}

// filterReport restricts a whole-target sweep report to one target class,
// rebuilding the aggregate tallies from the surviving section so totals and
// fractions stay self-consistent.
func filterReport(r *staticsense.Report, target string) (*staticsense.Report, error) {
	if target == "all" {
		return r, nil
	}
	for _, t := range r.Targets {
		if t.Target != target {
			continue
		}
		return &staticsense.Report{
			Platform: r.Platform,
			Sites:    t.Sites,
			ByClass:  t.ByClass,
			Inert:    t.Inert,
			Hardened: r.Hardened,
			Targets:  []*staticsense.TargetReport{t},
		}, nil
	}
	return nil, fmt.Errorf("the %v sweep has no %q target class", r.Platform, target)
}
