// Command kfi-campaign runs the paper's error-injection campaigns against
// one or both simulated platforms and prints the Table 5/6-style statistics,
// crash-cause distributions, and cycles-to-crash histograms. Raw results can
// be logged as JSON lines for later analysis with kfi-report.
//
// Examples:
//
//	kfi-campaign -platform both -campaign all -n 300
//	kfi-campaign -platform p4 -campaign code -n 1790 -out p4-code.jsonl
//	kfi-campaign -paper-fraction 0.05    # 5% of the paper's 115k injections
//
// With -submit, the same flags describe campaigns handed to a ctlplane
// coordinator instead of run locally; worker machines started with
// `kfi-ctl work` execute them, and the derived per-(platform, campaign)
// seeds match a local run of the same flags exactly:
//
//	kfi-campaign -submit -coordinator 127.0.0.1:9380 -platform both -campaign all -n 300
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"kfi"
	"kfi/internal/cli"
	"kfi/internal/core"
	"kfi/internal/crashnet"
	"kfi/internal/ctlplane"
	"kfi/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kfi-campaign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kfi-campaign", flag.ContinueOnError)
	var (
		platformFlag = fs.String("platform", "both", "target platform: p4, g4, or both")
		campaignFlag = fs.String("campaign", "all", "campaign: stack, sysreg, data, code, or all")
		n            = fs.Int("n", 0, "injections per campaign (0 = defaults)")
		paperFrac    = fs.Float64("paper-fraction", 0, "scale the paper's own campaign sizes instead of -n")
		seed         = fs.Int64("seed", 1, "target-generation seed")
		scale        = fs.Int("scale", 1, "benchmark workload scale")
		out          = fs.String("out", "", "append raw results as JSON lines to this file")
		figures      = fs.Bool("figures", true, "print crash-cause and latency figures")
		quiet        = fs.Bool("quiet", false, "suppress progress output")
		burst        = fs.Int("burst", 1, "bits flipped per injection (1 = the paper's single-bit model)")
		crashAddr    = fs.String("crashnet", "", "UDP address of a kfi-monitor collecting crash packets")
		engineFlag   = fs.String("engine", "", "execution engine: interp, predecode, or translate (default: the platform default)")
		verbose      = fs.Bool("v", false, "print execution-engine counters after each platform")
		sense        = fs.Bool("sense", false, "run the static error-sensitivity pre-pass and print the predicted-vs-observed confusion matrix")
		secCache     = fs.String("section-cache", "", "per-section outcome cache directory: re-runs replay unchanged sections' results and re-inject only changed ones")
		journalDir   = fs.String("journal", "", "durably journal completed outcomes to this directory (one file per platform+campaign)")
		resume       = fs.Bool("resume", false, "resume from the journals in -journal, skipping already-completed injections")
		retries      = fs.Int("retries", 0, "supervised attempts per injection before quarantine (0 = default 3)")
		nodes        = fs.Int("nodes", 0, "parallel guest systems per platform (0 = one per host CPU)")
		cpuprofile   = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		submit       = fs.Bool("submit", false, "submit the campaigns to a ctlplane coordinator instead of running locally")
		coordinator  = fs.String("coordinator", "", "coordinator base URL for -submit")
		harden       = fs.String("harden", "", "build the guest kernel with software fault-detection passes: dup, cfsig, dup+cfsig, or all")
		hardenStudy  = fs.Bool("harden-study", false, "run matched hardened/unhardened campaigns from the same injection plan and print the detection-coverage table (requires -harden)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	platforms, err := cli.ParsePlatforms(*platformFlag)
	if err != nil {
		return err
	}
	campaigns, err := cli.ParseCampaigns(*campaignFlag)
	if err != nil {
		return err
	}

	if *burst < 1 || *burst > 8 {
		return fmt.Errorf("-burst must be in [1, 8], got %d", *burst)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", *retries)
	}
	hardenOpts, err := kfi.ParseHardenOptions(*harden)
	if err != nil {
		return err
	}
	engine, err := cli.ParseEngine(*engineFlag)
	if err != nil {
		return err
	}
	if *hardenStudy {
		if !hardenOpts.Enabled() {
			return fmt.Errorf("-harden-study requires -harden (e.g. -harden dup+cfsig)")
		}
		if *submit {
			return fmt.Errorf("-harden-study runs locally; submit the hardened and unhardened campaigns separately instead")
		}
		return runHardenStudy(platforms, campaigns, hardenOpts, *n, *seed, *scale, uint8(*burst), *quiet)
	}
	if *submit {
		if *coordinator == "" {
			return fmt.Errorf("-submit requires -coordinator")
		}
		if *n <= 0 {
			return fmt.Errorf("-submit requires an explicit -n (the coordinator does not scale paper sizes)")
		}
		client, err := ctlplane.NewClient(*coordinator)
		if err != nil {
			return fmt.Errorf("-coordinator: %w", err)
		}
		for _, p := range platforms {
			for _, c := range campaigns {
				spec := ctlplane.SpecFor(p, c, *n, *seed, uint8(*burst), *scale, *retries, hardenOpts, engine)
				st, err := client.Submit(spec)
				if err != nil {
					return fmt.Errorf("submitting %v %v: %w", p, c, err)
				}
				fmt.Printf("submitted %-28s %-16s %-18s n=%-6d state=%s\n",
					st.ID, p.Short(), c, *n, st.State)
			}
		}
		fmt.Printf("watch with: kfi-ctl status -coordinator %s\n", client.Base)
		return nil
	} else if *coordinator != "" {
		return fmt.Errorf("-coordinator requires -submit")
	}

	counts := map[kfi.Campaign]int{}
	if *n > 0 {
		for _, c := range campaigns {
			counts[c] = *n
		}
	}

	var logFile *os.File
	if *out != "" {
		logFile, err = os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer logFile.Close()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	if *nodes <= 0 {
		*nodes = runtime.NumCPU()
	}
	cfg := kfi.StudyConfig{
		Platforms:     platforms,
		Campaigns:     campaigns,
		Counts:        counts,
		PaperFraction: *paperFrac,
		Seed:          *seed,
		Build:         kfi.BuildOptions{Scale: *scale, Harden: hardenOpts},
		Nodes:         *nodes,
	}
	cfg.Burst = uint8(*burst)
	cfg.Exec = kfi.ExecOptions{
		Engine:       engine,
		Sense:        *sense,
		SectionCache: *secCache,
		MaxAttempts:  *retries,
	}
	if *resume && *journalDir == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	cfg.JournalDir = *journalDir
	cfg.Resume = *resume
	if *crashAddr != "" {
		sender, err := crashnet.NewUDPSender(*crashAddr)
		if err != nil {
			return fmt.Errorf("crashnet: %w", err)
		}
		defer sender.Close()
		cfg.Build.CrashSender = sender
	}
	if !*quiet {
		cfg.Progress = func(p kfi.Platform, c kfi.Campaign, done, total int) {
			if done == total || done%50 == 0 {
				fmt.Fprintf(os.Stderr, "\r%-18s %-18s %6d/%d", p.Short(), c, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}

	study, err := kfi.RunStudy(cfg)
	if err != nil {
		return err
	}

	for _, p := range platforms {
		fmt.Println(study.Table(p))
		if q := quarantined(study, p, campaigns); q > 0 {
			fmt.Printf("Quarantined on %v (harness retry budget exhausted, excluded from the table): %d\n\n", p, q)
		}
		if *verbose {
			pr := study.PerPlatform[p]
			for _, c := range campaigns {
				if oc := pr.Outcomes[c]; oc != nil {
					fmt.Printf("%v %v — %s\n", p, c, stats.EngineLine(oc.Engine.String(), oc.EngineStats))
				}
			}
			fmt.Println()
		}
		if cfg.Exec.Sense {
			pr := study.PerPlatform[p]
			for _, c := range campaigns {
				if oc := pr.Outcomes[c]; oc != nil {
					if conf := stats.Confuse(oc.Results); conf.Annotated > 0 {
						fmt.Printf("%v %v — %s\n", p, c, conf.Render())
					}
				}
			}
		}
		if *figures {
			fmt.Println(study.CauseFigure(p, 0))
			for _, c := range campaigns {
				fmt.Println(study.CauseFigure(p, c))
			}
			fmt.Printf("Registers whose corruption manifested on %v: %s\n\n",
				p, strings.Join(study.SensitiveRegisters(p), ", "))
		}
		if logFile != nil {
			pr := study.PerPlatform[p]
			for _, c := range campaigns {
				if oc := pr.Outcomes[c]; oc != nil {
					if err := stats.WriteResults(logFile, p, c, oc.Results); err != nil {
						return err
					}
					if *verbose {
						// Engine-counter summary records ride along only on
						// request, so default logs stay byte-stable across
						// runs (counters vary with resume and farm layout).
						if err := stats.WriteEngineStats(logFile, p, c, oc.Engine, oc.EngineStats); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	if *figures {
		for _, c := range campaigns {
			fmt.Println(study.LatencyFigure(c))
		}
	}
	return nil
}

// runHardenStudy executes the matched hardened-vs-unhardened study: every
// requested campaign runs at single-bit and double-bit (adjacent-pair) burst
// widths against both builds, and each platform prints a detection-coverage
// table plus the hardening's static and dynamic overhead.
func runHardenStudy(platforms []kfi.Platform, campaigns []kfi.Campaign,
	opts kfi.HardenOptions, n int, seed int64, scale int, burst uint8, quiet bool) error {
	if n <= 0 {
		n = 100
	}
	wide := burst
	if wide <= 1 {
		wide = 2 // the double-bit adjacent-pair model
	}
	for _, p := range platforms {
		var specs []kfi.HardenSpec
		for _, c := range campaigns {
			s := kfi.HardenSpec{Campaign: c, N: n, Seed: core.SpecSeed(seed, p, c)}
			specs = append(specs, s)
			s.Burst = wide
			specs = append(specs, s)
		}
		var progress func(done, total int)
		if !quiet {
			progress = func(done, total int) {
				if done == total || done%50 == 0 {
					fmt.Fprintf(os.Stderr, "\r%-18s harden-study %6d/%d", p.Short(), done, total)
					if done == total {
						fmt.Fprintln(os.Stderr)
					}
				}
			}
		}
		study, err := kfi.RunHardenStudy(p, scale, opts, specs, progress)
		if err != nil {
			return err
		}
		fmt.Printf("%v — Detection Coverage, Hardened (%s) vs Unhardened\n", p, opts)
		fmt.Println(stats.CoverageHeader())
		for _, row := range study.Rows {
			b := row.Spec.Burst
			if b == 0 {
				b = 1
			}
			label := func(variant string) string {
				return fmt.Sprintf("%v %db %s", row.Spec.Campaign, b, variant)
			}
			fmt.Println(kfi.Summarize(row.Hard).CoverageRow(label("hardened")))
			fmt.Println(kfi.Summarize(row.Plain).CoverageRow(label("unhardened")))
		}
		fmt.Printf("Overhead: code x%.2f (%d -> %d bytes), fault-free run x%.2f (%d -> %d cycles)\n\n",
			study.CodeOverhead(), study.CodeBytes, study.HardCodeBytes,
			study.CycleOverhead(), study.GoldenCycles, study.HardGoldenCycles)
	}
	return nil
}

// quarantined sums a platform's quarantine counts across campaigns.
func quarantined(study *kfi.StudyResult, p kfi.Platform, campaigns []kfi.Campaign) int {
	pr := study.PerPlatform[p]
	if pr == nil {
		return 0
	}
	q := 0
	for _, c := range campaigns {
		if oc := pr.Outcomes[c]; oc != nil {
			q += oc.Counts.Quarantined
		}
	}
	return q
}
