// Package core orchestrates the paper's measurement study: it builds the two
// guest systems (P4-class and G4-class) running the same kernel and
// benchmark, executes the four injection campaigns on each, and renders the
// paper's tables and figures from the collected outcomes. This is the
// top-level engine behind the public kfi API, the command-line tools, and
// the benchmark harness.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kfi/internal/campaign"
	"kfi/internal/crashnet"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/kir"
	"kfi/internal/platform"
	"kfi/internal/stats"
)

// System bundles a bootable guest with its golden checksum and kernel
// profile.
type System struct {
	Sys     *kernel.System
	Golden  uint32
	Profile *campaign.Profile
}

// BuildOptions tune system construction.
type BuildOptions struct {
	// Scale multiplies the benchmark's inner loops (1 = standard).
	Scale int
	// CrashSender optionally receives crash packets (remote collection).
	CrashSender crashnet.Sender
	// TimerPeriod and Watchdog override the machine defaults when nonzero.
	TimerPeriod uint64
	Watchdog    uint64
	// Kernel selects kernel build variants (ablation studies).
	Kernel kernel.ProgOptions
	// NoStackWrapper disables the G4 overflow check (ablation).
	NoStackWrapper bool
	// Harden applies the software fault-detection transforms to the kernel
	// image (the workload stays unhardened). Zero value: the paper-faithful
	// unhardened build, byte-identical to builds that predate hardening.
	Harden kir.HardenOpts
}

// BuildSystem compiles kernel + workload for the platform, boots, seals,
// measures the golden checksum, and profiles kernel usage.
func BuildSystem(platform isa.Platform, opts BuildOptions) (*System, error) {
	g, err := campaign.NewGuest(platform, opts.Scale, opts.kernelOptions())
	if err != nil {
		return nil, err
	}
	return &System{Sys: g.Sys, Golden: g.Golden, Profile: g.Profile}, nil
}

// kernelOptions maps the build options onto the guest kernel's.
func (o BuildOptions) kernelOptions() kernel.Options {
	return kernel.Options{
		TimerPeriod:    o.TimerPeriod,
		Watchdog:       o.Watchdog,
		CrashSender:    o.CrashSender,
		Prog:           o.Kernel,
		NoStackWrapper: o.NoStackWrapper,
		Harden:         o.Harden,
	}
}

// Campaigns in the paper's table order.
var Campaigns = []inject.Campaign{
	inject.CampStack, inject.CampSysReg, inject.CampData, inject.CampCode,
}

// PaperCounts are the paper's per-campaign injection counts (Tables 5-6).
var PaperCounts = map[isa.Platform]map[inject.Campaign]int{
	isa.CISC: {
		inject.CampStack: 10143, inject.CampSysReg: 3866,
		inject.CampData: 46000, inject.CampCode: 1790,
	},
	isa.RISC: {
		inject.CampStack: 3017, inject.CampSysReg: 3967,
		inject.CampData: 46000, inject.CampCode: 2188,
	},
}

// Config describes a full study.
type Config struct {
	Platforms []isa.Platform
	Campaigns []inject.Campaign
	// Counts gives per-campaign injection counts; when nil, DefaultCounts
	// are used. PaperFraction (when > 0) instead scales the paper's own
	// campaign sizes, preserving their relative proportions.
	Counts        map[inject.Campaign]int
	PaperFraction float64
	Seed          int64
	Build         BuildOptions
	// Burst widens the error model: 0 or 1 is the paper's single-bit flip,
	// k > 1 flips k adjacent bits per injection.
	Burst uint8
	// Exec holds the campaign execution options: engine, sense, section
	// cache, and the per-injection supervision policy (zero value: defaults
	// throughout).
	Exec campaign.ExecOptions
	// JournalDir, when set, durably journals every completed outcome to one
	// append-only file per (platform, campaign) under this directory, so an
	// interrupted study can be resumed.
	JournalDir string
	// Resume reopens existing journals under JournalDir and skips the
	// injections they already record, continuing each campaign bit-identically
	// where the interrupted run stopped. Campaigns without a journal (or with
	// an empty one) simply start from the beginning.
	Resume bool
	// Nodes runs each platform's campaigns on a farm of this many identical
	// guest systems (0 or 1: a single system, still respawned after a
	// watchdog timeout). Per-index results are identical for every node
	// count; only wall-clock changes.
	Nodes int
	// Progress, when set, receives per-injection progress.
	Progress func(p isa.Platform, c inject.Campaign, done, total int)
}

// DefaultCounts balance statistical usefulness against runtime.
var DefaultCounts = map[inject.Campaign]int{
	inject.CampStack:  300,
	inject.CampSysReg: 300,
	inject.CampData:   500,
	inject.CampCode:   300,
}

// CampaignOutcome is one campaign's collected results and summaries.
type CampaignOutcome struct {
	Spec    campaign.Spec
	Counts  stats.Counts
	Causes  stats.CauseDist
	Latency stats.LatencyHist
	Results []inject.Result
	// Engine is the execution engine the campaign ran on; EngineStats are
	// its observability counters (internal/platform.EngineStats).
	Engine      platform.EngineKind
	EngineStats platform.EngineStats
}

// PlatformResult holds one platform's campaigns.
type PlatformResult struct {
	Platform isa.Platform
	Golden   uint32
	Outcomes map[inject.Campaign]*CampaignOutcome
}

// StudyResult is the full cross-platform study.
type StudyResult struct {
	PerPlatform map[isa.Platform]*PlatformResult
}

// Run executes the configured study.
func Run(cfg Config) (*StudyResult, error) {
	if len(cfg.Platforms) == 0 {
		cfg.Platforms = []isa.Platform{isa.CISC, isa.RISC}
	}
	if len(cfg.Campaigns) == 0 {
		cfg.Campaigns = Campaigns
	}
	out := &StudyResult{PerPlatform: make(map[isa.Platform]*PlatformResult)}
	for _, p := range cfg.Platforms {
		farm, err := campaign.NewFarm(p, cfg.Nodes, cfg.Build.Scale, cfg.Build.kernelOptions())
		if err != nil {
			return nil, err
		}
		golden := farm.Golden()
		pr := &PlatformResult{Platform: p, Golden: golden,
			Outcomes: make(map[inject.Campaign]*CampaignOutcome)}
		out.PerPlatform[p] = pr
		for _, c := range cfg.Campaigns {
			n := cfg.Counts[c]
			if n == 0 && cfg.PaperFraction > 0 {
				n = int(float64(PaperCounts[p][c]) * cfg.PaperFraction)
				if n < 1 {
					n = 1
				}
			}
			if n == 0 {
				n = DefaultCounts[c]
			}
			var progress func(done, total int)
			if cfg.Progress != nil {
				p, c := p, c
				progress = func(done, total int) { cfg.Progress(p, c, done, total) }
			}
			spec := campaign.Spec{Campaign: c, N: n, Seed: SpecSeed(cfg.Seed, p, c),
				Burst: cfg.Burst}
			exec, err := openJournal(cfg, p, golden, spec)
			if err != nil {
				return nil, err
			}
			res, err := farm.RunWith(spec, progress, exec)
			if exec.Journal != nil {
				if cerr := exec.Journal.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
			if err != nil {
				return nil, err
			}
			pr.Outcomes[c] = summarize(res)
		}
	}
	return out, nil
}

// SpecSeed derives the per-(platform, campaign) target-generation seed from
// a study's base seed. Every execution mode — single system, in-process
// farm, or a ctlplane submission — must use this same derivation for its
// outcome tables to be comparable injection-for-injection.
func SpecSeed(base int64, p isa.Platform, c inject.Campaign) int64 {
	return base + int64(c)*1000 + int64(p)
}

// JournalPath returns the journal file used for one (platform, campaign)
// under a journal directory.
func JournalPath(dir string, p isa.Platform, c inject.Campaign) string {
	slug := strings.ReplaceAll(strings.ToLower(c.String()), " ", "-")
	return filepath.Join(dir, fmt.Sprintf("%s-%s.kjournal", strings.ToLower(p.Short()), slug))
}

// openJournal attaches the campaign's journal to the execution options:
// freshly created, or — with Resume — reopened with its completed outcomes
// loaded for skipping. A header mismatch (the journal on disk describes
// different experiments than this run) is an error, never silently ignored.
func openJournal(cfg Config, p isa.Platform, golden uint32, spec campaign.Spec) (campaign.ExecOptions, error) {
	exec := cfg.Exec
	if cfg.JournalDir == "" {
		return exec, nil
	}
	if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
		return exec, err
	}
	path := JournalPath(cfg.JournalDir, p, spec.Campaign)
	h := campaign.HeaderFor(p, golden, spec)
	h.Cached = cfg.Exec.SectionCache != ""
	if cfg.Exec.Engine != 0 {
		h.Engine = cfg.Exec.Engine.String()
	}
	if cfg.Build.Harden.Enabled() {
		h.Harden = cfg.Build.Harden.String()
	}
	if cfg.Resume {
		j, completed, err := campaign.ResumeJournal(path, h)
		if err != nil {
			return exec, err
		}
		exec.Journal, exec.Completed = j, completed
		return exec, nil
	}
	j, err := campaign.CreateJournal(path, h)
	if err != nil {
		return exec, err
	}
	exec.Journal = j
	return exec, nil
}

// RunCampaignOn executes a single campaign on a pre-built system (the
// benchmark harness path, which reuses systems across campaigns).
func RunCampaignOn(system *System, camp inject.Campaign, n int, seed int64,
	progress func(done, total int)) (*CampaignOutcome, error) {
	return RunCampaignOnWith(system, camp, n, seed, progress, campaign.ExecOptions{})
}

// RunCampaignOnWith is RunCampaignOn with explicit execution options.
func RunCampaignOnWith(system *System, camp inject.Campaign, n int, seed int64,
	progress func(done, total int), exec campaign.ExecOptions) (*CampaignOutcome, error) {
	res, err := campaign.RunWith(system.Sys, system.Golden, system.Profile,
		campaign.Spec{Campaign: camp, N: n, Seed: seed}, progress, exec)
	if err != nil {
		return nil, err
	}
	return summarize(res), nil
}

func summarize(res *campaign.Result) *CampaignOutcome {
	return &CampaignOutcome{
		Spec:        res.Spec,
		Counts:      stats.Summarize(res.Results),
		Causes:      stats.CrashCauses(res.Results),
		Latency:     stats.Latencies(res.Results),
		Results:     res.Results,
		Engine:      res.Engine,
		EngineStats: res.EngineStats,
	}
}

// Table renders a platform's campaign table in the shape of the paper's
// Tables 5 and 6.
func (r *StudyResult) Table(p isa.Platform) string {
	pr := r.PerPlatform[p]
	if pr == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v — Statistics on Error Activation and Failure Distribution\n", p)
	b.WriteString(stats.TableHeader() + "\n")
	total := 0
	for _, c := range Campaigns {
		oc := pr.Outcomes[c]
		if oc == nil {
			continue
		}
		b.WriteString(oc.Counts.TableRow(c.String()) + "\n")
		total += oc.Counts.Injected
	}
	fmt.Fprintf(&b, "%-18s %8d\n", "Total", total)
	return b.String()
}

// OverallCauses merges the crash causes of every campaign (Figures 4/5).
func (r *StudyResult) OverallCauses(p isa.Platform) stats.CauseDist {
	pr := r.PerPlatform[p]
	merged := stats.CauseDist{Counts: map[isa.CrashCause]int{}}
	if pr == nil {
		return merged
	}
	for _, c := range Campaigns {
		if oc := pr.Outcomes[c]; oc != nil {
			merged = merged.Merge(oc.Causes)
		}
	}
	return merged
}

// CauseFigure renders a crash-cause distribution figure for one campaign
// (or the overall distribution when camp is 0).
func (r *StudyResult) CauseFigure(p isa.Platform, camp inject.Campaign) string {
	var (
		d     stats.CauseDist
		title string
	)
	if camp == 0 {
		d = r.OverallCauses(p)
		title = fmt.Sprintf("Overall Distribution of Crash Causes (%v)", p)
	} else {
		pr := r.PerPlatform[p]
		if pr == nil || pr.Outcomes[camp] == nil {
			return ""
		}
		d = pr.Outcomes[camp].Causes
		title = fmt.Sprintf("Crash Causes for %v Injection (%v)", camp, p)
	}
	return title + "\n" + d.Render(p)
}

// LatencyFigure renders a Figure 16 panel: the cycles-to-crash distribution
// of one campaign on both platforms, side by side.
func (r *StudyResult) LatencyFigure(camp inject.Campaign) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cycles-to-Crash, %v Injection\n", camp)
	fmt.Fprintf(&b, "  %-9s %10s %10s\n", "bucket", "P4-class", "G4-class")
	var hists [2]stats.LatencyHist
	for i, p := range []isa.Platform{isa.CISC, isa.RISC} {
		if pr := r.PerPlatform[p]; pr != nil && pr.Outcomes[camp] != nil {
			hists[i] = pr.Outcomes[camp].Latency
		}
	}
	for i, label := range stats.BucketLabels {
		fmt.Fprintf(&b, "  %-9s %9.1f%% %9.1f%%\n", label, hists[0].Pct(i), hists[1].Pct(i))
	}
	fmt.Fprintf(&b, "  %-9s %10d %10d\n", "crashes", hists[0].Total, hists[1].Total)
	return b.String()
}

// SensitiveRegisters lists, per platform, the registers whose corruption
// manifested (the paper: 7 of ~20 on the P4, 15 of 99 on the G4).
func (r *StudyResult) SensitiveRegisters(p isa.Platform) []string {
	pr := r.PerPlatform[p]
	if pr == nil || pr.Outcomes[inject.CampSysReg] == nil {
		return nil
	}
	m := stats.ByRegister(pr.Outcomes[inject.CampSysReg].Results)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
