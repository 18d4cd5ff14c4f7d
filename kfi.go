// Package kfi is a fault-injection laboratory reproducing the DSN 2004 study
// "Error Sensitivity of the Linux Kernel Executing on PowerPC G4 and
// Pentium 4 Processors" (Gu, Kalbarczyk, Iyer).
//
// It provides two simulated processors — a P4-class variable-length CISC and
// a G4-class fixed-width RISC — running the same miniature multi-process
// kernel compiled from a common intermediate representation, an NFTAPE-style
// single-bit error injector driven by the processors' debug registers, and
// the campaign/statistics machinery that regenerates every table and figure
// of the paper's evaluation.
//
// Quick start:
//
//	sys, err := kfi.BuildSystem(kfi.P4, kfi.BuildOptions{})
//	res := kfi.InjectOne(sys, kfi.Target{Campaign: kfi.Code, ...})
//
// or run a whole cross-platform study:
//
//	study, err := kfi.RunStudy(kfi.StudyConfig{Seed: 1})
//	fmt.Println(study.Table(kfi.P4)) // the paper's Table 5
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package kfi

import (
	"kfi/internal/campaign"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/kir"
	"kfi/internal/machine"
	"kfi/internal/stats"
	"kfi/internal/tracediff"
)

// Platform identifies one of the two simulated processors.
type Platform = isa.Platform

// The two platforms under study.
const (
	// P4 is the Pentium 4-class CISC target.
	P4 = isa.CISC
	// G4 is the PowerPC G4-class RISC target.
	G4 = isa.RISC
)

// Platforms lists both targets in the paper's order.
var Platforms = []Platform{P4, G4}

// Campaign selects an injection target class.
type Campaign = inject.Campaign

// The four campaigns of the study.
const (
	Stack   = inject.CampStack
	SysRegs = inject.CampSysReg
	Data    = inject.CampData
	Code    = inject.CampCode
)

// AllCampaigns lists the four campaigns in table order.
var AllCampaigns = core.Campaigns

// CrashCause is a platform crash subcategory (the paper's Tables 3 and 4).
type CrashCause = isa.CrashCause

// Crash causes, re-exported for report code (Tables 3 and 4).
const (
	CauseNULLPointer       = isa.CauseNULLPointer
	CauseBadPaging         = isa.CauseBadPaging
	CauseInvalidInstr      = isa.CauseInvalidInstr
	CauseGeneralProtection = isa.CauseGeneralProtection
	CauseKernelPanic       = isa.CauseKernelPanic
	CauseInvalidTSS        = isa.CauseInvalidTSS
	CauseDivideError       = isa.CauseDivideError
	CauseBoundsTrap        = isa.CauseBoundsTrap
	CauseBadArea           = isa.CauseBadArea
	CauseIllegalInstr      = isa.CauseIllegalInstr
	CauseStackOverflow     = isa.CauseStackOverflow
	CauseMachineCheck      = isa.CauseMachineCheck
	CauseAlignment         = isa.CauseAlignment
	CausePanic             = isa.CausePanic
	CauseBusError          = isa.CauseBusError
	CauseBadTrap           = isa.CauseBadTrap
)

// KernelProgOptions selects guest-kernel build variants (ablations).
type KernelProgOptions = kernel.ProgOptions

// Target is one injection; Result is its classified outcome.
type (
	Target = inject.Target
	Result = inject.Result
)

// Outcome classification of one injection.
type Outcome = inject.Outcome

// Injection outcomes (the paper's Table 2, plus Detected for hardened
// guests whose software fault detector caught the error).
const (
	NotActivated  = inject.ONotActivated
	NotManifested = inject.ONotManifested
	FailSilence   = inject.OFailSilence
	Crash         = inject.OCrash
	HangUnknown   = inject.OHangUnknown
	Detected      = inject.ODetected
)

// System is a built, sealed guest system with its golden checksum and
// kernel-usage profile.
type System = core.System

// BuildOptions tune system construction.
type BuildOptions = core.BuildOptions

// BuildSystem constructs one platform's guest system.
func BuildSystem(p Platform, opts BuildOptions) (*System, error) {
	return core.BuildSystem(p, opts)
}

// InjectOne runs a single injection against a built system.
func InjectOne(sys *System, t Target) Result {
	return inject.RunOne(sys.Sys, t, sys.Golden)
}

// NewTargets pre-generates n targets for a campaign (STEP 1 of the paper's
// automated process): the same targets a campaign of the same seed plans.
func NewTargets(sys *System, camp Campaign, n int, seed int64) ([]Target, error) {
	return campaign.Targets(sys.Sys, sys.Profile, campaign.Spec{Campaign: camp, N: n, Seed: seed})
}

// RunCampaign executes one campaign of n injections on a built system with
// the default execution options (see ExecOptions).
func RunCampaign(sys *System, camp Campaign, n int, seed int64, progress func(done, total int)) (*CampaignOutcome, error) {
	return core.RunCampaignOn(sys, camp, n, seed, progress)
}

// ExecOptions tune how campaigns execute injections. Every campaign runs
// fork-from-golden (checkpoint the golden prefix once, restore-inject-resume
// per experiment), with outcomes identical to the paper's literal
// reboot-and-replay procedure. Journal/Completed make a campaign resumable;
// Sense and SectionCache enable the static pre-pass and the per-section
// outcome cache; MaxAttempts sets the per-injection supervision policy.
type ExecOptions = campaign.ExecOptions

// Study configuration and results.
type (
	StudyConfig     = core.Config
	StudyResult     = core.StudyResult
	CampaignOutcome = core.CampaignOutcome
	PlatformResult  = core.PlatformResult
)

// RunStudy executes the configured cross-platform study.
func RunStudy(cfg StudyConfig) (*StudyResult, error) {
	return core.Run(cfg)
}

// Statistics helpers re-exported for report generation.
type (
	Counts      = stats.Counts
	CauseDist   = stats.CauseDist
	LatencyHist = stats.LatencyHist
)

// Summarize tallies campaign results into a Table 5/6-style row.
func Summarize(results []Result) Counts { return stats.Summarize(results) }

// CrashCauses builds a crash-cause distribution (the figures' pie charts).
func CrashCauses(results []Result) CauseDist { return stats.CrashCauses(results) }

// Latencies builds a Figure 16 cycles-to-crash histogram.
func Latencies(results []Result) LatencyHist { return stats.Latencies(results) }

// Propagation summarizes how far code-injection crashes traveled from the
// corrupted function (the paper's Figure 7 phenomenon, quantified).
type Propagation = stats.Propagation

// Propagate analyzes code-injection results for error propagation.
func Propagate(results []Result) Propagation { return stats.Propagate(results) }

// Wilson95 returns the 95% Wilson score interval (as percentages) for k
// successes in n trials — the sampling error of a campaign-derived rate.
func Wilson95(k, n int) (lo, hi float64) { return stats.Wilson95(k, n) }

// Divergence is a trace-level comparison of a golden run against an
// injected run: where the instruction streams first split and what each side
// executed next (the instruction-granularity Figure 7 analysis).
type Divergence = tracediff.Divergence

// TraceDiff runs the system clean and with the code-injection target
// applied, locating the first control-flow divergence.
func TraceDiff(sys *System, t Target, context int) (*Divergence, error) {
	return tracediff.Diff(sys.Sys, t, context, 0)
}

// HardenOptions selects the software fault-detection transforms applied to
// the guest kernel (EDDI-style duplication, CFCSS-style control-flow
// signatures). The zero value builds the paper-faithful unhardened kernel.
type HardenOptions = kir.HardenOpts

// ParseHardenOptions parses the CLI/wire form of HardenOptions ("dup",
// "cfsig", "dup+cfsig", "all", "none", or "").
func ParseHardenOptions(s string) (HardenOptions, error) { return kir.ParseHardenOpts(s) }

// HardenStudy is a matched hardened-vs-unhardened comparison on one
// platform; HardenRow is one campaign's outcome pair within it.
type (
	HardenStudy = campaign.HardenStudy
	HardenRow   = campaign.HardenRow
)

// HardenSpec describes one campaign of a hardened study.
type HardenSpec = campaign.Spec

// RunHardenStudy runs matched hardened/unhardened campaigns from the same
// injection plan on one platform (see campaign.RunHardenStudy for the
// matched-plan semantics).
func RunHardenStudy(p Platform, scale int, opts HardenOptions, specs []HardenSpec,
	progress func(done, total int)) (*HardenStudy, error) {
	return campaign.RunHardenStudy(p, scale, opts, specs, progress)
}

// RunResult is the outcome of a single benchmark run (no injection).
type RunResult = machine.RunResult

// GuestSystem exposes the underlying guest (machine, images, processes) for
// advanced use — directed injections, custom workloads, examples.
type GuestSystem = kernel.System
