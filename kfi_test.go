package kfi_test

import (
	"reflect"
	"strings"
	"testing"

	"kfi"
	"kfi/internal/campaign"
)

// The root package is a facade; these tests exercise the public API surface
// an external user would touch.

var (
	apiSys    *kfi.System
	apiGolden uint32
)

func apiSystem(t *testing.T) *kfi.System {
	t.Helper()
	if apiSys == nil {
		sys, err := kfi.BuildSystem(kfi.P4, kfi.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		apiSys = sys
		apiGolden = sys.Golden
	}
	return apiSys
}

func TestPublicBuildAndInject(t *testing.T) {
	sys := apiSystem(t)
	if sys.Golden == 0 {
		t.Fatal("zero golden checksum")
	}
	targets, err := kfi.NewTargets(sys, kfi.Code, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 5 {
		t.Fatalf("targets = %d", len(targets))
	}
	for _, tg := range targets {
		res := kfi.InjectOne(sys, tg)
		switch res.Outcome {
		case kfi.NotActivated, kfi.NotManifested, kfi.FailSilence, kfi.Crash, kfi.HangUnknown:
		default:
			t.Errorf("unexpected outcome %v", res.Outcome)
		}
	}
}

func TestPublicRunCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	sys := apiSystem(t)
	oc, err := kfi.RunCampaign(sys, kfi.Stack, 10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Counts.Injected != 10 {
		t.Errorf("injected = %d", oc.Counts.Injected)
	}
	if len(oc.Results) != 10 {
		t.Errorf("results = %d", len(oc.Results))
	}
}

func TestPublicConstantsCoherent(t *testing.T) {
	if len(kfi.Platforms) != 2 || kfi.Platforms[0] != kfi.P4 || kfi.Platforms[1] != kfi.G4 {
		t.Errorf("Platforms = %v", kfi.Platforms)
	}
	if len(kfi.AllCampaigns) != 4 {
		t.Errorf("AllCampaigns = %v", kfi.AllCampaigns)
	}
	if kfi.CauseStackOverflow.Platform() != kfi.G4 {
		t.Error("StackOverflow should be a G4 cause")
	}
	if kfi.CauseInvalidTSS.Platform() != kfi.P4 {
		t.Error("InvalidTSS should be a P4 cause")
	}
}

func TestPublicSummaries(t *testing.T) {
	sys := apiSystem(t)
	targets, err := kfi.NewTargets(sys, kfi.Code, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	var results []kfi.Result
	for _, tg := range targets {
		results = append(results, kfi.InjectOne(sys, tg))
	}
	c := kfi.Summarize(results)
	if c.Injected != 8 {
		t.Errorf("summarize injected = %d", c.Injected)
	}
	d := kfi.CrashCauses(results)
	h := kfi.Latencies(results)
	if d.Total != h.Total {
		t.Errorf("cause total %d != latency total %d (both count known crashes)", d.Total, h.Total)
	}
	if d.Total > 0 {
		out := d.Render(kfi.P4)
		if !strings.Contains(out, "Total") {
			t.Errorf("render: %q", out)
		}
	}
}

func TestGuestSystemAccess(t *testing.T) {
	sys := apiSystem(t)
	// Advanced users can reach the guest: symbols, regions, processes.
	if _, ok := sys.Sys.KernelImage.Syms["schedule"]; !ok {
		t.Error("kernel symbol table not reachable")
	}
	if len(sys.Sys.Procs) != 10 {
		t.Errorf("procs = %d, want 10 (idle + 2 daemons + 7 workload)", len(sys.Sys.Procs))
	}
	if got := sys.Sys.ReadProcField(0, "pid"); got != 1 {
		t.Errorf("idle pid = %d", got)
	}
}

func TestFacadeStudyPropagateTraceDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	// A minimal end-to-end pass over the remaining facade surface.
	study, err := kfi.RunStudy(kfi.StudyConfig{
		Seed:      5,
		Platforms: []kfi.Platform{kfi.P4},
		Campaigns: []kfi.Campaign{kfi.Code},
		Counts:    map[kfi.Campaign]int{kfi.Code: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := study.PerPlatform[kfi.P4].Outcomes[kfi.Code].Results
	if len(results) != 12 {
		t.Fatalf("study returned %d results", len(results))
	}
	prop := kfi.Propagate(results)
	if prop.Crashes > 0 && prop.SameFunction+prop.SameSubsystem+prop.CrossSubsystem != prop.Crashes {
		t.Errorf("propagation buckets do not sum: %+v", prop)
	}

	sys, err := kfi.BuildSystem(kfi.P4, kfi.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := kfi.NewTargets(sys, kfi.Code, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := kfi.TraceDiff(sys, targets[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Render() == "" {
		t.Error("empty trace-diff report")
	}
}

func TestWilsonFacade(t *testing.T) {
	lo, hi := kfi.Wilson95(50, 100)
	if lo >= 50 || hi <= 50 {
		t.Errorf("Wilson95(50, 100) = [%f, %f]", lo, hi)
	}
}

// TestNewTargetsMatchPlan: NewTargets is the plan's target step, so it
// returns exactly the targets a campaign of the same seed plans — mid-run
// delays included. (Result.Target would not do as the reference: injection
// resolves stack addresses into it.)
func TestNewTargetsMatchPlan(t *testing.T) {
	for _, p := range kfi.Platforms {
		sys := apiSystem(t)
		if p != kfi.P4 {
			var err error
			if sys, err = kfi.BuildSystem(p, kfi.BuildOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, camp := range []kfi.Campaign{kfi.Stack, kfi.SysRegs, kfi.Data, kfi.Code} {
			got, err := kfi.NewTargets(sys, camp, 20, 7)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := campaign.NewPlan(sys.Sys, sys.Golden, sys.Profile,
				campaign.Spec{Campaign: camp, N: 20, Seed: 7}, nil, campaign.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, plan.Targets) {
				t.Errorf("%v %v: NewTargets differs from the campaign plan's targets", p, camp)
			}
		}
	}
}
