package campaign

import (
	"fmt"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/kir"
)

// HardenStudy is a matched hardened-vs-unhardened comparison on one
// platform: the same injection plan executed against two guest systems that
// differ only in whether the kernel image went through the kir.Harden
// transforms. It carries the raw outcome pairs plus the static (code size)
// and dynamic (golden-run cycles) overhead of the hardening.
type HardenStudy struct {
	Platform isa.Platform
	Opts     kir.HardenOpts

	// CodeBytes / HardCodeBytes are the kernel code-section sizes.
	CodeBytes     int
	HardCodeBytes int
	// GoldenCycles / HardGoldenCycles are the fault-free benchmark lengths.
	GoldenCycles     uint64
	HardGoldenCycles uint64

	Rows []HardenRow
}

// HardenRow is one campaign's matched outcome pair. For stack, data, and
// system-register campaigns Plain[i] and Hard[i] are the SAME injection
// (address, register, bit, delay) landing on each build; for code campaigns
// the targets are re-derived per image (instruction addresses differ between
// the builds) from the same seed, so the comparison is distributional rather
// than injection-for-injection.
type HardenRow struct {
	Spec  Spec
	Plain []inject.Result
	Hard  []inject.Result
}

// CodeOverhead is the hardened/unhardened kernel code-size ratio.
func (s *HardenStudy) CodeOverhead() float64 {
	if s.CodeBytes == 0 {
		return 0
	}
	return float64(s.HardCodeBytes) / float64(s.CodeBytes)
}

// CycleOverhead is the hardened/unhardened fault-free run-length ratio.
func (s *HardenStudy) CycleOverhead() float64 {
	if s.GoldenCycles == 0 {
		return 0
	}
	return float64(s.HardGoldenCycles) / float64(s.GoldenCycles)
}

// RunHardenStudy builds the matched system pair for one platform and runs
// every spec against both builds. Target generation is anchored to the
// UNHARDENED system: stack, data, and system-register targets transfer
// verbatim (hardening adds no globals, so the data/bss layout, process
// table, and register file are identical), and injection delays are drawn
// from the unhardened run length on both sides so matched injections strike
// the same workload phase. Code targets alone are re-derived against the
// hardened image, seeded identically.
//
// progress (may be nil) receives completed-injection counts over the whole
// study (both builds, all specs).
func RunHardenStudy(platform isa.Platform, scale int, hopts kir.HardenOpts, specs []Spec,
	progress func(done, total int)) (*HardenStudy, error) {
	if !hopts.Enabled() {
		return nil, fmt.Errorf("campaign: harden study needs at least one hardening pass enabled")
	}
	plain, err := NewGuest(platform, scale, kernel.Options{})
	if err != nil {
		return nil, err
	}
	hard, err := NewGuest(platform, scale, kernel.Options{Harden: hopts})
	if err != nil {
		return nil, err
	}
	study := &HardenStudy{
		Platform:         platform,
		Opts:             hopts,
		CodeBytes:        len(plain.Sys.KernelImage.Code),
		HardCodeBytes:    len(hard.Sys.KernelImage.Code),
		GoldenCycles:     plain.Cycles,
		HardGoldenCycles: hard.Cycles,
	}
	total := 0
	for _, spec := range specs {
		total += 2 * spec.N
	}
	done := 0
	tick := func(int, int) {
		done++
		if progress != nil {
			progress(done, total)
		}
	}
	runSide := func(g *Guest, spec Spec, targets []inject.Target) ([]inject.Result, error) {
		res, err := run([]*kernel.System{g.Sys}, g.Build, execHooks{}, g.Golden, g.Profile,
			spec, targets, tick, ExecOptions{})
		if err != nil {
			return nil, err
		}
		return res.Results, nil
	}
	for _, spec := range specs {
		plainTargets, hardTargets, err := matchedTargets(plain, hard, spec)
		if err != nil {
			return nil, err
		}
		row := HardenRow{Spec: spec}
		if row.Plain, err = runSide(plain, spec, plainTargets); err != nil {
			return nil, err
		}
		if row.Hard, err = runSide(hard, spec, hardTargets); err != nil {
			return nil, err
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// matchedTargets generates one spec's target lists for both builds. The
// hardened side reuses the unhardened list, so delay-triggered targets
// strike the same workload phase on each side; code targets alone are
// re-derived against the hardened image (code targets draw no delay, so
// only the image differs).
func matchedTargets(plain, hard *Guest, spec Spec) (pt, ht []inject.Target, err error) {
	if pt, err = Targets(plain.Sys, plain.Profile, spec); err != nil {
		return nil, nil, err
	}
	if spec.Campaign == inject.CampCode {
		if ht, err = Targets(hard.Sys, hard.Profile, spec); err != nil {
			return nil, nil, err
		}
		return pt, ht, nil
	}
	ht = make([]inject.Target, len(pt))
	copy(ht, pt)
	return pt, ht, nil
}
