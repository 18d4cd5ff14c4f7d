package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kfi/internal/cc"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/staticsense"
	"kfi/internal/workload"
)

// runCached runs one section-cached campaign, journaling to jpath, and
// returns the result plus the per-section cache decisions.
func runCached(t *testing.T, sys *kernel.System, golden uint32, prof *Profile,
	spec Spec, dir, jpath string) (*Result, map[string]bool) {
	t.Helper()
	h := HeaderFor(sys.Platform, golden, spec)
	h.Cached = true
	j, err := CreateJournal(jpath, h)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	hits := map[string]bool{}
	res, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{
		Sense:        true,
		SectionCache: dir,
		Journal:      j,
		onSection:    func(name string, hit bool) { hits[name] = hit },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, hits
}

// canonicalBytes reads a journal back and renders it in canonical
// (index-sorted) form — the byte-identity criterion for incremental runs,
// since cache restoration completes rows in section order rather than
// trigger order.
func canonicalBytes(t *testing.T, jpath string) []byte {
	t.Helper()
	h, completed, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := CanonicalJournalBytes(h, completed)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSectionCacheWarmRunIdentical is the incremental-campaign acceptance
// contract, on both platforms: a re-run against an unchanged target hits on
// every section and reproduces the cold run's outcome table and canonical
// journal byte-for-byte — and the cache itself changes nothing except the
// PredCached membership marker relative to an uncached run.
func TestSectionCacheWarmRunIdentical(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 30
	}
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(platform.Short(), func(t *testing.T) {
			sys, golden, prof := getSystem(t, platform)
			spec := Spec{Campaign: inject.CampCode, N: n, Seed: 4242}
			dir := t.TempDir()

			base, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Sense: true})
			if err != nil {
				t.Fatal(err)
			}

			coldJ := filepath.Join(dir, "cold.kfij")
			cold, coldHits := runCached(t, sys, golden, prof, spec, dir, coldJ)
			for name, hit := range coldHits {
				if hit {
					t.Errorf("cold run hit on section %q with an empty cache", name)
				}
			}
			if len(coldHits) < 2 {
				t.Fatalf("campaign decomposed into %d sections; need several for an incremental test", len(coldHits))
			}

			// The cache changes nothing but the membership marker.
			for i := range base.Results {
				want := base.Results[i]
				want.PredCached = true
				if !reflect.DeepEqual(want, cold.Results[i]) {
					t.Errorf("injection %d: cached run diverges from uncached:\n  uncached: %+v\n  cached:   %+v",
						i, base.Results[i], cold.Results[i])
				}
			}

			warmJ := filepath.Join(dir, "warm.kfij")
			warm, warmHits := runCached(t, sys, golden, prof, spec, dir, warmJ)
			for name, hit := range warmHits {
				if !hit {
					t.Errorf("warm run missed on unchanged section %q", name)
				}
			}
			if !reflect.DeepEqual(cold.Results, warm.Results) {
				t.Error("warm outcome table diverges from the cold run")
			}
			if !bytes.Equal(canonicalBytes(t, coldJ), canonicalBytes(t, warmJ)) {
				t.Error("warm canonical journal is not byte-identical to the cold run's")
			}

			// A damaged section file reads as a miss, never an error: that
			// section re-executes and the table still comes out identical.
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			truncated := false
			for _, e := range ents {
				if filepath.Ext(e.Name()) != ".ksec" || truncated {
					continue
				}
				path := filepath.Join(dir, e.Name())
				if err := os.Truncate(path, 10); err != nil {
					t.Fatal(err)
				}
				truncated = true
			}
			if !truncated {
				t.Fatal("no section files stored")
			}
			redoJ := filepath.Join(dir, "redo.kfij")
			redo, redoHits := runCached(t, sys, golden, prof, spec, dir, redoJ)
			misses := 0
			for _, hit := range redoHits {
				if !hit {
					misses++
				}
			}
			if misses != 1 {
				t.Errorf("run against one truncated section file missed %d sections, want 1", misses)
			}
			if !reflect.DeepEqual(cold.Results, redo.Results) {
				t.Error("outcome table diverges after re-executing a damaged section")
			}
		})
	}
}

// freshSystem builds an uncached, unshared system — the modified-section
// test patches the kernel image in place, which must never leak into the
// package-wide cached systems.
func freshSystem(t *testing.T, p isa.Platform) (*kernel.System, uint32, *Profile) {
	t.Helper()
	uimg, err := cc.Compile(workload.Program(1), p, kernel.UserBases)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kernel.BuildSystem(p, uimg, workload.StandardProcs(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Golden(sys)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileKernel(sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, golden, prof
}

// TestSectionCacheModifiedSection: after an inert (semantics-preserving)
// one-bit modification to one kernel function, an incremental re-run misses
// only that function's section, re-injects only its targets, and produces
// the same table a fresh full campaign over the modified image does.
func TestSectionCacheModifiedSection(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 40
	}
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(platform.Short(), func(t *testing.T) {
			sys, golden, prof := freshSystem(t, platform)
			spec := Spec{Campaign: inject.CampCode, N: n, Seed: 77}
			dir := t.TempDir()

			cold, coldHits := runCached(t, sys, golden, prof, spec, dir,
				filepath.Join(dir, "cold.kfij"))
			if len(coldHits) < 2 {
				t.Fatalf("campaign decomposed into %d sections; need several", len(coldHits))
			}

			// Pick an inert-encoding flip inside one drawn section as the
			// modification: flipping a spare encoding bit changes the
			// section's bytes without changing the kernel's behavior, so the
			// golden run — and with it every other section's key — stays
			// identical.
			an, err := staticsense.New(sys.KernelImage)
			if err != nil {
				t.Fatal(err)
			}
			var patch *inject.Target
		search:
			for i := range cold.Results {
				ct := cold.Results[i].Target
				if ct.Func == "" {
					continue
				}
				for off := uint8(0); off < 4; off++ {
					for bit := uint(0); bit < 8; bit++ {
						if an.ClassifyFlip(ct.Addr, off, bit).Class == staticsense.ClassInertEncoding {
							patch = &inject.Target{Campaign: inject.CampCode,
								Addr: ct.Addr, ByteOff: off, Bit: bit, Func: ct.Func}
							break search
						}
					}
				}
			}
			if patch == nil {
				t.Skipf("%v: no inert-encoding bit in any drawn section", platform)
			}

			img := sys.KernelImage
			addr := patch.Addr + uint32(patch.ByteOff)
			img.Code[addr-img.CodeBase] ^= 1 << patch.Bit
			sys.Machine.Mem.Reboot()
			sys.Machine.Mem.FlipBit(addr, patch.Bit)
			sys.Machine.Seal()
			newGolden, err := Golden(sys)
			if err != nil {
				t.Fatal(err)
			}
			if newGolden != golden {
				t.Fatalf("inert patch changed the golden checksum %08x -> %08x", golden, newGolden)
			}

			warm, warmHits := runCached(t, sys, golden, prof, spec, dir,
				filepath.Join(dir, "warm.kfij"))
			for name, hit := range warmHits {
				if hit == (name == patch.Func) {
					t.Errorf("section %q: hit=%v after modifying %q", name, hit, patch.Func)
				}
			}

			// The incremental table equals a fresh full campaign over the
			// modified image, modulo the cache-membership marker.
			full, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Sense: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range full.Results {
				want := full.Results[i]
				want.PredCached = true
				if !reflect.DeepEqual(want, warm.Results[i]) {
					t.Errorf("injection %d: incremental run diverges from full re-run:\n  full: %+v\n  incr: %+v",
						i, full.Results[i], warm.Results[i])
				}
			}
			// Rows outside the modified section are the cold run's, verbatim.
			for i := range cold.Results {
				if cold.Results[i].Target.Func == patch.Func {
					continue
				}
				if !reflect.DeepEqual(cold.Results[i], warm.Results[i]) {
					t.Errorf("injection %d (section %q): cached row changed across an unrelated modification",
						i, cold.Results[i].Target.Func)
				}
			}
		})
	}
}
