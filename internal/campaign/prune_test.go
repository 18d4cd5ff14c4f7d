package campaign

import (
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/staticsense"
	"kfi/internal/stats"
)

// TestPruneEquivalenceAndSoundness is the pruning subsystem's central
// contract, on both platforms and across every injection space the static
// analyzer covers:
//
//   - equivalence: a pruned campaign's outcome table is identical to the
//     unpruned one on every non-pruned site, and its synthesized results
//     match — field for field — what actually executing the pruned sites
//     produces;
//   - soundness: no flip the analyzer predicted inert ever manifests when
//     it is really executed.
func TestPruneEquivalenceAndSoundness(t *testing.T) {
	half := func(n int) int {
		if testing.Short() {
			return n / 2
		}
		return n
	}
	cases := []struct {
		camp inject.Campaign
		n    int
		seed int64
	}{
		{inject.CampCode, half(200), 907},
		{inject.CampData, half(120), 908},
		{inject.CampStack, half(60), 909},
		{inject.CampSysReg, half(60), 910},
	}
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		for _, tc := range cases {
			t.Run(platform.Short()+"/"+tc.camp.String(), func(t *testing.T) {
				sys, golden, prof := getSystem(t, platform)
				spec := Spec{Campaign: tc.camp, N: tc.n, Seed: tc.seed}

				full, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Sense: true})
				if err != nil {
					t.Fatal(err)
				}
				pruned, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Prune: true})
				if err != nil {
					t.Fatal(err)
				}

				skipped := 0
				for i := range full.Results {
					f, p := full.Results[i], pruned.Results[i]
					if !p.PredSkipped {
						if !reflect.DeepEqual(f, p) {
							t.Errorf("injection %d diverges:\n  full:   %+v\n  pruned: %+v", i, f, p)
						}
						continue
					}
					skipped++
					// The synthesized result must mirror the executed one
					// exactly — same outcome, activation, cycles, checksum,
					// and annotations — differing only in the skip marker.
					want := f
					want.PredSkipped = true
					if !reflect.DeepEqual(want, p) {
						t.Errorf("injection %d: synthesized row diverges from executed:\n  executed:    %+v\n  synthesized: %+v",
							i, f, p)
					}
					if !f.PredInert || !p.PredInert {
						t.Errorf("injection %d: skipped without an inert prediction", i)
					}
				}
				if tc.camp == inject.CampStack && skipped != 0 {
					t.Errorf("stack campaign skipped %d injections; stack targets are never prunable", skipped)
				}
				if skipped == 0 {
					t.Logf("%v/%v: no predicted-inert targets drawn in %d injections", platform, tc.camp, tc.n)
				}

				// Soundness over the whole annotated table: every inert
				// prediction that executed must have stayed invisible.
				for i, r := range full.Results {
					if r.PredInert && r.Outcome != inject.ONotActivated && r.Outcome != inject.ONotManifested {
						t.Errorf("soundness violation at injection %d: predicted inert (%s), observed %v",
							i, r.PredClass, r.Outcome)
					}
				}
				if c := stats.Confuse(full.Results); c.Violations != 0 {
					t.Errorf("confusion matrix reports %d violations:\n%s", c.Violations, c.Render())
				}
				if c := stats.Confuse(pruned.Results); c.Violations != 0 {
					t.Errorf("pruned confusion matrix reports %d violations:\n%s", c.Violations, c.Render())
				}

				// The aggregate table row the paper prints must be unchanged.
				fullRow := stats.Summarize(full.Results).TableRow(tc.camp.String())
				prunedRow := stats.Summarize(pruned.Results).TableRow(tc.camp.String())
				if fullRow != prunedRow {
					t.Errorf("table rows diverge:\n  full:   %s\n  pruned: %s", fullRow, prunedRow)
				}
			})
		}
	}
}

// TestSenseAnnotatesStackTargets: stack targets are classified lazily from
// the address the injection resolved, so executed stack rows carry a
// prediction from the task-layout model while rows whose injection never
// happened stay unannotated — and none are ever skipped.
func TestSenseAnnotatesStackTargets(t *testing.T) {
	sys, golden, prof := getSystem(t, isa.CISC)
	res, err := RunWith(sys, golden, prof, Spec{Campaign: inject.CampStack, N: 16, Seed: 3}, nil,
		ExecOptions{Sense: true})
	if err != nil {
		t.Fatal(err)
	}
	stackClasses := map[string]bool{
		staticsense.ClassUnknown.String():      true,
		staticsense.ClassUnreferenced.String(): true,
		staticsense.ClassDeadStore.String():    true,
	}
	annotated := 0
	for i, r := range res.Results {
		if r.PredSkipped {
			t.Errorf("stack injection %d was skipped", i)
		}
		if r.PredClass == "" {
			continue
		}
		annotated++
		if !stackClasses[r.PredClass] {
			t.Errorf("stack injection %d classified %q — not a stack-target class", i, r.PredClass)
		}
		cl, ok := classNamed(r.PredClass)
		if !ok || r.PredInert != cl.Inert() {
			t.Errorf("stack injection %d: class %q with PredInert=%v", i, r.PredClass, r.PredInert)
		}
	}
	if annotated == 0 {
		t.Error("no stack injection carries a prediction; executed rows resolve their address and must be classified")
	}
}

// classNamed resolves a rendered class name back to its lattice constant.
func classNamed(name string) (staticsense.Class, bool) {
	for _, cl := range staticsense.Classes() {
		if cl.String() == name {
			return cl, true
		}
	}
	return 0, false
}
