package campaign

import (
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/staticsense"
	"kfi/internal/stats"
)

// TestSenseSoundness is the static analyzer's soundness contract, on both
// platforms and across every injection space it covers: no flip the
// analyzer predicts inert ever manifests when it is executed.
func TestSenseSoundness(t *testing.T) {
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
				res, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Sense: true})
				if err != nil {
					t.Fatal(err)
				}
				inert := 0
				for i, r := range res.Results {
					if !r.PredInert {
						continue
					}
					inert++
					if r.Outcome != inject.ONotActivated && r.Outcome != inject.ONotManifested {
						t.Errorf("soundness violation at injection %d: predicted inert (%s), observed %v",
							i, r.PredClass, r.Outcome)
					}
				}
				if inert == 0 {
					t.Logf("%v/%v: no predicted-inert targets drawn in %d injections", platform, tc.camp, tc.n)
				}
				if c := stats.Confuse(res.Results); c.Violations != 0 {
					t.Errorf("confusion matrix reports %d violations:\n%s", c.Violations, c.Render())
				}
			})
		}
	}
}

// TestSenseAnnotatesStackTargets: stack targets are classified lazily from
// the address the injection resolved, so executed stack rows carry a
// prediction from the task-layout model while rows whose injection never
// happened stay unannotated.
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
