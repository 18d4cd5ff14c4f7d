package campaign

import (
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kir"
	"kfi/internal/stats"
)

// hardenStudyFixture runs one small matched study (cached: RunHardenStudy
// builds four guest systems per invocation).
var hardenStudyCache = map[isa.Platform]*HardenStudy{}

func hardenStudy(t *testing.T, p isa.Platform) *HardenStudy {
	t.Helper()
	if s, ok := hardenStudyCache[p]; ok {
		return s
	}
	specs := []Spec{
		{Campaign: inject.CampCode, N: 30, Seed: 7001},
		{Campaign: inject.CampCode, N: 30, Seed: 7001, Burst: 2},
		{Campaign: inject.CampStack, N: 20, Seed: 7002},
	}
	s, err := RunHardenStudy(p, 1, kir.HardenOpts{Dup: true, CFSig: true}, specs, nil)
	if err != nil {
		t.Fatalf("RunHardenStudy: %v", err)
	}
	hardenStudyCache[p] = s
	return s
}

func TestHardenStudyOverheads(t *testing.T) {
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(p.Short(), func(t *testing.T) {
			s := hardenStudy(t, p)
			if s.CodeOverhead() <= 1.0 {
				t.Errorf("code overhead %.2f, want > 1 (hardened image must be larger)", s.CodeOverhead())
			}
			if s.CycleOverhead() <= 1.0 {
				t.Errorf("cycle overhead %.2f, want > 1 (hardened run must be slower)", s.CycleOverhead())
			}
			t.Logf("%v overheads: code x%.2f, cycles x%.2f", p, s.CodeOverhead(), s.CycleOverhead())
		})
	}
}

// TestHardenStudyDetectsErrors checks both sides of the detection claim on
// both platforms: the unhardened build never reports a detection, and the
// fully hardened build detects at least one injected error.
func TestHardenStudyDetectsErrors(t *testing.T) {
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(p.Short(), func(t *testing.T) {
			s := hardenStudy(t, p)
			detected := 0
			for _, row := range s.Rows {
				for _, r := range row.Plain {
					if r.Outcome == inject.ODetected {
						t.Fatalf("unhardened build reported a detection: %+v", r)
					}
				}
				hc := stats.Summarize(row.Hard)
				detected += hc.Detected
				t.Logf("%v burst=%d: hardened %s", row.Spec.Campaign, row.Spec.Burst,
					hc.CoverageRow(row.Spec.Campaign.String()))
			}
			if detected == 0 {
				t.Error("fully hardened kernel detected none of the injected errors across all campaigns")
			}
		})
	}
}

// TestHardenStudyMatchedPlans pins the matched-plan contract: for non-code
// campaigns both builds receive the identical target list, and the
// unhardened side of the study is injection-for-injection identical to a
// standalone (pre-hardening) campaign of the same spec.
func TestHardenStudyMatchedPlans(t *testing.T) {
	s := hardenStudy(t, isa.RISC)
	var stackRow *HardenRow
	for i := range s.Rows {
		if s.Rows[i].Spec.Campaign == inject.CampStack {
			stackRow = &s.Rows[i]
		}
	}
	if stackRow == nil {
		t.Fatal("no stack row in study")
	}
	for i := range stackRow.Plain {
		a, b := stackRow.Plain[i].Target, stackRow.Hard[i].Target
		// The injector resolves StackPos to a concrete address against the
		// LIVE stack pointer at injection time, which legitimately differs
		// between the builds; everything the generator drew must match.
		a.Addr, b.Addr = 0, 0
		if a != b {
			t.Fatalf("target %d differs between builds:\nplain: %+v\nhard:  %+v",
				i, stackRow.Plain[i].Target, stackRow.Hard[i].Target)
		}
	}
	sys, golden, prof := getSystem(t, isa.RISC)
	standalone, err := RunWith(sys, golden, prof, stackRow.Spec, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(standalone.Results, stackRow.Plain) {
		t.Error("unhardened study results differ from a standalone campaign of the same spec")
	}
}

// TestHardenStudyBurstRows checks the double-bit satellite: the same seed at
// burst width 2 must produce targets differing only in Burst, and the study
// reports both widths as separate rows.
func TestHardenStudyBurstRows(t *testing.T) {
	s := hardenStudy(t, isa.RISC)
	var b1, b2 *HardenRow
	for i := range s.Rows {
		if s.Rows[i].Spec.Campaign != inject.CampCode {
			continue
		}
		switch s.Rows[i].Spec.Burst {
		case 0, 1:
			b1 = &s.Rows[i]
		case 2:
			b2 = &s.Rows[i]
		}
	}
	if b1 == nil || b2 == nil {
		t.Fatal("study missing single-bit or double-bit code row")
	}
	for i := range b1.Hard {
		a, b := b1.Hard[i].Target, b2.Hard[i].Target
		b.Burst = a.Burst
		if a != b {
			t.Fatalf("burst rows drew different targets at %d: %+v vs %+v", i, a, b2.Hard[i].Target)
		}
	}
}

func TestRunHardenStudyRejectsNoOpts(t *testing.T) {
	if _, err := RunHardenStudy(isa.RISC, 1, kir.HardenOpts{}, nil, nil); err == nil {
		t.Fatal("expected error for zero hardening options")
	}
}
