package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
)

// TestForkFromGoldenMatchesReplay is the subsystem's central contract: on a
// fixed seed, campaigns must produce the exact per-injection results of the
// paper's literal reboot-and-replay procedure (ReplayFromBoot), for every
// campaign on both platforms.
func TestForkFromGoldenMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		sys, golden, prof := getSystem(t, platform)
		for _, camp := range []inject.Campaign{inject.CampStack, inject.CampSysReg, inject.CampData, inject.CampCode} {
			t.Run(platform.Short()+"/"+camp.String(), func(t *testing.T) {
				spec := Spec{Campaign: camp, N: 10, Seed: 41}
				targets, err := Targets(sys, prof, spec)
				if err != nil {
					t.Fatal(err)
				}
				replay := ReplayFromBoot(sys, golden, targets)
				snap, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range replay {
					if !reflect.DeepEqual(replay[i], snap.Results[i]) {
						t.Errorf("injection %d diverges:\n  replay:   %+v\n  snapshot: %+v",
							i, replay[i], snap.Results[i])
					}
				}
			})
		}
	}
}

// TestForkFromGoldenProgress checks the progress contract in snapshot mode:
// called once per injection with a monotone done count.
func TestForkFromGoldenProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	sys, golden, prof := getSystem(t, isa.CISC)
	var calls []int
	_, err := RunWith(sys, golden, prof, Spec{Campaign: inject.CampStack, N: 8, Seed: 5}, func(done, total int) {
		if total != 8 {
			t.Fatalf("total = %d, want 8", total)
		}
		calls = append(calls, done)
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 8 {
		t.Fatalf("progress called %d times, want 8", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress call %d reported done=%d", i, d)
		}
	}
}

// TestFarmForkFromGoldenMatchesReplay pins the farm path: chunked
// fork-from-golden across nodes equals replay from boot.
func TestFarmForkFromGoldenMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("farm campaigns are slow")
	}
	farm, err := NewFarm(isa.CISC, 3, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Campaign: inject.CampCode, N: 18, Seed: 77}
	snap, err := farm.RunWith(spec, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := farm.nodes[0]
	targets, err := Targets(sys, farm.Profile(), spec)
	if err != nil {
		t.Fatal(err)
	}
	replay := ReplayFromBoot(sys, farm.Golden(), targets)
	for i := range replay {
		if !reflect.DeepEqual(replay[i], snap.Results[i]) {
			t.Errorf("injection %d diverges between the farm and replay:\n  replay:   %+v\n  snapshot: %+v",
				i, replay[i], snap.Results[i])
		}
	}
}

// TestJournalBytesDeterministic: two identical journaled runs write
// byte-identical raw journals. Rows completed without execution (here, code
// targets the golden run never reaches) are appended in ascending index
// order, never in map-iteration order.
func TestJournalBytesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	spec := Spec{Campaign: inject.CampCode, N: 120, Seed: 7}
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		sys, golden, prof := getSystem(t, platform)
		plan, err := NewPlan(sys, golden, prof, spec, nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Pre) < 2 {
			t.Fatalf("%v: only %d synthesized rows; the spec no longer exercises their order", platform, len(plan.Pre))
		}
		var raw [2][]byte
		for i := range raw {
			path := filepath.Join(t.TempDir(), "journal.bin")
			j, err := CreateJournal(path, HeaderFor(platform, golden, spec))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Journal: j}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if raw[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(raw[0], raw[1]) {
			t.Errorf("%v: two identical runs wrote different journal bytes", platform)
		}
	}
}
