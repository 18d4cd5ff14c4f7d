package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/snapshot"
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

// TestChainCapturesOnce: a trigger-sorted stack or sysreg order run on one
// chunkRunner captures its snapshot chain once and only ever advances it. A
// pause lands at or past its trigger (the first loop-top cycle at or after
// it, or the next timer when the guest idles), so the checkpoint often sits
// beyond the next trigger; that trigger still lies in the checkpoint's
// window and must not restart the chain from boot. The same order run as
// three interleaved passes (positions 0, 3, 6, ..., then 1, 4, 7, ...)
// starts each later pass behind the chain, as a requeued chunk does, and
// restarts it from boot exactly once per pass. Outcomes match
// ReplayFromBoot either way.
func TestChainCapturesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		sys, golden, prof := getSystem(t, platform)
		for _, camp := range []inject.Campaign{inject.CampStack, inject.CampSysReg} {
			t.Run(platform.Short()+"/"+camp.String(), func(t *testing.T) {
				plan, err := NewPlan(sys, golden, prof, Spec{Campaign: camp, N: 60, Seed: 5}, nil, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				replay := ReplayFromBoot(sys, golden, plan.Targets)
				for _, passes := range []int{1, 3} {
					t.Run(fmt.Sprintf("passes=%d", passes), func(t *testing.T) {
						var ex *executor
						chains := map[*snapshot.Snapshot]bool{}
						ex = newExecutor([]*kernel.System{sys}, golden, ExecOptions{}, nil, execHooks{
							injectFrom: func(_ int, s *kernel.System, tg inject.Target, g uint32) inject.Result {
								chains[ex.runners[0].st.snap] = true
								return inject.RunFrom(s, tg, g)
							},
						})
						defer ex.close()
						out := make([]inject.Result, len(plan.Targets))
						for residue := 0; residue < passes; residue++ {
							var pass []trigOrder
							for k := residue; k < len(plan.order); k += passes {
								pass = append(pass, plan.order[k])
							}
							if err := ex.run(plan, pass, out, func(int) error { return nil }); err != nil {
								t.Fatal(err)
							}
						}
						if len(chains) != passes {
							t.Errorf("the chain was captured %d times, want %d", len(chains), passes)
						}
						for i := range replay {
							if !reflect.DeepEqual(replay[i], out[i]) {
								t.Errorf("injection %d diverges:\n  replay: %+v\n  chain:  %+v", i, replay[i], out[i])
							}
						}
					})
				}
			})
		}
	}
}
