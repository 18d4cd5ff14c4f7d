package campaign

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
)

// TestFirstTouchExact: every data row — synthesized because the golden run
// never touches its word, or forked from the snapshot chain at the word's
// first touch — equals the paper's literal reboot-and-replay row field for
// field, on both platforms.
func TestFirstTouchExact(t *testing.T) {
	n := 200
	if testing.Short() {
		n /= 2
	}
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(platform.Short(), func(t *testing.T) {
			sys, golden, prof := getSystem(t, platform)
			executed, synthesized := 0, 0
			for _, seed := range []int64{908, 1019} {
				spec := Spec{Campaign: inject.CampData, N: n, Seed: seed}
				res, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Executed+res.Synthesized != n {
					t.Errorf("seed %d: %d executed + %d synthesized rows, want %d",
						seed, res.Executed, res.Synthesized, n)
				}
				executed += res.Executed
				synthesized += res.Synthesized
				targets, err := Targets(sys, prof, spec)
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range ReplayFromBoot(sys, golden, targets) {
					if !reflect.DeepEqual(want, res.Results[i]) {
						t.Errorf("seed %d injection %d diverges:\n  replay: %+v\n  plan:   %+v",
							seed, i, want, res.Results[i])
					}
				}
			}
			if executed == 0 || synthesized == 0 {
				t.Fatalf("%d executed and %d synthesized rows; the seeds no longer exercise both paths",
					executed, synthesized)
			}
		})
	}
}

// TestFirstTouchHostOnlyWords: the saved-context slots of a process that
// has not run yet are touched only by host glue — RestoreContext reads them
// through RawRead, SaveContext writes them through RawWrite — which the
// debug unit's data breakpoints never see. The golden trace must still
// count those accesses, so flips there are scheduled at the context switch,
// not synthesized as never activated, and match ReplayFromBoot.
func TestFirstTouchHostOnlyWords(t *testing.T) {
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(platform.Short(), func(t *testing.T) {
			sys, golden, prof := getSystem(t, platform)
			m := sys.Machine
			// Words the guest's own loads and stores touch: the full access
			// trace with the raw-memory half removed.
			guest := map[uint32]bool{}
			m.Reboot()
			m.Core().SetAccessTrace(func(addr, size uint32) {
				for w := addr &^ 3; w < addr+size; w += 4 {
					guest[w] = true
				}
			})
			m.Mem.SetRawObserver(nil)
			res := m.Run()
			m.Core().SetAccessTrace(nil)
			if res.Checksum != golden {
				t.Fatalf("guest-only traced run: checksum %08x, want %08x", res.Checksum, golden)
			}

			// The first user process: its saved program counter is consumed
			// when it is first switched in, so flips there change the run.
			slot := 0
			for slot < len(sys.Procs) && !sys.Procs[slot].User {
				slot++
			}
			var targets []inject.Target
			for k := 0; k < m.Core().CtxWords(); k++ {
				w := sys.ProcAddr(slot) + m.Config().CtxOff + uint32(4*k)
				if _, ok := guest[w]; ok {
					continue
				}
				targets = append(targets, inject.Target{Campaign: inject.CampData,
					Addr: w + uint32(k%4), Bit: uint(k % 8)})
			}
			if len(targets) == 0 {
				t.Fatal("no saved-context word is free of guest accesses")
			}
			plan, err := NewPlan(sys, golden, prof, Spec{Campaign: inject.CampData, N: len(targets)},
				targets, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range targets {
				if _, ok := plan.Pre[i]; ok {
					t.Errorf("target %d (word %#x) synthesized; host glue touches it", i, targets[i].Addr&^3)
				}
			}
			ex := newExecutor([]*kernel.System{sys}, golden, ExecOptions{}, nil, execHooks{})
			defer ex.close()
			out := make([]inject.Result, len(targets))
			if err := plan.execute(ex, out, func(int, bool) error { return nil }); err != nil {
				t.Fatal(err)
			}
			manifested := 0
			for i, want := range ReplayFromBoot(sys, golden, targets) {
				if !reflect.DeepEqual(want, out[i]) {
					t.Errorf("target %d diverges:\n  replay: %+v\n  plan:   %+v", i, want, out[i])
				}
				if want.Outcome != inject.ONotActivated {
					manifested++
				}
			}
			// A synthesized row is always not-activated: without a flip
			// that changes the run, the check above would pass vacuously.
			if manifested == 0 {
				t.Error("no host-only flip changed the run")
			}
		})
	}
}

// TestFirstTouchComposition: first-touch scheduling composes with resume
// and with farms. A journal cut inside the synthesized rows, a cut inside
// the executed tail, and a two-node farm all reproduce RunWith's canonical
// journal.
func TestFirstTouchComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	const p = isa.CISC
	sys, golden, prof := getSystem(t, p)
	spec := Spec{Campaign: inject.CampData, N: 300, Seed: 1019}
	h := HeaderFor(p, golden, spec)
	ref, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Synthesized < 2 || ref.Executed < 2 {
		t.Fatalf("%d synthesized and %d executed rows; need two of each to cut inside both",
			ref.Synthesized, ref.Executed)
	}
	want := serialize(t, p, spec, ref.Results)
	canonical := func(path string) []byte {
		_, rows, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CanonicalJournalBytes(HeaderFor(p, 0, spec), rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Synthesized rows are appended first, so the first cut lands among
	// them and the second one executed row into the tail.
	for _, cut := range []int{ref.Synthesized / 2, ref.Synthesized + 1} {
		path := filepath.Join(t.TempDir(), "campaign.kjournal")
		j, err := CreateJournal(path, h)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("cut %d: the interrupted run finished", cut)
				}
			}()
			_, _ = RunWith(sys, golden, prof, spec, func(done, _ int) {
				if done == cut {
					panic("simulated process kill")
				}
			}, ExecOptions{Journal: j})
		}()
		j.Close()
		j2, completed, err := ResumeJournal(path, h)
		if err != nil {
			t.Fatal(err)
		}
		if len(completed) != cut {
			t.Fatalf("cut %d: journal recovered %d rows", cut, len(completed))
		}
		if _, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Journal: j2, Completed: completed}); err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if got := canonical(path); !bytes.Equal(got, want) {
			t.Errorf("resume from a cut after %d rows: canonical journal differs from RunWith", cut)
		}
	}

	farm, err := NewFarm(p, 2, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "farm.kjournal")
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := farm.RunWith(spec, nil, ExecOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := canonical(path); !bytes.Equal(got, want) {
		t.Error("two-node farm: canonical journal differs from RunWith")
	}
}
