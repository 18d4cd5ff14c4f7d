package campaign

import (
	"reflect"
	"sort"
	"testing"

	"kfi/internal/cc"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/kir"
	"kfi/internal/machine"
)

// TestGuestOneFaultFreeRun: NewGuest measures a guest with one traced
// golden run, and what it reads from that run equals what separate
// measurements on an identical sibling give: an untraced run's checksum and
// length, and a profiling run's kernel profile. The projections Golden and
// ProfileKernel read the same run without running the machine again.
func TestGuestOneFaultFreeRun(t *testing.T) {
	for _, c := range []struct {
		name     string
		platform isa.Platform
		opts     kernel.Options
	}{
		{"p4", isa.CISC, kernel.Options{}},
		{"g4", isa.RISC, kernel.Options{}},
		{"p4 dup+cfsig", isa.CISC, kernel.Options{Harden: kir.HardenOpts{Dup: true, CFSig: true}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewGuest(c.platform, 1, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			// A call served from the memo leaves the machine as it is, so
			// a clock still at the reboot value shows the trace is the one
			// NewGuest took.
			g.Sys.Machine.Reboot()
			clk := g.Sys.Machine.Core().Clock()
			boot := clk.Cycles()
			tr, err := g.Sys.GoldenTrace()
			if err != nil {
				t.Fatal(err)
			}
			if clk.Cycles() != boot {
				t.Fatal("GoldenTrace after NewGuest ran the machine, want the trace NewGuest took")
			}
			if tr.Checksum() != g.Golden || tr.Cycles() != g.Cycles {
				t.Errorf("guest: checksum %08x, %d cycles; its trace: %08x, %d cycles",
					g.Golden, g.Cycles, tr.Checksum(), tr.Cycles())
			}

			sibling, err := g.Build()
			if err != nil {
				t.Fatal(err)
			}
			run := sibling.Run()
			if run.Outcome != machine.OutCompleted || run.Checksum != g.Golden || run.Cycles != g.Cycles {
				t.Errorf("untraced sibling run: %v, checksum %08x, %d cycles; guest: %08x, %d cycles",
					run.Outcome, run.Checksum, run.Cycles, g.Golden, g.Cycles)
			}
			ref := referenceProfile(t, sibling)
			if !reflect.DeepEqual(g.Profile, ref) {
				t.Errorf("guest profile differs from the reference attribution:\n got %+v\nwant %+v", g.Profile, ref)
			}

			prof, err := ProfileKernel(g.Sys)
			if err != nil {
				t.Fatal(err)
			}
			if prof == g.Profile || !reflect.DeepEqual(prof, ref) {
				t.Errorf("ProfileKernel: fresh=%v equal=%v, want a fresh copy of the reference",
					prof != g.Profile, reflect.DeepEqual(prof, ref))
			}
			if golden, err := Golden(g.Sys); err != nil || golden != g.Golden {
				t.Errorf("Golden: %08x err=%v, want %08x", golden, err, g.Golden)
			}
			if again, err := g.Sys.GoldenTrace(); err != nil || again != tr || clk.Cycles() != boot {
				t.Error("a projection traced the golden run again")
			}
		})
	}
}

// TestProfileTieBreak: functions with equal cycles sort by name. No
// function ties on the standard guests, so the test feeds profileOf and the
// reference attribution the same made-up costs, one cycle at every
// function's first instruction.
func TestProfileTieBreak(t *testing.T) {
	sys, _, _ := getSystem(t, isa.CISC)
	im := sys.KernelImage
	ref := newRefProfiler(im)
	starts := map[uint32]uint64{}
	for _, f := range im.Funcs {
		ref.observe(f.Start, 1)
		starts[f.Start] = 1
	}
	got := profileOf(im, func(pc uint32) uint64 { return starts[pc] })
	if want := ref.profile(); !reflect.DeepEqual(got, want) {
		t.Errorf("tied functions out of name order:\n got %+v\nwant %+v", got, want)
	}
}

// refProfiler attributes each retired instruction's cost to the kernel
// function holding its PC, the way a profiling run's instruction trace sees
// it.
type refProfiler struct {
	im     *cc.Image
	counts []uint64
}

func newRefProfiler(im *cc.Image) *refProfiler {
	return &refProfiler{im: im, counts: make([]uint64, len(im.Funcs))}
}

func (r *refProfiler) observe(pc uint32, cost uint8) {
	im := r.im
	if pc < im.CodeBase || pc >= im.CodeBase+uint32(len(im.Code)) {
		return
	}
	i := sort.Search(len(im.Funcs), func(i int) bool { return im.Funcs[i].End > pc })
	if i < len(im.Funcs) && pc >= im.Funcs[i].Start {
		r.counts[i] += uint64(cost)
	}
}

// profile is the attribution so far: the functions that retired any cycle,
// by cycles descending, ties by name.
func (r *refProfiler) profile() *Profile {
	p := &Profile{}
	for i, fr := range r.im.Funcs {
		if r.counts[i] == 0 {
			continue
		}
		p.Funcs = append(p.Funcs, FuncWeight{Name: fr.Name, Start: fr.Start, End: fr.End, Cycles: r.counts[i]})
		p.Total += r.counts[i]
	}
	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].Cycles != p.Funcs[j].Cycles {
			return p.Funcs[i].Cycles > p.Funcs[j].Cycles
		}
		return p.Funcs[i].Name < p.Funcs[j].Name
	})
	return p
}

// referenceProfile measures the kernel profile with a profiling run of its
// own: reboot and run the benchmark under an instruction trace feeding a
// refProfiler.
func referenceProfile(t *testing.T, sys *kernel.System) *Profile {
	t.Helper()
	ref := newRefProfiler(sys.KernelImage)
	sys.Machine.Reboot()
	sys.Machine.Core().SetTrace(ref.observe)
	res := sys.Machine.Run()
	sys.Machine.Core().SetTrace(nil)
	if res.Outcome != machine.OutCompleted {
		t.Fatalf("profiling run did not complete: %v", res.Outcome)
	}
	return ref.profile()
}
