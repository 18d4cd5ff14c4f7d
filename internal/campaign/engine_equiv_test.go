package campaign_test

// Engine-equivalence harness for the ExecEngine seam: the basic-block
// translator every campaign runs on and the reference step interpreter
// (reachable only through Machine.SetEngine) must produce byte-identical
// campaign outcome tables and journal files, header included, on both
// platforms — and identical to the goldens in testdata, so the translator
// cannot drift even in ways the two engines happen to share. Any divergence
// here is a translator (blocks or slot-stepping fallback) soundness bug, not
// a tolerance to widen.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kfi/internal/campaign"
	"kfi/internal/cc"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/platform"
	"kfi/internal/stats"
	"kfi/internal/workload"
)

func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		p := p
		t.Run(p.Short(), func(t *testing.T) {
			uimg, err := cc.Compile(workload.Program(1), p, kernel.UserBases)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := kernel.BuildSystem(p, uimg, workload.StandardProcs(), kernel.Options{})
			if err != nil {
				t.Fatal(err)
			}
			golden, err := campaign.Golden(sys)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := campaign.ProfileKernel(sys)
			if err != nil {
				t.Fatal(err)
			}

			for _, kind := range []platform.EngineKind{platform.EngineInterp, platform.EngineTranslate} {
				t.Run(kind.String(), func(t *testing.T) {
					if err := sys.Machine.SetEngine(kind); err != nil {
						t.Fatal(err)
					}
					var table strings.Builder
					table.WriteString(stats.TableHeader() + "\n")
					var all []inject.Result
					for _, spec := range equivSpecs {
						jpath := filepath.Join(t.TempDir(), "journal.bin")
						j, err := campaign.CreateJournal(jpath, campaign.HeaderFor(p, golden, spec))
						if err != nil {
							t.Fatal(err)
						}
						res, err := campaign.RunWith(sys, golden, prof, spec, nil,
							campaign.ExecOptions{Journal: j})
						if err != nil {
							t.Fatal(err)
						}
						if err := j.Close(); err != nil {
							t.Fatal(err)
						}
						if res.Executed > 0 && res.EngineStats.Zero() != (kind == platform.EngineInterp) {
							t.Fatalf("campaign requested on %v reports counters %+v", kind, res.EngineStats)
						}
						c := stats.Summarize(res.Results)
						table.WriteString(c.TableRow(spec.Campaign.String()) + "\n")
						all = append(all, res.Results...)

						jbytes, err := os.ReadFile(jpath)
						if err != nil {
							t.Fatal(err)
						}
						gold, err := os.ReadFile(filepath.Join("testdata",
							goldenName(p, spec.Campaign.String()+".journal")))
						if err != nil {
							t.Fatal(err)
						}
						if string(jbytes) != string(gold) {
							t.Errorf("%s %v journal differs from golden (%d bytes vs %d): engine changed observable outcomes",
								spec.Campaign, kind, len(jbytes), len(gold))
						}
					}
					table.WriteString("\n" + stats.CrashCauses(all).Render(p) + "\n")
					table.WriteString(stats.Latencies(all).Render() + "\n")
					gold, err := os.ReadFile(filepath.Join("testdata", goldenName(p, "table.txt")))
					if err != nil {
						t.Fatal(err)
					}
					if table.String() != string(gold) {
						t.Errorf("%v outcome table differs from golden: engine changed observable outcomes", kind)
					}
				})
			}
		})
	}
}
