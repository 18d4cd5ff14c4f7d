package campaign_test

// Behavior-preservation harness: campaign outcome tables and journal files
// must be byte-identical to the committed goldens, on both platforms and
// through every entry point that executes a plan. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/campaign -run TestCampaignGolden
//
// only when a change is *supposed* to alter outcomes (new workload, new
// error model); a driver or dispatch refactor must never need it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kfi/internal/campaign"
	"kfi/internal/cc"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/stats"
	"kfi/internal/workload"
)

// equivSpecs is the fixed campaign set the goldens cover. Small enough to
// run in the normal test suite, large enough that every outcome class and
// both crash-cause tables show up.
var equivSpecs = []campaign.Spec{
	{Campaign: inject.CampStack, N: 10, Seed: 1009},
	{Campaign: inject.CampSysReg, N: 10, Seed: 1013},
	{Campaign: inject.CampData, N: 10, Seed: 1019},
	{Campaign: inject.CampCode, N: 10, Seed: 1021},
}

func TestCampaignGoldenEquivalence(t *testing.T) {
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
				c := stats.Summarize(res.Results)
				table.WriteString(c.TableRow(spec.Campaign.String()) + "\n")
				all = append(all, res.Results...)

				jbytes, err := os.ReadFile(jpath)
				if err != nil {
					t.Fatal(err)
				}
				compareGolden(t, goldenName(p, spec.Campaign.String()+".journal"), jbytes)
			}
			table.WriteString("\n" + stats.CrashCauses(all).Render(p) + "\n")
			table.WriteString(stats.Latencies(all).Render() + "\n")
			compareGolden(t, goldenName(p, "table.txt"), []byte(table.String()))
			if os.Getenv("UPDATE_GOLDEN") == "1" {
				return
			}

			// Every other entry point must reproduce the same journals in
			// canonical (index-sorted) form; only their append order may
			// differ.
			for _, ep := range entryPoints {
				ep := ep
				t.Run(ep.name, func(t *testing.T) {
					run := ep.open(t, p)
					for _, spec := range equivSpecs {
						got := run(spec)
						path := filepath.Join("testdata", goldenName(p, spec.Campaign.String()+".journal"))
						if want := canonicalJournal(t, path); !bytes.Equal(got, want) {
							t.Errorf("%v %v: canonical journal differs from golden (%d bytes vs %d)",
								p, spec.Campaign, len(got), len(want))
						}
					}
				})
			}
		})
	}
}

// entryPoint is a driver that executes a plan: open builds its systems for
// one platform and returns a function running one campaign through it and
// returning the campaign's canonical journal bytes.
type entryPoint struct {
	name string
	open func(t *testing.T, p isa.Platform) func(spec campaign.Spec) []byte
}

// entryPoints lists the drivers besides RunWith: a two-node farm, a
// NodeRunner fed shuffled lease subsets, and the study layer with one and
// two nodes.
var entryPoints = []entryPoint{
	{"Farm.RunWith-2", openFarm},
	{"NodeRunner.RunIndices", openNodeRunner},
	{"core.Run-1", openStudy(1)},
	{"core.Run-2", openStudy(2)},
}

func openFarm(t *testing.T, p isa.Platform) func(spec campaign.Spec) []byte {
	farm, err := campaign.NewFarm(p, 2, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return func(spec campaign.Spec) []byte {
		path := filepath.Join(t.TempDir(), "journal.bin")
		j, err := campaign.CreateJournal(path, campaign.HeaderFor(p, farm.Golden(), spec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := farm.RunWith(spec, nil, campaign.ExecOptions{Journal: j}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return canonicalJournal(t, path)
	}
}

func openNodeRunner(t *testing.T, p isa.Platform) func(spec campaign.Spec) []byte {
	nr, err := campaign.NewNodeRunner(p, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nr.Close)
	return func(spec campaign.Spec) []byte {
		plan, err := nr.Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[int]inject.Result{}
		perm := rand.New(rand.NewSource(spec.Seed)).Perm(spec.N)
		for lo := 0; lo < len(perm); lo += 3 {
			lease := perm[lo:min(lo+3, len(perm))]
			err := nr.RunIndices(plan, lease, campaign.ExecOptions{}, func(idx int, r inject.Result) error {
				rows[idx] = r
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		b, err := campaign.CanonicalJournalBytes(campaign.HeaderFor(p, nr.Golden(), spec), rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// openStudy runs each campaign as a one-campaign study, journaled.
func openStudy(nodes int) func(t *testing.T, p isa.Platform) func(spec campaign.Spec) []byte {
	return func(t *testing.T, p isa.Platform) func(spec campaign.Spec) []byte {
		return func(spec campaign.Spec) []byte {
			dir := t.TempDir()
			c := spec.Campaign
			_, err := core.Run(core.Config{
				Platforms: []isa.Platform{p},
				Campaigns: []inject.Campaign{c},
				Counts:    map[inject.Campaign]int{c: spec.N},
				// core.SpecSeed maps this base back to spec.Seed.
				Seed:       spec.Seed - core.SpecSeed(0, p, c),
				Nodes:      nodes,
				JournalDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			return canonicalJournal(t, core.JournalPath(dir, p, c))
		}
	}
}

// canonicalJournal reads a journal file and renders it in canonical form.
func canonicalJournal(t *testing.T, path string) []byte {
	t.Helper()
	h, rows, err := campaign.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.CanonicalJournalBytes(h, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goldenName(p isa.Platform, suffix string) string {
	return fmt.Sprintf("golden_%s_%s", p.Short(), strings.ReplaceAll(suffix, " ", ""))
}

// compareGolden checks got against testdata/<name>, rewriting the golden
// instead when UPDATE_GOLDEN=1.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if string(want) != string(got) {
		t.Errorf("%s differs from golden (%d bytes vs %d); the refactor changed observable campaign behavior", name, len(got), len(want))
	}
}
