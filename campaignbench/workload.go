package main

import (
	"fmt"

	"kfi/internal/campaign"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
)

// workload is one named campaign mix. A run executes it as a closed loop of
// rounds: each round runs every cell's campaign once, one after the other on
// one guest system per platform, and the next injection starts only when the
// previous one is classified.
type workload struct {
	name string
	// fraction scales the paper's Table 5/6 campaign sizes, exactly as
	// core.Config.PaperFraction does, for all four campaigns.
	fraction float64
	// codeN, when set, runs only the code campaigns, codeN injections per
	// platform per round.
	codeN int
	// incremental adds static sensing and a section cache: set-up fills the
	// cache cold and the timed rounds re-run warm.
	incremental bool
	// rounds is the number of distinct rounds a run cycles through. Round k
	// draws its targets from roundSeed(seed, k).
	rounds int
	// timed is how many executions of each round the timing metrics are
	// taken from, on every commit alike; --seconds only sets a floor on how
	// long the run goes on executing (and checking) rounds.
	timed int
	// manual marks a workload kept for runs by hand and left out of
	// BENCHMARK.json: its throughput swings with the seed more than any
	// bound allows (see README.md).
	manual bool
}

// builds is how many times set-up builds the guest systems; setup_s is the
// median build time, plus the cold cache fill on incremental.
const builds = 7

var workloads = []workload{
	{name: "paper-mix", fraction: 0.002, rounds: 4, timed: 2},
	{name: "code-chain", codeN: 40, rounds: 2, timed: 2, manual: true},
	{name: "incremental", fraction: 0.001, incremental: true, rounds: 8, timed: 8},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// platforms in the order core.Run visits them.
var platforms = []isa.Platform{isa.CISC, isa.RISC}

// cell is one (platform, campaign) campaign of a round.
type cell struct {
	plat isa.Platform
	camp inject.Campaign
	n    int
}

func (c cell) String() string { return fmt.Sprintf("%s/%s", c.plat.Short(), c.camp) }

// cells lists a round's campaigns in core.Run order, sized the way core.Run
// sizes them.
func (w workload) cells() []cell {
	var out []cell
	for _, p := range platforms {
		for _, c := range core.Campaigns {
			n := w.codeN
			if n == 0 {
				n = int(float64(core.PaperCounts[p][c]) * w.fraction)
				if n < 1 {
					n = 1
				}
			} else if c != inject.CampCode {
				continue
			}
			out = append(out, cell{plat: p, camp: c, n: n})
		}
	}
	return out
}

// roundSeed is round k's study seed: a kfi-campaign run with this -seed
// reproduces the round, because cells take core.SpecSeed of it.
func roundSeed(seed int64, k int) int64 { return seed*1_000_000 + int64(k)*10_000 }

// spec is the campaign a cell runs in round k.
func spec(seed int64, k int, c cell) campaign.Spec {
	return campaign.Spec{Campaign: c.camp, N: c.n, Seed: core.SpecSeed(roundSeed(seed, k), c.plat, c.camp)}
}

// exec is the workload's execution options: the defaults, plus sensing and
// the section cache on the incremental workload.
func (w workload) exec(cacheDir string) campaign.ExecOptions {
	if !w.incremental {
		return campaign.ExecOptions{}
	}
	return campaign.ExecOptions{Sense: true, SectionCache: cacheDir}
}

// header is the journal header kfi-campaign -journal writes for the cell.
func header(p isa.Platform, golden uint32, sp campaign.Spec, opts campaign.ExecOptions) campaign.Header {
	h := campaign.HeaderFor(p, golden, sp)
	h.Cached = opts.SectionCache != ""
	return h
}
