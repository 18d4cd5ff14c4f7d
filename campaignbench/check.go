package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"kfi/internal/campaign"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/stats"
)

// defaultSeed is the seed the pins were recorded at.
const defaultSeed = 1

// heldOutSeed is never run while a change is written; a claimed gain must
// also hold on it (see README.md).
const heldOutSeed = 4242

// digest is the output of one campaign: its Table 5/6 row and the SHA-256 of
// its canonical journal.
type digest struct {
	Round    int    `json:"round"`
	Platform string `json:"platform"`
	Campaign string `json:"campaign"`
	Row      string `json:"row"`
	SHA256   string `json:"sha256"`
}

func digestOf(c cellRun) (digest, error) {
	completed := make(map[int]inject.Result, len(c.results))
	for i, r := range c.results {
		completed[i] = r
	}
	b, err := campaign.CanonicalJournalBytes(c.header, completed)
	if err != nil {
		return digest{}, err
	}
	sum := sha256.Sum256(b)
	return digest{Round: c.round, Platform: c.plat.Short(), Campaign: c.camp.String(),
		Row: c.counts.TableRow(c.camp.String()), SHA256: hex.EncodeToString(sum[:])}, nil
}

//go:embed pins.json
var pinsJSON []byte

// pins maps workload name to the digests of its rounds at defaultSeed.
type pins map[string][]digest

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// lookup finds the pinned digest of a campaign, if the seed is pinned.
func (p pins) lookup(w string, seed int64, d digest) (digest, bool) {
	if seed != defaultSeed {
		return digest{}, false
	}
	for _, pd := range p[w] {
		if pd.Round == d.Round && pd.Platform == d.Platform && pd.Campaign == d.Campaign {
			return pd, true
		}
	}
	return digest{}, false
}

// verdict accumulates a run's correctness checks. A campaign that fails a
// check counts all its rows as failed.
type verdict struct {
	attempted int
	failed    int
	problems  []string
}

func (v *verdict) fail(rows int, format string, args ...any) {
	v.failed += rows
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

func (v *verdict) ok() bool { return v.failed == 0 && len(v.problems) == 0 }

// checkRound counts a round's rows as attempted and fails every campaign
// that quarantined a row, misses its pin, or differs from want (the same
// round run another way), when want is given.
func (v *verdict) checkRound(w string, seed int64, rr *roundRun, pinned pins, want *roundRun) {
	for i, c := range rr.cells {
		v.attempted += c.n
		if c.counts.Quarantined > 0 {
			v.fail(c.n, "round %d %v: %d quarantined rows", c.round, c.cell, c.counts.Quarantined)
			continue
		}
		d, err := digestOf(c)
		if err != nil {
			v.fail(c.n, "round %d %v: %v", c.round, c.cell, err)
			continue
		}
		if pd, ok := pinned.lookup(w, seed, d); ok && pd != d {
			v.fail(c.n, "round %d %v: misses its pin\n  pinned %s %s\n  got    %s %s",
				c.round, c.cell, pd.SHA256, pd.Row, d.SHA256, d.Row)
			continue
		}
		if want == nil {
			continue
		}
		wd, err := digestOf(want.cells[i])
		if err != nil || wd != d {
			v.fail(c.n, "round %d %v: differs from the reference run of the same round", c.round, c.cell)
		}
	}
}

// checkReplay re-runs a few rows of every campaign of the round from boot
// with inject.RunOne, the paper's literal procedure, and fails any campaign
// whose fork-from-golden row differs. It is the check that holds at every
// seed, pinned or not.
func (v *verdict) checkReplay(r *runner, rr *roundRun) {
	for _, c := range rr.cells {
		s := r.systems[c.plat]
		for _, idx := range replaySample(c.results) {
			want := outcomeOnly(c.results[idx])
			got := outcomeOnly(inject.RunOne(s.Sys, want.Target, s.Golden))
			if !reflect.DeepEqual(got, want) {
				v.fail(c.n, "round %d %v row %d: replay from boot gives %v, the campaign %v",
					c.round, c.cell, idx, got.Outcome, want.Outcome)
				break
			}
		}
	}
}

// replaySample picks the first row and the first crash or fail-silence row:
// one plain and one manifested outcome, without the cost of a hang.
func replaySample(rows []inject.Result) []int {
	out := []int{0}
	for i, r := range rows {
		if i > 0 && (r.Outcome == inject.OCrash || r.Outcome == inject.OFailSilence) {
			return append(out, i)
		}
	}
	return out
}

// outcomeOnly drops the static-prediction annotations, which RunOne does not
// compute.
func outcomeOnly(r inject.Result) inject.Result {
	r.PredClass, r.PredInert, r.PredSkipped, r.PredCached = "", false, false, false
	return r
}

// campaignCounts is one (platform, campaign)'s Table 5/6 counts.
type campaignCounts struct {
	plat isa.Platform
	camp inject.Campaign
	stats.Counts
}

// paperErrPP pools the Table 5/6 rows of the given rounds per (platform,
// campaign) and returns their paperErr.
func paperErrPP(rounds []*roundRun) float64 {
	var pooled []*campaignCounts
	for _, rr := range rounds {
		for _, c := range rr.cells {
			var cc *campaignCounts
			for _, p := range pooled {
				if p.plat == c.plat && p.camp == c.camp {
					cc = p
				}
			}
			if cc == nil {
				cc = &campaignCounts{plat: c.plat, camp: c.camp}
				pooled = append(pooled, cc)
			}
			for _, res := range c.results {
				cc.Add(res)
			}
		}
	}
	return paperErr(pooled)
}

// paperErr is the mean absolute percentage-point gap between the counts and
// stats.PaperTable, over every column the paper reports for the campaigns
// counted. Each column is weighted by the square root of the rows its
// percentage rests on (injections for the activated column, the activated
// rows, or for system registers the classified ones, for the outcome
// columns), the inverse scale of its sampling error: a percentage of three
// activated data flips does not swing the mean, and a column that rests on
// no rows does not count at all.
func paperErr(cs []*campaignCounts) float64 {
	var sum, weight float64
	gap := func(paper float64, n, rows int) {
		if rows == 0 {
			return
		}
		w := math.Sqrt(float64(rows))
		sum += w * math.Abs(paper-100*float64(n)/float64(rows))
		weight += w
	}
	for _, c := range cs {
		ref := stats.PaperTable[c.plat][c.camp]
		if !math.IsNaN(ref.ActivatedPct) {
			gap(ref.ActivatedPct, c.Activated, c.Injected)
		}
		base := c.Activated
		if c.ActivationNA {
			base = c.Injected - c.Quarantined
		}
		gap(ref.NotManifestedPct, c.NotManifested, base)
		gap(ref.FSVPct, c.FailSilence, base)
		gap(ref.CrashPct, c.Crash, base)
		gap(ref.HangPct, c.HangUnknown, base)
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}
