// Package stats turns raw injection results into the paper's tables and
// figures: the activation/failure-distribution tables (Tables 5-6), the
// crash-cause distributions (Figures 4-6 and 10-12), and the cycles-to-crash
// histograms (Figure 16).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"kfi/internal/inject"
	"kfi/internal/isa"
)

// Counts summarizes one campaign the way Tables 5 and 6 do.
type Counts struct {
	Injected      int
	Activated     int
	ActivationNA  bool // system registers: activation cannot be observed
	NotActivated  int
	NotManifested int
	FailSilence   int
	Crash         int
	HangUnknown   int
	// Quarantined counts injections the harness set aside after exhausting
	// their supervised retry budget (a property of the measurement apparatus,
	// not of the guest — excluded from the paper's columns, reported
	// alongside them).
	Quarantined int
	// Detected counts injections a hardened guest's software fault detector
	// caught. Always zero for unhardened campaigns, so the paper-faithful
	// table columns are unchanged; hardened studies report it through the
	// coverage table (CoverageRow) instead.
	Detected int
}

// Summarize tallies campaign results.
func Summarize(results []inject.Result) Counts {
	var c Counts
	for _, r := range results {
		c.Add(r)
	}
	return c
}

// Add tallies one result — the streaming form of Summarize, for consumers
// that account for outcomes as they arrive rather than over a finished
// slice.
func (c *Counts) Add(r inject.Result) {
	c.Injected++
	if !r.ActivationKnown {
		c.ActivationNA = true
	} else if r.Activated {
		c.Activated++
	}
	switch r.Outcome {
	case inject.ONotActivated:
		c.NotActivated++
	case inject.ONotManifested:
		c.NotManifested++
	case inject.OFailSilence:
		c.FailSilence++
	case inject.OCrash:
		c.Crash++
	case inject.OHangUnknown:
		c.HangUnknown++
	case inject.OQuarantined:
		c.Quarantined++
	case inject.ODetected:
		c.Detected++
	}
}

// Manifested returns how many injections visibly affected the system.
func (c Counts) Manifested() int { return c.FailSilence + c.Crash + c.HangUnknown }

// ActivatedBase returns the denominator used for the paper's percentage
// columns: activated errors when activation is observable, otherwise all
// injections. Quarantined experiments never produced an observable outcome,
// so they are excluded from the denominator either way (they are reported
// in the table footer instead).
func (c Counts) ActivatedBase() int {
	if c.ActivationNA {
		base := c.Injected - c.Quarantined
		if base <= 0 {
			base = 1
		}
		return base
	}
	base := c.Activated
	if base == 0 {
		base = 1
	}
	return base
}

func pct(n, base int) string {
	if base == 0 {
		base = 1
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(base))
}

// TableRow renders one campaign as a Table 5/6-style row.
func (c Counts) TableRow(name string) string {
	act := fmt.Sprintf("%d(%s)", c.Activated, pct(c.Activated, c.Injected))
	if c.ActivationNA {
		act = "N/A"
	}
	base := c.ActivatedBase()
	return fmt.Sprintf("%-18s %8d  %14s  %14s  %12s  %14s  %14s",
		name, c.Injected, act,
		fmt.Sprintf("%d(%s)", c.NotManifested, pct(c.NotManifested, base)),
		fmt.Sprintf("%d(%s)", c.FailSilence, pct(c.FailSilence, base)),
		fmt.Sprintf("%d(%s)", c.Crash, pct(c.Crash, base)),
		fmt.Sprintf("%d(%s)", c.HangUnknown, pct(c.HangUnknown, base)))
}

// TableHeader renders the Table 5/6 column header.
func TableHeader() string {
	return fmt.Sprintf("%-18s %8s  %14s  %14s  %12s  %14s  %14s",
		"Campaign", "Injected", "Activated", "NotManifested", "FSV", "KnownCrash", "Hang/Unknown")
}

// CauseDist is a crash-cause distribution over known crashes.
type CauseDist struct {
	Total  int
	Counts map[isa.CrashCause]int
}

// CrashCauses tallies the known-crash causes (the figures' pie charts).
func CrashCauses(results []inject.Result) CauseDist {
	d := CauseDist{Counts: make(map[isa.CrashCause]int)}
	for _, r := range results {
		if r.Outcome == inject.OCrash {
			d.Counts[r.Cause]++
			d.Total++
		}
	}
	return d
}

// Merge combines distributions (for the overall Figures 4/5).
func (d CauseDist) Merge(o CauseDist) CauseDist {
	out := CauseDist{Counts: make(map[isa.CrashCause]int), Total: d.Total + o.Total}
	for k, v := range d.Counts {
		out.Counts[k] += v
	}
	for k, v := range o.Counts {
		out.Counts[k] += v
	}
	return out
}

// Pct returns a cause's share of known crashes.
func (d CauseDist) Pct(c isa.CrashCause) float64 {
	if d.Total == 0 {
		return 0
	}
	return 100 * float64(d.Counts[c]) / float64(d.Total)
}

// Render lists the distribution for a platform in descending order, like the
// paper's pie-chart labels.
func (d CauseDist) Render(platform isa.Platform) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(Total %d)\n", d.Total)
	causes := isa.Causes(platform)
	sort.SliceStable(causes, func(i, j int) bool {
		return d.Counts[causes[i]] > d.Counts[causes[j]]
	})
	for _, c := range causes {
		if d.Counts[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-26s %5.1f%%  (%d)\n", c, d.Pct(c), d.Counts[c])
	}
	return b.String()
}

// InvalidMemoryPct returns the share the paper groups as "invalid memory
// access" (Bad Paging + NULL Pointer on the P4; Bad Area on the G4).
func (d CauseDist) InvalidMemoryPct(platform isa.Platform) float64 {
	var s float64
	for _, c := range isa.InvalidMemoryCauses(platform) {
		s += d.Pct(c)
	}
	return s
}

// LatencyBuckets are the Figure 16 cycle-count bucket upper bounds; the last
// bucket is unbounded (">1G").
var LatencyBuckets = []uint64{3_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000}

// BucketLabels name the Figure 16 buckets.
var BucketLabels = []string{"<3k", "3k-10k", "10k-100k", "100k-1M", "1M-10M", "10M-100M", "100M-1G", ">1G"}

// LatencyHist is a cycles-to-crash histogram over known crashes.
type LatencyHist struct {
	Buckets [8]int
	Total   int
}

// Latencies builds the Figure 16 histogram for a campaign.
func Latencies(results []inject.Result) LatencyHist {
	var h LatencyHist
	for _, r := range results {
		if r.Outcome != inject.OCrash {
			continue
		}
		h.Add(r.Latency)
	}
	return h
}

// Add records one crash latency.
func (h *LatencyHist) Add(cycles uint64) {
	i := 0
	for i < len(LatencyBuckets) && cycles >= LatencyBuckets[i] {
		i++
	}
	h.Buckets[i]++
	h.Total++
}

// Pct returns bucket i's share.
func (h LatencyHist) Pct(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return 100 * float64(h.Buckets[i]) / float64(h.Total)
}

// CumulativePct returns the share of crashes at or below bucket i.
func (h LatencyHist) CumulativePct(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	n := 0
	for j := 0; j <= i; j++ {
		n += h.Buckets[j]
	}
	return 100 * float64(n) / float64(h.Total)
}

// Render prints the histogram as Figure 16-style rows.
func (h LatencyHist) Render() string {
	var b strings.Builder
	for i, label := range BucketLabels {
		fmt.Fprintf(&b, "  %-9s %5.1f%%  (%d)\n", label, h.Pct(i), h.Buckets[i])
	}
	return b.String()
}

// ByRegister tallies crash counts per injected system register (the paper's
// "only 15 G4 / 7 P4 registers contribute" observation).
func ByRegister(results []inject.Result) map[string]int {
	out := make(map[string]int)
	for _, r := range results {
		if r.Target.Campaign != inject.CampSysReg {
			continue
		}
		if r.Outcome == inject.OCrash || r.Outcome == inject.OHangUnknown {
			out[r.Target.RegName]++
		}
	}
	return out
}

// Wilson95 returns the 95% Wilson score interval for k successes out of n
// trials, as percentages. The paper reports raw percentages from campaigns
// of very different sizes (hundreds of activated stack errors versus tens of
// data crashes); the interval makes the sampling error of a reproduction at
// 2% of the paper's scale explicit.
func Wilson95(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 0
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo, hi = 100*(center-half), 100*(center+half)
	if lo < 0 {
		lo = 0
	}
	if hi > 100 {
		hi = 100
	}
	return lo, hi
}
