package stats

import (
	"fmt"
	"sort"
	"strings"

	"kfi/internal/inject"
	"kfi/internal/staticsense"
)

// ConfusionRow is one predicted-class row of the predicted-vs-observed
// matrix, with observed outcomes grouped the way the soundness argument
// cares about them: skipped (synthesized by earlier builds' pruning, never
// executed), not activated,
// not manifested, manifested (fail silence + crash + hang), quarantined.
type ConfusionRow struct {
	Class         string `json:"class"`
	Skipped       int    `json:"skipped"`
	NotActivated  int    `json:"not_activated"`
	NotManifested int    `json:"not_manifested"`
	Manifested    int    `json:"manifested"`
	Quarantined   int    `json:"quarantined"`
}

// Total is the row's experiment count.
func (r ConfusionRow) Total() int {
	return r.Skipped + r.NotActivated + r.NotManifested + r.Manifested + r.Quarantined
}

// Confusion cross-tabulates the static analyzer's predictions against
// observed campaign outcomes — the validation table for the pre-pass.
type Confusion struct {
	// Annotated counts results carrying a static prediction; results from
	// campaigns (or target kinds) the analyzer does not cover are ignored.
	Annotated int `json:"annotated"`
	// Rows lists the non-empty predicted classes in lattice order.
	Rows []ConfusionRow `json:"rows"`
	// Violations counts soundness failures: flips predicted inert that were
	// actually executed (not skipped) and manifested anyway. The analyzer
	// is sound iff this is zero.
	Violations int `json:"violations"`
	// Cached counts results carrying the section-cache membership marker
	// (inject.Result.PredCached) — rows an incremental re-run may satisfy
	// from the per-section outcome cache. Counted across all results, not
	// just annotated ones.
	Cached int `json:"cached,omitempty"`
}

// Confuse builds the predicted-vs-observed confusion matrix from annotated
// campaign results. Results without a prediction contribute nothing.
func Confuse(results []inject.Result) Confusion {
	byClass := map[string]*ConfusionRow{}
	c := Confusion{}
	for _, r := range results {
		if r.PredCached {
			c.Cached++
		}
		if r.PredClass == "" {
			continue
		}
		c.Annotated++
		row := byClass[r.PredClass]
		if row == nil {
			row = &ConfusionRow{Class: r.PredClass}
			byClass[r.PredClass] = row
		}
		manifested := false
		switch {
		case r.PredSkipped:
			row.Skipped++
		case r.Outcome == inject.ONotActivated:
			row.NotActivated++
		case r.Outcome == inject.ONotManifested:
			row.NotManifested++
		case r.Outcome == inject.OQuarantined:
			row.Quarantined++
		default:
			row.Manifested++
			manifested = true
		}
		if r.PredInert && !r.PredSkipped && manifested {
			c.Violations++
		}
	}
	for _, cl := range staticsense.Classes() {
		if row := byClass[cl.String()]; row != nil {
			c.Rows = append(c.Rows, *row)
		}
	}
	return c
}

// Render formats the confusion matrix as an aligned table. The header
// mentions cached rows only when the campaign ran with the section cache,
// so pre-cache renderings stay byte-identical.
func (c Confusion) Render() string {
	var b strings.Builder
	if c.Cached > 0 {
		fmt.Fprintf(&b, "Predicted vs observed (annotated: %d, cached rows: %d)\n", c.Annotated, c.Cached)
	} else {
		fmt.Fprintf(&b, "Predicted vs observed (annotated: %d)\n", c.Annotated)
	}
	fmt.Fprintf(&b, "  %-16s %8s %8s %8s %8s %8s %8s\n",
		"predicted", "total", "skipped", "not-act", "not-man", "manifest", "quar")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "  %-16s %8d %8d %8d %8d %8d %8d\n",
			r.Class, r.Total(), r.Skipped, r.NotActivated, r.NotManifested, r.Manifested, r.Quarantined)
	}
	fmt.Fprintf(&b, "  predicted-inert soundness violations: %d\n", c.Violations)
	return b.String()
}

// TargetConfusion is one injected target kind's confusion matrix — the
// per-target breakdown of a result set that mixes campaigns (or the single
// row of one campaign's results).
type TargetConfusion struct {
	Target string `json:"target"`
	Confusion
}

// ConfuseByTarget splits results by injected target kind (stack, system
// registers, data, code — the campaign of each result's target) and builds
// one confusion matrix per kind, in the paper's campaign order. Kinds with
// no annotated and no cached results are omitted.
func ConfuseByTarget(results []inject.Result) []TargetConfusion {
	byCamp := map[inject.Campaign][]inject.Result{}
	for _, r := range results {
		byCamp[r.Target.Campaign] = append(byCamp[r.Target.Campaign], r)
	}
	var out []TargetConfusion
	for _, camp := range []inject.Campaign{
		inject.CampStack, inject.CampSysReg, inject.CampData, inject.CampCode,
	} {
		rs := byCamp[camp]
		if len(rs) == 0 {
			continue
		}
		conf := Confuse(rs)
		if conf.Annotated == 0 && conf.Cached == 0 {
			continue
		}
		out = append(out, TargetConfusion{Target: camp.String(), Confusion: conf})
	}
	return out
}

// RenderByTarget formats the per-target breakdown as compact rows under the
// full matrix: one line per target kind with its annotated, inert-predicted,
// skipped, cached, and violation counts.
func RenderByTarget(ts []TargetConfusion) string {
	if len(ts) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-18s %9s %8s %8s %8s %10s\n",
		"target", "annotated", "inert", "skipped", "cached", "violations")
	for _, t := range ts {
		inert, skipped := 0, 0
		for _, r := range t.Rows {
			skipped += r.Skipped
		}
		for _, r := range t.Rows {
			if cl, ok := classByName(r.Class); ok && cl.Inert() {
				inert += r.Total()
			}
		}
		fmt.Fprintf(&b, "  %-18s %9d %8d %8d %8d %10d\n",
			t.Target, t.Annotated, inert, skipped, t.Cached, t.Violations)
	}
	return b.String()
}

// classByName resolves a rendered class name back to its lattice constant.
func classByName(name string) (staticsense.Class, bool) {
	for _, cl := range staticsense.Classes() {
		if cl.String() == name {
			return cl, true
		}
	}
	return 0, false
}

// CachedSections lists the distinct kernel functions (code sections) whose
// rows carry the section-cache membership marker, sorted — the labels an
// incremental report uses to show which sections a re-run can satisfy from
// the cache. Non-code cached rows contribute the catch-all "_image" label.
func CachedSections(results []inject.Result) []string {
	seen := map[string]bool{}
	for _, r := range results {
		if !r.PredCached {
			continue
		}
		name := "_image"
		if r.Target.Campaign == inject.CampCode && r.Target.Func != "" {
			name = r.Target.Func
		}
		seen[name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
