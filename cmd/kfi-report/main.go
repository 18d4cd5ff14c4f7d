// Command kfi-report re-renders the paper's tables and figures from the
// outcome journals kfi-campaign -journal writes. Because a journal carries
// every classified result, the report can be regenerated, filtered, and
// compared without re-running the (much slower) injection campaigns. A
// directory argument contributes all of its *.kjournal files.
//
// Example:
//
//	kfi-campaign -platform both -campaign all -journal runs/
//	kfi-report runs/
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"kfi/internal/campaign"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kfi-report:", err)
		os.Exit(1)
	}
}

// group is one report row: every journaled outcome of one (platform,
// campaign), in journal index order.
type group struct {
	label    string // e.g. "p4/Stack"
	platform isa.Platform
	campaign inject.Campaign
	results  []inject.Result
}

// load reads the journals named by paths and groups their rows by the
// headers' platform and campaign, ordered by label. A directory contributes
// its *.kjournal files; a damaged journal contributes its valid prefix.
func load(paths []string) ([]*group, error) {
	byLabel := map[string]*group{}
	var groups []*group
	for _, path := range paths {
		files, err := journalFiles(path)
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			h, rows, err := campaign.ReadJournal(file)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			label := h.Platform.Short() + "/" + h.Campaign.String()
			g := byLabel[label]
			if g == nil {
				g = &group{label: label, platform: h.Platform, campaign: h.Campaign}
				byLabel[label] = g
				groups = append(groups, g)
			}
			for _, i := range slices.Sorted(maps.Keys(rows)) {
				g.results = append(g.results, rows[i])
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].label < groups[j].label })
	return groups, nil
}

// journalFiles expands one argument: a file stands for itself, a directory
// for its *.kjournal files.
func journalFiles(path string) ([]string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return []string{path}, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "*.kjournal"))
	if err == nil && len(files) == 0 {
		err = fmt.Errorf("%s: no *.kjournal files", path)
	}
	return files, err
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-report", flag.ContinueOnError)
	var (
		latency   = fs.Bool("latency", true, "print cycles-to-crash histograms")
		confusion = fs.Bool("confusion", true, "print predicted-vs-observed confusion matrices for sensed campaigns")
		causes    = fs.Bool("causes", true, "print crash-cause distributions")
		registers = fs.Bool("registers", true, "print per-register crash counts")
		compare   = fs.Bool("compare", false, "print measured values side-by-side with the paper's")
		ci        = fs.Bool("ci", false, "print 95% Wilson intervals for the manifestation rates")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: kfi-report [flags] journal-or-dir...")
	}
	groups, err := load(fs.Args())
	if err != nil {
		return err
	}

	fmt.Fprintln(w, stats.TableHeader())
	quarantined, detected := 0, 0
	for _, g := range groups {
		c := stats.Summarize(g.results)
		fmt.Fprintln(w, c.TableRow(g.label))
		quarantined += c.Quarantined
		detected += c.Detected
	}
	if quarantined > 0 {
		fmt.Fprintf(w, "Quarantined (harness retry budget exhausted, excluded from the table): %d\n", quarantined)
	}
	if detected > 0 {
		fmt.Fprintf(w, "Detected by the hardened kernel's software fault detector: %d\n", detected)
	}
	fmt.Fprintln(w)

	// Journals from hardened campaigns additionally get the
	// detection-coverage view: the paper-faithful columns above never count
	// detections, so render the coverage table whenever any group recorded
	// one.
	if detected > 0 {
		fmt.Fprintln(w, stats.CoverageHeader())
		for _, g := range groups {
			fmt.Fprintln(w, stats.Summarize(g.results).CoverageRow(g.label))
		}
		fmt.Fprintln(w)
	}

	if *confusion {
		for _, g := range groups {
			conf := stats.Confuse(g.results)
			if conf.Annotated == 0 && conf.Cached == 0 {
				continue
			}
			fmt.Fprintf(w, "%s — %s", g.label, conf.Render())
			fmt.Fprint(w, stats.RenderByTarget(stats.ConfuseByTarget(g.results)))
			if secs := stats.CachedSections(g.results); len(secs) > 0 {
				fmt.Fprintf(w, "  cached sections: %s\n", strings.Join(secs, ", "))
			}
			fmt.Fprintln(w)
		}
	}

	if *ci {
		fmt.Fprintln(w, "95% Wilson intervals (sampling error at this campaign size):")
		for _, g := range groups {
			c := stats.Summarize(g.results)
			base := c.ActivatedBase()
			if base == 0 {
				continue
			}
			mLo, mHi := stats.Wilson95(c.Manifested(), base)
			cLo, cHi := stats.Wilson95(c.Crash, base)
			fmt.Fprintf(w, "  %-12s manifested %5.1f%% [%5.1f, %5.1f]   known crash %5.1f%% [%5.1f, %5.1f]   (n=%d)\n",
				g.label, 100*float64(c.Manifested())/float64(base), mLo, mHi,
				100*float64(c.Crash)/float64(base), cLo, cHi, base)
		}
		fmt.Fprintln(w)
	}

	if *compare {
		fmt.Fprintln(w, "Paper vs measured (percentages of the activation base):")
		for _, g := range groups {
			if row := stats.CompareTableRow(g.platform, g.campaign, stats.Summarize(g.results)); row != "" {
				fmt.Fprintln(w, "  "+row)
			}
		}
		fmt.Fprintln(w)
		for _, g := range groups {
			d := stats.CrashCauses(g.results)
			if d.Total == 0 {
				continue
			}
			if out := stats.CompareCauses(g.platform, g.campaign, d); out != "" {
				fmt.Fprintf(w, "Crash causes vs paper, %s:\n%s\n", g.label, out)
			}
		}
	}

	for _, g := range groups {
		if *causes {
			d := stats.CrashCauses(g.results)
			if d.Total > 0 {
				fmt.Fprintf(w, "Crash causes, %s\n%s\n", g.label, d.Render(g.platform))
			}
		}
		if *latency {
			h := stats.Latencies(g.results)
			if h.Total > 0 {
				fmt.Fprintf(w, "Cycles-to-crash, %s\n%s\n", g.label, h.Render())
			}
		}
		if prop := stats.Propagate(g.results); prop.Crashes > 0 {
			fmt.Fprintln(w, prop.Render())
		}
		if *registers {
			byReg := stats.ByRegister(g.results)
			if len(byReg) > 0 {
				names := make([]string, 0, len(byReg))
				for n := range byReg {
					names = append(names, n)
				}
				sort.Slice(names, func(i, j int) bool {
					if byReg[names[i]] != byReg[names[j]] {
						return byReg[names[i]] > byReg[names[j]]
					}
					return names[i] < names[j]
				})
				fmt.Fprintf(w, "Manifesting registers, %s:\n", g.label)
				for _, n := range names {
					fmt.Fprintf(w, "  %-12s %d\n", n, byReg[n])
				}
				fmt.Fprintln(w)
			}
		}
	}
	return nil
}
