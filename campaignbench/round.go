package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kfi/internal/campaign"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/platform"
	"kfi/internal/stats"
)

// runner holds one run's guest systems and scratch directory.
type runner struct {
	w       workload
	seed    int64
	dir     string // journals and the section cache live here
	cache   string // section cache directory (incremental only)
	systems map[isa.Platform]*core.System
}

// cellRun is one executed campaign: what ran, its journal header, and its
// outcome rows.
type cellRun struct {
	cell
	round   int
	spec    campaign.Spec
	header  campaign.Header
	results []inject.Result
	counts  stats.Counts
	engine  platform.EngineStats
}

// roundRun is one executed round.
type roundRun struct {
	k     int
	wall  time.Duration
	cells []cellRun
	// intervals are the times between successive progress callbacks of one
	// campaign.
	intervals []time.Duration
}

func (rr *roundRun) rows() int {
	n := 0
	for _, c := range rr.cells {
		n += c.n
	}
	return n
}

// buildSystems builds one guest system per platform through core.BuildSystem.
func buildSystems() (map[isa.Platform]*core.System, error) {
	out := map[isa.Platform]*core.System{}
	for _, p := range platforms {
		s, err := core.BuildSystem(p, core.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("build %v: %w", p, err)
		}
		out[p] = s
	}
	return out, nil
}

// runRound runs round k untraced through campaign.RunWith, journaling every
// campaign under jdir the way kfi-campaign -journal does, and summarizing it
// the way core.Run does.
func (r *runner) runRound(k int, jdir string) (*roundRun, error) {
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	rr := &roundRun{k: k}
	start := time.Now()
	for _, c := range r.w.cells() {
		cr, err := r.runCell(k, c, jdir, &rr.intervals)
		if err != nil {
			return nil, err
		}
		rr.cells = append(rr.cells, cr)
	}
	rr.wall = time.Since(start)
	return rr, nil
}

func (r *runner) runCell(k int, c cell, jdir string, intervals *[]time.Duration) (cellRun, error) {
	s := r.systems[c.plat]
	sp := spec(r.seed, k, c)
	opts := r.w.exec(r.cache)
	h := header(c.plat, s.Golden, sp, opts)
	j, err := campaign.CreateJournal(core.JournalPath(jdir, c.plat, c.camp), h)
	if err != nil {
		return cellRun{}, err
	}
	opts.Journal = j
	var last time.Time
	progress := func(int, int) {
		now := time.Now()
		if !last.IsZero() {
			*intervals = append(*intervals, now.Sub(last))
		}
		last = now
	}
	res, err := campaign.RunWith(s.Sys, s.Golden, s.Profile, sp, progress, opts)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return cellRun{}, fmt.Errorf("round %d %v: %w", k, c, err)
	}
	return cellRun{cell: c, round: k, spec: sp, header: h, results: res.Results,
		counts: stats.Summarize(res.Results), engine: res.EngineStats}, nil
}

// build builds both guest systems through core.BuildSystem.
func (r *runner) build() error {
	systems, err := buildSystems()
	if err != nil {
		return err
	}
	r.systems = systems
	return nil
}

// fill fills a fresh section cache cold with every distinct round of the
// incremental workload and returns the cold rounds, so the warm ones can be
// checked against them.
func (r *runner) fill() ([]*roundRun, error) {
	r.cache = filepath.Join(r.dir, "cache")
	var cold []*roundRun
	for k := 0; k < r.w.rounds; k++ {
		rr, err := r.runRound(k, filepath.Join(r.dir, "cold"))
		if err != nil {
			return nil, err
		}
		cold = append(cold, rr)
	}
	return cold, nil
}

// referenceRounds is how many of a workload's rounds at defaultSeed every
// run also executes, untimed: their outputs are pinned and paper_err_pp is
// computed over them, so both read the same whatever the run's seed.
const referenceRounds = 2

// reference runs the workload's reference rounds on the run's systems, with
// a fresh section cache on incremental.
func (r *runner) reference() ([]*roundRun, error) {
	ref := &runner{w: r.w, seed: defaultSeed, dir: filepath.Join(r.dir, "reference"), systems: r.systems}
	ref.cache = filepath.Join(ref.dir, "cache")
	var out []*roundRun
	for k := 0; k < referenceRounds; k++ {
		rr, err := ref.runRound(k, filepath.Join(ref.dir, "journal"))
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

// fastest keeps, for every distinct round, the least interfered execution:
// its shortest wall time and, interval by interval, its shortest intervals.
// Executions of one round are the same work (checkRound makes sure of it),
// so the minimum strips out time the host took for other tenants.
type fastest struct {
	wall      map[int]time.Duration
	intervals map[int][]time.Duration
	rows      map[int]int
}

func newFastest() *fastest {
	return &fastest{wall: map[int]time.Duration{}, intervals: map[int][]time.Duration{}, rows: map[int]int{}}
}

func (f *fastest) add(rr *roundRun) {
	prev, seen := f.intervals[rr.k]
	if !seen {
		f.wall[rr.k] = rr.wall
		f.intervals[rr.k] = append([]time.Duration(nil), rr.intervals...)
		f.rows[rr.k] = rr.rows()
		return
	}
	f.wall[rr.k] = min(f.wall[rr.k], rr.wall)
	for j := range prev {
		if j < len(rr.intervals) {
			prev[j] = min(prev[j], rr.intervals[j])
		}
	}
}

// rate is injections per second over the fastest execution of each round.
func (f *fastest) rate() float64 {
	var rows int
	var wall time.Duration
	for k, w := range f.wall {
		rows += f.rows[k]
		wall += w
	}
	return float64(rows) / wall.Seconds()
}

// allIntervals pools the fastest intervals of every round.
func (f *fastest) allIntervals() []time.Duration {
	var out []time.Duration
	for _, ds := range f.intervals {
		out = append(out, ds...)
	}
	return out
}
