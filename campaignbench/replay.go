package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kfi/internal/campaign"
	"kfi/internal/cc"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/snapshot"
	"kfi/internal/staticsense"
	"kfi/internal/stats"
	guestload "kfi/internal/workload"
)

// The traced replay drives the same campaigns as campaign.RunWith with its
// default options, but through the layers' public functions, with a span
// around each call. Its canonical journals must equal RunWith's
// byte-for-byte, or its numbers would describe a different program.

// buildSystemsTraced builds one guest system per platform the way
// core.BuildSystem does, one layer call at a time.
func buildSystemsTraced(t *tracer) (map[isa.Platform]*core.System, error) {
	out := map[isa.Platform]*core.System{}
	for _, p := range platforms {
		var (
			uimg    *cc.Image
			sys     *kernel.System
			golden  uint32
			profile *campaign.Profile
			err     error
		)
		t.do("cc.compile", func() { uimg, err = cc.Compile(guestload.Program(1), p, kernel.UserBases) })
		if err != nil {
			return nil, err
		}
		t.do("kernel.build", func() {
			sys, err = kernel.BuildSystem(p, uimg, guestload.StandardProcs(), kernel.Options{})
		})
		if err != nil {
			return nil, err
		}
		t.do("campaign.golden", func() { golden, err = campaign.Golden(sys) })
		if err != nil {
			return nil, err
		}
		t.do("campaign.profile", func() { profile, err = campaign.ProfileKernel(sys) })
		if err != nil {
			return nil, err
		}
		out[p] = &core.System{Sys: sys, Golden: golden, Profile: profile}
	}
	return out, nil
}

// replayRound runs round k traced, journaling under jdir.
func (r *runner) replayRound(t *tracer, k int, jdir string) (*roundRun, error) {
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	rr := &roundRun{k: k}
	start := time.Now()
	if r.w.incremental {
		var err error
		t.probe("seccache.load", func() { err = loadSections(t, r.cache) })
		if err != nil {
			return nil, err
		}
	}
	for _, c := range r.w.cells() {
		var (
			cr  cellRun
			err error
		)
		if r.w.incremental {
			cr, err = r.replayWarmCell(t, k, c, jdir)
		} else {
			cr, err = r.replayCell(t, k, c, jdir)
		}
		if err != nil {
			return nil, fmt.Errorf("traced round %d %v: %w", k, c, err)
		}
		rr.cells = append(rr.cells, cr)
	}
	rr.wall = time.Since(start)
	return rr, nil
}

// trig pairs a target index with its trigger cycle.
type trig struct {
	cycle uint64
	idx   int
}

// replayCell is campaign.RunWith with default options, one layer call at a
// time: generate targets, trace the golden run when code targets need
// trigger cycles, then walk the trigger-sorted targets along one snapshot
// chain (restore, advance, recapture, inject), journaling every row.
func (r *runner) replayCell(t *tracer, k int, c cell, jdir string) (cellRun, error) {
	s := r.systems[c.plat]
	sys, m := s.Sys, s.Sys.Machine
	sp := spec(r.seed, k, c)
	h := header(c.plat, s.Golden, sp, campaign.ExecOptions{})
	var (
		j   *campaign.Journal
		err error
	)
	t.do("campaign.journal_open", func() {
		j, err = campaign.CreateJournal(core.JournalPath(jdir, c.plat, c.camp), h)
	})
	if err != nil {
		return cellRun{}, err
	}
	defer j.Close()
	if err := m.SetEngine(0); err != nil {
		return cellRun{}, err
	}
	m.Engine().ResetStats()

	var targets []inject.Target
	t.do("campaign.targets", func() {
		// RunWith spreads mid-run triggers over twice the profiled kernel cycles.
		targets, err = campaign.NewGenerator(sys, s.Profile, sp.Seed, s.Profile.Total*2).Targets(sp)
	})
	if err != nil {
		return cellRun{}, err
	}
	results := make([]inject.Result, len(targets))
	appendRow := func(idx int) error {
		var err error
		t.do("campaign.journal_append", func() { err = j.Append(idx, results[idx]) })
		return err
	}

	var golden *goldenRun
	for _, tg := range targets {
		if tg.Campaign == inject.CampCode {
			t.do("campaign.golden_trace", func() { golden, err = traceGolden(m) })
			if err != nil {
				return cellRun{}, err
			}
			break
		}
	}
	order := make([]trig, 0, len(targets))
	var pre []int
	for i, tg := range targets {
		switch {
		case tg.Delay > 0:
			order = append(order, trig{tg.Delay, i})
		case tg.Campaign == inject.CampCode:
			cyc, ok := golden.firstHit[tg.Addr]
			if !ok {
				// The golden run never executes the instruction: the
				// breakpoint cannot fire and the run is the golden run.
				results[i] = notActivated(tg, golden.res.Cycles, golden.res.Checksum)
				pre = append(pre, i)
				continue
			}
			order = append(order, trig{cyc, i})
		default:
			order = append(order, trig{0, i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].cycle < order[b].cycle })
	for _, idx := range pre {
		if err := appendRow(idx); err != nil {
			return cellRun{}, err
		}
	}

	clock := m.Core().Clock()
	var (
		snap *snapshot.Snapshot
		end  *machine.RunResult // the golden run's end, once a trigger lies beyond it
	)
	for _, o := range order {
		tg := targets[o.idx]
		if end != nil && o.cycle > end.Cycles {
			results[o.idx] = notActivated(tg, end.Cycles, end.Checksum)
			if err := appendRow(o.idx); err != nil {
				return cellRun{}, err
			}
			continue
		}
		if snap == nil || o.cycle < snap.Cycles {
			t.do("snapshot.capture", func() {
				m.Reboot()
				snap = snapshot.Capture(m)
			})
		}
		var pages int
		t.do("snapshot.restore", func() { pages, err = snap.Restore(m) })
		if err != nil {
			return cellRun{}, err
		}
		t.add("snapshot.restore_pages", float64(pages))
		if o.cycle > snap.Cycles {
			var adv machine.RunResult
			from := clock.Cycles()
			t.do("machine.advance", func() {
				m.PauseAt = o.cycle
				adv = m.Run()
			})
			t.add("machine.advance_cycles", float64(adv.Cycles-from))
			if adv.Outcome != machine.OutPaused {
				end = &adv
				results[o.idx] = notActivated(tg, adv.Cycles, adv.Checksum)
				if err := appendRow(o.idx); err != nil {
					return cellRun{}, err
				}
				continue
			}
			t.do("snapshot.recapture", func() { pages, err = snap.Recapture(m) })
			if err != nil {
				return cellRun{}, err
			}
			t.add("snapshot.recapture_pages", float64(pages))
		}
		from := clock.Cycles()
		t.do("inject.run_from", func() { results[o.idx] = inject.RunFrom(sys, tg, s.Golden) })
		t.add("inject.tail_cycles", float64(results[o.idx].RunCycles-from))
		t.add("inject.rows", 1)
		if results[o.idx].Outcome == inject.OHangUnknown {
			t.add("inject.hangs", 1)
		}
		if err := appendRow(o.idx); err != nil {
			return cellRun{}, err
		}
	}
	if snap != nil {
		m.Mem.ClearBaseline()
	}
	t.do("campaign.journal_close", func() { err = j.Close() })
	if err != nil {
		return cellRun{}, err
	}
	journalBytes(t, core.JournalPath(jdir, c.plat, c.camp))
	var counts stats.Counts
	t.do("stats.summarize", func() { counts = stats.Summarize(results) })
	return cellRun{cell: c, round: k, spec: sp, header: h, results: results, counts: counts}, nil
}

// goldenRun is a traced golden run: the cycle count just before each PC
// first executes, and the run's result.
type goldenRun struct {
	firstHit map[uint32]uint64
	res      machine.RunResult
}

func traceGolden(m *machine.Machine) (*goldenRun, error) {
	m.Reboot()
	clk := m.Core().Clock()
	first := make(map[uint32]uint64, 1<<14)
	m.Core().SetTrace(func(pc uint32, cost uint8) {
		if _, ok := first[pc]; !ok {
			// The trace reports after the clock advanced past the instruction.
			first[pc] = clk.Cycles() - uint64(cost)
		}
	})
	res := m.Run()
	m.Core().SetTrace(nil)
	if res.Outcome != machine.OutCompleted {
		return nil, fmt.Errorf("traced golden run did not complete: %v", res.Outcome)
	}
	return &goldenRun{firstHit: first, res: res}, nil
}

// notActivated is the row of an error that was never injected: the run is
// the golden run.
func notActivated(t inject.Target, cycles uint64, checksum uint32) inject.Result {
	return inject.Result{Target: t, ActivationKnown: t.Campaign != inject.CampSysReg,
		Outcome: inject.ONotActivated, RunCycles: cycles, Checksum: checksum}
}

// replayWarmCell re-runs one incremental campaign warm. The cache path has
// no public entry point, so the warm RunWith is one span; the layers inside
// it (target generation, the static pass, the golden trace, journal
// appends) are measured by probes that repeat their calls beside it.
func (r *runner) replayWarmCell(t *tracer, k int, c cell, jdir string) (cellRun, error) {
	s := r.systems[c.plat]
	sys := s.Sys
	sp := spec(r.seed, k, c)
	opts := r.w.exec(r.cache)
	h := header(c.plat, s.Golden, sp, opts)

	var (
		targets []inject.Target
		err     error
	)
	t.probe("campaign.targets", func() {
		targets, err = campaign.NewGenerator(sys, s.Profile, sp.Seed, s.Profile.Total*2).Targets(sp)
	})
	if err != nil {
		return cellRun{}, err
	}
	var an *staticsense.Analyzer
	t.probe("staticsense.analyze", func() { an, err = newAnalyzer(sys) })
	if err != nil {
		return cellRun{}, err
	}
	t.probe("staticsense.classify", func() {
		for _, tg := range targets {
			switch tg.Campaign {
			case inject.CampCode:
				an.ClassifyFlip(tg.Addr, tg.ByteOff, tg.Bit)
			case inject.CampData:
				an.ClassifyData(tg.Addr, tg.Bit)
			case inject.CampSysReg:
				an.ClassifySysReg(tg.RegName, tg.Bit)
			default:
				continue // stack targets classify only once their address resolves
			}
			t.add("staticsense.classified", 1)
		}
	})
	t.probe("campaign.golden_trace", func() { _, err = traceGolden(sys.Machine) })
	if err != nil {
		return cellRun{}, err
	}

	before, err := statSections(r.cache)
	if err != nil {
		return cellRun{}, err
	}
	path := core.JournalPath(jdir, c.plat, c.camp)
	var j *campaign.Journal
	t.do("campaign.journal_open", func() { j, err = campaign.CreateJournal(path, h) })
	if err != nil {
		return cellRun{}, err
	}
	opts.Journal = j
	var res *campaign.Result
	t.do("campaign.warm_run", func() {
		res, err = campaign.RunWith(sys, s.Golden, s.Profile, sp, nil, opts)
	})
	if err != nil {
		j.Close()
		return cellRun{}, err
	}
	t.do("campaign.journal_close", func() { err = j.Close() })
	if err != nil {
		return cellRun{}, err
	}
	journalBytes(t, path)
	after, err := statSections(r.cache)
	if err != nil {
		return cellRun{}, err
	}
	rewritten, err := rewrittenRows(before, after)
	if err != nil {
		return cellRun{}, err
	}
	t.add("seccache.rows", float64(c.n))
	t.add("seccache.rewritten_rows", float64(rewritten))

	// Journal appends happen inside the warm run; repeat them into a probe
	// journal to time them one by one.
	probePath := filepath.Join(jdir, "append-probe.kjournal")
	pj, err := campaign.CreateJournal(probePath, h)
	if err != nil {
		return cellRun{}, err
	}
	for idx, row := range res.Results {
		t.probe("campaign.journal_append", func() { err = pj.Append(idx, row) })
		if err != nil {
			pj.Close()
			return cellRun{}, err
		}
	}
	if err := pj.Close(); err != nil {
		return cellRun{}, err
	}
	var counts stats.Counts
	t.do("stats.summarize", func() { counts = stats.Summarize(res.Results) })
	return cellRun{cell: c, round: k, spec: sp, header: h, results: res.Results, counts: counts,
		engine: res.EngineStats}, nil
}

// newAnalyzer configures the whole-target static analyzer the way a
// campaign with ExecOptions.Sense does.
func newAnalyzer(sys *kernel.System) (*staticsense.Analyzer, error) {
	cfg := staticsense.Config{Image: sys.KernelImage, Prog: sys.Prog, KStackSize: sys.KStackSize}
	if sys.Prog != nil {
		cfg.HostReadGlobals = kernel.HostReadGlobals()
		cfg.HostReadTaskFields = kernel.HostReadTaskFields()
	}
	if sys.Src != nil {
		cfg.Proc = sys.Src.Proc
	}
	return staticsense.NewAnalyzer(cfg)
}

func journalBytes(t *tracer, path string) {
	if fi, err := os.Stat(path); err == nil {
		t.add("campaign.journal_bytes", float64(fi.Size()))
	}
}

// statSections maps the section cache's .ksec file paths to their stat.
func statSections(dir string) (map[string]os.FileInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]os.FileInfo{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ksec") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[filepath.Join(dir, e.Name())] = fi
	}
	return out, nil
}

// rewrittenRows counts the rows of the section files a run wrote: new
// files, and files replaced by a new inode (the cache writes a temporary
// file and renames it over the old one).
func rewrittenRows(before, after map[string]os.FileInfo) (int, error) {
	n := 0
	for path, a := range after {
		if b, ok := before[path]; ok && os.SameFile(a, b) {
			continue
		}
		rows, _, err := readSection(path)
		if err != nil {
			return 0, err
		}
		n += rows
	}
	return n, nil
}

// sectionHeader is the first frame of a .ksec file.
type sectionHeader struct {
	Rows int `json:"rows"`
}

// readSection decodes one .ksec file through the journal frame reader and
// returns its header's row count and the number of rows decoded.
func readSection(path string) (int, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fr := campaign.NewFrameReader(f)
	hp, ok := fr.Next()
	if !ok {
		return 0, 0, fmt.Errorf("%s: no header frame", path)
	}
	var sh sectionHeader
	if err := json.Unmarshal(hp, &sh); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	decoded := 0
	for {
		payload, ok := fr.Next()
		if !ok {
			return sh.Rows, decoded, nil
		}
		if _, _, err := campaign.DecodeRecord(payload); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		decoded++
	}
}

// loadSections decodes every .ksec file of the cache.
func loadSections(t *tracer, dir string) error {
	secs, err := statSections(dir)
	if err != nil {
		return err
	}
	for path := range secs {
		_, rows, err := readSection(path)
		if err != nil {
			return err
		}
		t.add("seccache.loaded_rows", float64(rows))
	}
	return nil
}
