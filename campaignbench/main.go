// Command campaignbench is kfi's campaign benchmark. It runs one named
// workload of single-bit-flip injection campaigns for a fixed time as a
// closed loop on one guest system per platform, checks every campaign's
// outcomes against pinned tables and journal hashes (and, at any seed,
// against replay from boot), and prints as its last line one JSON object:
// end-to-end metrics from an untraced run (-trace 0), or per-layer metrics
// from a traced replay through the layers' public functions (-trace 1).
//
// Run it from the repository root:
//
//	bash campaignbench/run.sh --workload paper-mix --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads and the definition of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"kfi/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch parent directory, inside the checkout
	pins     bool   // print the rounds' digests instead of measuring
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "paper-mix", "workload: paper-mix, code-chain or incremental")
	fs.Int64Var(&o.seed, "seed", defaultSeed,
		fmt.Sprintf("workload seed (targets are generated from it); %d is held out for claims", heldOutSeed))
	fs.IntVar(&seconds, "seconds", 20, "how long the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced replay")
	fs.BoolVar(&o.pins, "pins", false, "print the digests of the workload's rounds as pins.json entries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "campaignbench: -trace must be 0 or 1")
		return 2
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	o.work = filepath.Join(".bench_build", "work")
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	res, err := execute(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if res == nil { // -pins
		return 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec names a metric, its unit and which direction is better; the
// tables below are what BENCHMARK.json lists.
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"inj_per_s", "1/s", "higher"},
	{"inj_ms_p99", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"ok_frac", "fraction", "higher"},
	{"paper_err_pp", "pp", "lower"},
}

var perLayer = []metricSpec{
	{"cc.compile_ms", "ms", "lower"},
	{"kernel.build_ms", "ms", "lower"},
	{"campaign.golden_ms", "ms", "lower"},
	{"campaign.profile_ms", "ms", "lower"},
	{"seccache.fill_s", "s", "lower"},
	{"seccache.files", "count", "lower"},
	{"seccache.bytes", "B", "lower"},
	{"campaign.targets_ms", "ms", "lower"},
	{"stats.summarize_ms", "ms", "lower"},
	{"campaign.golden_trace_ms", "ms", "lower"},
	{"snapshot.restores", "count", "lower"},
	{"snapshot.restore_us_p50", "us", "lower"},
	{"snapshot.restore_pages", "count", "lower"},
	{"snapshot.recaptures", "count", "lower"},
	{"snapshot.recapture_us_p50", "us", "lower"},
	{"snapshot.recapture_pages", "count", "lower"},
	{"machine.advance_ms", "ms", "lower"},
	{"machine.advance_cycles", "count", "lower"},
	{"inject.run_from_ms_p50", "ms", "lower"},
	{"inject.run_from_ms_p99", "ms", "lower"},
	{"inject.run_from_s", "s", "lower"},
	{"inject.tail_cycles", "count", "lower"},
	{"inject.ns_per_cycle", "ns", "lower"},
	{"inject.hang_frac", "fraction", "lower"},
	{"machine.golden_ns_per_cycle", "ns", "lower"},
	{"mem.read_ns", "ns", "lower"},
	{"mem.write_ns", "ns", "lower"},
	{"engine.translated_blocks", "count", "lower"},
	{"engine.hits", "count", "higher"},
	{"engine.invalidations", "count", "lower"},
	{"engine.fallbacks", "count", "lower"},
	{"campaign.journal_append_us_p50", "us", "lower"},
	{"campaign.journal_append_us_p99", "us", "lower"},
	{"campaign.journal_close_ms", "ms", "lower"},
	{"campaign.journal_bytes", "B", "lower"},
	{"staticsense.analyze_ms", "ms", "lower"},
	{"staticsense.classify_us", "us", "lower"},
	{"seccache.load_ms", "ms", "lower"},
	{"seccache.hit_frac", "fraction", "higher"},
	{"campaign.unattributed_ms", "ms", "lower"},
	{"trace.coverage", "fraction", "higher"},
	{"trace.overhead", "x", "lower"},
}

// newResult fills a result from values keyed by metric name; a metric the
// run could not measure reads 0.
func newResult(specs []metricSpec, values map[string]float64, v *verdict) *result {
	res := &result{Correct: v.ok(), Attempted: v.attempted, Failed: v.failed,
		Metrics: make(map[string]metric, len(specs))}
	if v.attempted > 0 {
		values["ok_frac"] = 1 - float64(v.failed)/float64(v.attempted)
	}
	for _, s := range specs {
		x := values[s.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		res.Metrics[s.name] = metric{Value: x, Unit: s.unit}
	}
	return res
}

// execute runs one workload in a scratch directory under o.work and removes
// the directory afterwards. It returns nil for -pins.
func execute(w workload, o options, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{w: w, seed: o.seed, dir: dir}
	if o.pins {
		return nil, r.printPins(stdout)
	}
	pinned, err := loadPins()
	if err != nil {
		return nil, err
	}
	if o.trace {
		return r.traced(o, pinned, stdout)
	}
	return r.untraced(o, pinned, stdout)
}

// printPins runs the workload's reference rounds and prints their digests.
func (r *runner) printPins(stdout io.Writer) error {
	if err := r.build(); err != nil {
		return err
	}
	ref, err := r.reference()
	if err != nil {
		return err
	}
	var ds []digest
	for _, rr := range ref {
		for _, c := range rr.cells {
			d, err := digestOf(c)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
	}
	b, err := json.MarshalIndent(map[string][]digest{r.w.name: ds}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// untraced measures the end-to-end metrics: build several times (and fill
// the cache), run the reference rounds, then cycle through the workload's
// rounds via campaign.RunWith, w.timed times each and until the time is up,
// then check everything that ran. Only the first w.timed executions of each
// round are timed, so every commit is timed over the same number of them.
func (r *runner) untraced(o options, pinned pins, stdout io.Writer) (*result, error) {
	var buildTimes []float64
	for i := 0; i < builds; i++ {
		start := time.Now()
		if err := r.build(); err != nil {
			return nil, err
		}
		buildTimes = append(buildTimes, time.Since(start).Seconds())
	}
	setup := median(buildTimes)
	var cold []*roundRun
	if r.w.incremental {
		start := time.Now()
		var err error
		if cold, err = r.fill(); err != nil {
			return nil, err
		}
		setup += time.Since(start).Seconds()
	}
	ref, err := r.reference()
	if err != nil {
		return nil, err
	}

	var rounds []*roundRun
	timed := r.w.timed * r.w.rounds
	start := time.Now()
	for i := 0; i < timed || time.Since(start) < o.seconds; i++ {
		rr, err := r.runRound(i%r.w.rounds, filepath.Join(r.dir, "journal"))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
	}

	v := &verdict{}
	for _, rr := range ref {
		v.checkRound(r.w.name, defaultSeed, rr, pinned, nil)
	}
	best := newFastest()
	for i, rr := range rounds {
		want := coldRound(cold, rr.k)
		if i < r.w.rounds {
			v.checkReplay(r, rr)
		} else if want == nil {
			want = rounds[rr.k]
		}
		v.checkRound(r.w.name, r.seed, rr, pinned, want)
		if i < timed {
			best.add(rr)
		}
	}
	intervals := best.allIntervals()
	values := map[string]float64{
		"inj_per_s":    best.rate(),
		"inj_ms_p99":   ms(quantile(intervals, 0.99)),
		"setup_s":      setup,
		"rss_peak_mb":  peakRSSMB(),
		"paper_err_pp": paperErrPP(ref),
	}
	fmt.Fprintf(stdout, "%s seed %d: %d executions of %d rounds in %.2fs, the first %d timed; inj_ms_p99 over %d intervals; %d builds; inj_per_s %.2f, paper_err_pp %.3f over the reference rounds\n",
		r.w.name, r.seed, len(rounds), r.w.rounds, time.Since(start).Seconds(), timed, len(intervals), builds, values["inj_per_s"], values["paper_err_pp"])
	for _, p := range v.problems {
		fmt.Fprintln(stdout, "FAIL", p)
	}
	return newResult(endToEnd, values, v), nil
}

func coldRound(cold []*roundRun, k int) *roundRun {
	if cold == nil {
		return nil
	}
	return cold[k]
}

// traced measures the per-layer metrics: a traced set-up, then pairs of one
// untraced round and the traced replay of the same round until the time is
// up, then the memory and golden-run probes.
func (r *runner) traced(o options, pinned pins, stdout io.Writer) (*result, error) {
	t := newTracer()
	systems, err := buildSystemsTraced(t)
	if err != nil {
		return nil, err
	}
	r.systems = systems
	values := map[string]float64{}
	var cold []*roundRun
	if r.w.incremental {
		t.do("seccache.fill", func() { cold, err = r.fill() })
		if err != nil {
			return nil, err
		}
		files, bytes, err := sectionStats(r.cache)
		if err != nil {
			return nil, err
		}
		values["seccache.files"], values["seccache.bytes"] = files, bytes
	}

	ref, err := r.reference()
	if err != nil {
		return nil, err
	}
	v := &verdict{}
	for _, rr := range ref {
		v.checkRound(r.w.name, defaultSeed, rr, pinned, nil)
	}
	var (
		untracedWall, tracedWall, layerSum, allSum time.Duration
		engine                                     platform.EngineStats
		pairs                                      int
		first                                      *roundRun
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		k := i % r.w.rounds
		u, err := r.runRound(k, filepath.Join(r.dir, "journal"))
		if err != nil {
			return nil, err
		}
		t.round = i
		tr, err := r.replayRound(t, k, filepath.Join(r.dir, "traced"))
		t.round = -1
		if err != nil {
			return nil, err
		}
		v.checkRound(r.w.name, r.seed, u, pinned, coldRound(cold, k))
		v.checkRound(r.w.name, r.seed, tr, pinned, u)
		layers, all := t.roundSums(i)
		untracedWall += u.wall
		tracedWall += tr.wall
		layerSum += layers
		allSum += all
		for _, c := range u.cells {
			engine.Add(c.engine)
		}
		if first == nil {
			first = u
		}
		pairs++
	}
	v.checkReplay(r, first)
	readNs, writeNs, err := memProbe(r.systems, 256)
	if err != nil {
		return nil, err
	}

	n := float64(pairs)
	perRoundMs := func(layer string) float64 { return ms(t.total(layer)) / n }
	count := func(layer string) float64 { return float64(len(t.durations(layer))) / n }
	setupMs := func(layer string) float64 { return ms(t.total(layer)) }
	for _, l := range []string{"cc.compile", "kernel.build", "campaign.golden", "campaign.profile"} {
		values[l+"_ms"] = setupMs(l)
	}
	values["seccache.fill_s"] = t.total("seccache.fill").Seconds()
	for _, l := range []string{"campaign.targets", "stats.summarize", "campaign.golden_trace",
		"machine.advance", "campaign.journal_close", "staticsense.analyze", "seccache.load"} {
		values[l+"_ms"] = perRoundMs(l)
	}
	values["snapshot.restores"] = count("snapshot.restore")
	values["snapshot.restore_us_p50"] = us(quantile(t.durations("snapshot.restore"), 0.5))
	values["snapshot.restore_pages"] = t.counts["snapshot.restore_pages"] / n
	values["snapshot.recaptures"] = count("snapshot.recapture")
	values["snapshot.recapture_us_p50"] = us(quantile(t.durations("snapshot.recapture"), 0.5))
	values["snapshot.recapture_pages"] = t.counts["snapshot.recapture_pages"] / n
	values["machine.advance_cycles"] = t.counts["machine.advance_cycles"] / n
	runFrom := t.durations("inject.run_from")
	values["inject.run_from_ms_p50"] = ms(quantile(runFrom, 0.5))
	values["inject.run_from_ms_p99"] = ms(quantile(runFrom, 0.99))
	values["inject.run_from_s"] = t.total("inject.run_from").Seconds() / n
	values["inject.tail_cycles"] = t.counts["inject.tail_cycles"] / n
	values["inject.ns_per_cycle"] = float64(t.total("inject.run_from")) / t.counts["inject.tail_cycles"]
	values["inject.hang_frac"] = t.counts["inject.hangs"] / t.counts["inject.rows"]
	values["machine.golden_ns_per_cycle"] = goldenNsPerCycle(r.systems, 3)
	values["mem.read_ns"], values["mem.write_ns"] = readNs, writeNs
	values["engine.translated_blocks"] = float64(engine.Translated) / n
	values["engine.hits"] = float64(engine.Hits) / n
	values["engine.invalidations"] = float64(engine.Invalidations) / n
	values["engine.fallbacks"] = float64(engine.Fallbacks) / n
	appends := t.durations("campaign.journal_append")
	values["campaign.journal_append_us_p50"] = us(quantile(appends, 0.5))
	values["campaign.journal_append_us_p99"] = us(quantile(appends, 0.99))
	values["campaign.journal_bytes"] = t.counts["campaign.journal_bytes"] / n
	values["staticsense.classify_us"] = us(t.total("staticsense.classify")) / t.counts["staticsense.classified"]
	if rows := t.counts["seccache.rows"]; rows > 0 {
		values["seccache.hit_frac"] = 1 - t.counts["seccache.rewritten_rows"]/rows
	}
	values["campaign.unattributed_ms"] = ms(untracedWall-layerSum) / n
	values["trace.coverage"] = float64(allSum) / float64(tracedWall)
	values["trace.overhead"] = float64(tracedWall) / float64(untracedWall)

	fmt.Fprintf(stdout, "%s seed %d: %d traced rounds; %d spans; %d run_from and %d journal_append samples\n",
		r.w.name, r.seed, pairs, len(t.spans), len(runFrom), len(appends))
	for _, p := range v.problems {
		fmt.Fprintln(stdout, "FAIL", p)
	}
	return newResult(perLayer, values, v), nil
}

// quantile is the q-quantile of ds by linear interpolation between order
// statistics; 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
