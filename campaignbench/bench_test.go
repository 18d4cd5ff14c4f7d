package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/stats"
)

// tiny shrinks a workload to a round of a few injections per campaign,
// under a name no pin is recorded for.
func tiny(w workload) workload {
	w.name += "-tiny"
	if w.codeN > 0 {
		w.codeN = 3
	} else {
		w.fraction = 0.0002
	}
	w.rounds, w.timed = 1, 1
	return w
}

func runTiny(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := execute(tiny(w), options{seed: 3, trace: trace, work: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
			w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w, trace)
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q", w.name, trace, s.name, m.Unit)
				}
			}
			if !trace {
				for _, name := range []string{"inj_per_s", "inj_ms_p99", "setup_s", "rss_peak_mb", "ok_frac", "paper_err_pp"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			positive := []string{"trace.coverage", "trace.overhead", "campaign.targets_ms", "campaign.journal_append_us_p50"}
			if w.incremental {
				positive = append(positive, "seccache.fill_s", "seccache.files", "seccache.load_ms", "staticsense.analyze_ms")
			} else {
				positive = append(positive, "inject.run_from_s", "snapshot.restores", "inject.ns_per_cycle")
			}
			for _, name := range positive {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s traced: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
				}
			}
			if w.incremental {
				if hit := res.Metrics["seccache.hit_frac"].Value; hit <= 0 || hit >= 1 {
					t.Errorf("incremental: seccache.hit_frac = %v, want in (0, 1): stack rows miss, the rest hit", hit)
				}
			}
		}
	}
}

// The traced replay rewrites RunWith from the layers' public functions; its
// canonical journals must equal RunWith's byte-for-byte.
func TestTracedReplayMatchesRunWith(t *testing.T) {
	for _, name := range []string{"paper-mix", "code-chain"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.codeN > 0 {
			w.codeN = 20
		} else {
			w.fraction = 0.001
		}
		r := &runner{w: w, seed: 7, dir: t.TempDir()}
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			u, err := r.runRound(k, filepath.Join(r.dir, "journal"))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := r.replayRound(newTracer(), k, filepath.Join(r.dir, "traced"))
			if err != nil {
				t.Fatal(err)
			}
			for i := range u.cells {
				want, err := digestOf(u.cells[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := digestOf(tr.cells[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s round %d %v: traced replay %s, RunWith %s", name, k, u.cells[i].cell, got.SHA256, want.SHA256)
				}
			}
		}
	}
}

// A campaign whose output misses its pin fails the run and counts all its
// rows as failed.
func TestCorruptedPinIsAFailure(t *testing.T) {
	w, err := workloadByName("code-chain")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, seed: defaultSeed, dir: t.TempDir()}
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	rr, err := r.runRound(0, filepath.Join(r.dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	v := &verdict{}
	v.checkRound(w.name, defaultSeed, rr, pinned, nil)
	if !v.ok() {
		t.Fatalf("pins.json does not hold at the default seed: %v", v.problems)
	}

	corrupt := pins{}
	for name, ds := range pinned {
		corrupt[name] = append([]digest(nil), ds...)
	}
	bad := -1
	for i, d := range corrupt[w.name] {
		if d.Round == 0 && d.Platform == rr.cells[1].plat.Short() {
			d.SHA256 = strings.Repeat("0", len(d.SHA256))
			corrupt[w.name][i], bad = d, i
		}
	}
	if bad < 0 {
		t.Fatal("no pin for the G4 code campaign of round 0")
	}
	v = &verdict{}
	v.checkRound(w.name, defaultSeed, rr, corrupt, nil)
	if v.ok() || v.failed != rr.cells[1].n || len(v.problems) != 1 || !strings.Contains(v.problems[0], "misses its pin") {
		t.Fatalf("corrupted pin: ok=%v failed=%d (want %d) problems=%q", v.ok(), v.failed, rr.cells[1].n, v.problems)
	}
	res := newResult(endToEnd, map[string]float64{}, v)
	if res.Correct || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("corrupted pin reported as correct=%v ok_frac=%v", res.Correct, res.Metrics["ok_frac"].Value)
	}
}

// A column whose percentage rests on no rows does not count toward
// paper_err_pp: a data campaign with no activated flip is scored on its
// activated column only.
func TestPaperErrSkipsEmptyColumns(t *testing.T) {
	noneActivated := &campaignCounts{plat: isa.CISC, camp: inject.CampData,
		Counts: stats.Counts{Injected: 100, NotActivated: 100}}
	sysreg := &campaignCounts{plat: isa.CISC, camp: inject.CampSysReg,
		Counts: stats.Counts{Injected: 4, ActivationNA: true, NotManifested: 4}}
	for _, tc := range []struct {
		cs   []*campaignCounts
		want float64
	}{
		// |0.5 - 0| on the activated column; the four outcome columns rest
		// on 0 activated rows.
		{[]*campaignCounts{noneActivated}, 0.5},
		// Plus sysreg's outcome columns over its 4 rows (weight 2 each):
		// |89.5-100| + |0-0| + |7.9-0| + |2.6-0| = 21.
		{[]*campaignCounts{noneActivated, sysreg}, (10*0.5 + 2*21) / (10 + 4*2)},
		{nil, 0},
	} {
		if got := paperErr(tc.cs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("paperErr(%d campaigns) = %v, want %v", len(tc.cs), got, tc.want)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the benchmark
// emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads {
		if !w.manual {
			listed = append(listed, w.name)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark lists %d", len(b.Workloads), len(listed))
	}
	for i, w := range b.Workloads {
		if w.Name != listed[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, listed[i])
		}
	}
	for _, tc := range []struct {
		got  []spec
		want []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(tc.got), len(tc.want))
		}
		for i, s := range tc.got {
			w := tc.want[i]
			if s.Name != w.name || s.Unit != w.unit || s.Better != w.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %+v", i, s, w)
			}
		}
	}
}
