package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"kfi/internal/inject"
	"kfi/internal/isa"
)

func sampleResults() []inject.Result {
	return []inject.Result{
		{Outcome: inject.ONotActivated, ActivationKnown: true},
		{Outcome: inject.ONotManifested, ActivationKnown: true, Activated: true},
		{Outcome: inject.ONotManifested, ActivationKnown: true, Activated: true},
		{Outcome: inject.OFailSilence, ActivationKnown: true, Activated: true},
		{Outcome: inject.OCrash, ActivationKnown: true, Activated: true,
			Cause: isa.CauseNULLPointer, Latency: 1500},
		{Outcome: inject.OCrash, ActivationKnown: true, Activated: true,
			Cause: isa.CauseBadPaging, Latency: 50_000},
		{Outcome: inject.OHangUnknown, ActivationKnown: true, Activated: true},
	}
}

func TestSummarize(t *testing.T) {
	c := Summarize(sampleResults())
	if c.Injected != 7 || c.Activated != 6 || c.NotActivated != 1 {
		t.Errorf("counts = %+v", c)
	}
	if c.NotManifested != 2 || c.FailSilence != 1 || c.Crash != 2 || c.HangUnknown != 1 {
		t.Errorf("outcome counts = %+v", c)
	}
	if c.Manifested() != 4 {
		t.Errorf("Manifested() = %d, want 4", c.Manifested())
	}
	if c.ActivatedBase() != 6 {
		t.Errorf("ActivatedBase() = %d, want 6", c.ActivatedBase())
	}
}

func TestSummarizeSysRegNA(t *testing.T) {
	results := []inject.Result{
		{Outcome: inject.ONotManifested},
		{Outcome: inject.OCrash, Cause: isa.CauseGeneralProtection},
	}
	c := Summarize(results)
	if !c.ActivationNA {
		t.Error("system-register results should report activation N/A")
	}
	if c.ActivatedBase() != 2 {
		t.Errorf("N/A base = %d, want total injections", c.ActivatedBase())
	}
	if !strings.Contains(c.TableRow("System Registers"), "N/A") {
		t.Error("table row should print N/A")
	}
}

func TestTableRowFormat(t *testing.T) {
	c := Summarize(sampleResults())
	row := c.TableRow("Stack")
	for _, want := range []string{"Stack", "7", "6(85.7%)", "2(33.3%)", "1(16.7%)"} {
		if !strings.Contains(row, want) {
			t.Errorf("row %q missing %q", row, want)
		}
	}
	if !strings.Contains(TableHeader(), "Injected") {
		t.Error("header missing Injected column")
	}
}

func TestCrashCauses(t *testing.T) {
	d := CrashCauses(sampleResults())
	if d.Total != 2 {
		t.Fatalf("total = %d, want 2", d.Total)
	}
	if d.Pct(isa.CauseNULLPointer) != 50 || d.Pct(isa.CauseBadPaging) != 50 {
		t.Errorf("percentages: %v", d.Counts)
	}
	if got := d.InvalidMemoryPct(isa.CISC); got != 100 {
		t.Errorf("invalid memory pct = %v, want 100", got)
	}
	out := d.Render(isa.CISC)
	if !strings.Contains(out, "NULL Pointer") || !strings.Contains(out, "(Total 2)") {
		t.Errorf("render output: %q", out)
	}
}

func TestCauseDistMerge(t *testing.T) {
	a := CrashCauses(sampleResults())
	b := CrashCauses(sampleResults())
	m := a.Merge(b)
	if m.Total != 4 || m.Counts[isa.CauseNULLPointer] != 2 {
		t.Errorf("merge = %+v", m)
	}
}

func TestLatencyBuckets(t *testing.T) {
	tests := []struct {
		cycles uint64
		bucket int
	}{
		{0, 0}, {2999, 0}, {3000, 1}, {9999, 1}, {10_000, 2},
		{999_999, 3}, {5_000_000, 4}, {50_000_000, 5},
		{500_000_000, 6}, {2_000_000_000, 7},
	}
	for _, tt := range tests {
		var h LatencyHist
		h.Add(tt.cycles)
		if h.Buckets[tt.bucket] != 1 {
			t.Errorf("Add(%d) landed in %v, want bucket %d", tt.cycles, h.Buckets, tt.bucket)
		}
	}
}

func TestLatencyHistPcts(t *testing.T) {
	h := Latencies(sampleResults())
	if h.Total != 2 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Pct(0) != 50 || h.Pct(2) != 50 {
		t.Errorf("buckets = %v", h.Buckets)
	}
	if h.CumulativePct(2) != 100 {
		t.Errorf("cumulative(2) = %v", h.CumulativePct(2))
	}
	if !strings.Contains(h.Render(), "<3k") {
		t.Error("render missing bucket label")
	}
}

// Property: every latency lands in exactly one bucket and totals stay
// consistent.
func TestLatencyBucketProperty(t *testing.T) {
	f := func(cycles []uint64) bool {
		var h LatencyHist
		for _, c := range cycles {
			h.Add(c)
		}
		sum := 0
		for _, n := range h.Buckets {
			sum += n
		}
		return sum == len(cycles) && h.Total == len(cycles)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByRegister(t *testing.T) {
	results := []inject.Result{
		{Target: inject.Target{Campaign: inject.CampSysReg, RegName: "ESP"}, Outcome: inject.OCrash},
		{Target: inject.Target{Campaign: inject.CampSysReg, RegName: "ESP"}, Outcome: inject.OHangUnknown},
		{Target: inject.Target{Campaign: inject.CampSysReg, RegName: "CR0"}, Outcome: inject.OCrash},
		{Target: inject.Target{Campaign: inject.CampSysReg, RegName: "DR3"}, Outcome: inject.ONotManifested},
		{Target: inject.Target{Campaign: inject.CampCode}, Outcome: inject.OCrash},
	}
	m := ByRegister(results)
	if m["ESP"] != 2 || m["CR0"] != 1 {
		t.Errorf("ByRegister = %v", m)
	}
	if _, ok := m["DR3"]; ok {
		t.Error("non-manifesting register counted")
	}
}

func TestEmptyDistributions(t *testing.T) {
	var d CauseDist
	if d.Pct(isa.CauseBadArea) != 0 {
		t.Error("empty dist pct nonzero")
	}
	var h LatencyHist
	if h.Pct(0) != 0 || h.CumulativePct(7) != 0 {
		t.Error("empty hist pct nonzero")
	}
}

func TestPaperTableTotals(t *testing.T) {
	var p4, g4 int
	for _, row := range PaperTable[isa.CISC] {
		p4 += row.Injected
	}
	for _, row := range PaperTable[isa.RISC] {
		g4 += row.Injected
	}
	if p4 != 61799 || g4 != 55172 {
		t.Errorf("paper totals = %d / %d, want 61799 / 55172", p4, g4)
	}
}

func TestPaperCausesSumToHundred(t *testing.T) {
	for p, byCamp := range PaperCauses {
		for camp, dist := range byCamp {
			var sum float64
			for _, pct := range dist {
				sum += pct
			}
			if sum < 98.0 || sum > 102.0 {
				t.Errorf("[%v camp %d] paper causes sum to %.1f%%", p, camp, sum)
			}
		}
	}
}

func TestCompareRendering(t *testing.T) {
	c := Summarize(sampleResults())
	row := CompareTableRow(isa.CISC, inject.CampStack, c)
	if !strings.Contains(row, "paper 10143") {
		t.Errorf("compare row: %q", row)
	}
	d := CrashCauses(sampleResults())
	out := CompareCauses(isa.CISC, inject.CampStack, d)
	if !strings.Contains(out, "NULL Pointer") || !strings.Contains(out, "31.5") {
		t.Errorf("compare causes: %q", out)
	}
	if CompareTableRow(isa.CISC, 0, c) != "" {
		t.Error("unknown campaign should render empty")
	}
}

func TestSubsystemClassification(t *testing.T) {
	tests := map[string]string{
		"free_pages_ok": "mm",
		"alloc_skb":     "net",
		"kjournald":     "journal",
		"kupdate":       "fs",
		"spin_unlock":   "lock",
		"memcpy":        "lib",
		"sys_read":      "syscall",
		"sys_pipewrite": "ipc",
		"schedule":      "sched",
		"":              "?",
		"mystery_fn":    "other",
	}
	for fn, want := range tests {
		if got := Subsystem(fn); got != want {
			t.Errorf("Subsystem(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPropagationAnalysis(t *testing.T) {
	results := []inject.Result{
		{Target: inject.Target{Campaign: inject.CampCode, Func: "free_pages_ok"},
			Outcome: inject.OCrash, CrashFunc: "free_pages_ok"},
		{Target: inject.Target{Campaign: inject.CampCode, Func: "alloc_pages"},
			Outcome: inject.OCrash, CrashFunc: "free_pages_ok"}, // same subsystem
		{Target: inject.Target{Campaign: inject.CampCode, Func: "free_pages_ok"},
			Outcome: inject.OCrash, CrashFunc: "alloc_skb"}, // mm → net: Figure 7!
		{Target: inject.Target{Campaign: inject.CampCode, Func: "memcpy"},
			Outcome: inject.ONotManifested}, // not a crash: ignored
		{Target: inject.Target{Campaign: inject.CampStack},
			Outcome: inject.OCrash, CrashFunc: "memcpy"}, // not code: ignored
	}
	p := Propagate(results)
	if p.Crashes != 3 || p.SameFunction != 1 || p.SameSubsystem != 1 || p.CrossSubsystem != 1 {
		t.Errorf("propagation = %+v", p)
	}
	if p.Pairs["mm→net"] != 1 {
		t.Errorf("pairs = %v", p.Pairs)
	}
	out := p.Render()
	if !strings.Contains(out, "mm→net") || !strings.Contains(out, "33.3%") {
		t.Errorf("render: %s", out)
	}
}

func TestWilson95(t *testing.T) {
	// Degenerate inputs.
	if lo, hi := Wilson95(0, 0); lo != 0 || hi != 0 {
		t.Errorf("n=0: [%f, %f]", lo, hi)
	}
	// Interval brackets the point estimate and stays within [0, 100].
	cases := []struct{ k, n int }{{0, 10}, {10, 10}, {3, 10}, {50, 300}, {1, 4000}}
	for _, c := range cases {
		lo, hi := Wilson95(c.k, c.n)
		p := 100 * float64(c.k) / float64(c.n)
		if lo < 0 || hi > 100 || lo > hi {
			t.Errorf("(%d/%d): degenerate interval [%f, %f]", c.k, c.n, lo, hi)
		}
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Errorf("(%d/%d): point %f outside [%f, %f]", c.k, c.n, p, lo, hi)
		}
	}
	// Larger n tightens the interval for the same proportion.
	lo1, hi1 := Wilson95(3, 10)
	lo2, hi2 := Wilson95(300, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("interval did not tighten: n=10 width %f, n=1000 width %f", hi1-lo1, hi2-lo2)
	}
	// A known reference: 50% at n=100 gives roughly [40.4, 59.6].
	lo, hi := Wilson95(50, 100)
	if lo < 39 || lo > 41 || hi < 59 || hi > 61 {
		t.Errorf("50/100: [%f, %f], want ≈[40.4, 59.6]", lo, hi)
	}
}

func TestPropagationCrossPctAndRender(t *testing.T) {
	var empty Propagation
	if empty.CrossPct() != 0 {
		t.Error("empty propagation should report 0%")
	}
	results := []inject.Result{
		{Outcome: inject.OCrash, Target: inject.Target{Campaign: inject.CampCode, Func: "memcpy"}, CrashFunc: "memcpy"},
		{Outcome: inject.OCrash, Target: inject.Target{Campaign: inject.CampCode, Func: "memcpy"}, CrashFunc: "alloc_skb"},
		{Outcome: inject.OCrash, Target: inject.Target{Campaign: inject.CampCode, Func: "memcpy"}, CrashFunc: "csum_partial"},
		{Outcome: inject.OCrash, Target: inject.Target{Campaign: inject.CampCode, Func: "getblk"}, CrashFunc: "spin_lock"},
	}
	p := Propagate(results)
	if p.Crashes != 4 || p.SameFunction != 1 || p.SameSubsystem != 1 || p.CrossSubsystem != 2 {
		t.Fatalf("propagation = %+v", p)
	}
	if got := p.CrossPct(); got != 50 {
		t.Errorf("CrossPct = %f", got)
	}
	out := p.Render()
	for _, want := range []string{"lib→net", "fs→lock", "top cross-subsystem paths"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyBucketBoundariesProperty(t *testing.T) {
	// Property: every crash lands in exactly the bucket whose half-open
	// range [prev, bound) holds its latency — "<3k" literally means
	// cycles < 3000, so a boundary value belongs to the NEXT bucket.
	prop := func(raw uint32, scaleSel uint8) bool {
		lat := uint64(raw) << (scaleSel % 24) // spread over all 8 buckets
		h := Latencies([]inject.Result{{
			Outcome: inject.OCrash, Latency: lat,
		}})
		if h.Total != 1 {
			return false
		}
		idx := 0
		for idx < len(LatencyBuckets) && lat >= LatencyBuckets[idx] {
			idx++
		}
		return h.Buckets[idx] == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// Exact boundaries: the bound itself opens the next bucket.
	for i, b := range LatencyBuckets {
		h := Latencies([]inject.Result{{Outcome: inject.OCrash, Latency: b - 1}})
		if h.Buckets[i] != 1 {
			t.Errorf("latency %d (bucket %s) landed elsewhere: %v", b-1, BucketLabels[i], h.Buckets)
		}
		h = Latencies([]inject.Result{{Outcome: inject.OCrash, Latency: b}})
		if h.Buckets[i+1] != 1 {
			t.Errorf("latency %d should open %s: %v", b, BucketLabels[i+1], h.Buckets)
		}
	}
}
