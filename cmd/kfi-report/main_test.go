package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kfi/internal/campaign"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
)

// writeJournal writes results as a journal for (p, c) and returns its path.
func writeJournal(t *testing.T, path string, p isa.Platform, c inject.Campaign, results []inject.Result) string {
	t.Helper()
	j, err := campaign.CreateJournal(path, campaign.HeaderFor(p, 0xC0FFEE,
		campaign.Spec{Campaign: c, N: len(results), Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := j.Append(i, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// report runs kfi-report and returns what it printed.
func report(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	return out.String()
}

// wantRow checks that the report's table counts n injections for label.
func wantRow(t *testing.T, out, label string, n int) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(label) + `\s+(\d+)\s`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %s row in report:\n%s", label, out)
	}
	if m[1] != strconv.Itoa(n) {
		t.Errorf("%s injected = %s, want %d", label, m[1], n)
	}
}

func TestReportRunEndToEnd(t *testing.T) {
	path := writeJournal(t, filepath.Join(t.TempDir(), "p4-code.kjournal"), isa.CISC, inject.CampCode,
		[]inject.Result{
			{Outcome: inject.OCrash, Activated: true, ActivationKnown: true,
				Cause: isa.CauseNULLPointer, Latency: 1500},
			{Outcome: inject.ONotManifested, Activated: true, ActivationKnown: true},
		})
	out := report(t, "-compare", path)
	wantRow(t, out, "p4/Code", 2)
	if !strings.Contains(out, "Crash causes vs paper, p4/Code") {
		t.Errorf("-compare section missing:\n%s", out)
	}
	if err := run([]string{}, &strings.Builder{}); err == nil {
		t.Error("missing file argument accepted")
	}
}

func TestReportCIAndRegisterSections(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, filepath.Join(dir, "g4-sysreg.kjournal"), isa.RISC, inject.CampSysReg,
		[]inject.Result{
			{Outcome: inject.OCrash, Activated: true, ActivationKnown: true,
				Cause: isa.CauseGeneralProtection, Latency: 900,
				Target: inject.Target{Campaign: inject.CampSysReg, RegName: "MSR"}},
			{Outcome: inject.ONotManifested, Activated: true, ActivationKnown: true,
				Target: inject.Target{Campaign: inject.CampSysReg, RegName: "SDR1"}},
			{Outcome: inject.OHangUnknown, Activated: true, ActivationKnown: true,
				Target: inject.Target{Campaign: inject.CampSysReg, RegName: "SRR0"}},
		})
	for _, args := range [][]string{
		{"-ci", path},
		{"-registers", "-causes=false", "-latency=false", path},
		{"-compare", "-ci", path},
	} {
		out := report(t, args...)
		wantRow(t, out, "g4/System Registers", 3)
	}
	if !strings.Contains(report(t, "-registers", path), "Manifesting registers, g4/System Registers") {
		t.Error("register section missing")
	}
	if err := run([]string{filepath.Join(dir, "missing.kjournal")}, &strings.Builder{}); err == nil {
		t.Error("missing input file accepted")
	}
}

// TestReportEmptyLog: a journal with a header and no rows reports a zero
// row; a file that is not a journal is an error naming the file.
func TestReportEmptyLog(t *testing.T) {
	dir := t.TempDir()
	empty := writeJournal(t, filepath.Join(dir, "empty.kjournal"), isa.CISC, inject.CampStack, nil)
	wantRow(t, report(t, empty), "p4/Stack", 0)

	for name, data := range map[string]string{
		"zero.kjournal": "",
		"bad.jsonl":     "{\"platform\":\"p4\"}\n",
	} {
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{bad}, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s: error %v does not name the file", name, err)
		}
	}
}

// TestReportTornTail: a journal cut mid-record (a crash mid-append) reports
// the rows of its valid prefix.
func TestReportTornTail(t *testing.T) {
	results := make([]inject.Result, 4)
	for i := range results {
		results[i] = inject.Result{Outcome: inject.ONotManifested, Activated: true, ActivationKnown: true}
	}
	path := writeJournal(t, filepath.Join(t.TempDir(), "p4-stack.kjournal"), isa.CISC, inject.CampStack, results)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	wantRow(t, report(t, path), "p4/Stack", 3)
}

// TestReportDirectoryAfterResume runs a journaled campaign, re-runs it with
// resume over the same directory, and reports the directory: every outcome
// counts once, and each journal groups under its header's platform and
// campaign.
func TestReportDirectoryAfterResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	dir := t.TempDir()
	cfg := core.Config{
		Platforms:  []isa.Platform{isa.CISC, isa.RISC},
		Campaigns:  []inject.Campaign{inject.CampStack},
		Counts:     map[inject.Campaign]int{inject.CampStack: 5},
		Seed:       1,
		Nodes:      1,
		JournalDir: dir,
	}
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	out := report(t, dir)
	wantRow(t, out, "p4/Stack", 5)
	wantRow(t, out, "g4/Stack", 5)

	if err := run([]string{t.TempDir()}, &strings.Builder{}); err == nil {
		t.Error("directory without journals accepted")
	}
}
