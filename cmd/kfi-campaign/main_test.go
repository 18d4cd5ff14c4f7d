package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kfi"
	"kfi/internal/campaign"
	"kfi/internal/cli"
	"kfi/internal/core"
	"kfi/internal/crashnet"
)

func TestParseCampaigns(t *testing.T) {
	got, err := cli.ParseCampaigns("stack, code")
	if err != nil || len(got) != 2 || got[0] != kfi.Stack || got[1] != kfi.Code {
		t.Errorf("ParseCampaigns = %v, %v", got, err)
	}
	all, err := cli.ParseCampaigns("all")
	if err != nil || len(all) != 4 {
		t.Errorf("all = %v, %v", all, err)
	}
	if _, err := cli.ParseCampaigns("bogus"); err == nil {
		t.Error("bogus campaign accepted")
	}
}

// TestHardenStudyRefusesIgnoredFlags: -harden-study builds its own matched
// campaigns from -n, -seed, -scale and -burst, so flags it would ignore are
// refused by name rather than dropped.
func TestHardenStudyRefusesIgnoredFlags(t *testing.T) {
	for _, ignored := range [][]string{
		{"-journal", "j"},
		{"-resume"},
		{"-sense"},
		{"-section-cache", "cache"},
		{"-paper-fraction", "0.01"},
		{"-crashnet", "127.0.0.1:9377"},
		{"-retries", "2"},
	} {
		t.Run(ignored[0][1:], func(t *testing.T) {
			args := append([]string{"-harden-study", "-harden", "dup",
				"-platform", "p4", "-campaign", "code", "-n", "5", "-quiet"}, ignored...)
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), ignored[0]+" does not apply to -harden-study") {
				t.Errorf("run(%q): error %v, want %s refused", args, err, ignored[0])
			}
		})
	}
}

// TestEngineFlagRemoved: every guest runs on the translator, so -engine is
// an unknown flag rather than a knob. Campaigns run on this host only, so
// the control plane's -submit and -coordinator are unknown too.
func TestEngineFlagRemoved(t *testing.T) {
	for _, flag := range []string{"-engine", "-submit", "-coordinator"} {
		args := []string{flag, "translate", "-platform", "p4", "-campaign", "code", "-n", "1", "-quiet"}
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("run(%q): error %v, want an unknown %s flag", args, err, flag)
		}
	}
}

func TestBurstFlagValidation(t *testing.T) {
	if err := run([]string{"-burst", "0", "-platform", "p4", "-campaign", "code", "-n", "1", "-quiet"}); err == nil {
		t.Error("burst 0 accepted")
	}
	if err := run([]string{"-burst", "9", "-platform", "p4", "-campaign", "code", "-n", "1", "-quiet"}); err == nil {
		t.Error("burst 9 accepted")
	}
}

func TestCrashnetStreamsToCollector(t *testing.T) {
	coll, err := crashnet.NewUDPCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	err = run([]string{"-platform", "p4", "-campaign", "code", "-n", "25",
		"-seed", "42", "-quiet", "-figures=false", "-crashnet", coll.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	// A 25-injection code campaign reliably produces several crashes; each
	// must have arrived as a well-formed packet.
	got := 0
	for {
		pkt, ok := coll.Recv()
		if !ok {
			break
		}
		got++
		if pkt.Cause == 0 {
			t.Error("crash packet with no cause")
		}
	}
	if got == 0 {
		t.Error("no crash packets reached the collector")
	}
}

func TestCrashnetRejectsBadAddress(t *testing.T) {
	if err := run([]string{"-platform", "p4", "-campaign", "code", "-n", "1",
		"-quiet", "-crashnet", "::bad::"}); err == nil {
		t.Error("bad crashnet address accepted")
	}
}

func TestCampaignJournalAndFigures(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-platform", "p4", "-campaign", "stack", "-n", "10",
		"-seed", "3", "-quiet", "-figures", "-journal", dir})
	if err != nil {
		t.Fatal(err)
	}
	h, rows, err := campaign.ReadJournal(core.JournalPath(dir, kfi.P4, kfi.Stack))
	if err != nil {
		t.Fatal(err)
	}
	if h.Platform != kfi.P4 || h.Campaign != kfi.Stack || len(rows) != 10 {
		t.Errorf("journal holds %v %v with %d rows, want p4 Stack with 10", h.Platform, h.Campaign, len(rows))
	}
}

func TestCampaignPaperFraction(t *testing.T) {
	// -paper-fraction scales the paper's own campaign sizes; at 0.0002 the
	// stack campaign rounds to its minimum of 1 injection.
	err := run([]string{"-platform", "g4", "-campaign", "stack",
		"-paper-fraction", "0.0002", "-quiet", "-figures=false"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCampaignRejectsBadSelectors(t *testing.T) {
	if err := run([]string{"-platform", "vax"}); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := run([]string{"-platform", "p4", "-campaign", "paging"}); err == nil {
		t.Error("unknown campaign accepted")
	}
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-platform", "p4", "-campaign", "code", "-n", "1",
		"-quiet", "-journal", filepath.Join(notDir, "sub")}); err == nil {
		t.Error("unwritable -journal accepted")
	}
}

func TestResumeFlagRequiresJournal(t *testing.T) {
	if err := run([]string{"-platform", "p4", "-campaign", "stack", "-n", "1",
		"-quiet", "-resume"}); err == nil {
		t.Error("-resume without -journal accepted")
	}
	if err := run([]string{"-platform", "p4", "-campaign", "stack", "-n", "1",
		"-quiet", "-retries", "-1"}); err == nil {
		t.Error("negative -retries accepted")
	}
}

// TestJournalResumeCLI runs a journaled campaign to completion, then reruns
// the same command with -resume: every injection is served from the journal,
// which stays byte-identical in canonical form and holds each outcome once.
func TestJournalResumeCLI(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	base := []string{"-platform", "g4", "-campaign", "stack", "-n", "8",
		"-seed", "4", "-quiet", "-figures=false", "-journal", jdir}
	canonical := func() []byte {
		t.Helper()
		h, rows, err := campaign.ReadJournal(core.JournalPath(jdir, kfi.G4, kfi.Stack))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 8 {
			t.Fatalf("journal holds %d outcomes, want 8", len(rows))
		}
		b, err := campaign.CanonicalJournalBytes(h, rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	first := canonical()
	if err := run(append(base, "-resume")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, canonical()) {
		t.Fatal("resumed CLI run changed the canonical journal")
	}
}

// TestVerboseRowCounts: -v prints each campaign's executed and synthesized
// row counts beside the translator counters. A data campaign synthesizes
// the rows whose word the golden run never touches and executes the rest;
// a -resume rerun serves every row from the journal and counts in neither.
func TestVerboseRowCounts(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	args := []string{"-platform", "p4", "-campaign", "data", "-paper-fraction", "0.002",
		"-quiet", "-figures=false", "-v", "-journal", jdir}
	counts := regexp.MustCompile(`P4-class \(CISC\) Data — rows executed=(\d+) synthesized=(\d+), translator blocks=\d+`)
	m := counts.FindStringSubmatch(captureStdout(t, func() error { return run(args) }))
	if m == nil {
		t.Fatal("-v printed no row counts for p4 Data")
	}
	executed, _ := strconv.Atoi(m[1])
	synthesized, _ := strconv.Atoi(m[2])
	if executed+synthesized != 92 || synthesized == 0 {
		t.Errorf("rows executed=%d synthesized=%d, want 92 in all, some synthesized", executed, synthesized)
	}
	m = counts.FindStringSubmatch(captureStdout(t, func() error { return run(append(args, "-resume")) }))
	if m == nil || m[1] != "0" || m[2] != "0" {
		t.Errorf("resumed run counts %q, want executed=0 synthesized=0", m)
	}
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	b := <-out
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(b)
}
