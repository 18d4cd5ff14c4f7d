package main

import (
	"encoding/json"
	"strings"
	"testing"

	"kfi/internal/staticsense"
)

func TestSenseRendersBothPlatforms(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-platform", "both"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	wants := []string{"P4", "G4", "inert-encoding", "predicted inert",
		"target classes", "code:", "data:", "stack:", "sysreg:"}
	for _, want := range wants {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestSenseTargetFilter is the table-driven contract of the -target flag:
// a filtered report keeps exactly the requested target class, rebuilds its
// aggregates from the surviving section, and rejects unknown classes.
func TestSenseTargetFilter(t *testing.T) {
	cases := []struct {
		target    string
		wantClass string // a class name the filtered report must mention
		absent    string // a section heading that must be gone
	}{
		{"code", "inert-encoding", "data:"},
		{"data", "unreferenced", "code:"},
		{"stack", "unknown", "sysreg:"},
		{"sysreg", "masked-reg", "stack:"},
	}
	for _, tc := range cases {
		t.Run(tc.target, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{"-platform", "p4", "-target", tc.target}, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			if !strings.Contains(got, tc.target+":") {
				t.Errorf("-target %s output missing its own section:\n%s", tc.target, got)
			}
			if !strings.Contains(got, tc.wantClass) {
				t.Errorf("-target %s output missing class %q:\n%s", tc.target, tc.wantClass, got)
			}
			if strings.Contains(got, tc.absent) {
				t.Errorf("-target %s output still renders %q:\n%s", tc.target, tc.absent, got)
			}
		})
	}

	var out strings.Builder
	if err := run([]string{"-target", "heap"}, &out); err == nil {
		t.Error("unknown -target accepted")
	}
}

func TestSenseJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-platform", "g4", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var reports []*staticsense.Report
	if err := json.Unmarshal([]byte(out.String()), &reports); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(reports) != 1 || reports[0].Sites == 0 || reports[0].Inert == 0 {
		t.Fatalf("implausible report: %+v", reports)
	}
	r := reports[0]
	if r.Platform.Short() != "g4" || !strings.Contains(out.String(), `"platform": "g4"`) {
		t.Errorf("report names platform %v; want g4 in the JSON", r.Platform)
	}
	if len(r.Targets) != 4 {
		t.Fatalf("whole-target JSON has %d target classes, want 4", len(r.Targets))
	}
	sites, inert := 0, 0
	for _, tr := range r.Targets {
		if tr.Sites == 0 || len(tr.ByClass) == 0 {
			t.Errorf("target %q has empty per-class counts: %+v", tr.Target, tr)
		}
		sum := 0
		for _, v := range tr.ByClass {
			sum += v
		}
		if sum != tr.Sites {
			t.Errorf("target %q class counts sum to %d, want %d", tr.Target, sum, tr.Sites)
		}
		sites += tr.Sites
		inert += tr.Inert
	}
	if sites != r.Sites || inert != r.Inert {
		t.Errorf("per-target sums %d/%d diverge from aggregates %d/%d", sites, inert, r.Sites, r.Inert)
	}
}

// TestSenseJSONFiltered: -json composes with -target, emitting the single
// filtered section with self-consistent aggregates.
func TestSenseJSONFiltered(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-platform", "p4", "-target", "sysreg", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var reports []*staticsense.Report
	if err := json.Unmarshal([]byte(out.String()), &reports); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(reports) != 1 || len(reports[0].Targets) != 1 {
		t.Fatalf("filtered JSON shape wrong: %+v", reports)
	}
	r := reports[0]
	tr := r.Targets[0]
	if tr.Target != "sysreg" || r.Sites != tr.Sites || r.Inert != tr.Inert {
		t.Errorf("filtered aggregates not rebuilt from the sysreg section: %+v vs %+v", r, tr)
	}
	if tr.ByClass[staticsense.ClassMaskedReg.String()] == 0 {
		t.Errorf("sysreg section reports no masked-reg bits: %+v", tr.ByClass)
	}
}

func TestSenseFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-platform", "vax"}, &out); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := run([]string{"-scale", "0"}, &out); err == nil {
		t.Error("scale 0 accepted")
	}
}
