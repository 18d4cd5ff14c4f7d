package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a fixture repo: a minimal Outcome definition plus the
// given files.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	base := map[string]string{
		outcomeSource: `package inject
type Outcome int
const (
	OA Outcome = iota + 1
	OB
	OC
)
`,
		classSource: `package staticsense
type Class uint8
const (
	ClassUnknown Class = iota
	ClassInert

	numClasses
)
`,
		engineSource: `package platform
type EngineKind uint8
const (
	EngineInterp EngineKind = iota + 1
	EngineTranslate

	numEngineKinds
)
`,
	}
	for k, v := range files {
		base[k] = v
	}
	for rel, src := range base {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func findingStrings(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.String())
	}
	return out
}

func TestExhaustiveOutcomeSwitch(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stats/s.go": `package stats
func f(o int) {
	switch o {
	case OA:
	case OB:
	}
}
const (
	OA = 1
	OB = 2
)
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "OC") {
		t.Errorf("want one finding missing OC, got %v", findingStrings(fs))
	}
}

// TestAppendedOutcomeConstantRejected mirrors the ODetected addition: when a
// new constant is appended to the Outcome block, every exhaustive no-default
// switch that predates it must be flagged until it handles the new outcome.
func TestAppendedOutcomeConstantRejected(t *testing.T) {
	root := writeTree(t, map[string]string{
		outcomeSource: `package inject
type Outcome int
const (
	OA Outcome = iota + 1
	OB
	OC
	ODetected
)
`,
		"internal/stats/s.go": `package stats
import "x/inject"
func f(o inject.Outcome) {
	switch o {
	case inject.OA, inject.OB, inject.OC:
	}
}
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "ODetected") {
		t.Errorf("want one finding missing ODetected, got %v", findingStrings(fs))
	}
}

// TestAppendedClassConstantRejected mirrors the outcome rule for the
// staticsense.Class lattice: appending a class constant must flag every
// exhaustive no-default Class switch outside the defining package until it
// handles the new class. The unexported count sentinel is not part of the
// enum and must not be demanded.
func TestAppendedClassConstantRejected(t *testing.T) {
	root := writeTree(t, map[string]string{
		classSource: `package staticsense
type Class uint8
const (
	ClassUnknown Class = iota
	ClassInert
	ClassMaskedReg

	numClasses
)
`,
		"internal/campaign/sense.go": `package campaign
import "x/staticsense"
func eligible(c staticsense.Class) bool {
	switch c {
	case staticsense.ClassUnknown:
		return false
	case staticsense.ClassInert:
		return true
	}
	return false
}
`,
		// The defining package itself may switch partially.
		"internal/staticsense/internal.go": `package staticsense
func detail(c Class) int {
	switch c {
	case ClassUnknown:
		return 0
	}
	return 1
}
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "ClassMaskedReg") ||
		!strings.Contains(fs[0].Msg, "staticsense.Class") {
		t.Errorf("want one finding missing ClassMaskedReg, got %v", findingStrings(fs))
	}
	if len(fs) == 1 && strings.Contains(fs[0].Msg, "numClasses") {
		t.Errorf("unexported sentinel demanded by the rule: %v", fs[0])
	}
}

func TestExhaustiveSwitchSatisfiedByDefaultOrFullCover(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stats/full.go": `package stats
import "x/inject"
func f(o inject.Outcome) {
	switch o {
	case inject.OA, inject.OB:
	case inject.OC:
	}
}
`,
		"internal/stats/def.go": `package stats
import "x/inject"
func g(o inject.Outcome) {
	switch o {
	case inject.OA:
	default:
	}
}
`,
		"internal/stats/unrelated.go": `package stats
func h(n int) {
	switch n {
	case 1:
	}
}
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("want no findings, got %v", findingStrings(fs))
	}
}

func TestDeterminismRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/machine/clock.go": `package machine
import (
	"math/rand"
	"time"
)
func bad() int64 {
	r := rand.Int()
	return time.Now().UnixNano() + int64(r)
}
func good() *rand.Rand {
	return rand.New(rand.NewSource(7))
}
`,
		// Tests are exempt even in deterministic dirs.
		"internal/machine/clock_test.go": `package machine
import "time"
func tbad() int64 { return time.Now().UnixNano() }
`,
		// crashnet is off the deterministic path.
		"internal/crashnet/net.go": `package crashnet
import "time"
func deadline() int64 { return time.Now().UnixNano() }
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("want 2 findings (rand.Int, time.Now), got %v", findingStrings(fs))
	}
	if !strings.Contains(fs[0].Msg, "rand.Int") || !strings.Contains(fs[1].Msg, "time.Now") {
		t.Errorf("unexpected findings: %v", findingStrings(fs))
	}
}

func TestPlatformDispatchRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Switch and comparison dispatch outside the registry: flagged.
		"internal/stats/dispatch.go": `package stats
import "x/isa"
func f(p isa.Platform) int {
	switch p {
	case isa.CISC:
		return 1
	case isa.RISC:
		return 2
	}
	if p == isa.RISC {
		return 3
	}
	return 0
}
`,
		// kfi-alias comparison: also flagged.
		"cmd/kfi-x/main.go": `package main
import "kfi"
func g(p kfi.Platform) bool { return p != kfi.G4 }
`,
		// Data uses are fine: map literals, registration calls, slices.
		"internal/kernel/data.go": `package kernel
import "x/isa"
var table = map[isa.Platform]int{isa.CISC: 1, isa.RISC: 2}
var order = []isa.Platform{isa.CISC, isa.RISC}
func init() { register(isa.CISC, 7) }
func register(p isa.Platform, n int) {}
`,
		// The registry and ISA packages may dispatch.
		"internal/platform/reg.go": `package platform
import "x/isa"
func h(p isa.Platform) bool { return p == isa.CISC }
`,
		"internal/risc/core.go": `package risc
import "x/isa"
func h(p isa.Platform) bool { return p == isa.RISC }
`,
		// Allowlisted file.
		"cmd/kfi-asm/main.go": `package main
import "kfi"
func d(p kfi.Platform) bool { return p == kfi.G4 }
`,
		// A local variable shadowing the package name is not the enum.
		"internal/stats/shadow.go": `package stats
func s() bool {
	type t struct{ CISC int }
	isa := t{CISC: 1}
	return isa.CISC == 1
}
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("want 3 findings (switch, ==, !=), got %v", findingStrings(fs))
	}
	wantFiles := []string{"cmd/kfi-x/main.go", "internal/stats/dispatch.go", "internal/stats/dispatch.go"}
	for i, f := range fs {
		if filepath.ToSlash(f.File) != wantFiles[i] {
			t.Errorf("finding %d in %s, want %s: %s", i, f.File, wantFiles[i], f.Msg)
		}
		if !strings.Contains(f.Msg, "internal/platform registry") {
			t.Errorf("finding %d does not point at the registry: %s", i, f.Msg)
		}
	}
}

// TestEngineKindSwitchRule proves a half-wired engine dispatch fails lint:
// a switch over the EngineKind constants that misses a kind and has no
// default is flagged anywhere in the tree, while full coverage or a default
// clause (and the unexported count sentinel) satisfy the rule.
func TestEngineKindSwitchRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/campaign/eng.go": `package campaign
import "x/platform"
func label(k platform.EngineKind) string {
	switch k {
	case platform.EngineInterp:
		return "i"
	}
	return ""
}
`,
		"internal/stats/eng.go": `package stats
import "x/platform"
func full(k platform.EngineKind) int {
	switch k {
	case platform.EngineInterp:
		return 1
	case platform.EngineTranslate:
		return 2
	}
	return 0
}
func def(k platform.EngineKind) int {
	switch k {
	case platform.EngineTranslate:
		return 2
	default:
		return 0
	}
}
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "EngineTranslate") ||
		!strings.Contains(fs[0].Msg, "platform.EngineKind") {
		t.Errorf("want one finding missing EngineTranslate, got %v", findingStrings(fs))
	}
	if len(fs) == 1 && strings.Contains(fs[0].Msg, "numEngineKinds") {
		t.Errorf("unexported sentinel demanded by the rule: %v", fs[0])
	}
}

// TestStepCallRule proves the engine seam is enforced: a direct core.Step()
// call outside the ISA packages is flagged — the registry included — while
// the run loops inside them (and test files anywhere) may keep calling Step.
func TestStepCallRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/machine/loop.go": `package machine
type core interface{ Step() int }
func run(c core) int { return c.Step() }
`,
		"internal/cisc/cpu.go": `package cisc
type CPU struct{}
func (c *CPU) Step() int { return 0 }
func (c *CPU) RunUntil(limit uint64) int { return c.Step() }
`,
		"internal/platform/adapter.go": `package platform
type stepper interface{ Step() int }
func drive(s stepper) int { return s.Step() }
`,
		// Tests are exempt even outside the engine packages.
		"internal/machine/loop_test.go": `package machine
func tstep(c core) int { return c.Step() }
`,
	})
	fs, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || !strings.Contains(fs[0].File, "machine") ||
		!strings.Contains(fs[1].File, "platform") ||
		!strings.Contains(fs[0].Msg, "ExecEngine") || !strings.Contains(fs[1].Msg, "ExecEngine") {
		t.Errorf("want ExecEngine findings in internal/machine and internal/platform, got %v", findingStrings(fs))
	}
}

// TestRepoIsClean is the gate the lint.sh script enforces: the repository
// itself must pass its own linter.
func TestRepoIsClean(t *testing.T) {
	fs, err := Check("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("repository has lint findings:\n  %s", strings.Join(findingStrings(fs), "\n  "))
	}
}
