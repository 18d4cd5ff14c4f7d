// Package lint implements the repo's own static checks — the invariants the
// type system cannot express but the reproduction depends on:
//
//   - exhaustive outcome switches: any switch statement that dispatches on
//     the inject.Outcome constants must either cover every constant or carry
//     a default clause, so adding an outcome cannot silently fall through a
//     classifier or table builder;
//   - exhaustive class switches: the same rule for the staticsense.Class
//     lattice constants in every package outside internal/staticsense —
//     a consumer that dispatches on the class must confront each new class
//     explicitly, because a class silently falling through to "inert" is a
//     soundness bug;
//   - deterministic replay paths: packages on the guest-deterministic path
//     (everything a campaign result depends on) must not call time.Now or
//     use math/rand's implicit global source — wall-clock reads and shared
//     RNG state are exactly what breaks bit-identical resume and
//     fork-from-golden equivalence. Seeded rand.New(rand.NewSource(...)) is
//     allowed; tests are exempt.
//   - exhaustive engine switches: the same rule for the platform.EngineKind
//     constants everywhere — an engine kind silently falling through a
//     dispatch (journal header writer, engine constructor, stats reporter)
//     would let a new engine ship half-wired;
//   - no direct Step calls outside the engine packages: the ExecEngine seam
//     exists so every instruction retires through exactly one run loop per
//     engine. A stray core.Step() elsewhere bypasses the selected engine
//     (and its caches and stats), so only the ISA packages and the registry
//     may call Step; everyone else drives a platform.ExecEngine via
//     RunUntil;
//   - no platform dispatch outside the registry: comparing or switching on
//     the platform enum constants (isa.CISC, isa.RISC, kfi.P4, kfi.G4) is
//     how platform-specific behavior leaked across layers before the
//     internal/platform registry existed. New code must resolve behavior
//     through a platform.Descriptor (or a per-layer capability registry)
//     instead; only the ISA packages themselves, the registry, and a short
//     allowlist of intrinsically two-ISA tools may branch on the constants.
//     Data uses — map literals keyed by platform, registrations, constant
//     definitions — are fine; only switch/if dispatch is flagged.
//   - injectable seams in the control plane: internal/ctlplane must read the
//     wall clock only through its Clock seam (clock.go) and must never use
//     net/http's ambient default client or transport — lease expiry is the
//     package's core correctness property and tests drive it with a fake
//     clock and injected transports, so an ambient time.Now or http.Get
//     sneaking in is a test-escape waiting to happen.
//
// The checks are purely syntactic (go/parser, no type checking), so they run
// in milliseconds and cannot be broken by build-tag or module complications.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one lint violation.
type Finding struct {
	File string
	Line int
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s", f.File, f.Line, f.Msg)
}

// deterministicDirs lists the packages on the guest-deterministic path,
// relative to the repo root: everything whose behavior feeds a campaign
// outcome, a journal record, or a resumable schedule.
var deterministicDirs = []string{
	"internal/campaign",
	"internal/cc",
	"internal/cisc",
	"internal/core",
	"internal/inject",
	"internal/isa",
	"internal/kernel",
	"internal/kir",
	"internal/machine",
	"internal/mem",
	"internal/platform",
	"internal/risc",
	"internal/snapshot",
	"internal/staticsense",
	"internal/stats",
	"internal/tracediff",
	"internal/workload",
}

// outcomeSource is the file defining the inject.Outcome constants, relative
// to the repo root.
const outcomeSource = "internal/inject/inject.go"

// classSource is the file defining the staticsense.Class constants, relative
// to the repo root.
const classSource = "internal/staticsense/staticsense.go"

// engineSource is the file defining the platform.EngineKind constants,
// relative to the repo root.
const engineSource = "internal/platform/engine.go"

// stepCallDirs are the packages allowed to call a Step method directly: the
// two ISA implementations (whose run loops and translators are the engines)
// and the registry that defines the Core interface. Everywhere else must
// drive execution through a platform.ExecEngine.
var stepCallDirs = []string{
	"internal/cisc",
	"internal/risc",
	"internal/platform",
}

// platformDispatchDirs are the packages allowed to branch on the platform
// enum: the enum's home, the registry, and the two ISA implementations the
// registry exists to encapsulate.
var platformDispatchDirs = []string{
	"internal/isa",
	"internal/platform",
	"internal/cisc",
	"internal/risc",
}

// platformDispatchAllow lists individual files outside those packages that
// may still dispatch on the enum, each with a reason. Additions need the
// same justification: the file must be intrinsically about the concrete
// ISAs, not about behavior a Descriptor could carry.
var platformDispatchAllow = map[string]string{
	// kfi-asm is a decoder exploration tool: it renders per-ISA flip
	// matrices straight from the cisc/risc decode tables, which no
	// registry interface abstracts (and should not).
	"cmd/kfi-asm/main.go": "decoder-level tool",
}

// Check lints the repository rooted at root and returns every violation,
// sorted by file and line. It fails only on infrastructure errors (missing
// outcome definitions, unparsable files); violations are data, not errors.
func Check(root string) ([]Finding, error) {
	outcomes, err := typedConstants(filepath.Join(root, outcomeSource), "Outcome")
	if err != nil {
		return nil, err
	}
	classes, err := typedConstants(filepath.Join(root, classSource), "Class")
	if err != nil {
		return nil, err
	}
	engines, err := typedConstants(filepath.Join(root, engineSource), "EngineKind")
	if err != nil {
		return nil, err
	}
	var findings []Finding
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || name == "related" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		findings = append(findings, checkEnumSwitches(fset, file, rel, outcomes, "inject.Outcome")...)
		if !strings.HasPrefix(filepath.ToSlash(rel), "internal/staticsense/") {
			findings = append(findings, checkEnumSwitches(fset, file, rel, classes, "staticsense.Class")...)
		}
		findings = append(findings, checkEnumSwitches(fset, file, rel, engines, "platform.EngineKind")...)
		if !inStepCallDir(rel) {
			findings = append(findings, checkStepCalls(fset, file, rel)...)
		}
		if inDeterministicDir(rel) {
			findings = append(findings, checkDeterminism(fset, file, rel)...)
		}
		if !platformDispatchExempt(rel) {
			findings = append(findings, checkPlatformDispatch(fset, file, rel)...)
		}
		if inCtlplaneSeamScope(rel) {
			findings = append(findings, checkCtlplaneSeams(fset, file, rel)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		return findings[i].Line < findings[j].Line
	})
	return findings, nil
}

// typedConstants parses an enum's constant names from its defining file:
// every exported name in a const block whose declared type matches typeName
// (including iota continuations inheriting the type). Unexported names —
// sentinels like the class count — are not part of the public enum and are
// excluded.
func typedConstants(path, typeName string) (map[string]bool, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: parsing %s definitions: %w", typeName, err)
	}
	names := map[string]bool{}
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		isTyped := false
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if vs.Type != nil {
				id, ok := vs.Type.(*ast.Ident)
				isTyped = ok && id.Name == typeName
			}
			if !isTyped {
				continue
			}
			for _, n := range vs.Names {
				if n.Name != "_" && ast.IsExported(n.Name) {
					names[n.Name] = true
				}
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no %s constants found in %s", typeName, path)
	}
	return names, nil
}

// checkEnumSwitches flags switch statements that dispatch on an enum's
// constants but neither cover all of them nor carry a default clause.
func checkEnumSwitches(fset *token.FileSet, file *ast.File, rel string, outcomes map[string]bool, label string) []Finding {
	var findings []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		covered := map[string]bool{}
		hasDefault := false
		usesOutcome := false
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
				continue
			}
			for _, e := range cc.List {
				if name, ok := constName(e); ok && outcomes[name] {
					usesOutcome = true
					covered[name] = true
				}
			}
		}
		if !usesOutcome || hasDefault {
			return true
		}
		var missing []string
		for name := range outcomes {
			if !covered[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			findings = append(findings, Finding{
				File: rel,
				Line: fset.Position(sw.Pos()).Line,
				Msg: fmt.Sprintf("switch over %s misses %s and has no default",
					label, strings.Join(missing, ", ")),
			})
		}
		return true
	})
	return findings
}

// constName extracts the bare or package-qualified identifier a case
// expression refers to (ONotActivated or inject.ONotActivated).
func constName(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		if _, ok := x.X.(*ast.Ident); ok {
			return x.Sel.Name, true
		}
	}
	return "", false
}

// checkDeterminism flags wall-clock reads and global-RNG use in packages on
// the deterministic replay path.
func checkDeterminism(fset *token.FileSet, file *ast.File, rel string) []Finding {
	imports := map[string]bool{}
	for _, imp := range file.Imports {
		imports[strings.Trim(imp.Path.Value, `"`)] = true
	}
	if !imports["time"] && !imports["math/rand"] {
		return nil
	}
	var findings []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil { // shadowed identifier, not a package
			return true
		}
		switch {
		case pkg.Name == "time" && imports["time"] && sel.Sel.Name == "Now":
			findings = append(findings, Finding{
				File: rel, Line: fset.Position(sel.Pos()).Line,
				Msg: "time.Now in a deterministic replay path (outcomes must not depend on the wall clock)",
			})
		case pkg.Name == "rand" && imports["math/rand"] &&
			sel.Sel.Name != "New" && sel.Sel.Name != "NewSource":
			findings = append(findings, Finding{
				File: rel, Line: fset.Position(sel.Pos()).Line,
				Msg: fmt.Sprintf("rand.%s uses the global math/rand source in a deterministic replay path (use rand.New(rand.NewSource(seed)))", sel.Sel.Name),
			})
		}
		return true
	})
	return findings
}

// platformEnumConst reports whether an expression is a package-qualified
// reference to one of the platform enum constants.
func platformEnumConst(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Obj != nil {
		return false
	}
	switch {
	case pkg.Name == "isa" && (sel.Sel.Name == "CISC" || sel.Sel.Name == "RISC"):
		return true
	case pkg.Name == "kfi" && (sel.Sel.Name == "P4" || sel.Sel.Name == "G4"):
		return true
	}
	return false
}

// checkPlatformDispatch flags switch cases over, and ==/!= comparisons
// against, the platform enum constants. Other uses — map keys, registration
// arguments, slice literals — are deliberately not flagged: holding data per
// platform is fine, branching on identity is what the registry replaces.
func checkPlatformDispatch(fset *token.FileSet, file *ast.File, rel string) []Finding {
	var findings []Finding
	flag := func(pos token.Pos, what string) {
		findings = append(findings, Finding{
			File: rel, Line: fset.Position(pos).Line,
			Msg: what + " dispatches on the platform enum; resolve behavior through the internal/platform registry instead",
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SwitchStmt:
			for _, stmt := range x.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if platformEnumConst(e) {
						flag(e.Pos(), "switch case")
						return true // one finding per switch is enough
					}
				}
			}
		case *ast.BinaryExpr:
			if (x.Op == token.EQL || x.Op == token.NEQ) &&
				(platformEnumConst(x.X) || platformEnumConst(x.Y)) {
				flag(x.Pos(), "comparison")
			}
		}
		return true
	})
	return findings
}

// platformDispatchExempt reports whether a repo-relative file may branch on
// the platform enum constants.
func platformDispatchExempt(rel string) bool {
	rel = filepath.ToSlash(rel)
	if _, ok := platformDispatchAllow[rel]; ok {
		return true
	}
	for _, d := range platformDispatchDirs {
		if strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// ctlplaneClockFile is the one control-plane file allowed to read the wall
// clock: it defines the injectable Clock seam everything else must use.
const ctlplaneClockFile = "internal/ctlplane/clock.go"

// inCtlplaneSeamScope reports whether a repo-relative file must route time
// and HTTP transport through the control plane's injectable seams.
func inCtlplaneSeamScope(rel string) bool {
	rel = filepath.ToSlash(rel)
	return strings.HasPrefix(rel, "internal/ctlplane/") && rel != ctlplaneClockFile
}

// httpAmbient lists the net/http package-level functions and variables that
// reach for the ambient default client or transport.
var httpAmbient = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
	"DefaultClient": true, "DefaultTransport": true,
}

// checkCtlplaneSeams flags wall-clock reads and ambient-HTTP use in
// internal/ctlplane outside the Clock seam. time.Now must come from an
// injected Clock; HTTP must go through an owned *http.Client.
func checkCtlplaneSeams(fset *token.FileSet, file *ast.File, rel string) []Finding {
	imports := map[string]bool{}
	for _, imp := range file.Imports {
		imports[strings.Trim(imp.Path.Value, `"`)] = true
	}
	if !imports["time"] && !imports["net/http"] {
		return nil
	}
	var findings []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil { // shadowed identifier, not a package
			return true
		}
		switch {
		case pkg.Name == "time" && imports["time"] && sel.Sel.Name == "Now":
			findings = append(findings, Finding{
				File: rel, Line: fset.Position(sel.Pos()).Line,
				Msg: "time.Now in internal/ctlplane outside the Clock seam (inject a ctlplane.Clock; clock.go is the only wall-clock reader)",
			})
		case pkg.Name == "http" && imports["net/http"] && httpAmbient[sel.Sel.Name]:
			findings = append(findings, Finding{
				File: rel, Line: fset.Position(sel.Pos()).Line,
				Msg: fmt.Sprintf("http.%s uses the ambient default client/transport in internal/ctlplane (use an owned, injectable *http.Client)", sel.Sel.Name),
			})
		}
		return true
	})
	return findings
}

// inStepCallDir reports whether a repo-relative file may call a core's Step
// method directly instead of going through a platform.ExecEngine.
func inStepCallDir(rel string) bool {
	rel = filepath.ToSlash(rel)
	for _, d := range stepCallDirs {
		if strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// checkStepCalls flags method calls named Step outside the engine packages.
// The check is purely syntactic (no type information), which is safe because
// Step is the ISA cores' single-instruction entry point and no other type in
// the repo exposes a Step method; a new one would claim the name from the
// execution seam and should pick another.
func checkStepCalls(fset *token.FileSet, file *ast.File, rel string) []Finding {
	var findings []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Step" {
			return true
		}
		findings = append(findings, Finding{
			File: rel, Line: fset.Position(sel.Pos()).Line,
			Msg: "direct Step call outside the engine packages bypasses the selected execution engine; drive the core through a platform.ExecEngine (RunUntil) instead",
		})
		return true
	})
	return findings
}

// inDeterministicDir reports whether a repo-relative file lives in one of
// the guest-deterministic packages (or a subpackage of one).
func inDeterministicDir(rel string) bool {
	rel = filepath.ToSlash(rel)
	for _, d := range deterministicDirs {
		if strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}
