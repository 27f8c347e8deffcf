// Package lint implements the repository's static-analysis suite:
// custom analyzers that enforce the invariants the simulator's runtime
// test suites only catch late and only on exercised paths. The suite
// runs in one place, TestRepoLintClean, which applies every analyzer to
// every package of the module, _test.go files included.
//
// The suite ships four analyzers (see their files for details), each
// kept because a planted bug it catches gets past every other test:
//
//   - mapiter: no map iteration in determinism-critical packages
//     without an //sbwi:unordered justification.
//   - hotalloc: no allocation-causing constructs inside functions
//     annotated //sbwi:hotpath.
//   - walltime: no wall-clock or process-global randomness in
//     simulation-core packages.
//   - goguard: every goroutine the device package spawns must run
//     under the guarded panic wrapper.
//
// Two contracts need no analyzer. Lock discipline: shared state lives
// in a locked.Value (internal/locked), which the compiler only lets
// code reach through its Do method. Merge completeness: statcheck
// (internal/statcheck) checks every Merge method's values, in both
// directions and through nested statistics types.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is self-contained: the module has
// no external dependencies, so the suite is built on go/ast, go/types
// and the gc export-data importer only.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test suites.
	Name string

	// Run performs the check over one package, reporting findings
	// through pass.Reportf.
	Run func(pass *Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer

	// Path is the canonical import path with any test-variant suffix
	// ("pkg [pkg.test]") stripped.
	Path string

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, HotAlloc, WallTime, GoGuard}
}

// RunAnalyzers applies each analyzer to pkg and returns the findings
// sorted by file, line, column and analyzer.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// criticalSuffixes lists the determinism-critical packages: per-launch
// statistics must be bit-identical across SM/worker/stream counts, so
// nothing order- or clock-dependent may leak into these packages.
var criticalSuffixes = []string{
	"internal/sm",
	"internal/device",
	"internal/mem",
	"internal/noc",
	"internal/exec",
}

// DeterminismCritical reports whether the package at path is one of
// the determinism-critical simulation-core packages. External test
// packages ("…/sm_test") inherit the criticality of the package under
// test.
func DeterminismCritical(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, s := range criticalSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Directives supported in source comments. Suppression directives
// require a one-line justification after the directive word; a bare
// directive does not suppress (the analyzer reports the missing
// justification instead), so every waiver is self-documenting.
const (
	// DirHotpath marks a function (in its doc comment) as part of the
	// zero-alloc hot path; hotalloc checks its body.
	DirHotpath = "hotpath"

	// DirUnordered justifies a map iteration whose consumer is
	// order-insensitive (mapiter suppression).
	DirUnordered = "unordered"

	// DirAllocOK justifies an allocation-looking construct on the hot
	// path, e.g. an append into a preallocated scratch buffer
	// (hotalloc suppression).
	DirAllocOK = "alloc-ok"

	// DirWallclockOK justifies a wall-clock reference in a
	// simulation-core package (walltime suppression).
	DirWallclockOK = "wallclock-ok"
)

const directivePrefix = "//sbwi:"

// fileDirectives indexes every //sbwi: directive in a file by the line
// it appears on.
type fileDirectives struct {
	// byLine maps line -> directive name -> argument (justification).
	byLine map[int]map[string]string
}

// directivesOf scans all comments of file.
func directivesOf(fset *token.FileSet, file *ast.File) *fileDirectives {
	d := &fileDirectives{byLine: make(map[int]map[string]string)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			name, arg, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			m := d.byLine[line]
			if m == nil {
				m = make(map[string]string)
				d.byLine[line] = m
			}
			m[name] = arg
		}
	}
	return d
}

// parseDirective splits "//sbwi:name justification…" into its parts.
func parseDirective(text string) (name, arg string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, arg, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(arg), name != ""
}

// at returns the directive's argument if name appears on line or on
// the line directly above (a comment on its own line annotating the
// statement below).
func (d *fileDirectives) at(name string, line int) (arg string, present bool) {
	for _, l := range [2]int{line, line - 1} {
		if m, ok := d.byLine[l]; ok {
			if a, ok := m[name]; ok {
				return a, true
			}
		}
	}
	return "", false
}

// suppress decides whether a finding on line is waived by the named
// directive. A directive without a justification does not suppress;
// instead the analyzer reports that the waiver itself is incomplete,
// keeping every suppression self-documenting.
func (p *Pass) suppress(d *fileDirectives, name string, pos token.Pos) bool {
	line := p.Fset.Position(pos).Line
	arg, present := d.at(name, line)
	if !present {
		return false
	}
	if arg == "" {
		p.Reportf(pos, "//sbwi:%s directive needs a one-line justification to suppress this finding", name)
	}
	return true
}

// hasDirective reports whether a function's doc comment carries the
// named marker directive (e.g. //sbwi:hotpath).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if n, _, ok := parseDirective(c.Text); ok && n == name {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file.
func (p *Pass) isTestFile(file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go")
}
