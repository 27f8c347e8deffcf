package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// A Package is one parsed and type-checked unit ready for analysis.
type Package struct {
	// Path is the canonical import path ("repro/internal/sm"), with
	// any test-variant suffix stripped.
	Path string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Check type-checks already-parsed files as package path using imp to
// resolve imports, and returns the analysis-ready package.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, goVersion string) (*Package, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Sizes:     types.SizesFor("gc", envOr("GOARCH", runtime.GOARCH)),
	}
	canonical := canonicalPath(path)
	tpkg, err := conf.Check(canonical, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: canonical, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// canonicalPath strips the test-variant suffix go list attaches to
// packages recompiled for a test binary ("pkg [other.test]").
func canonicalPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// ExportLookup returns a go/importer "gc" lookup function resolving
// import paths through resolve (source path -> canonical listed path)
// and exports (canonical path -> export-data file). resolve may be
// nil, in which case paths resolve to themselves.
func ExportLookup(exports map[string]string, resolve func(string) string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if resolve != nil {
			path = resolve(path)
		}
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// listPackage mirrors the subset of `go list -json` the loader reads.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	ForTest    string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Module     *struct {
		Path      string
		Main      bool
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// goList runs `go list` in dir and decodes the JSON package stream.
func goList(dir string, extra []string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-json"}, extra...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadPackages lists patterns in dir (module root or below), compiles
// export data for the full dependency closure, and parses and
// type-checks every matched package of the main module — including the
// test-augmented and external-test variants, so _test.go files are
// analyzed too. Synthesized test-main packages are skipped.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, []string{"-export", "-test", "-deps"}, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	augmented := make(map[string]bool) // canonical paths with an in-package test variant
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" && canonicalPath(p.ImportPath) == p.ForTest {
			augmented[p.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	var out []*Package
	for _, p := range listed {
		if p.Module == nil || !p.Module.Main || p.Standard {
			continue // analyze only this module's packages
		}
		if p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test") {
			continue // synthesized test-main package
		}
		if p.ForTest == "" && augmented[p.ImportPath] {
			continue // the test variant supersedes the plain package
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		// Resolve the package under test to its augmented variant so
		// external test packages see the test-extended API.
		forTest := p.ForTest
		resolve := func(path string) string {
			if forTest != "" {
				if variant := path + " [" + forTest + ".test]"; exports[variant] != "" {
					return variant
				}
			}
			return path
		}
		imp := importer.ForCompiler(fset, "gc", ExportLookup(exports, resolve))
		goVersion := ""
		if p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		pkg, err := Check(fset, p.ImportPath, files, imp, goVersion)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// parseFiles parses each file (joined onto dir when relative) with
// comments retained — the directive scanner needs them.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}
