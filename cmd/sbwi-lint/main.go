// Command sbwi-lint runs the repository's static-analysis suite
// (internal/lint): mapiter, hotalloc, mergefields, walltime and
// goguard.
//
// Two modes:
//
//   - Standalone: `sbwi-lint [packages]` (default ./...) loads the
//     packages itself — including _test.go files — and prints every
//     finding, sorted globally by position so repeated runs diff
//     cleanly; `-json` switches the output to a machine-readable
//     array (file/line/column/analyzer/message). Exit status 1 if
//     anything was reported.
//
//   - Vet tool: `go vet -vettool=$(which sbwi-lint) ./...` — the
//     binary speaks cmd/go's unitchecker protocol (-V=full version
//     handshake, then one invocation per package with a vet.cfg JSON
//     file), so the suite composes with go vet's caching and package
//     graph. Exit status 2 when a package has findings.
//
// Run `sbwi-lint -help` for flags; see internal/lint's package
// documentation (or the README "Static analysis" section) for the
// analyzer catalogue and the //sbwi: directive language.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	// cmd/go probes `vettool -flags` for a JSON description of the
	// tool's analyzer flags before the first real run; this suite
	// exposes none through vet (use -analyzers in standalone mode).
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}

	versionFlag := flag.String("V", "", "print version and exit (go tool protocol; use -V=full)")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	asJSON := flag.Bool("json", false, "standalone mode: print findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: sbwi-lint [flags] [package ...]\n   or: go vet -vettool=$(which sbwi-lint) ./...\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *versionFlag != "" {
		printVersion()
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0], analyzers))
	}
	os.Exit(standalone(args, analyzers, *asJSON))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbwi-lint:", err)
	os.Exit(1)
}

// printVersion implements the `-V=full` handshake cmd/go uses to
// derive a tool ID for vet result caching. The content hash of the
// binary makes edited analyzers invalidate stale cached findings.
func printVersion() {
	name := filepath.Base(os.Args[0])
	id := "devel"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("%s version sbwi-lint-%s\n", name, id)
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.All(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := lint.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// standalone loads patterns with the internal loader and reports
// findings on stdout — all packages collected first, then sorted
// globally by position, so the output is independent of package load
// order and repeated runs diff cleanly.
func standalone(patterns []string, analyzers []*lint.Analyzer, asJSON bool) int {
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fatal(err)
	}
	var diags []lint.Diagnostic
	seen := make(map[string]bool) // a file can appear in several package variants
	for _, pkg := range pkgs {
		for _, d := range lint.RunAnalyzers(pkg, analyzers) {
			if key := d.String(); !seen[key] {
				seen[key] = true
				diags = append(diags, d)
			}
		}
	}
	lint.SortDiagnostics(diags)
	if asJSON {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sbwi-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// vetConfig is the JSON payload cmd/go writes for each package when
// this binary runs as a vettool (mirrors x/tools' unitchecker.Config).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package described by a vet.cfg file.
func unitcheck(cfgFile string, analyzers []*lint.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("%s: %v", cfgFile, err))
	}

	// cmd/go requires the facts output to exist even when empty; this
	// suite exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency visited only for facts
	}
	if strings.HasSuffix(cfg.ImportPath, ".test") {
		return 0 // synthesized test-main package
	}

	fset := token.NewFileSet()
	files, err := lint.ParseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		fatal(err)
	}
	resolve := func(path string) string {
		if mapped, ok := cfg.ImportMap[path]; ok {
			return mapped
		}
		return path
	}
	imp := importer.ForCompiler(fset, "gc", lint.ExportLookup(cfg.PackageFile, resolve))
	pkg, err := lint.Check(fset, cfg.ImportPath, files, imp, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}

	diags := lint.RunAnalyzers(pkg, analyzers)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
