package lint

import (
	"go/ast"
	"go/types"
)

// WallTime forbids wall-clock readings and process-global randomness
// in simulation-core packages. Modeled cycles must be a pure function
// of the configuration and the launch: a time.Now that reaches a
// cost estimate, a timeout that truncates a run, or a draw from the
// (randomly seeded since Go 1.20) global math/rand source would make
// two identical submissions diverge — a bug no golden fixture can pin
// because the fixture itself was recorded under one particular clock.
// Explicitly seeded private PRNGs (rand.New(rand.NewSource(42))) are
// fine and are not flagged.
//
// _test.go files are exempt: benchmarks and timeout plumbing
// legitimately read the wall clock. A non-test use that cannot reach
// modeled state (logging, profiling hooks) is waived with
// `//sbwi:wallclock-ok <justification>`.
var WallTime = &Analyzer{
	Name: "walltime",
	Run:  runWallTime,
}

// wallClockFuncs are the forbidden package-level functions, keyed by
// package path.
var wallClockFuncs = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"Sleep":     "blocks on the wall clock",
		"After":     "fires on the wall clock",
		"Tick":      "fires on the wall clock",
		"NewTimer":  "fires on the wall clock",
		"NewTicker": "fires on the wall clock",
		"AfterFunc": "fires on the wall clock",
	},
	"math/rand": {
		"Seed":        "reseeds the process-global source",
		"Int":         "draws from the process-global source",
		"Intn":        "draws from the process-global source",
		"Int31":       "draws from the process-global source",
		"Int31n":      "draws from the process-global source",
		"Int63":       "draws from the process-global source",
		"Int63n":      "draws from the process-global source",
		"Uint32":      "draws from the process-global source",
		"Uint64":      "draws from the process-global source",
		"Float32":     "draws from the process-global source",
		"Float64":     "draws from the process-global source",
		"NormFloat64": "draws from the process-global source",
		"ExpFloat64":  "draws from the process-global source",
		"Perm":        "draws from the process-global source",
		"Shuffle":     "draws from the process-global source",
	},
}

func runWallTime(pass *Pass) {
	if !DeterminismCritical(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		if pass.isTestFile(file) {
			continue
		}
		dirs := directivesOf(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only package-qualified calls (time.Now): methods with the
			// same name on an explicitly seeded *rand.Rand are fine.
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if _, ok := pass.Info.Uses[x].(*types.PkgName); !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			funcs := wallClockFuncs[obj.Pkg().Path()]
			if funcs == nil {
				return true
			}
			why, banned := funcs[obj.Name()]
			if !banned {
				return true
			}
			if pass.suppress(dirs, DirWallclockOK, sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s %s; wall-clock state must not leak into modeled cycles in simulation-core package %s (use a seeded private PRNG or annotate //sbwi:wallclock-ok <why>)",
				obj.Pkg().Path(), obj.Name(), why, pass.Path)
			return true
		})
	}
}
