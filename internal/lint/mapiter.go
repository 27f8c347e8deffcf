package lint

import (
	"go/ast"
	"go/types"
)

// MapIter flags `for … range` over a map in a determinism-critical
// package. Go randomizes map iteration order per run, so any map walk
// whose effect can reach modeled state, merged statistics, scheduling
// decisions or output ordering makes per-launch results
// host-execution dependent — the exact property the golden-stats and
// cross-worker determinism suites exist to protect. Those runtime
// suites only catch an order leak when a randomized iteration happens
// to land in a different order on an exercised path; this analyzer
// rejects the construct outright, statically.
//
// Iterations whose consumer is provably order-insensitive (counting,
// set-membership collection that is sorted before use, …) are waived
// with an `//sbwi:unordered <justification>` comment on the range
// statement or the line above it.
var MapIter = &Analyzer{
	Name: "mapiter",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) {
	if !DeterminismCritical(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		dirs := directivesOf(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.suppress(dirs, DirUnordered, rs.Pos()) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map %s has nondeterministic iteration order in determinism-critical package %s; iterate sorted keys or annotate //sbwi:unordered <why>",
				types.TypeString(t, types.RelativeTo(pass.Pkg)), pass.Path)
			return true
		})
	}
}
