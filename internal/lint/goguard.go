package lint

import (
	"go/ast"
	"strings"
)

// GoGuard enforces the device layer's panic-isolation contract: every
// goroutine the device package spawns must run under the guarded
// panic wrapper, so a panicking simulation fails only its owning
// launch's future instead of crashing the whole process. A raw `go`
// statement is exactly the hole that contract cannot tolerate — a
// panic on an unguarded goroutine bypasses every recover boundary the
// stream/suite plumbing installs and takes the process down.
//
// The check is structural: the spawned expression must be a call of
// the closure returned by guarded, i.e. `go guarded(op, fn)()`.
// The near-miss `go guarded(op, fn)` — spawning the wrapper
// constructor itself, which builds the protected closure and then
// discards it without ever running fn — gets its own diagnostic,
// because it type-checks and "works" right up until the first panic.
//
// _test.go files are exempt: test helper goroutines fail the test via
// the testing package's own machinery. There is no waiver: no device
// goroutine has needed one.
var GoGuard = &Analyzer{
	Name: "goguard",
	Run:  runGoGuard,
}

// guardWrapperName is the device package's panic-isolation wrapper
// (internal/device/guard.go).
const guardWrapperName = "guarded"

// deviceLayer reports whether the package at path is the device
// layer whose goroutines must be panic-guarded. External test
// packages ("…/device_test") inherit the obligation.
func deviceLayer(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == "internal/device" || strings.HasSuffix(path, "/internal/device")
}

func runGoGuard(pass *Pass) {
	if !deviceLayer(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		if pass.isTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if isGuardCall(ast.Unparen(g.Call.Fun)) {
				return true // go guarded(...)(): the contract's shape
			}
			if isGuardIdent(ast.Unparen(g.Call.Fun)) {
				pass.Reportf(g.Pos(),
					"go %s(...) spawns the wrapper without invoking it — the protected closure is built and discarded; call it: go %s(...)()",
					guardWrapperName, guardWrapperName)
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine in device package %s must run under the panic guard: go %s(op, fn)()",
				pass.Path, guardWrapperName)
			return true
		})
	}
}

// isGuardCall reports whether e is a call of the guard wrapper —
// the inner call of `go guarded(...)()`.
func isGuardCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && isGuardIdent(ast.Unparen(call.Fun))
}

// isGuardIdent reports whether e names the package-local guard
// wrapper function.
func isGuardIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == guardWrapperName
}
