package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc checks functions annotated `//sbwi:hotpath` (in their doc
// comment) for allocation-causing constructs. The simulator's
// steady-state issue path is required to run allocation-free —
// TestSteadyStateZeroAllocs counts 0 mallocs over a window of steps at
// runtime — but that test only measures the configurations it runs; a
// new map literal on a rarely-taken branch of the hot loop (or on the
// device's L2 port, which no zero-alloc test drives) slips through
// until a profile regresses. This analyzer rejects the construct
// statically instead.
//
// Flagged constructs: map/slice composite literals, make and new,
// append (may grow), capturing closures, go statements, calls into
// fmt, string concatenation and string<->[]byte/[]rune conversions,
// and concrete values converted to interface types (boxing).
//
// Constructs that are allocation-free in context — an append into a
// preallocated scratch buffer, a closure the escape analyzer keeps on
// the stack — are waived with `//sbwi:alloc-ok <justification>` on the
// offending line; the zero-alloc runtime test remains the
// cross-check that the justification holds.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Files {
		if pass.isTestFile(file) {
			continue
		}
		dirs := directivesOf(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, DirHotpath) {
				continue
			}
			c := &hotallocChecker{pass: pass, dirs: dirs, fn: fd.Name.Name}
			sig, _ := pass.TypeOf(fd.Name).(*types.Signature)
			c.checkBody(fd.Body, sig)
		}
	}
}

type hotallocChecker struct {
	pass *Pass
	dirs *fileDirectives
	fn   string
}

func (c *hotallocChecker) report(pos token.Pos, format string, args ...any) {
	if c.pass.suppress(c.dirs, DirAllocOK, pos) {
		return
	}
	args = append(args, c.fn)
	c.pass.Reportf(pos, format+" in //sbwi:hotpath function %s", args...)
}

// checkBody walks one function body; sig is that function's signature
// (needed to judge boxing at return statements). Nested function
// literals are flagged once, then walked with their own signature.
func (c *hotallocChecker) checkBody(body *ast.BlockStmt, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := c.capturedVar(n); capt != "" {
				c.report(n.Pos(), "closure captures %q and may be heap-allocated", capt)
			}
			litSig, _ := c.pass.TypeOf(n).(*types.Signature)
			c.checkBody(n.Body, litSig)
			return false
		case *ast.CompositeLit:
			c.checkCompositeLit(n)
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement allocates a goroutine")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.pass.TypeOf(n)) {
				c.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(c.pass.TypeOf(n.Lhs[0])) {
				c.report(n.Pos(), "string concatenation allocates")
			}
			c.checkAssign(n)
		case *ast.ValueSpec:
			c.checkValueSpec(n)
		case *ast.ReturnStmt:
			c.checkReturn(n, sig)
		}
		return true
	})
}

func (c *hotallocChecker) checkCompositeLit(lit *ast.CompositeLit) {
	t := c.pass.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates")
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates")
	}
}

func (c *hotallocChecker) checkCall(call *ast.CallExpr) {
	// Builtins: make, new, append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new may heap-allocate")
			case "append":
				c.report(call.Pos(), "append may grow and allocate")
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}

	tfun := c.pass.TypeOf(call.Fun)
	sig, ok := tfun.(*types.Signature)
	if !ok {
		return
	}

	// Calls into fmt allocate (formatting state, boxing, output).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := c.pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			c.report(call.Pos(), "call to fmt.%s allocates", obj.Name())
			return
		}
	}

	// Boxing: a concrete argument passed to an interface parameter.
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.checkBoxed(arg, pt, "argument")
	}
}

func (c *hotallocChecker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := c.pass.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	switch {
	case types.IsInterface(to.Underlying()):
		c.checkBoxed(call.Args[0], to, "conversion operand")
	case isString(to) && isByteOrRuneSlice(from):
		c.report(call.Pos(), "slice-to-string conversion allocates")
	case isByteOrRuneSlice(to) && isString(from):
		c.report(call.Pos(), "string-to-slice conversion allocates")
	}
}

func (c *hotallocChecker) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value form: no conversion happens per operand
	}
	for i, lhs := range as.Lhs {
		c.checkBoxed(as.Rhs[i], c.pass.TypeOf(lhs), "assigned value")
	}
}

func (c *hotallocChecker) checkValueSpec(vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, name := range vs.Names {
		c.checkBoxed(vs.Values[i], c.pass.TypeOf(name), "assigned value")
	}
}

func (c *hotallocChecker) checkReturn(ret *ast.ReturnStmt, sig *types.Signature) {
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		c.checkBoxed(res, sig.Results().At(i).Type(), "returned value")
	}
}

// checkBoxed reports expr if assigning it to a destination of type dst
// boxes a concrete value into an interface.
func (c *hotallocChecker) checkBoxed(expr ast.Expr, dst types.Type, what string) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	tv, ok := c.pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || types.IsInterface(tv.Type.Underlying()) {
		return // nil or already an interface: no box
	}
	c.report(expr.Pos(), "%s of concrete type %s boxed into %s may allocate",
		what,
		types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)),
		types.TypeString(dst, types.RelativeTo(c.pass.Pkg)))
}

// capturedVar returns the name of a variable the function literal
// captures from an enclosing scope, or "" if it captures nothing.
// Package-level variables are shared, not captured.
func (c *hotallocChecker) capturedVar(lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != c.pass.Pkg {
			return true
		}
		if v.Parent() == c.pass.Pkg.Scope() {
			return true // package-level: shared, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
