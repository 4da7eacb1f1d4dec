// Package detrand implements the damcvet analyzer enforcing the
// repo's determinism contract: kernel results must be byte-identical
// for any Workers count and figure CSVs byte-identical for any
// -sweepworkers value (ROADMAP, standing contracts). Inside the
// contract packages that means no wall-clock reads, no global
// math/rand state, and no result-affecting writes made in map
// iteration order.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"damulticast/internal/vet/analysis"
)

// contractPackages are the packages whose outputs feed golden digests
// and byte-compared figure CSVs. xrand is deliberately absent: it is
// the seeded-randomness utility layer and wraps math/rand on purpose.
var contractPackages = map[string]bool{
	"damulticast/internal/simnet":   true,
	"damulticast/internal/sim":      true,
	"damulticast/internal/core":     true,
	"damulticast/internal/baseline": true,
	"damulticast/internal/workload": true,
	"damulticast/internal/scale":    true,
	"damulticast/internal/scenario": true,
}

// Analyzer is the detrand checker.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "flags nondeterminism sources in determinism-contract packages: " +
		"time.Now/Since/Until, global math/rand state, and map iteration " +
		"with iteration-order-dependent writes",
	AppliesTo: func(pkgPath string) bool { return contractPackages[pkgPath] },
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkCalls(pass, f)
	}
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.TypeOf(rs.X); t == nil || !isMap(t) {
			return true
		}
		checkMapRange(pass, rs, stack)
		return true
	})
	return nil
}

// checkCalls flags wall-clock reads and global math/rand use. Methods
// on a seeded *rand.Rand are the supported idiom and stay clean; only
// the package-level functions (shared process-global state, seeded
// from the clock) are findings.
func checkCalls(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods never touch the global generators
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(call.Pos(), "time.%s in determinism-contract package %s: results must not depend on the wall clock (derive from round/tick counters, or annotate //damcvet:allow detrand(reason))", fn.Name(), pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			if strings.HasPrefix(fn.Name(), "New") {
				return true // explicit-seed constructors are the supported idiom
			}
			pass.Reportf(call.Pos(), "global %s.%s in determinism-contract package %s: draws from the process-global generator are scheduling-dependent; use a seeded *rand.Rand stream (xrand.NewStream/SeedFor) or annotate //damcvet:allow detrand(reason)", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
		}
		return true
	})
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange flags a range over a map whose body performs
// iteration-order-dependent writes to state declared outside the loop.
// Order-independent writes stay clean: counter increments, commutative
// integer accumulation, and writes keyed by the loop variables (each
// key owns its slot). The sorted-keys idiom — collect keys with
// append, sort the slice after the loop — is recognized and clean.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	inLoop := func(obj types.Object) bool {
		return obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
	}
	// usesLoopState reports whether e reads the key/value variables or
	// anything else declared inside the loop (per-iteration state).
	usesLoopState := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; inLoop(obj) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	type finding struct {
		pos  token.Pos
		what string
	}
	var findings []finding
	// appendCollects maps an outer slice variable to the position of
	// its order-dependent append, pending the sorted-after exemption.
	appendCollects := map[types.Object]token.Pos{}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			findings = append(findings, finding{st.Arrow, "channel send"})
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				} else {
					rhs = st.Rhs[0] // multi-value call: treat each LHS as fed by it
				}
				root := rootIdent(lhs)
				if root == nil {
					continue
				}
				obj := pass.TypesInfo.Uses[root]
				if obj == nil || inLoop(obj) {
					continue
				}
				if !usesLoopState(rhs) && !usesLoopState(lhs) {
					continue // idempotent across iterations
				}
				// Writes keyed by loop state address a distinct slot
				// per iteration: order-independent.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && usesLoopState(ix.Index) {
					continue
				}
				// s = append(s, ...loop state...) is order-dependent
				// unless the slice is sorted after the loop.
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(pass, call, "append") {
					appendCollects[obj] = st.Pos()
					continue
				}
				if commutativeOp(pass, st.Tok, lhs) {
					continue
				}
				findings = append(findings, finding{st.Pos(), "write to " + root.Name})
			}
		}
		return true
	})

	// Sorted-after exemption for append collectors.
	for obj, pos := range appendCollects {
		if !sortedAfter(pass, rs, stack, obj) {
			findings = append(findings, finding{pos, "append to " + obj.Name() + " (keys not sorted after the loop)"})
		}
	}

	for _, f := range findings {
		pass.Reportf(f.pos, "iteration-order-dependent %s inside range over map: map order is randomized per run, breaking byte-identical results; iterate sorted keys or annotate //damcvet:allow detrand(reason)", f.what)
	}
}

// commutativeOp reports whether an op-assign write commutes across
// iterations for the written type: integer +=, *=, |=, &=, ^= do
// (order never changes the result); float accumulation, string
// concatenation, shifts and division do not.
func commutativeOp(pass *analysis.Pass, tok token.Token, lhs ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	t := pass.TypesInfo.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsInteger != 0
}

// sortedAfter reports whether obj is passed to a sort call in the
// statements that follow rs in its enclosing block.
func sortedAfter(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node, obj types.Object) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	after := false
	for _, st := range block.List {
		if st == rs || (rs.Pos() >= st.Pos() && rs.End() <= st.End()) {
			after = true
			continue
		}
		if !after {
			continue
		}
		sorted := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || sorted {
				return !sorted
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if id := rootIdent(arg); id != nil && pass.TypesInfo.Uses[id] == obj {
					sorted = true
				}
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}

// rootIdent unwraps selectors, indexes, stars and parens down to the
// base identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
