package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// HotAlloc is the static twin of exec's TestHotPathAllocCeilings:
// functions marked with a `//hot:` doc-comment line (the PR 5/6 kernel
// and hash paths whose allocations per run that test pins) must keep
// their loop bodies free of the allocating constructs that historically
// regressed them:
//
//   - any fmt call (Sprintf and friends allocate AND box every
//     argument);
//   - string concatenation where an operand is visibly a string
//     (literal, string(...) conversion, or a variable whose reaching
//     definitions are string-typed expressions) — building keys with
//     `+` in a loop is the exact per-row pattern the PR 5 KeyHash
//     overhaul removed;
//   - append to a slice whose reaching definition outside the loop is
//     un-preallocated (`var s []T`, `s := []T{}`, or 2-arg make) —
//     growth reallocates O(log n) times inside the loop where a
//     capacity hint or a reused `s[:0]` buffer would not;
//   - explicit interface boxing: conversions to any/interface{} and
//     []any{...}/[]interface{}{...} literals.
//
// The un-preallocated-append check is where the reaching-definitions
// dataflow earns its keep: `out := make([]T, 0, n)` before the loop,
// `out = out[:0]` buffer reuse, and appends to a slice freshly made
// each iteration are all fine, and the analyzer proves which case it
// is looking at instead of guessing from the nearest assignment.
//
// The marker form is `//hot:<why this path is hot>` on the function's
// doc comment, e.g. `//hot:per-probe-row join path, alloc-gated`. No
// space after the colon: that is the shape gofmt preserves verbatim
// (like //go:build); a spaced variant gets reformatted to `// hot:`,
// which isHotFunc also accepts so a stray gofmt cannot silently
// disarm a marker.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "loops in functions marked `//hot:` must not allocate: no fmt " +
		"calls, string concatenation, un-preallocated append growth, or " +
		"explicit interface boxing",
	Run: runHotAlloc,
}

// hotMarker is matched against the comment text with the leading
// slashes and any space stripped, so `//hot:x` and gofmt's spaced
// rendering `// hot: x` both count.
const hotMarker = "hot:"

func isHotComment(text string) bool {
	rest, ok := strings.CutPrefix(text, "//")
	if !ok {
		return false
	}
	return strings.HasPrefix(strings.TrimLeft(rest, " \t"), hotMarker)
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotFunc(fn) {
				continue
			}
			checkHotFunc(pass, f, fn)
		}
	}
	return nil
}

func isHotFunc(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if isHotComment(c.Text) {
			return true
		}
	}
	return false
}

// hotLoop is one loop inside a hot function, with its position span so
// defs can be classified as inside/outside.
type hotLoop struct {
	body       *ast.BlockStmt
	start, end token.Pos
}

func checkHotFunc(pass *Pass, file *ast.File, fn *ast.FuncDecl) {
	fmtName := importName(file, "fmt")
	graphs := cfgFuncs(fn)
	// One reaching-defs analysis per graph (closures separately).
	reach := map[ast.Node]*reachAnalysis{}
	for node, g := range graphs {
		reach[node] = reachingDefs(g)
	}

	// Collect loops per graph owner: loops in the main body belong to
	// fn's graph; loops inside a closure to that closure's graph.
	var loops []struct {
		owner ast.Node
		loop  hotLoop
	}
	var visit func(owner ast.Node, root ast.Node)
	visit = func(owner ast.Node, root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && n != root {
				visit(lit, lit.Body)
				return false
			}
			var body *ast.BlockStmt
			switch x := n.(type) {
			case *ast.ForStmt:
				body = x.Body
			case *ast.RangeStmt:
				body = x.Body
			default:
				return true
			}
			loops = append(loops, struct {
				owner ast.Node
				loop  hotLoop
			}{owner, hotLoop{body: body, start: n.Pos(), end: n.End()}})
			return true
		})
	}
	visit(fn, fn.Body)

	for _, l := range loops {
		checkHotLoop(pass, fmtName, l.loop, reach[l.owner])
	}
}

func checkHotLoop(pass *Pass, fmtName string, loop hotLoop, ra *reachAnalysis) {
	forEachNode(loop.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fmtName, x, loop, ra)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && (isStringy(x.X, n, ra) || isStringy(x.Y, n, ra)) {
				pass.Reportf(x.Pos(),
					"string concatenation in a //hot: loop allocates per iteration; "+
						"hash or append to a reused []byte instead")
			}
		case *ast.CompositeLit:
			if isAnySliceType(x.Type) {
				pass.Reportf(x.Pos(),
					"[]any literal in a //hot: loop boxes every element; use typed values")
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, fmtName string, call *ast.CallExpr, loop hotLoop, ra *reachAnalysis) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && fmtName != "" && id.Name == fmtName {
			pass.Reportf(call.Pos(),
				"fmt.%s in a //hot: loop allocates and boxes its arguments; "+
					"move formatting out of the loop or append to a byte buffer", fun.Sel.Name)
		}
	case *ast.Ident:
		switch fun.Name {
		case "append":
			checkHotAppend(pass, call, loop, ra)
		case "any":
			// shadowable, but `any(x)` conversion in a hot loop is boxing.
			pass.Reportf(call.Pos(), "any(...) conversion in a //hot: loop boxes its operand")
		}
	case *ast.InterfaceType:
		pass.Reportf(call.Pos(), "interface{}(...) conversion in a //hot: loop boxes its operand")
	}
}

// checkHotAppend flags appends (growing inside the loop) to slices
// whose reaching definition outside the loop carries no capacity.
func checkHotAppend(pass *Pass, call *ast.CallExpr, loop hotLoop, ra *reachAnalysis) {
	if len(call.Args) == 0 {
		return
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	// Find the CFG statement containing this call to query reaching
	// defs: the analysis keyed states by statement; walk defs of the
	// target name across all recorded statements' states is wrong, so
	// instead use the loop-entry approximation: defs of the name that
	// reach any statement inside the loop span.
	for _, d := range ra.defsOf(containingStmt(ra, call, target.Name), target.Name) {
		if d.node != nil && d.node.Pos() >= loop.start && d.node.End() <= loop.end {
			// Defined inside the loop: either the self-append (fine —
			// growth amortizes against the outer def's capacity) or a
			// fresh per-iteration slice (a different smell, not this one).
			continue
		}
		if unpreallocated(d.rhs) {
			pass.Reportf(call.Pos(),
				"append grows %q inside a //hot: loop but its definition has no capacity "+
					"(use make(..., 0, n) or reuse a buffer with %s[:0])", target.Name, target.Name)
			return
		}
	}
}

// containingStmt finds the recorded CFG statement whose span contains
// the expression — reaching-def states are keyed per statement.
func containingStmt(ra *reachAnalysis, e ast.Expr, name string) ast.Node {
	var best ast.Node
	for s := range ra.at {
		if s.Pos() <= e.Pos() && e.End() <= s.End() {
			if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
				best = s
			}
		}
	}
	return best
}

// unpreallocated reports whether a defining expression yields a slice
// with no useful capacity: nil (`var s []T`), an empty literal, or a
// make without a capacity argument.
func unpreallocated(rhs ast.Expr) bool {
	switch x := rhs.(type) {
	case nil:
		return true // var s []T
	case *ast.CompositeLit:
		return len(x.Elts) == 0 && isSliceType(x.Type)
	case *ast.CallExpr:
		id, ok := x.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(x.Args) == 0 {
			return false
		}
		if !isSliceType(x.Args[0]) {
			return false
		}
		return len(x.Args) < 3 // make([]T) illegal anyway; make([]T, n) grows on append
	}
	return false
}

func isSliceType(e ast.Expr) bool {
	_, ok := e.(*ast.ArrayType)
	return ok
}

func isAnySliceType(e ast.Expr) bool {
	at, ok := e.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return false
	}
	switch elt := at.Elt.(type) {
	case *ast.Ident:
		return elt.Name == "any"
	case *ast.InterfaceType:
		return len(elt.Methods.List) == 0
	}
	return false
}

// isStringy reports whether an expression is visibly a string: a
// string literal, a string(...) conversion, or an identifier whose
// reaching definitions are all stringy.
func isStringy(e ast.Expr, at ast.Node, ra *reachAnalysis) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Kind == token.STRING
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "string" {
			return true
		}
	case *ast.BinaryExpr:
		return x.Op == token.ADD && (isStringy(x.X, at, ra) || isStringy(x.Y, at, ra))
	case *ast.Ident:
		defs := ra.defsOf(containingStmt(ra, e, x.Name), x.Name)
		if len(defs) == 0 {
			return false
		}
		for _, d := range defs {
			if d.rhs == nil {
				return false
			}
			if lit, ok := d.rhs.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				continue
			}
			return false
		}
		return true
	}
	return false
}
