package lint

import (
	"go/ast"
	"strings"
)

// CtxFlow enforces cancellation discipline in the execution and
// service layers: an unbounded loop (`for { ... }` with no condition)
// in a function reachable from the package's Run/serve entry points
// must observe context cancellation, directly or through a callee.
// Without this, a canceled query keeps pulling batches until its input
// is exhausted — cancellation latency becomes O(input), not O(batch) —
// and a wedged source pins a pool worker forever.
//
// "Observes cancellation" means the loop body (or a same-package
// callee, computed as a fixpoint over the package call graph) contains
// one of:
//
//   - ctx.Done() / ctx.Err() on an identifier or field named ctx
//     (any receiver path ending in "ctx" counts: ex.ctx, f.ctx, ...);
//   - a call to a same-package function that itself observes.
//
// The call graph is syntactic: edges are drawn by callee name, so all
// methods sharing a name are merged. Merging is handled
// conservatively in both directions — a name is reachable if any
// function bearing it is reachable, and a called name only counts as
// observing when every function bearing it observes.
//
// Seeds are the layer entry points: exported functions named Run* plus
// HTTP entry points (ServeHTTP, Handler, handle*). Loops that are
// structurally bounded (walking a plan tree, draining a fixed chain)
// should carry a reasoned `//lint:ignore ctxflow <why bounded>` on the
// `for` line.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "unbounded `for {}` loops in internal/exec and internal/service " +
		"code reachable from Run must observe context cancellation " +
		"(ctx.Done/ctx.Err or a callee that checks)",
	Run: runCtxFlow,
}

// ctxFlowPkgs scopes the analyzer: execution and service layers only.
var ctxFlowPkgs = []string{"internal/exec", "internal/service"}

func runCtxFlow(pass *Pass) error {
	inScope := false
	for _, p := range ctxFlowPkgs {
		if strings.HasSuffix(pass.Path, p) {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}

	fns := collectFuncs(pass.Files)
	observes := observingFuncs(fns)
	reach := reachableFromRun(fns)

	for name, decls := range fns {
		if !reach[name] {
			continue
		}
		for _, fn := range decls {
			if fn.Body == nil {
				continue
			}
			fnName := name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok || loop.Cond != nil {
					return true
				}
				if loopObserves(loop.Body, observes) {
					return true
				}
				pass.Reportf(loop.Pos(),
					"unbounded for-loop in %s (reachable from Run) never observes context cancellation; "+
						"check ctx between iterations or call a helper that does", fnName)
				return true
			})
		}
	}
	return nil
}

// collectFuncs indexes the package's function declarations by bare
// name; methods of different receivers share a key.
func collectFuncs(files []*ast.File) map[string][]*ast.FuncDecl {
	out := map[string][]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				out[fn.Name.Name] = append(out[fn.Name.Name], fn)
			}
		}
	}
	return out
}

// calleeNames lists the names of functions/methods called inside n,
// including calls inside nested function literals (a closure defined
// here is almost always invoked by the spawning construct it is passed
// to — ex.parallel, pool.Run — so its callees are reachable too).
func calleeNames(n ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			out[fun.Name] = true
		case *ast.SelectorExpr:
			out[fun.Sel.Name] = true
		}
		return true
	})
	return out
}

// directlyObservesCtx reports whether n syntactically checks a context:
// a call or receive on <path>.Done()/<path>.Err() where the path's last
// element is named ctx.
func directlyObservesCtx(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Done" && sel.Sel.Name != "Err" {
			return true
		}
		path := renderPath(sel.X)
		if path == "ctx" || strings.HasSuffix(path, ".ctx") || strings.HasSuffix(path, "Ctx") {
			found = true
			return false
		}
		return true
	})
	return found
}

// observingFuncs computes the fixpoint set of function NAMES that
// observe cancellation. A name observes only if every function bearing
// it observes (directly or via an observing callee name) — a call site
// cannot tell same-named methods apart, so partial coverage earns no
// credit.
func observingFuncs(fns map[string][]*ast.FuncDecl) map[string]bool {
	declObserves := map[*ast.FuncDecl]bool{}
	for _, decls := range fns {
		for _, fn := range decls {
			if fn.Body != nil && directlyObservesCtx(fn.Body) {
				declObserves[fn] = true
			}
		}
	}
	nameObserves := func() map[string]bool {
		out := map[string]bool{}
		for name, decls := range fns {
			all := len(decls) > 0
			for _, fn := range decls {
				if !declObserves[fn] {
					all = false
					break
				}
			}
			if all {
				out[name] = true
			}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		byName := nameObserves()
		for _, decls := range fns {
			for _, fn := range decls {
				if declObserves[fn] || fn.Body == nil {
					continue
				}
				for callee := range calleeNames(fn.Body) {
					if byName[callee] {
						declObserves[fn] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return nameObserves()
}

// reachableFromRun walks the name-based call graph from the package's
// entry points.
func reachableFromRun(fns map[string][]*ast.FuncDecl) map[string]bool {
	reach := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		decls, ok := fns[name]
		if !ok || reach[name] {
			return
		}
		reach[name] = true
		for _, fn := range decls {
			if fn.Body == nil {
				continue
			}
			for callee := range calleeNames(fn.Body) {
				visit(callee)
			}
		}
	}
	for name := range fns {
		if strings.HasPrefix(name, "Run") || name == "ServeHTTP" || name == "Handler" ||
			strings.HasPrefix(name, "handle") {
			visit(name)
		}
	}
	return reach
}

// loopObserves reports whether a loop body observes cancellation
// directly or through an observing callee.
func loopObserves(body *ast.BlockStmt, observes map[string]bool) bool {
	if directlyObservesCtx(body) {
		return true
	}
	for callee := range calleeNames(body) {
		if observes[callee] {
			return true
		}
	}
	return false
}
