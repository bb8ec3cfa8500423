package lint

import (
	"go/ast"
)

// SlotDiscipline enforces the internal/metrics write discipline inside
// the executor's fork/join regions. ex.parallel(n, fn) runs fn(i)
// concurrently for each partition, and the per-operator metric slots
// are the lock-free mechanism that keeps those writers from racing:
// the coordinator calls op.Grow(n) once, each worker writes only
// op.Slot(i) for its own partition index i, and the coordinator reads
// Total() / adds AddWall() after the join. Violations are data races
// that go test -race only catches if the racing schedule happens to
// fire; this analyzer catches them at lint time:
//
//   - Grow / Total / AddWall called inside a parallel closure
//     (resizing or folding the slot slice while workers write to it);
//   - Slot(x) where x is not the closure's own partition-index
//     parameter (two workers sharing one slot is a silent race AND
//     double-counts rows in EXPLAIN ANALYZE).
var SlotDiscipline = &Analyzer{
	Name: "slotdiscipline",
	Doc: "inside ex.parallel closures, per-partition metric slots must be " +
		"indexed by the closure's partition parameter, and Grow/Total/AddWall " +
		"are coordinator-only",
	Run: runSlotDiscipline,
}

var coordinatorOnly = map[string]string{
	"Grow":    "resizes the slot slice while workers hold slot pointers",
	"Total":   "folds all slots while workers are still writing them",
	"AddWall": "accumulates coordinator wall time; calling it per-worker double-counts",
}

func runSlotDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParallel(call) {
				return true
			}
			lit, ok := call.Args[1].(*ast.FuncLit)
			if !ok || len(lit.Type.Params.List) == 0 || len(lit.Type.Params.List[0].Names) == 0 {
				return true
			}
			checkClosure(pass, lit.Body, lit.Type.Params.List[0].Names[0].Name)
			return true
		})
	}
	return nil
}

// isParallel reports whether call is a fan-out x.parallel(n, fn).
func isParallel(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "parallel" && len(call.Args) == 2
}

// checkClosure walks one parallel worker body. Nested parallel
// closures are skipped here — the outer Inspect visits
// them as their own region with their own index parameter.
func checkClosure(pass *Pass, body ast.Node, indexParam string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isParallel(call) {
			return false
		}
		_, method := selectorCall(call)
		if why, bad := coordinatorOnly[method]; bad {
			pass.Reportf(call.Pos(),
				"%s called inside a parallel closure: %s; call it from the coordinator", method, why)
		}
		if method == "Slot" && len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); !ok || id.Name != indexParam {
				pass.Reportf(call.Pos(),
					"Slot argument must be this closure's partition index %q; "+
						"any other index races with the goroutine that owns that slot", indexParam)
			}
		}
		return true
	})
}
