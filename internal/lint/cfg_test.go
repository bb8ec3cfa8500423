package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses a single function declaration from source and
// returns it with its fileset.
func parseFunc(t *testing.T, src string) (*token.FileSet, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", "package p\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return fset, fn
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// reachableBlocks counts blocks reachable from entry.
func reachableBlocks(g *cfg) int {
	seen := map[*cfgBlock]bool{}
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	visit(g.entry)
	return len(seen)
}

func TestCFGStraightLine(t *testing.T) {
	_, fn := parseFunc(t, `func f() { x := 1; y := x; _ = y }`)
	g := buildCFG(fn.Body)
	if got := len(g.entry.stmts); got != 3 {
		t.Fatalf("entry block stmts = %d, want 3", got)
	}
	if len(g.entry.succs) != 1 || g.entry.succs[0] != g.exit {
		t.Fatalf("straight-line body should fall into exit")
	}
}

func TestCFGIfElseJoins(t *testing.T) {
	_, fn := parseFunc(t, `func f(c bool) int {
		x := 0
		if c {
			x = 1
		} else {
			x = 2
		}
		return x
	}`)
	g := buildCFG(fn.Body)
	// entry(x:=0, c) -> then, else; both -> join(return) -> exit.
	if len(g.entry.succs) != 2 {
		t.Fatalf("if dispatch should have 2 successors, got %d", len(g.entry.succs))
	}
	if reachableBlocks(g) < 5 {
		t.Fatalf("expected at least 5 reachable blocks, got %d", reachableBlocks(g))
	}
}

func TestCFGForLoopBackedge(t *testing.T) {
	_, fn := parseFunc(t, `func f(n int) {
		for i := 0; i < n; i++ {
			_ = i
		}
	}`)
	g := buildCFG(fn.Body)
	// Find the head block (holds the condition) and check it has both a
	// body successor and an after successor, and that the body leads
	// back around.
	var head *cfgBlock
	for _, b := range g.blocks {
		for _, s := range b.stmts {
			if be, ok := s.(ast.Expr); ok {
				if bin, ok2 := be.(*ast.BinaryExpr); ok2 && bin.Op == token.LSS {
					head = b
				}
			}
		}
	}
	if head == nil {
		t.Fatal("no condition block found")
	}
	if len(head.succs) != 2 {
		t.Fatalf("loop head should have 2 successors, got %d", len(head.succs))
	}
	// One of head's transitive successors must reach head again.
	seen := map[*cfgBlock]bool{}
	var reaches func(b *cfgBlock) bool
	reaches = func(b *cfgBlock) bool {
		if b == head {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.succs {
			if reaches(s) {
				return true
			}
		}
		return false
	}
	if !reaches(head.succs[0]) && !reaches(head.succs[1]) {
		t.Fatal("no backedge to loop head")
	}
}

func TestCFGInfiniteLoopNoExitEdge(t *testing.T) {
	_, fn := parseFunc(t, `func f() {
		for {
			g()
		}
	}`)
	g := buildCFG(fn.Body)
	// exit must be unreachable from entry (no break, no cond).
	seen := map[*cfgBlock]bool{}
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	visit(g.entry)
	if seen[g.exit] {
		t.Fatal("infinite loop should not reach exit")
	}
}

func TestCFGBreakReachesAfter(t *testing.T) {
	_, fn := parseFunc(t, `func f(c bool) {
		for {
			if c {
				break
			}
		}
		done()
	}`)
	g := buildCFG(fn.Body)
	seen := map[*cfgBlock]bool{}
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	visit(g.entry)
	if !seen[g.exit] {
		t.Fatal("break should make exit reachable")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	_, fn := parseFunc(t, `func f(xs []int) {
	outer:
		for _, x := range xs {
			for {
				if x > 0 {
					break outer
				}
				continue outer
			}
		}
		done()
	}`)
	g := buildCFG(fn.Body)
	if reachableBlocks(g) < 4 {
		t.Fatalf("labeled loops built too few blocks: %d", reachableBlocks(g))
	}
	// Must reach exit via the labeled break.
	seen := map[*cfgBlock]bool{}
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	visit(g.entry)
	if !seen[g.exit] {
		t.Fatal("labeled break should reach function exit")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	_, fn := parseFunc(t, `func f(x int) {
		switch x {
		case 1:
			a()
			fallthrough
		case 2:
			b()
		default:
			c()
		}
	}`)
	g := buildCFG(fn.Body)
	find := func(name string) *cfgBlock {
		for _, blk := range g.blocks {
			for _, s := range blk.stmts {
				if es, ok := s.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
							return blk
						}
					}
				}
			}
		}
		return nil
	}
	ab, bb := find("a"), find("b")
	if ab == nil || bb == nil {
		t.Fatal("case bodies not found in CFG")
	}
	// a()'s block must flow into b()'s block via the fallthrough edge.
	for _, s := range ab.succs {
		if s == bb {
			return
		}
	}
	t.Errorf("fallthrough edge from case 1 to case 2 missing (succs=%d)", len(ab.succs))
}

func TestLockFlowBranchesIntersect(t *testing.T) {
	_, fn := parseFunc(t, `func f(c bool) {
		if c {
			mu.Lock()
		}
		touch()
		mu.Lock()
		touch2()
		mu.Unlock()
		touch3()
	}`)
	g := buildCFG(fn.Body)
	la := lockFlow(g, lockState{})
	stmts := map[string]ast.Node{}
	for _, b := range g.blocks {
		for _, s := range b.stmts {
			if es, ok := s.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						stmts[id.Name] = s
					}
				}
			}
		}
	}
	if la.heldAt(stmts["touch"], "mu") {
		t.Error("mu should NOT be held at touch (only one branch locked)")
	}
	if !la.heldAt(stmts["touch2"], "mu") {
		t.Error("mu should be held at touch2")
	}
	if la.heldAt(stmts["touch3"], "mu") {
		t.Error("mu should not be held after Unlock")
	}
}

func TestLockFlowDeferKeepsHeld(t *testing.T) {
	_, fn := parseFunc(t, `func f() {
		mu.Lock()
		defer mu.Unlock()
		touch()
	}`)
	g := buildCFG(fn.Body)
	la := lockFlow(g, lockState{})
	var touch ast.Node
	for _, b := range g.blocks {
		for _, s := range b.stmts {
			if es, ok := s.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "touch" {
						touch = s
					}
				}
			}
		}
	}
	if !la.heldAt(touch, "mu") {
		t.Error("deferred unlock must keep mu held for the rest of the body")
	}
}

func TestLockFlowLoopReacquire(t *testing.T) {
	// The classic gate pattern: lock, loop { unlock, relock }, unlock.
	// Inside the loop after re-Lock the mutex is held; right after the
	// Unlock inside the loop it is not.
	_, fn := parseFunc(t, `func f(n int) {
		mu.Lock()
		for i := 0; i < n; i++ {
			mu.Unlock()
			work()
			mu.Lock()
			touch()
		}
		mu.Unlock()
	}`)
	g := buildCFG(fn.Body)
	la := lockFlow(g, lockState{})
	stmts := map[string]ast.Node{}
	for _, b := range g.blocks {
		for _, s := range b.stmts {
			if es, ok := s.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						stmts[id.Name] = s
					}
				}
			}
		}
	}
	if la.heldAt(stmts["work"], "mu") {
		t.Error("mu should not be held at work() (unlocked at loop top)")
	}
	if !la.heldAt(stmts["touch"], "mu") {
		t.Error("mu should be held at touch() (re-locked)")
	}
}
