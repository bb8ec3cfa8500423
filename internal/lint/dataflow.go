package lint

import "go/ast"

// Forward dataflow over the CFGs built in cfg.go: the lock-held sets
// (intersection meet) — which "<path>.<mutex>" mutexes are provably
// held at each statement, the substrate of lockdiscipline's guarded-by
// checking. The analysis iterates to a fixpoint over the block graph;
// functions are small, so a simple worklist converges in a handful of
// passes.

func predecessors(g *cfg) [][]int {
	preds := make([][]int, len(g.blocks))
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			preds[s.index] = append(preds[s.index], blk.index)
		}
	}
	return preds
}

// lockState is the set of mutex paths ("t.cacheMu", "s.mu") provably
// held. Meet is intersection: a mutex is held at a join point only if
// it is held on every incoming edge.
type lockState map[string]bool

func (st lockState) clone() lockState {
	c := make(lockState, len(st))
	for k := range st {
		c[k] = true
	}
	return c
}

func (st lockState) equal(o lockState) bool {
	if len(st) != len(o) {
		return false
	}
	for k := range st {
		if !o[k] {
			return false
		}
	}
	return true
}

func intersect(sts []lockState) lockState {
	if len(sts) == 0 {
		return lockState{}
	}
	out := sts[0].clone()
	for _, st := range sts[1:] {
		for k := range out {
			if !st[k] {
				delete(out, k)
			}
		}
	}
	return out
}

// lockAnalysis records, for every CFG statement, the locks held before
// it executes.
type lockAnalysis struct {
	at map[ast.Node]lockState
}

// heldAt reports whether mutex path mu is provably held entering n.
func (l *lockAnalysis) heldAt(n ast.Node, mu string) bool { return l.at[n][mu] }

// lockOps extracts the lock transfer of one statement: paths locked and
// unlocked by direct Lock/RLock/Unlock/RUnlock calls. Deferred unlocks
// are ignored (they fire at function exit, so the mutex stays held for
// the rest of the body — exactly the held-until-return semantics we
// want). Lock calls inside nested function literals don't execute here
// and are skipped by forEachNode.
func lockOps(s ast.Node) (locked, unlocked []string) {
	forEachNode(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path := renderPath(sel.X)
		if path == "" {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			locked = append(locked, path)
		case "Unlock", "RUnlock":
			unlocked = append(unlocked, path)
		}
		return true
	})
	if d, ok := s.(*ast.DeferStmt); ok {
		// The defer's own call runs at exit: cancel any unlock it
		// contributed, keep any lock (rare, but conservative).
		if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Unlock", "RUnlock":
				path := renderPath(sel.X)
				kept := unlocked[:0]
				for _, u := range unlocked {
					if u != path {
						kept = append(kept, u)
					}
				}
				unlocked = kept
			}
		}
	}
	return locked, unlocked
}

// lockFlow runs the held-mutex analysis over one CFG. entry is the set
// of locks assumed held on entry (from caller-holds annotations).
func lockFlow(g *cfg, entry lockState) *lockAnalysis {
	la := &lockAnalysis{at: map[ast.Node]lockState{}}
	in := make([]lockState, len(g.blocks))
	out := make([]lockState, len(g.blocks))
	seen := make([]bool, len(g.blocks))
	preds := predecessors(g)

	work := []int{g.entry.index}
	inWork := map[int]bool{g.entry.index: true}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		blk := g.blocks[bi]

		var incoming []lockState
		if bi == g.entry.index {
			incoming = []lockState{entry}
		}
		for _, p := range preds[bi] {
			if seen[p] {
				incoming = append(incoming, out[p])
			}
		}
		st := intersect(incoming)
		in[bi] = st
		cur := st.clone()
		for _, s := range blk.stmts {
			la.at[s] = cur.clone()
			locked, unlocked := lockOps(s)
			for _, m := range unlocked {
				delete(cur, m)
			}
			for _, m := range locked {
				cur[m] = true
			}
		}
		if !seen[bi] || !cur.equal(out[bi]) {
			out[bi] = cur
			seen[bi] = true
			for _, succ := range blk.succs {
				if !inWork[succ.index] {
					work = append(work, succ.index)
					inWork[succ.index] = true
				}
			}
		}
	}
	return la
}

// renderPath renders a variable path expression ("t", "s.eng",
// "q.mu") or "" for anything that is not an ident/selector chain.
// Parenthesized and pointer-dereference wrappers are unwrapped so
// (*t).mu and t.mu agree.
func renderPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := renderPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return renderPath(x.X)
	case *ast.StarExpr:
		return renderPath(x.X)
	}
	return ""
}
