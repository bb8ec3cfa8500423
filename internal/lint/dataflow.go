package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Forward dataflow over the CFGs built in cfg.go. Two concrete
// analyses live here:
//
//   - reaching definitions (union meet): which assignments to a
//     variable can reach a given statement — the substrate hotalloc
//     uses to decide whether an appended-to slice was preallocated;
//   - lock-held sets (intersection meet): which "<path>.<mutex>"
//     mutexes are provably held at each statement — the substrate of
//     lockdiscipline's guarded-by checking.
//
// Both analyses iterate to a fixpoint over the block graph; functions
// are small, so a simple worklist converges in a handful of passes.

// ---------------------------------------------------------------------
// Reaching definitions.

// def is one definition site of a named variable.
type def struct {
	id   int
	name string
	// rhs is the defining expression (nil for `var x T` without an
	// initializer and for range-bound variables).
	rhs ast.Expr
	// node is the statement that performed the definition.
	node ast.Node
}

// defSet is a small set of definition ids.
type defSet map[int]bool

func (s defSet) clone() defSet {
	c := make(defSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s defSet) equal(o defSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// reachState maps variable name -> reaching definition ids.
type reachState map[string]defSet

func (st reachState) clone() reachState {
	c := make(reachState, len(st))
	for k, v := range st {
		c[k] = v.clone()
	}
	return c
}

func (st reachState) mergeFrom(o reachState) bool {
	changed := false
	for k, v := range o {
		dst := st[k]
		if dst == nil {
			st[k] = v.clone()
			changed = true
			continue
		}
		for id := range v {
			if !dst[id] {
				dst[id] = true
				changed = true
			}
		}
	}
	return changed
}

func (st reachState) equal(o reachState) bool {
	if len(st) != len(o) {
		return false
	}
	for k, v := range st {
		if !v.equal(o[k]) {
			return false
		}
	}
	return true
}

// reachAnalysis is the result of running reaching definitions over one
// function graph.
type reachAnalysis struct {
	defs []*def
	// at maps each statement node in the CFG to the state holding
	// BEFORE the statement executes.
	at map[ast.Node]reachState
}

// defsOf returns the definitions of name reaching node n (nil when n is
// not a CFG statement or name has no tracked defs there).
func (r *reachAnalysis) defsOf(n ast.Node, name string) []*def {
	st := r.at[n]
	if st == nil {
		return nil
	}
	var out []*def
	for id := range st[name] {
		out = append(out, r.defs[id])
	}
	return out
}

// reachingDefs runs the analysis over one CFG.
func reachingDefs(g *cfg) *reachAnalysis {
	ra := &reachAnalysis{at: map[ast.Node]reachState{}}
	newDef := func(name string, rhs ast.Expr, node ast.Node) int {
		d := &def{id: len(ra.defs), name: name, rhs: rhs, node: node}
		ra.defs = append(ra.defs, d)
		return d.id
	}
	// Pre-assign def ids per statement so transfer is deterministic.
	stmtDefs := map[ast.Node][]int{}
	for _, blk := range g.blocks {
		for _, s := range blk.stmts {
			for _, nd := range defsIn(s) {
				stmtDefs[s] = append(stmtDefs[s], newDef(nd.name, nd.rhs, s))
			}
		}
	}

	in := make([]reachState, len(g.blocks))
	out := make([]reachState, len(g.blocks))
	for i := range g.blocks {
		in[i] = reachState{}
		out[i] = reachState{}
	}
	preds := predecessors(g)

	work := []int{g.entry.index}
	inWork := map[int]bool{g.entry.index: true}
	for i := range g.blocks {
		if !inWork[i] {
			work = append(work, i)
			inWork[i] = true
		}
	}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		blk := g.blocks[bi]
		st := reachState{}
		for _, p := range preds[bi] {
			st.mergeFrom(out[p])
		}
		in[bi] = st
		cur := st.clone()
		for _, s := range blk.stmts {
			ra.at[s] = cur.clone()
			if ids := stmtDefs[s]; len(ids) > 0 {
				for _, id := range ids {
					d := ra.defs[id]
					cur[d.name] = defSet{id: true}
				}
			}
		}
		if !cur.equal(out[bi]) {
			out[bi] = cur
			for _, succ := range blk.succs {
				if !inWork[succ.index] {
					work = append(work, succ.index)
					inWork[succ.index] = true
				}
			}
		}
	}
	return ra
}

type namedDef struct {
	name string
	rhs  ast.Expr
}

// defsIn lists the variable definitions a single CFG statement makes.
// Nested function literals are opaque (their assignments run at an
// unknown time, so treating them as non-defs is the conservative
// choice for how hotalloc consumes this analysis).
func defsIn(s ast.Node) []namedDef {
	var out []namedDef
	switch x := s.(type) {
	case *ast.AssignStmt:
		for i, lhs := range x.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var rhs ast.Expr
			if len(x.Rhs) == len(x.Lhs) {
				rhs = x.Rhs[i]
			} else if len(x.Rhs) == 1 {
				rhs = x.Rhs[0] // multi-value call/type-assert/map read
			}
			out = append(out, namedDef{name: id.Name, rhs: rhs})
		}
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				}
				out = append(out, namedDef{name: name.Name, rhs: rhs})
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{x.Key, x.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				out = append(out, namedDef{name: id.Name, rhs: nil})
			}
		}
	case *ast.IncDecStmt:
		if id, ok := x.X.(*ast.Ident); ok {
			out = append(out, namedDef{name: id.Name, rhs: nil})
		}
	case *ast.TypeSwitchStmt:
		// `switch v := x.(type)` — v rebinds per clause; treat as one def.
		if as, ok := x.Assign.(*ast.AssignStmt); ok {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				out = append(out, namedDef{name: id.Name, rhs: as.Rhs[0]})
			}
		}
	}
	return out
}

func predecessors(g *cfg) [][]int {
	preds := make([][]int, len(g.blocks))
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			preds[s.index] = append(preds[s.index], blk.index)
		}
	}
	return preds
}

// ---------------------------------------------------------------------
// Lock-held analysis.

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

// baseIdent returns the root identifier of an ident/selector chain.
func baseIdent(e ast.Expr) string {
	p := renderPath(e)
	if p == "" {
		return ""
	}
	if i := strings.IndexByte(p, '.'); i >= 0 {
		return p[:i]
	}
	return p
}
