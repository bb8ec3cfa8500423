// Package lint is a small, dependency-free static-analysis framework
// for project-specific correctness rules, plus the three analyzers the
// quickrlint multichecker runs. An analyzer stays only while it guards a
// bug class that no test catches.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, testdata fixtures with `// want`
// expectations) so the analyzers could be ported to a real multichecker
// verbatim; the framework itself sticks to the go/ast, go/parser and
// go/token standard-library packages because the build environment is
// hermetic — no module downloads.
//
// Analyzers see one package at a time: all non-test files of a
// directory, parsed with comments, plus the module-qualified import
// path (used to scope rules to e.g. quickr/internal/sampler). Analysis
// is purely syntactic — no type checking — which is sufficient for the
// rules here because they key on import names, well-known method names
// and annotation comments, and keeps a whole-repo run under a second.
//
// A finding can be suppressed by the line-oriented directive
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it, matching
// the staticcheck convention. The reason is mandatory: Run reports a
// bare directive as a finding of its own (ignorehygiene), and a
// directive that no longer suppresses anything — the analyzer it names
// ran and did not fire on its lines — is reported as stale, so
// suppressions cannot outlive the code smell they were written for.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description, shown by `quickrlint -help`.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one package's syntax to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test files, parsed with comments.
	Files []*ast.File
	// Path is the module-qualified import path ("quickr/internal/exec").
	Path string

	diags   *[]Diagnostic
	ignores ignoreIndex
}

// ignoreIndex is filename -> line -> the directives written there.
type ignoreIndex map[string]map[int][]*ignoreDirective

// ignoreDirective is one parsed //lint:ignore comment. used flips when
// the directive actually suppresses a finding, which is what separates
// a live suppression from a stale one.
type ignoreDirective struct {
	name   string // analyzer name, or "*" for all
	reason string
	pos    token.Position
	used   bool
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignored(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) ignored(pos token.Position) bool {
	byLine := p.ignores[pos.Filename]
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.name == p.Analyzer.Name || d.name == "*" {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

var ignoreRE = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)[ \t]*(.*)$`)

// collectIgnores scans a file's comments for //lint:ignore directives.
func collectIgnores(fset *token.FileSet, f *ast.File, into ignoreIndex) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			byLine := into[pos.Filename]
			if byLine == nil {
				byLine = map[int][]*ignoreDirective{}
				into[pos.Filename] = byLine
			}
			byLine[pos.Line] = append(byLine[pos.Line], &ignoreDirective{
				name:   m[1],
				reason: strings.TrimSpace(m[2]),
				pos:    pos,
			})
		}
	}
}

// IgnoreHygiene is the pseudo-analyzer name under which Run reports
// broken //lint:ignore directives (bare or stale). It cannot itself be
// suppressed: a suppression of the suppression checker would defeat it.
const IgnoreHygiene = "ignorehygiene"

// checkIgnores audits a package's directives after every analyzer ran:
// a directive without a reason is an error outright, and a directive
// whose analyzer ran but fired nothing on its lines suppresses nothing
// and must be deleted.
func checkIgnores(ignores ignoreIndex, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{"*": len(analyzers) > 0}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, byLine := range ignores {
		for _, ds := range byLine {
			for _, d := range ds {
				switch {
				case d.reason == "":
					out = append(out, Diagnostic{
						Analyzer: IgnoreHygiene, Pos: d.pos,
						Message: fmt.Sprintf("bare //lint:ignore %s: a suppression must state its reason", d.name),
					})
				case ran[d.name] && !d.used:
					out = append(out, Diagnostic{
						Analyzer: IgnoreHygiene, Pos: d.pos,
						Message: fmt.Sprintf("stale //lint:ignore %s: the analyzer no longer fires here; delete the directive", d.name),
					})
				}
			}
		}
	}
	return out
}

// Run loads the packages matched by patterns (relative to root) and
// applies every analyzer, returning the combined findings sorted by
// position. A non-nil error means the run itself failed (unparseable
// source, bad pattern) — findings are not errors.
func Run(root string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, fset, err := load(root, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := ignoreIndex{}
		for _, f := range pkg.Files {
			collectIgnores(fset, f, ignores)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				diags:    &diags,
				ignores:  ignores,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		// Directive hygiene runs after the full suite so "unused" is
		// meaningful: every analyzer a directive could suppress has run.
		diags = append(diags, checkIgnores(ignores, analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full quickrlint analyzer suite: the syntactic
// walkers plus the dataflow analyzers built on the CFG framework
// (cfg.go, dataflow.go).
func All() []*Analyzer {
	return []*Analyzer{NoPrintf, LockDiscipline, CtxFlow}
}

// importName returns the local name the file binds for the package
// with the given import path ("" if not imported). A dot or blank
// import returns "" — selector-based rules cannot apply to those.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return ""
			}
			return imp.Name.Name
		}
		return p[strings.LastIndex(p, "/")+1:]
	}
	return ""
}

// selectorCall returns (receiver name, method name) for calls of the
// form recv.Method(...), or ("", "") otherwise.
func selectorCall(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	return id.Name, sel.Sel.Name
}
