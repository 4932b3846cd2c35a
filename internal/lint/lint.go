// Package lint implements finlint, the repo's custom static-analysis
// suite. The paper's parallelization and vectorization contract (one RNG
// stream per worker, allocation-free inner loops, deterministic seeding,
// Sec. III-B) is easy to state in comments and easy to break in a PR;
// finlint turns each invariant into a mechanical check over the module's
// ASTs and type information, in the spirit of the code-modernization
// tooling Cielo et al. (arXiv:2002.08161) apply to many-core codes.
//
// Five passes are intra-procedural (rngshare, hotalloc, floateq,
// seeddet, errcheck). Four are interprocedural, driven by a module-wide
// call graph rooted at the HTTP handlers (see callgraph.go and DESIGN.md
// §8): ctxprop (deadline-blind kernel entry points reachable from a
// handler), detmap (map iteration order leaking into observable output,
// including JSON encodes reached through helpers), leakcheck (unjoined
// goroutines and unbracketed breaker admissions), and hotalloc's
// serve-path mode (allocation sites within a bounded distance of a
// handler). The ninth pass, directive, lints the lint: every ignore
// directive must name a real pass and carry a reason.
//
// The suite is built only on the standard library (go/parser, go/ast,
// go/types with the source importer); it deliberately avoids
// golang.org/x/tools so the gate runs in a hermetic container.
//
// Each invariant is a Pass. Passes are individually toggleable from
// cmd/finlint, emit "file:line: [pass] message" diagnostics, and honor two
// source directives:
//
//	// finlint:ignore <pass> <reason>   suppress <pass> on this line and the next
//	// finlint:hot                      mark the package's loops as hot paths
//
// The reason on an ignore directive is mandatory — the directive pass
// rejects reasonless, bare, or mistyped suppressions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, formatted as "file:line: [pass] message".
type Diagnostic struct {
	Pos  token.Position
	Pass string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pass, d.Msg)
}

// Package is one loaded, type-checked package as seen by the passes.
type Package struct {
	// Path is the import path (or directory-derived pseudo-path for
	// testdata packages outside the module build).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
	// TypeErrors holds non-fatal type-checker complaints; passes run on
	// whatever information survived, and cmd/finlint -v surfaces these.
	TypeErrors []error

	// Hot reports whether any file carries a "finlint:hot" directive,
	// enabling the hotalloc pass.
	Hot bool

	// ignores maps filename -> line -> set of suppressed pass names
	// ("all" suppresses every pass).
	ignores map[string]map[int]map[string]bool

	// Directives records every finlint:ignore directive encountered, for
	// the directive pass (which rejects reasonless suppressions).
	Directives []Directive
}

// Directive is one parsed finlint:ignore comment.
type Directive struct {
	Pos    token.Pos
	Pass   string // "" when the directive names no pass
	Reason string
}

// A Pass checks one invariant over a package. Exactly one of Run and
// RunMod is set: Run is intra-procedural over one package; RunMod
// additionally receives the module context (call graph over every loaded
// package) for the dataflow passes. Findings go through report;
// suppression and formatting are handled by the driver.
type Pass struct {
	Name   string
	Doc    string
	Run    func(p *Package, report func(pos token.Pos, msg string))
	RunMod func(m *Module, p *Package, report func(pos token.Pos, msg string))
}

// Passes returns the full suite in canonical order.
func Passes() []*Pass {
	return []*Pass{
		rngsharePass(),
		hotallocPass(),
		floateqPass(),
		seeddetPass(),
		errcheckPass(),
		ctxpropPass(),
		detmapPass(),
		leakcheckPass(),
		unreachedPass(),
		directivePass(),
	}
}

// Config tunes the module-context passes.
type Config struct {
	// HotallocDepth bounds how many call-graph hops from an HTTP handler
	// the interprocedural hotalloc sweep follows; 0 picks
	// DefaultHotallocDepth.
	HotallocDepth int
}

// DefaultHotallocDepth reaches four calls from a handler: on the serving
// tier's closed-form path, handlePrice -> priceClosedForm ->
// finbench.PriceBatchCtx -> priceBatch -> blackscholes.AdvancedCtx, the
// kernel entry where per-request work turns into per-option loops.
const DefaultHotallocDepth = 4

func (c Config) withDefaults() Config {
	if c.HotallocDepth <= 0 {
		c.HotallocDepth = DefaultHotallocDepth
	}
	return c
}

// Module is the whole-run context shared by the call-graph passes: every
// loaded package plus the graph over them. Reachability sweeps are
// computed once, lazily, and shared.
type Module struct {
	Pkgs  []*Package
	Graph *CallGraph
	Cfg   Config

	handlerReach *ReachSet // unbounded, from HTTP handler roots
	hotReach     *ReachSet // bounded by Cfg.HotallocDepth

	// encodeOnce/encodeReach back Module.EncodesJSON (see detmap.go).
	encodeOnce  sync.Once
	encodeReach map[string]bool

	// programOnce/programReach back Module.ProgramReach (see unreached.go).
	programOnce  sync.Once
	programReach *ReachSet
}

// NewModule builds the module context (call graph included) over pkgs.
func NewModule(pkgs []*Package, cfg Config) *Module {
	return &Module{Pkgs: pkgs, Graph: BuildCallGraph(pkgs), Cfg: cfg.withDefaults()}
}

// HandlerReach returns the functions reachable from HTTP handler roots,
// unbounded (ctxprop and detmap use this: a deadline or an encode sink
// matters at any depth).
func (m *Module) HandlerReach() *ReachSet {
	if m.handlerReach == nil {
		m.handlerReach = m.Graph.Reach(m.Graph.HTTPHandlerRoots(), -1)
	}
	return m.handlerReach
}

// HotallocReach returns the functions within Cfg.HotallocDepth hops of an
// HTTP handler root (the interprocedural hotalloc scope).
func (m *Module) HotallocReach() *ReachSet {
	if m.hotReach == nil {
		m.hotReach = m.Graph.Reach(m.Graph.HTTPHandlerRoots(), m.Cfg.HotallocDepth)
	}
	return m.hotReach
}

// PassNames returns the canonical pass names, for usage text.
func PassNames() []string {
	all := Passes()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return names
}

// SelectPasses resolves a comma-separated list of pass names ("" or "all"
// means every pass).
func SelectPasses(list string) ([]*Pass, error) {
	list = strings.TrimSpace(list)
	if list == "" || list == "all" {
		return Passes(), nil
	}
	byName := make(map[string]*Pass)
	for _, p := range Passes() {
		byName[p.Name] = p
	}
	var sel []*Pass
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q (have %s)", name, strings.Join(PassNames(), ", "))
		}
		sel = append(sel, p)
	}
	return sel, nil
}

// RunConfig executes the given passes over the packages under cfg and
// returns the surviving diagnostics sorted by file, line, then pass. The
// module context (call graph) is built once, and only when a selected
// pass needs it.
func RunConfig(pkgs []*Package, passes []*Pass, cfg Config) []Diagnostic {
	var mod *Module
	for _, pass := range passes {
		if pass.RunMod != nil {
			mod = NewModule(pkgs, cfg)
			break
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, pass := range passes {
			pass := pass
			report := func(pos token.Pos, msg string) {
				position := pkg.Fset.Position(pos)
				if pkg.suppressed(pass.Name, position) {
					return
				}
				diags = append(diags, Diagnostic{Pos: position, Pass: pass.Name, Msg: msg})
			}
			if pass.RunMod != nil {
				pass.RunMod(mod, pkg, report)
			} else {
				pass.Run(pkg, report)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	return diags
}

// finishDirectives scans comments for finlint directives; the loader calls
// it once per package after parsing.
func (p *Package) finishDirectives() {
	p.ignores = make(map[string]map[int]map[string]bool)
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				// The tag is either the whole comment or followed by a
				// dash/colon reason; a prose mention ("finlint:hot marks…")
				// must not accidentally tag the package.
				if hot, ok := strings.CutPrefix(text, "finlint:hot"); ok {
					hot = strings.TrimSpace(hot)
					if hot == "" || strings.HasPrefix(hot, "—") || strings.HasPrefix(hot, "-") || strings.HasPrefix(hot, ":") {
						p.Hot = true
					}
					continue
				}
				rest, ok := strings.CutPrefix(text, "finlint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					// A bare ignore suppresses nothing; the directive pass
					// reports it as malformed.
					p.Directives = append(p.Directives, Directive{Pos: c.Pos()})
					continue
				}
				pass := fields[0]
				p.Directives = append(p.Directives, Directive{
					Pos:    c.Pos(),
					Pass:   pass,
					Reason: strings.TrimSpace(strings.Join(fields[1:], " ")),
				})
				line := p.Fset.Position(c.Pos()).Line
				m := p.ignores[filename]
				if m == nil {
					m = make(map[int]map[string]bool)
					p.ignores[filename] = m
				}
				// The directive covers its own line (trailing comment) and
				// the next line (comment above the offending statement).
				for _, l := range []int{line, line + 1} {
					if m[l] == nil {
						m[l] = make(map[string]bool)
					}
					m[l][pass] = true
				}
			}
		}
	}
}

func (p *Package) suppressed(pass string, pos token.Position) bool {
	m := p.ignores[pos.Filename]
	if m == nil {
		return false
	}
	set := m[pos.Line]
	return set != nil && (set[pass] || set["all"])
}

// calleeStatic resolves call.Fun to (package path, function name) when the
// callee is a selector on an imported package (pkg.Fn). It returns ok=false
// for method calls, locals, and builtins.
func calleeStatic(p *Package, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pkgName, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

// isBuiltin reports whether call invokes the named builtin (make, append…).
func isBuiltin(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := p.Info.Uses[id].(*types.Builtin)
	return isB
}

// withinNode reports whether pos falls inside n's source range.
func withinNode(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos < n.End()
}
