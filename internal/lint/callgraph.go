package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Call graph over the loaded packages, for the dataflow passes (ctxprop,
// detmap, leakcheck, interprocedural hotalloc).
//
// Each loaded package is type-checked independently by the source
// importer, so a function declared in package A and the same function
// seen through an import in package B are *distinct* types.Func objects.
// Nodes are therefore keyed by the stable FullName string
// ("pkg/path.Fn", "(*pkg/path.T).Method"), which both views agree on.
//
// Resolution rules (see DESIGN.md "Call graph"):
//
//   - Any reference to a declared function or concrete method inside a
//     function body becomes an edge — call position or not. Passing
//     s.handlePrice to mux.HandleFunc, or c.onTimer to time.AfterFunc,
//     links the referencing function to the handler exactly as a direct
//     call would. Function literals are attributed to the declaration
//     that lexically encloses them.
//   - A call through an interface method adds an edge to the interface
//     method itself and to that method on every module-declared type,
//     visible from the calling package, whose method set implements the
//     interface (stdlib implementers are leaves: they cannot call back
//     into the module).
//   - References in package-level var initializers are edges from the
//     package's init node ("pkg/path.init", shared with any func init):
//     a function stored in a package-level table is reached when the
//     package initializes.
//   - Calls through plain function-typed variables stay unresolved
//     (conservative): the passes instead treat every handler-shaped
//     function as a root, which covers the mux dispatch this module uses.
type CallGraph struct {
	// Funcs maps full name to declaration info for every function and
	// method declared in the loaded packages.
	Funcs map[string]*FuncInfo
	// Edges maps caller full name -> callee full name -> reference sites.
	// Callees need not be declared in the loaded packages (stdlib and
	// unloaded-module callees appear as leaf names).
	Edges map[string]map[string][]token.Pos
}

// FuncInfo is one declared function or method.
type FuncInfo struct {
	Name string // types.Func FullName
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// funcKey is the graph key for a types.Func; a method of an instantiated
// generic type keys as its generic declaration.
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

// BuildCallGraph constructs the graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Funcs: make(map[string]*FuncInfo),
		Edges: make(map[string]map[string][]token.Pos),
	}
	for _, p := range pkgs {
		named := moduleNamedTypes(p)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					// Package-level initializers run as part of package
					// initialization, so their references hang off the
					// package's init node.
					g.collectEdges(p, p.Path+".init", gd, named)
					continue
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(obj)
				g.Funcs[key] = &FuncInfo{Name: key, Pkg: p, Decl: fd, Obj: obj}
				if fd.Body != nil {
					g.collectEdges(p, key, fd.Body, named)
				}
			}
		}
	}
	return g
}

// collectEdges walks body (a function body or a package-level var
// declaration) and records every function reference as an edge from caller.
func (g *CallGraph) collectEdges(p *Package, caller string, body ast.Node, named []*types.Named) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		g.addEdge(caller, funcKey(fn), id.Pos())
		// An interface method resolves to that method on every visible
		// module type implementing the interface.
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			iface, ok := recv.Type().Underlying().(*types.Interface)
			if !ok {
				return true
			}
			for _, impl := range implementers(named, iface, fn.Name()) {
				g.addEdge(caller, impl, id.Pos())
			}
		}
		return true
	})
}

func (g *CallGraph) addEdge(caller, callee string, pos token.Pos) {
	m := g.Edges[caller]
	if m == nil {
		m = make(map[string][]token.Pos)
		g.Edges[caller] = m
	}
	m[callee] = append(m[callee], pos)
}

// moduleNamedTypes collects the named types declared in module packages
// as seen from p's type-check universe (p's own scope plus everything it
// transitively imports). Only these are candidate interface implementers:
// a type from a package p cannot see also cannot flow into p's interface
// values except through yet another interface, which stays conservative.
func moduleNamedTypes(p *Package) []*types.Named {
	var out []*types.Named
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		if isModulePkgPath(tp.Path()) {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok {
					out = append(out, named)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	visit(p.Types)
	return out
}

// isModulePkgPath reports whether path belongs to this module (including
// testdata pseudo-paths, whose corpora declare their own implementers).
func isModulePkgPath(path string) bool {
	return path == rootPkgPath || strings.HasPrefix(path, rootPkgPath+"/")
}

// implementers returns the full names of method mname on each named type
// whose method set (value or pointer) implements iface.
func implementers(named []*types.Named, iface *types.Interface, mname string) []string {
	var out []string
	for _, t := range named {
		if types.IsInterface(t.Underlying()) {
			continue
		}
		var recv types.Type
		switch {
		case types.Implements(t, iface):
			recv = t
		case types.Implements(types.NewPointer(t), iface):
			recv = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, t.Obj().Pkg(), mname)
		if m, ok := obj.(*types.Func); ok {
			out = append(out, funcKey(m))
		}
	}
	sort.Strings(out)
	return out
}

// HTTPHandlerRoots returns the declared functions that can receive HTTP
// requests: every method named ServeHTTP and every func with the
// http.HandlerFunc shape. Mux registration is a dynamic call the graph
// does not resolve, so the signature shape *is* the root set.
func (g *CallGraph) HTTPHandlerRoots() []string {
	var roots []string
	for name, fi := range g.Funcs {
		if fi.Obj.Name() == "ServeHTTP" && fi.Obj.Signature().Recv() != nil {
			roots = append(roots, name)
			continue
		}
		if isHandlerShape(fi.Obj.Signature()) {
			roots = append(roots, name)
		}
	}
	sort.Strings(roots)
	return roots
}

// isHandlerShape reports the func(http.ResponseWriter, *http.Request)
// signature, matched by type string so it holds across independently
// type-checked packages.
func isHandlerShape(sig *types.Signature) bool {
	params := sig.Params()
	if params.Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return types.TypeString(params.At(0).Type(), nil) == "net/http.ResponseWriter" &&
		types.TypeString(params.At(1).Type(), nil) == "*net/http.Request"
}

// ReachSet is the result of a breadth-first reachability sweep: for each
// reached function, its BFS depth and the parent it was first reached
// from (so diagnostics can show one concrete call path).
type ReachSet struct {
	Depth  map[string]int
	Parent map[string]string // roots map to ""
}

// Reach runs BFS from roots following edges; maxDepth < 0 is unbounded.
// Expansion order is sorted at every level, so first-reach parents (and
// therefore diagnostic paths) are deterministic.
func (g *CallGraph) Reach(roots []string, maxDepth int) *ReachSet {
	r := &ReachSet{Depth: make(map[string]int), Parent: make(map[string]string)}
	queue := make([]string, 0, len(roots))
	sorted := append([]string(nil), roots...)
	sort.Strings(sorted)
	for _, root := range sorted {
		if _, ok := r.Depth[root]; ok {
			continue
		}
		r.Depth[root] = 0
		r.Parent[root] = ""
		queue = append(queue, root)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := r.Depth[cur]
		if maxDepth >= 0 && d >= maxDepth {
			continue
		}
		for _, callee := range sortedEdgeKeys(g.Edges[cur]) {
			if _, ok := r.Depth[callee]; ok {
				continue
			}
			r.Depth[callee] = d + 1
			r.Parent[callee] = cur
			queue = append(queue, callee)
		}
	}
	return r
}

// Contains reports whether name was reached.
func (r *ReachSet) Contains(name string) bool {
	_, ok := r.Depth[name]
	return ok
}

// Path returns the call chain root -> ... -> name recorded by the sweep,
// or nil if name was not reached.
func (r *ReachSet) Path(name string) []string {
	if !r.Contains(name) {
		return nil
	}
	var rev []string
	for cur := name; cur != ""; cur = r.Parent[cur] {
		rev = append(rev, cur)
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}

// pathLabel renders a reach path for diagnostics, eliding long middles.
func pathLabel(path []string) string {
	short := make([]string, len(path))
	for i, s := range path {
		short[i] = shortFuncName(s)
	}
	if len(short) > 5 {
		short = append(short[:2], append([]string{"..."}, short[len(short)-2:]...)...)
	}
	return strings.Join(short, " -> ")
}

// shortFuncName trims package paths from a full name for display:
// "(*finbench/internal/serve.Server).handlePrice" -> "(*Server).handlePrice".
func shortFuncName(full string) string {
	trim := func(s string) string {
		if i := strings.LastIndex(s, "/"); i >= 0 {
			s = s[i+1:]
		}
		if i := strings.Index(s, "."); i >= 0 {
			s = s[i+1:]
		}
		return s
	}
	if rest, ok := strings.CutPrefix(full, "(*"); ok {
		if recv, method, ok := strings.Cut(rest, ")."); ok {
			return "(*" + trim(recv) + ")." + method
		}
	}
	if rest, ok := strings.CutPrefix(full, "("); ok {
		if recv, method, ok := strings.Cut(rest, ")."); ok {
			return "(" + trim(recv) + ")." + method
		}
	}
	return trim(full)
}

// sortedEdgeKeys returns the callee names of one edge map in sorted
// order (map iteration order must never reach diagnostics).
func sortedEdgeKeys(m map[string][]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
