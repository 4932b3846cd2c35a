package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unreachedPass reports dead code: every non-test function, method and
// package-level var, const or type that no binary in the load can reach.
// The roots are
//
//   - every func main of a package main, and every package's
//     initialization (func init plus package-level var initializers, which
//     the call graph hangs off the "pkg/path.init" node; blank vars, such
//     as interface assertions, hang off it too);
//   - every method whose name and signature satisfy an interface the
//     type's package set can see (stdlib ones such as http.ResponseWriter,
//     net.Listener, error, fmt.Stringer, sort.Interface, and the module's
//     own): such a method is called through an interface value whose
//     dynamic type the call graph cannot follow;
//   - every declaration carrying an "unreached" ignore directive, so what
//     a kept reference or fake calls is kept with it.
//
// On top of the call graph's edges, a declaration reaches every
// package-level var, const and type its source names (a function through
// its signature and body, a var or const through its type and value, a
// type through its definition); a var or const reaches its named type; a
// method reaches its receiver type, so a type is reached through its
// method set; and the members of an iota const block reach each other,
// since deleting one would renumber the rest.
//
// A load with no func main (one library package, say) has no roots; the
// pass then reports nothing rather than everything.
func unreachedPass() *Pass {
	return &Pass{
		Name:   "unreached",
		Doc:    "function, method, or package-level var, const or type no main, init or interface method reaches (delete it)",
		RunMod: runUnreached,
	}
}

func runUnreached(m *Module, p *Package, report func(pos token.Pos, msg string)) {
	reach := m.ProgramReach()
	if reach == nil {
		return
	}
	for _, name := range sortedFuncNames(m.Graph, p) {
		if !reach.Contains(name) {
			report(m.Graph.Funcs[name].Decl.Name.Pos(), fmt.Sprintf(
				"%s is unreached: no main, init, package-level initializer or interface method leads to it; delete it", shortFuncName(name)))
		}
	}
	for _, d := range pkgDecls(p) {
		if !reach.Contains(pkgObjKey(d.obj)) {
			report(d.obj.Pos(), fmt.Sprintf(
				"%s %s is unreached: no reached function, initializer or method set refers to it; delete it", d.kind, d.obj.Name()))
		}
	}
}

// ProgramReach returns the functions and package-level objects reachable
// from the unreached pass's roots, or nil when the load holds no func
// main.
func (m *Module) ProgramReach() *ReachSet {
	m.programOnce.Do(func() {
		var roots []string
		hasMain := false
		for _, p := range m.Pkgs {
			roots = append(roots, p.Path+".init")
			for _, name := range sortedFuncNames(m.Graph, p) {
				fi := m.Graph.Funcs[name]
				switch {
				case fi.Obj.Name() == "main" && fi.Obj.Pkg().Name() == "main" && fi.Decl.Recv == nil:
					hasMain = true
					roots = append(roots, name)
				case p.suppressed("unreached", p.Fset.Position(fi.Decl.Name.Pos())):
					roots = append(roots, name)
				}
			}
			for _, d := range pkgDecls(p) {
				if p.suppressed("unreached", p.Fset.Position(d.obj.Pos())) {
					roots = append(roots, pkgObjKey(d.obj))
				}
			}
		}
		if !hasMain {
			return
		}
		roots = append(roots, interfaceMethods(m.Pkgs)...)
		m.programReach = m.declGraph().Reach(roots, -1)
	})
	return m.programReach
}

// pkgDecl is one package-level var, const or type and its keyword.
type pkgDecl struct {
	kind string
	obj  types.Object
}

// pkgDecls lists p's package-level vars, consts and types (blank names
// are not in the package scope).
func pkgDecls(p *Package) []pkgDecl {
	var out []pkgDecl
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Var:
			out = append(out, pkgDecl{"var", obj})
		case *types.Const:
			out = append(out, pkgDecl{"const", obj})
		case *types.TypeName:
			out = append(out, pkgDecl{"type", obj})
		}
	}
	return out
}

// pkgObjKey keys a package-level object the way funcKey keys a function:
// "pkg/path.Name".
func pkgObjKey(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }

// pkgLevel reports a module-declared package-level var, const or type.
func pkgLevel(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() || !isModulePkgPath(obj.Pkg().Path()) {
		return false
	}
	switch obj.(type) {
	case *types.Var, *types.Const, *types.TypeName:
		return true
	}
	return false
}

// declGraph extends the call graph with the edges that reach
// package-level vars, consts and types (see unreachedPass).
func (m *Module) declGraph() *CallGraph {
	g := &CallGraph{Edges: make(map[string]map[string][]token.Pos, len(m.Graph.Edges))}
	for caller, callees := range m.Graph.Edges {
		for callee, pos := range callees {
			for _, at := range pos {
				g.addEdge(caller, callee, at)
			}
		}
	}
	for _, p := range m.Pkgs {
		// refs adds an edge from caller to every function and
		// package-level object n names.
		refs := func(caller string, n ast.Node) {
			if n == nil {
				return
			}
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch obj := p.Info.Uses[id].(type) {
				case *types.Func:
					g.addEdge(caller, funcKey(obj), id.Pos())
				default:
					if pkgLevel(obj) {
						g.addEdge(caller, pkgObjKey(obj), id.Pos())
					}
				}
				return true
			})
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						// Recv and Body are nil-able pointers; the
						// signature alone always holds both ends.
						refs(funcKey(fn), d.Type)
						if d.Recv != nil {
							refs(funcKey(fn), d.Recv)
						}
						if d.Body != nil {
							refs(funcKey(fn), d.Body)
						}
					}
				case *ast.GenDecl:
					genDeclEdges(g, p, d, refs)
				}
			}
		}
	}
	return g
}

// genDeclEdges adds the edges of one package-level var, const or type
// declaration.
func genDeclEdges(g *CallGraph, p *Package, d *ast.GenDecl, refs func(string, ast.Node)) {
	var iotaBlock []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			key := p.Path + "." + s.Name.Name
			if s.TypeParams != nil {
				refs(key, s.TypeParams)
			}
			refs(key, s.Type)
		case *ast.ValueSpec:
			for _, id := range s.Names {
				key := p.Path + ".init" // a blank var is an assertion run at init
				if id.Name != "_" {
					key = p.Path + "." + id.Name
				}
				refs(key, s.Type)
				for _, v := range s.Values {
					refs(key, v)
				}
				if obj := p.Info.Defs[id]; obj != nil {
					if tn := namedTypeName(obj.Type()); pkgLevel(tn) {
						g.addEdge(key, pkgObjKey(tn), id.Pos())
					}
				}
				if d.Tok == token.CONST && id.Name != "_" {
					iotaBlock = append(iotaBlock, key)
				}
			}
		}
	}
	if d.Tok != token.CONST || !usesIota(p, d) {
		return
	}
	for _, a := range iotaBlock {
		for _, b := range iotaBlock {
			if a != b {
				g.addEdge(a, b, d.Pos())
			}
		}
	}
}

// namedTypeName is the declared name of t (through pointers), or nil.
func namedTypeName(t types.Type) types.Object {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// usesIota reports whether a const block numbers its members with iota.
func usesIota(p *Package, d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}

// interfaceMethods returns the full names of the methods, declared on the
// loaded packages' named types, that implement some method-set interface
// visible from a loaded package. Signatures are compared as type strings,
// because each loaded package is type-checked in its own universe and the
// same interface seen from two packages is two distinct types.
func interfaceMethods(pkgs []*Package) []string {
	// The errors package calls Unwrap, Is and As through anonymous
	// interfaces no scope declares; they join the named ones by hand.
	ifaces := [][]string{
		methodKeys(types.Universe.Lookup("error").Type().Underlying().(*types.Interface)),
		{"Unwrap()(error)"}, {"Unwrap()([]error)"}, {"Is(error)(bool)"}, {"As(any)(bool)"},
	}
	seen := make(map[string]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || seen[tp.Path()] {
			return
		}
		seen[tp.Path()] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, methodKeys(it))
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}

	var roots []string
	for _, p := range pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			have := make(map[string]*types.Func, ms.Len())
			for i := 0; i < ms.Len(); i++ {
				fn := ms.At(i).Obj().(*types.Func)
				have[methodKey(fn)] = fn
			}
			for _, keys := range ifaces {
				if !hasAll(have, keys) {
					continue
				}
				for _, k := range keys {
					roots = append(roots, funcKey(have[k]))
				}
			}
		}
	}
	return roots
}

func hasAll(have map[string]*types.Func, keys []string) bool {
	for _, k := range keys {
		if have[k] == nil {
			return false
		}
	}
	return true
}

func methodKeys(it *types.Interface) []string {
	keys := make([]string, it.NumMethods())
	for i := range keys {
		keys[i] = methodKey(it.Method(i))
	}
	return keys
}

// methodKey renders a method's name and receiver-less signature with
// parameter names dropped: "Write([]byte)(int,error)".
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
