package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// unreachedPass reports dead code: every non-test function or method that
// no binary in the load can execute. The roots are
//
//   - every func main of a package main, and every package's
//     initialization (func init plus package-level var initializers, which
//     the call graph hangs off the "pkg/path.init" node);
//   - every method whose name and signature satisfy an interface the
//     type's package set can see (stdlib ones such as http.ResponseWriter,
//     net.Listener, error, fmt.Stringer, sort.Interface, and the module's
//     own): such a method is called through an interface value whose
//     dynamic type the call graph cannot follow;
//   - every declaration carrying an "unreached" ignore directive, so what
//     a kept reference or fake calls is kept with it.
//
// A load with no func main (one library package, say) has no roots; the
// pass then reports nothing rather than everything.
func unreachedPass() *Pass {
	return &Pass{
		Name:   "unreached",
		Doc:    "function or method no main, init, package-level initializer or interface method reaches (delete it)",
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
}

// ProgramReach returns the functions reachable from the unreached pass's
// roots, or nil when the load holds no func main.
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
		}
		if !hasMain {
			return
		}
		roots = append(roots, interfaceMethods(m.Pkgs)...)
		m.programReach = m.Graph.Reach(roots, -1)
	})
	return m.programReach
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
