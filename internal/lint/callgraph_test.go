package lint

import (
	"sort"
	"strings"
	"testing"
)

// loadCorpus returns one testdata/src package and fails the test on any
// load or type error.
func loadCorpus(t *testing.T, name string) *Package {
	t.Helper()
	p := corpus(t, name)
	for _, e := range p.TypeErrors {
		t.Fatalf("corpus %s must type-check cleanly: %v", name, e)
	}
	return p
}

func hasEdge(g *CallGraph, caller, callee string) bool {
	_, ok := g.Edges[caller][callee]
	return ok
}

func TestCallGraphEdges(t *testing.T) {
	p := loadCorpus(t, "callgraph")
	g := BuildCallGraph([]*Package{p})
	pp := p.Path

	static := pp + ".Static"
	helper := pp + ".helper"
	concrete := pp + ".Concrete"
	dynamic := pp + ".Dynamic"
	valueRef := pp + ".ValueRef"
	implPing := "(*" + pp + ".Impl).Ping"
	ifacePing := "(" + pp + ".Pinger).Ping"

	for _, want := range []string{static, helper, concrete, dynamic, valueRef, implPing} {
		if g.Funcs[want] == nil {
			t.Errorf("Funcs missing %s; have %v", want, graphFuncNames(g))
		}
	}

	cases := []struct{ caller, callee, kind string }{
		{static, helper, "static call"},
		{concrete, implPing, "concrete method call"},
		{dynamic, ifacePing, "interface method edge"},
		{dynamic, implPing, "interface resolved to implementer"},
		{valueRef, helper, "function value reference"},
	}
	for _, c := range cases {
		if !hasEdge(g, c.caller, c.callee) {
			t.Errorf("missing %s edge %s -> %s", c.kind, c.caller, c.callee)
		}
	}
	if hasEdge(g, static, implPing) {
		t.Errorf("spurious edge %s -> %s", static, implPing)
	}
}

func TestCallGraphCycle(t *testing.T) {
	p := loadCorpus(t, "callgraph")
	g := BuildCallGraph([]*Package{p})
	a := p.Path + ".CycleA"
	b := p.Path + ".cycleB"

	r := g.Reach([]string{a}, -1)
	if !r.Contains(a) || !r.Contains(b) {
		t.Fatalf("cycle reach from %s missed a member: depths %v", a, r.Depth)
	}
	if got := r.Path(b); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Path(%s) = %v, want [%s %s]", b, got, a, b)
	}
	if r.Path("no/such.Fn") != nil {
		t.Error("Path of an unreached function should be nil")
	}
}

func TestCallGraphHandlerRootsAndDepth(t *testing.T) {
	p := loadCorpus(t, "servealloc")
	g := BuildCallGraph([]*Package{p})
	serveHTTP := "(*" + p.Path + ".engine).ServeHTTP"

	roots := g.HTTPHandlerRoots()
	found := false
	for _, r := range roots {
		if r == serveHTTP {
			found = true
		}
	}
	if !found {
		t.Fatalf("HTTPHandlerRoots() = %v, want to include %s", roots, serveHTTP)
	}

	deep3 := p.Path + ".deep3"
	if r := g.Reach(roots, -1); !r.Contains(deep3) {
		t.Errorf("unbounded reach should include %s", deep3)
	} else if r.Depth[deep3] != 3 {
		t.Errorf("depth(%s) = %d, want 3", deep3, r.Depth[deep3])
	}
	if r := g.Reach(roots, 2); r.Contains(deep3) {
		t.Errorf("depth-2 reach should exclude %s (depth 3)", deep3)
	}
}

// TestHotallocInterproc pins the serve-mode sweep: allocations in
// handler-reachable functions of a non-hot package are flagged, and the
// depth bound excludes functions past it.
func TestHotallocInterproc(t *testing.T) {
	p := loadCorpus(t, "servealloc")
	passes, err := SelectPasses("hotalloc")
	if err != nil {
		t.Fatal(err)
	}

	render := func(cfg Config) string {
		var b strings.Builder
		for _, d := range RunConfig([]*Package{p}, passes, cfg) {
			b.WriteString(d.String())
			b.WriteString("\n")
		}
		return b.String()
	}

	full := render(Config{HotallocDepth: DefaultHotallocDepth})
	for _, want := range []string{"servealloc.go:24", "servealloc.go:34"} {
		if !strings.Contains(full, want) {
			t.Errorf("default-depth sweep missing finding at %s:\n%s", want, full)
		}
	}
	for _, clean := range []string{"servealloc.go:43", "servealloc.go:50", "servealloc.go:61"} {
		if strings.Contains(full, clean) {
			t.Errorf("sweep flagged clean/suppressed line %s:\n%s", clean, full)
		}
	}

	shallow := render(Config{HotallocDepth: 2})
	if !strings.Contains(shallow, "servealloc.go:24") {
		t.Errorf("depth-2 sweep should still flag depth-1 allocation:\n%s", shallow)
	}
	if strings.Contains(shallow, "servealloc.go:34") {
		t.Errorf("depth-2 sweep must not reach the depth-3 allocation:\n%s", shallow)
	}
}

func graphFuncNames(g *CallGraph) []string {
	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
