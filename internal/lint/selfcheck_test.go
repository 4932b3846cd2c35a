package lint

import (
	"testing"
)

// TestFinlintSelfCheck runs the full suite over the whole module and
// requires zero diagnostics — the same gate scripts/check.sh enforces.
// Keeping it as a test means `go test ./...` (tier-1) fails the moment a
// change reintroduces a violation, even if someone skips the script.
func TestFinlintSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	pkgs, err := Load([]string{"../../..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages from module root")
	}
	diags := RunConfig(pkgs, Passes(), Config{})
	for _, d := range diags {
		t.Errorf("finlint: %s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); fix them or annotate with // finlint:ignore <pass> <reason>", len(diags))
	}

	// Every function the passes' registries name must still exist: a
	// stale entry silently checks nothing.
	// concurrentClosureFuncs matches functions and methods by bare name
	// within a package, so it is checked against "pkg/path.Name" keys.
	g := BuildCallGraph(pkgs)
	declared := make(map[string]bool)
	for name, fi := range g.Funcs {
		declared[name] = true
		declared[fi.Pkg.Path+"."+fi.Obj.Name()] = true
	}
	var names []string
	for from, to := range kernelEntryCtx {
		names = append(names, from, to)
	}
	for get, put := range pooledGetPut {
		names = append(names, get, put)
	}
	for pkg, fns := range concurrentClosureFuncs {
		for fn := range fns {
			names = append(names, pkg+"."+fn)
		}
	}
	for _, name := range names {
		if name != "" && !declared[name] {
			t.Errorf("registry names %s, which the module no longer declares", name)
		}
	}
}
