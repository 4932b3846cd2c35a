package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// globalRandFuncs are the math/rand package-level functions backed by the
// shared, mutex-guarded global source. Using them in library code makes
// results depend on everything else the process has drawn — killing the
// reproducibility that lets kernel variants be diffed bit-for-bit — and
// serializes workers on one lock.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "N": true, "IntN": true,
	"Int32N": true, "Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// seedCallNames marks callees that accept a seed; time.Now() flowing into
// one of these makes every run draw a different sequence.
func isSeedCallee(name string) bool {
	return strings.Contains(name, "Seed") || strings.Contains(name, "NewSource") ||
		strings.Contains(name, "NewStream") || name == "NewMT19937"
}

// seeddetPass flags nondeterministic seeding outside cmd/: time.Now()
// flowing into a seed-accepting call, and any use of math/rand's global
// source. Binaries under cmd/ may default to a wall-clock seed for
// convenience (they surface the chosen seed to the user); libraries must
// thread an explicit seed so experiments replay exactly (the paper's
// Table II comparisons assume identical draws across variants).
func seeddetPass() *Pass {
	return &Pass{
		Name: "seeddet",
		Doc:  "nondeterministic seeding (time.Now into a seed, global math/rand) outside cmd/",
		Run:  runSeedDet,
	}
}

func runSeedDet(p *Package, report func(pos token.Pos, msg string)) {
	if isCmdPackage(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkgPath, fn, ok := calleeStatic(p, call); ok &&
				(pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[fn] {
				report(call.Pos(), fmt.Sprintf(
					"rand.%s draws from math/rand's process-global source; use an explicit rng.Stream (or rand.New with a threaded seed) so runs are reproducible", fn))
			}
			if name, ok := calleeName(call); ok && isSeedCallee(name) {
				for _, arg := range call.Args {
					if pos, found := findTimeNow(p, arg); found {
						report(pos, fmt.Sprintf(
							"time.Now() flows into seed argument of %s; thread an explicit seed parameter so runs are reproducible", name))
					}
				}
			}
			return true
		})
	}
}

// isCmdPackage reports whether the import path has a "cmd" element
// (finbench/cmd/finserve etc.), the one place wall-clock seeding is allowed.
func isCmdPackage(path string) bool {
	for _, part := range strings.Split(path, "/") {
		if part == "cmd" {
			return true
		}
	}
	return false
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// findTimeNow reports the position of a time.Now() call anywhere inside
// expr (covers uint64(time.Now().UnixNano()) and friends).
func findTimeNow(p *Package, expr ast.Expr) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkgPath, fn, ok := calleeStatic(p, call); ok && pkgPath == "time" && fn == "Now" {
			pos, found = call.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}
