package lint

import (
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the .golden files from current output")

// corpora loads every testdata/src package in one Load call, keyed by
// directory name: the source importer then type-checks the standard
// library and the module's packages once for all corpora, not once per
// corpus.
var corpora = sync.OnceValues(func() (map[string]*Package, error) {
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	pkgs, err := Load(dirs)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byName[path.Base(p.Path)] = p
	}
	return byName, nil
})

// corpus returns the loaded testdata/src/<name> package.
func corpus(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := corpora()
	if err != nil {
		t.Fatalf("Load(testdata/src/*): %v", err)
	}
	p := pkgs[name]
	if p == nil {
		t.Fatalf("Load(testdata/src/*): no package in testdata/src/%s", name)
	}
	return p
}

// TestGolden runs each pass over its seeded-violation package under
// testdata/src/<pass>/ (loaded with every other corpus by corpora) and
// compares the diagnostics against
// testdata/<pass>.golden. Every testdata package contains both positive
// cases (flagged, listed in the golden file) and negative cases (clean
// code plus a finlint:ignore suppression) so both directions are pinned.
func TestGolden(t *testing.T) {
	for _, pass := range Passes() {
		pass := pass
		t.Run(pass.Name, func(t *testing.T) {
			pkg := corpus(t, pass.Name)
			for _, e := range pkg.TypeErrors {
				t.Errorf("testdata must type-check cleanly: %v", e)
			}
			var buf strings.Builder
			for _, d := range RunConfig([]*Package{pkg}, []*Pass{pass}, Config{}) {
				fmt.Fprintln(&buf, d)
			}
			got := buf.String()
			goldenPath := filepath.Join("testdata", pass.Name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/lint -run TestGolden -update`): %v", err)
			}
			want := string(wantBytes)
			if got != want {
				t.Errorf("diagnostics mismatch for pass %s\n--- got ---\n%s--- want ---\n%s", pass.Name, got, want)
			}
			if strings.TrimSpace(got) == "" {
				t.Errorf("pass %s produced no diagnostics on its seeded violations", pass.Name)
			}
		})
	}
}

// TestGoldenSuppression pins the negative direction explicitly: the clean
// and finlint:ignore'd functions in each testdata package must not appear
// in the golden output.
func TestGoldenSuppression(t *testing.T) {
	for _, pass := range Passes() {
		golden, err := os.ReadFile(filepath.Join("testdata", pass.Name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v", pass.Name, err)
		}
		src, err := os.ReadFile(filepath.Join("testdata", "src", pass.Name, pass.Name+".go"))
		if err != nil {
			t.Fatalf("%s: %v", pass.Name, err)
		}
		// Every line tagged with an inline "// seeded violation" marker
		// must be flagged; count them against golden lines.
		seeded := strings.Count(string(src), "// seeded violation")
		if seeded == 0 {
			t.Errorf("%s: testdata has no seeded violations", pass.Name)
		}
		goldenLines := 0
		for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
			if line == "" {
				continue
			}
			goldenLines++
			if !strings.Contains(line, "["+pass.Name+"]") {
				t.Errorf("%s: golden line from wrong pass: %s", pass.Name, line)
			}
		}
		if goldenLines < seeded {
			t.Errorf("%s: %d seeded violations but only %d golden diagnostics", pass.Name, seeded, goldenLines)
		}
		if strings.Contains(string(golden), "Ignored") || strings.Contains(string(golden), "Good") {
			// Diagnostics carry file:line only, so this guards messages
			// that quote an identifier from a clean function.
			t.Errorf("%s: golden output references a clean/ignored case:\n%s", pass.Name, golden)
		}
	}
}

func TestSelectPasses(t *testing.T) {
	all, err := SelectPasses("all")
	if err != nil || len(all) != 10 {
		t.Fatalf("SelectPasses(all) = %d passes, err %v; want 10, nil", len(all), err)
	}
	two, err := SelectPasses("floateq, rngshare")
	if err != nil || len(two) != 2 || two[0].Name != "floateq" || two[1].Name != "rngshare" {
		t.Fatalf("SelectPasses subset failed: %v, err %v", two, err)
	}
	if _, err := SelectPasses("nosuchpass"); err == nil {
		t.Fatal("SelectPasses accepted an unknown pass name")
	}
}
