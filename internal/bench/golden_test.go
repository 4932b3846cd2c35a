package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/model_golden.csv from current output")

// TestModelGolden pins the paper reproduction exactly: the output of
// `finbench run -mode model -scale 0.05 -format csv` (every experiment,
// host-only ones as their one-line skip notice) must match the committed
// golden byte for byte. Model mode is host-independent — op counts are
// worker-invariant and the machine model is analytic — so any diff means
// a counted op mix or the model moved. Regenerate deliberately with
// `go test ./internal/bench -run TestModelGolden -update` and say in the
// change which counted variant moved and why.
func TestModelGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range Experiments() {
		if e.Model == nil {
			fmt.Fprintf(&buf, "%s: no model mode (host-only experiment; use -mode measure)\n\n", e.ID)
			continue
		}
		res, err := e.Model(testScale)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&buf, "# %s — %s\n%s\n", res.ID, res.Title, res.CSV())
	}
	path := filepath.Join("testdata", "model_golden.csv")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("model-mode output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("model-mode output differs from %s in length: %d vs %d lines", path, len(got), len(wantLines))
	}
}
