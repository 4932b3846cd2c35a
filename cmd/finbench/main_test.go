package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"finbench/internal/benchreg"
)

// The roofline charts are model output, so they are pinned byte for
// byte: both machines together, and each machine alone as its part of
// the pair.
func TestRooflineGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/roofline.golden")
	if err != nil {
		t.Fatal(err)
	}
	var both, each bytes.Buffer
	if err := writeRoofline(&both, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(both.Bytes(), want) {
		t.Fatalf("roofline output differs from testdata/roofline.golden:\n%s", both.String())
	}
	for _, name := range []string{"SNB-EP", "knc"} {
		if err := writeRoofline(&each, name); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(each.Bytes(), want) {
		t.Fatalf("SNB-EP then KNC alone differ from both together:\n%s", each.String())
	}
}

func TestRooflineUnknownMachine(t *testing.T) {
	var out bytes.Buffer
	err := writeRoofline(&out, "GPU")
	if err == nil || !strings.Contains(err.Error(), `"GPU"`) {
		t.Fatalf("unknown machine: err = %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("unknown machine wrote a chart:\n%s", out.String())
	}
}

// report -measure prints the host tables of the experiments that have no
// model (heavy among them); without -measure they stay out of it.
func TestReportMeasureIncludesHostOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("times every experiment's host rows once")
	}
	var plain, measured strings.Builder
	if err := writeReport(&plain, 0.02, false, benchreg.Opts{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "## heavy") {
		t.Fatal("report without -measure has a heavy section")
	}
	once := benchreg.Opts{Reps: 1, MinDuration: time.Nanosecond}
	if err := writeReport(&measured, 0.02, true, once); err != nil {
		t.Fatal(err)
	}
	out := measured.String()
	for _, want := range []string{"## heavy", "## servepath", "## scenario", "## streampath",
		"binomial-amer-put-x4", "crank-nicolson-x4", "monte-carlo-x4", "monte-carlo-x4-cold"} {
		if !strings.Contains(out, want) {
			t.Errorf("report -measure lacks %q", want)
		}
	}
}
