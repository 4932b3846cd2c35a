// Package bench is the experiment harness: one entry per table or figure
// of the paper's evaluation (Sec. IV), each able to regenerate its rows.
//
// Every experiment runs in two modes:
//
//   - Model: the kernels execute instrumented (internal/vec counting) at
//     each optimization level and SIMD width, and internal/machine converts
//     the measured operation mixes into predicted throughput for SNB-EP and
//     KNC. These numbers are compared against the paper's, row by row;
//     EXPERIMENTS.md records the comparison. Matching target is shape —
//     orderings, ratios, and roofline proximity — not absolute cycles.
//   - Measure: the same kernels execute uninstrumented on the host and are
//     wall-clock timed, demonstrating that the optimization ladder (SOA
//     over AOS, tiling, RNG interleaving, wavefront SIMD) also holds
//     natively in Go.
//
// Paper reference values carry a provenance tag: values printed in the
// paper's text or tables are exact; bar heights only shown in figures are
// derived from the paper's stated ratios and bounds (see paper.go).
package bench

import (
	"fmt"
	"sort"
	"strings"

	"finbench/internal/benchreg"
	"finbench/internal/perf"
)

// MachineCol identifies a throughput column.
const (
	ColSNB = "SNB-EP"
	ColKNC = "KNC"
)

// Provenance describes how a paper reference value was obtained.
type Provenance int

const (
	// Stated: printed as a number in the paper's text or tables.
	Stated Provenance = iota
	// Derived: computed from ratios/bounds the paper states.
	Derived
	// None: the paper gives no usable value for this cell.
	None
)

// String renders the provenance tag used in tables.
func (p Provenance) String() string {
	switch p {
	case Stated:
		return "stated"
	case Derived:
		return "derived"
	default:
		return "-"
	}
}

// Row is one bar/line of an experiment: an optimization level (or table
// row) with paper and modelled throughput per machine, or — in Measure
// mode — one host kernel to time.
type Row struct {
	Label string
	// Paper and Model map machine name to items/second.
	Paper map[string]float64
	Model map[string]float64
	// Prov tags the paper values' provenance.
	Prov Provenance
	// Run is a Measure row's kernel invocation and Items the work items
	// one call processes; both are zero on model rows.
	Run   func()
	Items int
	// GateAllocs marks rows whose allocs/op is a per-request budget the
	// snapshot gate enforces (serve-path rows: one invocation = one
	// request).
	GateAllocs bool
	// Host is the row's wall-clock timing, filled by Result.Time: the
	// median throughput across its repetitions with the MAD as noise
	// bound (see internal/benchreg). Zero until timed.
	Host benchreg.Sample
}

// Result is a regenerated table/figure.
type Result struct {
	ID    string
	Title string
	// Units of the throughput numbers (e.g. "options/s").
	Units string
	// Cols names the value columns; empty means the default machine pair
	// {SNB-EP, KNC}. Ablations use custom columns (e.g. MC vs QMC).
	Cols []string
	Rows []Row
	// Bounds optionally holds the roofline bound per machine (the
	// "Bandwidth-bound"/"Compute-bound" line in the paper's charts).
	Bounds map[string]float64
	Notes  []string
}

// Experiment is one regenerable artifact of the paper.
type Experiment struct {
	ID          string
	Title       string
	Units       string
	Description string
	// Model regenerates the paper comparison; scale (0,1] shrinks the
	// workload for quick runs (1 = full experiment size). Nil for
	// host-only experiments (servepath) with no paper column to model.
	Model func(scale float64) (*Result, error)
	// Measure builds the host rows untimed, each with the kernel call
	// Result.Time times; nil when not applicable.
	Measure func(scale float64) (*Result, error)
	// Mix profiles the experiment's best-optimized kernel instrumented at
	// width 8 and returns its dynamic op mix, for recording alongside
	// throughput in benchreg snapshots; nil when not applicable.
	Mix func(scale float64) (perf.Counts, error)
}

var registry []*Experiment

func register(e *Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in paper order.
func Experiments() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, k := range []string{"tab1", "fig4", "fig5", "fig6", "tab2", "fig8", "ninja",
		"ablate-tile", "ablate-rng", "ablate-qmc", "ablate-width", "servepath",
		"scenario", "streampath", "heavy"} {
		if id == k {
			return i
		}
	}
	return 100
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range registry {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// human renders a throughput in engineering units.
func human(v float64) string {
	switch {
	case v == 0: // finlint:ignore floateq exact zero is the "absent" sentinel, never computed
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gK", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Table renders the result as an aligned text table comparing paper and
// model values (and host throughput when present).
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", r.ID, r.Title, r.Units)
	hasHost := false
	for _, row := range r.Rows {
		if row.Host.Reps > 0 {
			hasHost = true
		}
	}
	if hasHost {
		fmt.Fprintf(&b, "%-42s %12s %12s %5s\n", "level", "host", "±mad", "reps")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-42s %12s %12s %5d\n", row.Label, human(row.Host.OpsPerSec), human(row.Host.OpsMAD), row.Host.Reps)
		}
		return b.String()
	}
	cols := r.Cols
	if len(cols) == 0 {
		cols = []string{ColSNB, ColKNC}
	}
	fmt.Fprintf(&b, "%-42s", "level")
	for _, col := range cols {
		fmt.Fprintf(&b, " %10s %10s %7s", col+":paper", col+":model", "ratio")
	}
	fmt.Fprintf(&b, " %9s\n", "prov")
	ratio := func(model, paper float64) string {
		if paper == 0 || model == 0 { // finlint:ignore floateq exact zero is the "absent" sentinel, never computed
			return "-"
		}
		return fmt.Sprintf("%.2f", model/paper)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-42s", row.Label)
		for _, col := range cols {
			fmt.Fprintf(&b, " %10s %10s %7s",
				human(row.Paper[col]), human(row.Model[col]), ratio(row.Model[col], row.Paper[col]))
		}
		fmt.Fprintf(&b, " %9s\n", row.Prov)
	}
	if len(r.Bounds) > 0 {
		fmt.Fprintf(&b, "%-42s", "roofline bound")
		for _, col := range cols {
			fmt.Fprintf(&b, " %10s %10s %7s", human(r.Bounds[col]), "", "")
		}
		fmt.Fprintln(&b)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the result as comma-separated rows for plotting: a paper
// and a model value per column (the machine pair, or the experiment's own
// Cols), then host and provenance.
func (r *Result) CSV() string {
	cols, names := r.Cols, r.Cols
	if len(cols) == 0 {
		cols, names = []string{ColSNB, ColKNC}, []string{"snb", "knc"}
	}
	var b strings.Builder
	b.WriteString("label")
	for _, name := range names {
		fmt.Fprintf(&b, ",%[1]s_paper,%[1]s_model", strings.ToLower(name))
	}
	b.WriteString(",host,host_mad,provenance\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%q", row.Label)
		for _, col := range cols {
			fmt.Fprintf(&b, ",%g,%g", row.Paper[col], row.Model[col])
		}
		fmt.Fprintf(&b, ",%g,%g,%s\n", row.Host.OpsPerSec, row.Host.OpsMAD, row.Prov)
	}
	return b.String()
}

// Time times every row of r under o — benchreg's warmup+repetition
// harness, so every host number in the repo is a median with a noise
// bound rather than a single sample. It is the one host timer: benchreg
// snapshots (Collect), finbench -mode measure and report -measure all
// time their rows here.
func (r *Result) Time(o benchreg.Opts) {
	for i := range r.Rows {
		row := &r.Rows[i]
		row.Host = benchreg.Measure(row.Items, row.Run, o)
	}
}

// hostRow builds an untimed Measure-mode row for kernel f processing
// items work units per call.
func hostRow(label string, items int, f func()) Row {
	return Row{Label: label, Items: items, Run: f}
}
