// Command finbench regenerates the paper's tables and figures.
//
// Usage:
//
//	finbench list
//	finbench run [-experiment all|tab1|fig4|fig5|fig6|tab2|fig8|ninja]
//	             [-mode model|measure] [-scale 0.1] [-format table|csv]
//
// Model mode runs the instrumented kernels and prints the modelled SNB-EP
// and KNC throughput next to the paper's values; measure mode wall-clock
// times the kernels on the host.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"finbench"
	"finbench/internal/bench"
	"finbench/internal/benchreg"
	"finbench/internal/machine"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		run(os.Args[2:])
	case "report":
		report(os.Args[2:])
	case "roofline":
		roofline(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "finbench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  finbench list
  finbench run    [-experiment id|all] [-mode model|measure] [-scale f] [-format table|csv]
  finbench report [-o report.md] [-scale f] [-measure]
  finbench roofline [-machine SNB-EP|KNC]`)
}

// roofline plots the modelled Black-Scholes optimization levels on the
// named machine's roofline.
func roofline(args []string) {
	fs := flag.NewFlagSet("roofline", flag.ExitOnError)
	machineName := fs.String("machine", "", "SNB-EP, KNC, or empty for both")
	_ = fs.Parse(args) // ExitOnError: Parse exits the process on bad flags

	if err := writeRoofline(os.Stdout, *machineName); err != nil {
		fmt.Fprintf(os.Stderr, "finbench: %v\n", err)
		os.Exit(2)
	}
}

// writeRoofline writes the roofline chart of the named machine, or of
// both machines when name is empty, to w.
func writeRoofline(w io.Writer, name string) error {
	machines := machine.Machines()
	if name != "" {
		m := machine.ByName(name)
		if m == nil {
			return fmt.Errorf("unknown machine %q (try SNB-EP or KNC)", name)
		}
		machines = []*machine.Machine{m}
	}
	const n = 50000
	b := finbench.NewBatch(n)
	for i := 0; i < n; i++ {
		b.Spots[i] = 50 + float64(i%150)
		b.Strikes[i] = 50 + float64((i*13)%150)
		b.Expiries[i] = 0.1 + float64(i%40)/8
	}
	mkt := finbench.Market{Rate: 0.02, Volatility: 0.3}
	for _, m := range machines {
		points := map[string][2]float64{}
		for _, level := range []finbench.OptLevel{
			finbench.LevelBasic, finbench.LevelIntermediate, finbench.LevelAdvanced,
		} {
			mix, err := finbench.ProfileBatch(b, mkt, level, m.SIMDWidthDP)
			if err != nil {
				return err
			}
			points["black-scholes "+level.String()] = [2]float64{mix.ArithmeticIntensity(), m.Predict(mix).GFLOPs}
		}
		fmt.Fprintln(w, m.Roofline(points))
	}
	return nil
}

// report writes a single markdown document containing every experiment's
// model table (and, with -measure, the host wall-clock tables).
func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("o", "report.md", "output file ('-' for stdout)")
	scale := fs.Float64("scale", 1.0, "workload scale in (0,1]")
	measure := fs.Bool("measure", false, "include host wall-clock tables")
	_ = fs.Parse(args) // ExitOnError: Parse exits the process on bad flags

	var b strings.Builder
	if err := writeReport(&b, *scale, *measure, benchreg.DefaultOpts()); err != nil {
		fmt.Fprintf(os.Stderr, "finbench: %v\n", err)
		os.Exit(1)
	}
	if *out == "-" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "finbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, b.Len())
}

// writeReport writes the report: each experiment's model table and, when
// measure is set, its host table timed with o. Host-only experiments
// (servepath, scenario, streampath, heavy) have no model table, so they
// appear only with measure.
func writeReport(w io.Writer, scale float64, measure bool, o benchreg.Opts) error {
	fmt.Fprintf(w, "# finbench report\n\nWorkload scale %.2f. Model columns are predicted SNB-EP/KNC\nthroughput from measured operation mixes; see EXPERIMENTS.md for\nprovenance of the paper columns.\n\n", scale)
	for _, e := range bench.Experiments() {
		if e.Model == nil && !(measure && e.Measure != nil) {
			continue
		}
		fmt.Fprintf(w, "## %s — %s\n\n%s\n", e.ID, e.Title, e.Description)
		if e.Model != nil {
			res, err := e.Model(scale)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintf(w, "```\n%s```\n\n", res.Table())
		} else {
			fmt.Fprintln(w)
		}
		if measure && e.Measure != nil {
			mres, err := e.Measure(scale)
			if err != nil {
				return fmt.Errorf("%s measure: %w", e.ID, err)
			}
			mres.Time(o)
			fmt.Fprintf(w, "Host wall-clock:\n\n```\n%s```\n\n", mres.Table())
		}
	}
	return nil
}

func list() {
	fmt.Printf("%-8s %-55s %s\n", "ID", "TITLE", "MEASURABLE")
	for _, e := range bench.Experiments() {
		var modes []string
		if e.Model != nil {
			modes = append(modes, "model")
		}
		if e.Measure != nil {
			modes = append(modes, "measure")
		}
		fmt.Printf("%-8s %-55s %s\n", e.ID, e.Title, strings.Join(modes, "+"))
	}
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	expID := fs.String("experiment", "all", "experiment id or 'all'")
	mode := fs.String("mode", "model", "model or measure")
	scale := fs.Float64("scale", 1.0, "workload scale in (0,1]")
	format := fs.String("format", "table", "table or csv")
	_ = fs.Parse(args) // ExitOnError: Parse exits the process on bad flags

	var exps []*bench.Experiment
	if *expID == "all" {
		exps = bench.Experiments()
	} else {
		e := bench.ByID(*expID)
		if e == nil {
			fmt.Fprintf(os.Stderr, "finbench: unknown experiment %q (try 'finbench list')\n", *expID)
			os.Exit(2)
		}
		exps = []*bench.Experiment{e}
	}

	for _, e := range exps {
		runner, measure := e.Model, strings.HasPrefix(*mode, "measure")
		if measure {
			if e.Measure == nil {
				fmt.Printf("%s: no measure mode (model-only experiment)\n\n", e.ID)
				continue
			}
			runner = e.Measure
		} else if runner == nil {
			fmt.Printf("%s: no model mode (host-only experiment; use -mode measure)\n\n", e.ID)
			continue
		}
		res, err := runner(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "finbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if measure {
			res.Time(benchreg.DefaultOpts())
		}
		if *format == "csv" {
			fmt.Printf("# %s — %s\n%s\n", res.ID, res.Title, res.CSV())
		} else {
			fmt.Println(res.Table())
		}
	}
}
