// Command benchreg is the continuous-benchmarking front end: it snapshots
// the experiment registry's host throughput, diffs snapshots, and gates
// on noise-aware regressions.
//
// Usage:
//
//	benchreg run   [-short] [-o BENCH_1.json] [-scale f] [-reps k]
//	               [-warmup n] [-experiment all|fig4|...]
//	benchreg diff  [-md] old.json new.json
//	benchreg check -baseline BENCH_0.json [-candidate new.json] [-short]
//	               [-max-slowdown 0.10] [-mad-factor 3] [-strict-env]
//	               [-o saved.json] [-md summary.md]
//
// run executes every registered experiment's Measure mode with warmup
// plus k repetitions and writes a schema-versioned snapshot recording the
// median and MAD of wall time and throughput, each experiment's op mix,
// and an environment fingerprint. diff compares two snapshots kernel by
// kernel. check compares a candidate (a file, or a fresh run when
// -candidate is omitted) against a baseline and exits 1 when a baseline
// kernel of a selected experiment is missing from the candidate, when a
// gated kernel's allocs/op grows on the same GOOS/GOARCH/GOMAXPROCS, or
// when any kernel's median throughput drops by more than -max-slowdown
// AND beyond -mad-factor x MAD; throughput regressions across mismatched
// environment fingerprints are advisory unless -strict-env is set.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"finbench/internal/bench"
	"finbench/internal/benchreg"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "diff":
		err = diffCmd(os.Args[2:])
	case "check":
		err = checkCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "benchreg: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchreg run   [-short] [-o BENCH_1.json] [-scale f] [-reps k] [-warmup n] [-experiment id|all]
  benchreg diff  [-md] old.json new.json
  benchreg check -baseline BENCH_0.json [-candidate new.json] [-short] [-max-slowdown f]
                 [-mad-factor f] [-strict-env] [-o saved.json] [-md summary.md]`)
}

// samplingFlags registers the shared run/check sampling flags on fs and
// returns a resolver that applies precedence: explicit flags override the
// -short/full preset.
func samplingFlags(fs *flag.FlagSet) func() (benchreg.Opts, float64, string) {
	short := fs.Bool("short", false, "short mode: fewer, briefer repetitions and a smaller workload scale")
	scale := fs.Float64("scale", 0, "workload scale in (0,1]; 0 picks the mode default")
	reps := fs.Int("reps", 0, "timed repetitions per kernel; 0 picks the mode default")
	warmup := fs.Int("warmup", -1, "untimed warmup calls per kernel; -1 picks the mode default")
	return func() (benchreg.Opts, float64, string) {
		opts, sc, mode := benchreg.DefaultOpts(), 0.25, "full"
		if *short {
			opts, sc, mode = benchreg.ShortOpts(), 0.02, "short"
		}
		if *scale > 0 {
			sc = *scale
		}
		if *reps > 0 {
			opts.Reps = *reps
		}
		if *warmup >= 0 {
			opts.Warmup = *warmup
		}
		return opts, sc, mode
	}
}

// snapshot collects a fresh snapshot and stamps the wall clock (the
// library never reads the clock for anything but intervals, keeping
// seeddet's determinism contract; the stamp lives here in cmd/).
func snapshot(opts benchreg.Opts, scale float64, mode, only string) (*benchreg.Snapshot, error) {
	snap, err := bench.Collect(scale, opts, only)
	if err != nil {
		return nil, err
	}
	snap.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	snap.Mode = mode
	return snap, nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	resolve := samplingFlags(fs)
	out := fs.String("o", "BENCH_1.json", "output snapshot path")
	only := fs.String("experiment", "all", "experiment id to run, or all")
	_ = fs.Parse(args) // ExitOnError: Parse exits the process on bad flags

	opts, scale, mode := resolve()
	fmt.Fprintf(os.Stderr, "benchreg: run mode=%s scale=%g reps=%d warmup=%d\n", mode, scale, opts.Reps, opts.Warmup)
	snap, err := snapshot(opts, scale, mode, *only)
	if err != nil {
		return err
	}
	if err := snap.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("benchreg: wrote %s (%d kernels, %d op mixes, env %s)\n",
		*out, len(snap.Kernels), len(snap.Mixes), snap.Env)
	return nil
}

func diffCmd(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	md := fs.Bool("md", false, "emit GitHub-flavored markdown instead of an aligned table")
	_ = fs.Parse(args) // ExitOnError: Parse exits the process on bad flags
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two snapshot paths, got %d", fs.NArg())
	}
	old, err := benchreg.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := benchreg.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	report := benchreg.Check(old, cur, benchreg.DefaultGate())
	if *md {
		fmt.Print(report.Markdown())
	} else {
		fmt.Print(report.Table())
	}
	return nil
}

func checkCmd(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	resolve := samplingFlags(fs)
	baselinePath := fs.String("baseline", "", "baseline snapshot to gate against (required)")
	candidatePath := fs.String("candidate", "", "candidate snapshot; empty runs a fresh one")
	maxSlowdown := fs.Float64("max-slowdown", benchreg.DefaultGate().MaxSlowdown, "tolerated fractional throughput drop")
	madFactor := fs.Float64("mad-factor", benchreg.DefaultGate().MADFactor, "noise band width in MADs")
	maxAllocIncrease := fs.Float64("max-alloc-increase", benchreg.DefaultGate().MaxAllocIncrease, "tolerated fractional allocs/op growth on gated records")
	allocSlack := fs.Float64("alloc-slack", benchreg.DefaultGate().AllocSlack, "absolute allocs/op allowance on top of -max-alloc-increase")
	strictEnv := fs.Bool("strict-env", false, "gate even when environment fingerprints differ")
	out := fs.String("o", "", "also save the candidate snapshot here")
	mdOut := fs.String("md", "", "also write the markdown delta table here ('-' for stdout)")
	only := fs.String("experiment", "all", "experiment id to check, or all")
	_ = fs.Parse(args) // ExitOnError: Parse exits the process on bad flags

	if *baselinePath == "" {
		return fmt.Errorf("check needs -baseline")
	}
	baseline, err := benchreg.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var candidate *benchreg.Snapshot
	if *candidatePath != "" {
		if candidate, err = benchreg.ReadFile(*candidatePath); err != nil {
			return err
		}
	} else {
		opts, scale, mode := resolve()
		fmt.Fprintf(os.Stderr, "benchreg: fresh candidate mode=%s scale=%g reps=%d\n", mode, scale, opts.Reps)
		if candidate, err = snapshot(opts, scale, mode, *only); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := candidate.WriteFile(*out); err != nil {
			return err
		}
	}
	if *only != "all" {
		// Only the selected experiment's rows are compared, so only its
		// baseline rows must reappear.
		keepExperiment(baseline, *only)
		keepExperiment(candidate, *only)
	}
	gate := benchreg.Gate{
		MaxSlowdown: *maxSlowdown, MADFactor: *madFactor,
		MaxAllocIncrease: *maxAllocIncrease, AllocSlack: *allocSlack,
	}
	report := benchreg.Check(baseline, candidate, gate)
	fmt.Print(report.Table())
	if *mdOut == "-" {
		fmt.Print(report.Markdown())
	} else if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(report.Markdown()), 0o644); err != nil {
			return err
		}
	}
	if len(report.Missing) > 0 {
		return fmt.Errorf("%d baseline kernel(s) missing from the candidate: %s",
			len(report.Missing), strings.Join(report.Missing, "; "))
	}
	if report.Failed(*strictEnv) {
		return fmt.Errorf("%d kernel(s) regressed beyond %.0f%%+%gxMAD (throughput) or +%.0f%%+%g (allocs/op)",
			len(report.Regressions), gate.MaxSlowdown*100, gate.MADFactor,
			gate.MaxAllocIncrease*100, gate.AllocSlack)
	}
	if len(report.Regressions) > 0 {
		fmt.Printf("benchreg: %d regression(s) on a mismatched environment — advisory only (use -strict-env to gate)\n",
			len(report.Regressions))
	}
	fmt.Println("benchreg: check passed")
	return nil
}

// keepExperiment drops every kernel of s that experiment id did not time.
func keepExperiment(s *benchreg.Snapshot, id string) {
	kept := s.Kernels[:0]
	for _, k := range s.Kernels {
		if k.Experiment == id {
			kept = append(kept, k)
		}
	}
	s.Kernels = kept
}
