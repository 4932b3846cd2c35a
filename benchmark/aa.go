package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"finbench/internal/benchreg"
)

// metricRunInChild runs one metric run in a fresh process of this same
// binary and parses its result line. The benchmark is judged by runs that
// are each a process of their own; a run that inherits the heap and the
// threads of the runs before it does not measure the same thing
// (bulk_columnar, where the client's collector competes with a server
// that fills both cores, spread 13 % in-process against 2 % fresh).
func metricRunInChild(w *workload, seed uint64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return &res, nil
}

// mainAA is `benchmark aa`: the same-code repeatability check. It runs
// the full set of metric runs -sets times on one build and prints, per
// (end-to-end metric, workload), the spread of the sets — see spread —
// beside the metric's bound.
// A spread above the bound means the benchmark cannot resolve a
// regression of that size on that pair, and the command exits non-zero;
// setup_s alone is printed without being held to it.
func mainAA(args []string) int {
	fs := flag.NewFlagSet("benchmark aa", flag.ContinueOnError)
	var (
		sets    = fs.Int("sets", 2, "how many times to run the full set")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", defaultSeconds, "length of each measured window in seconds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sets < 2 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark aa: need -sets >= 2 and -seconds >= 1")
		return 2
	}
	// values[workload][metric] holds one value per set.
	values := make(map[string]map[string][]float64)
	failed := 0
	for s := 0; s < *sets; s++ {
		for _, w := range workloads {
			res, err := metricRunInChild(w, *seed, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: set %d %v\n", s+1, err)
				return 1
			}
			fmt.Printf("set %d %-22s attempted %d failed %d", s+1, w.name, res.Attempted, res.Failed)
			failed += res.Failed
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				fmt.Printf("  %s %.6g", d.name, v)
				values[w.name][d.name] = append(values[w.name][d.name], v)
			}
			fmt.Println()
		}
	}
	breaches := 0
	fmt.Printf("\n%-22s %-24s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			med, sp := benchreg.Median(vs), spread(vs)
			mark := ""
			switch {
			case sp <= d.bound:
			case d.name == "setup_s":
				// A fifth of a second of spawning and warm-up repeats
				// less well than a window; the benchmark is accepted on
				// the median of setup_s, not on its spread.
				mark = "  (not gated on spread)"
			default:
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-22s %-24s %12.6g %8.2f%% %6.1f%%%s\n", w.name, d.name, med, 100*sp, 100*d.bound, mark)
		}
	}
	if breaches > 0 || failed > 0 {
		fmt.Printf("\n%d pair(s) spread beyond their bound, %d failed operation(s)\n", breaches, failed)
		return 1
	}
	fmt.Println("\nevery pair within its bound")
	return 0
}
