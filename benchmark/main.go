// Command benchmark measures finserve in its deployed shape: it builds
// cmd/finserve, boots `finserve serve` or `finserve route` over replicas
// on loopback, drives it closed-loop over real sockets, checks the
// replies against the library, and prints every metric by name and unit.
//
//	go run ./benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	go run ./benchmark [-trace 1]          every workload in turn
//	go run ./benchmark aa -sets 2          same-code repeatability check
//
// -trace 0 reports the end-to-end metrics and traces nothing; -trace 1 is
// the separate traced run that reports the per-layer metrics and writes
// benchmark/out/trace-<workload>.jsonl. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	// SIGINT/SIGTERM would skip deferred teardown; children also carry
	// Pdeathsig, so exiting here is enough to take every server down.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.Exit(130)
	}()

	if len(args) > 0 && args[0] == "aa" {
		return mainAA(args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: every workload in turn)")
		seed    = fs.Uint64("seed", 1, "workload seed; the servers see only inputs generated from it")
		seconds = fs.Int("seconds", defaultSeconds, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, nothing traced; 1: traced run, per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	todo := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	env, err := prepare()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, w := range todo {
		var rep *report
		if *trace == 1 {
			rep, err = runTraced(env, w, *seed, *seconds)
		} else {
			rep, err = runMetric(env, w, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		rep.print()
	}
	return 0
}

// print writes the human-readable table and then the result line, which
// is the last line of standard output.
func (r *report) print() {
	fmt.Printf("workload %s  seed %d  inputs_digest %s  item %s\n", r.workload.name, r.seed, r.digest, r.workload.item)
	for _, p := range r.phases {
		fmt.Printf("  phase %-16s attempted %7d  failed %d\n", p.name, p.attempted, p.failed)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Printf("  FAILED request ordinal %d (workload %s, seed %d): %s\n", f.ordinal, r.workload.name, r.seed, f.what)
	}
	line, err := json.Marshal(&r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
