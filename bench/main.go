// Command bench is the repository's one benchmark harness: it builds
// the real bips-server and bips-experiment from the checkout, runs them
// as child processes with their existing flags, drives them open loop
// over loopback TCP, checks every answer against a reference model, and
// prints every metric of BENCHMARK.json by name with its unit. See
// README.md in this directory.
//
//	go run -C bench . -seed 7                 all four workloads
//	go run -C bench . -workload query -seed 7 one workload
//	go run -C bench . -trace spans.json       the traced run: per-layer metrics and ledgers
//	go run -C bench . -aa 2                   two sets on the same build, spreads against bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

var workloadNames = []string{"query", "report", "mixed", "discovery"}

func main() {
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of query, report, mixed, discovery (default: all four)")
	seedList := fs.String("seed", "1", "workload seed; -aa takes a comma-separated list")
	seconds := fs.Int("seconds", 30, "measured seconds per workload: two thirds fixed-rate, one third saturation")
	trace := fs.String("trace", "0", "0: untraced run, end-to-end metrics; 1 or a file name: traced run, per-layer metrics, spans written as JSON")
	aa := fs.Int("aa", 0, "run N back-to-back sets on the same build and compare their spreads with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *seconds < 2 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 2")
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Whatever way this process ends, no child outlives it and the
	// scratch directory goes.
	defer e.cleanup()
	defer killChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		e.cleanup()
		os.Exit(130)
	}()

	built, err := e.build()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "built bips-server and bips-experiment in %.2f s\n", built.Seconds())

	if *aa > 0 {
		return runAA(e, names, seeds, fullPlan(*seconds), *aa, stdout, stderr)
	}

	ok := true
	for _, name := range names {
		var r *result
		var defs []metricDef
		if *trace == "0" || *trace == "" {
			r, err = runWorkload(e, name, seeds[0], fullPlan(*seconds), stderr)
			defs = endToEnd
		} else {
			path := *trace
			if path == "1" {
				path = filepath.Join(e.root, ".bench_build", "trace-"+name+".json")
			}
			r, err = runTraced(e, name, seeds[0], fullPlan(*seconds), path, stderr)
			defs = perLayer
			if r != nil {
				r.set("bench.build_s", built.Seconds())
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if extra := r.undeclared(); len(extra) > 0 {
			fmt.Fprintf(stderr, "bench: undeclared metrics produced: %s\n", strings.Join(extra, ", "))
			return 1
		}
		fmt.Fprintf(stdout, "\n== %s (seed %d, %d s) ==\n", name, seeds[0], *seconds)
		r.print(stdout, defs, false)
		if len(defs) == len(endToEnd) {
			fmt.Fprintln(stdout, "  -- beside them, unguarded:")
			r.print(stdout, perLayer, true)
		}
		r.printSummary(stdout)
		fmt.Fprintln(stdout, r.driverLine(defs))
		ok = ok && r.correct()
	}
	if !ok {
		return 1
	}
	return 0
}

// plan sizes a run of any workload.
type plan struct {
	serving   sizes
	discovery discoverySizes
	setups    int
}

func fullPlan(seconds int) plan {
	return plan{serving: fullSizes(seconds), discovery: fullDiscoverySizes(seconds), setups: setups}
}

// runWorkload is one untraced run of one workload.
func runWorkload(e *env, name string, seed int64, pl plan, log io.Writer) (*result, error) {
	if name == "discovery" {
		return runDiscovery(e, pl.discovery, pl.setups, seed, log)
	}
	return runServing(e, servingSpecs[name], pl.serving, seed, pl.setups, false, nil, log)
}

func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seed %q: %v", list, err)
		}
		seeds = append(seeds, n)
	}
	return seeds, nil
}
