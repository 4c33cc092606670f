package main

import (
	"fmt"
	"io"
)

// runAA is the A/A check: sets back-to-back runs of every named
// workload on the same build, each with a fresh server and data
// directory. Set k uses seeds[k mod len(seeds)], so one seed measures
// pure run-to-run noise and a list of as many seeds as sets repeats the
// acceptance check (ten runs, ten seeds). Per metric and workload it
// prints the median, the quartiles and the spread (interquartile
// distance over the median) beside the metric's bound, and it fails
// when a spread exceeds its bound. setup_s is printed and not judged:
// its bound guards the median between commits, not the spread.
func runAA(e *env, names []string, seeds []int64, pl plan, sets int, stdout, stderr io.Writer) int {
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	for _, name := range names {
		values[name] = make(map[string][]float64)
	}
	ok := true
	for k := 0; k < sets; k++ {
		seed := seeds[k%len(seeds)]
		for _, name := range names {
			r, err := runWorkload(e, name, seed, pl, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "set %d %-9s seed %d:", k+1, name, seed)
			for _, d := range endToEnd {
				values[name][d.name] = append(values[name][d.name], r.values[d.name])
				fmt.Fprintf(stdout, " %s=%.4g", d.name, r.values[d.name])
			}
			fmt.Fprintf(stdout, " late_ratio=%.4f failed=%d/%d\n", r.values["bench.late_ratio"], r.failed, r.attempted)
			if !r.correct() || r.invalid != "" {
				fmt.Fprintf(stdout, "  NOT CLEAN: failures:%s %s\n", r.failures, r.invalid)
				ok = false
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-10s %-14s %12s %12s %12s %8s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(values[name][d.name])
			sp := spread(values[name][d.name])
			verdict := ""
			switch {
			case d.name == "setup_s":
				verdict = "(not judged)"
			case sp > d.bound:
				verdict = "EXCEEDS BOUND"
				ok = false
			case sp > d.bound/3:
				verdict = "(above a third of the bound)"
			}
			fmt.Fprintf(stdout, "%-10s %-14s %12.4f %12.4f %12.4f %7.2f%% %6.0f%% %s\n",
				name, d.name, q1, med, q3, sp*100, d.bound*100, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
