package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// discoverySizes scales the discovery workload. A job is one
// bips-experiment child.
type discoverySizes struct {
	fixed, sat  time.Duration
	jobTrials   int // latency phase: -run table1 -trials N -workers 1
	satTrials   int // saturation phase: -run all -trials N -runs R -workers nproc
	satRuns     int
	checkTrials int // determinism check: -run all at 1/10 of the saturation size
	checkRuns   int
}

func fullDiscoverySizes(seconds int) discoverySizes {
	sz := fullSizes(seconds)
	return discoverySizes{
		fixed: sz.fixed, sat: sz.sat,
		jobTrials: 400, satTrials: 2000, satRuns: 4, checkTrials: 200, checkRuns: 1,
	}
}

// experiment runs one bips-experiment child to completion and returns
// its standard output, wall time, CPU time and peak resident set.
//
// The peak is the last VmHWM read while the child lived, polled every
// 10 ms. The ru_maxrss that wait4 returns cannot be used: Linux carries
// the high-water mark across exec, so it is never below the harness's
// own resident set at the time of the fork.
func experiment(e *env, args ...string) (out []byte, wall, cpu time.Duration, rssMB float64, err error) {
	begin := time.Now()
	c, err := startChild(filepath.Join(e.bin, "bips-experiment"), args...)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	for alive := true; alive; {
		select {
		case <-c.waited:
			alive = false
		case <-time.After(10 * time.Millisecond):
			if mb, err := procPeakRSS(c.pid()); err == nil {
				rssMB = mb
			}
		}
	}
	if err := c.wait(); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("bips-experiment %s: %w", strings.Join(args, " "), err)
	}
	wall = time.Since(begin)
	return c.stdout.Bytes(), wall, c.cpuTime(), rssMB, nil
}

// checkTable1 verifies the Table 1 block of an experiment's output
// against what the paper's procedure guarantees whatever the seed:
// starting in the same train is faster than the mix, which is faster
// than starting in different trains, and the Same and Different cases
// partition the trials the Mixed row averages over.
func checkTable1(out []byte, trials int) error {
	type row struct {
		n    int
		mean float64
	}
	rows := make(map[string]row)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[0] != "Same" && f[0] != "Different" && f[0] != "Mixed") {
			continue
		}
		n, err1 := strconv.Atoi(f[1])
		mean, err2 := strconv.ParseFloat(strings.TrimSuffix(f[2], "s"), 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("Table 1 row %q does not parse", sc.Text())
		}
		rows[f[0]] = row{n, mean}
	}
	same, diff, mixed := rows["Same"], rows["Different"], rows["Mixed"]
	if len(rows) != 3 {
		return fmt.Errorf("Table 1 has %d of its 3 rows", len(rows))
	}
	if same.n+diff.n != trials || mixed.n != trials {
		return fmt.Errorf("Table 1 case counts Same %d + Different %d, Mixed %d; want both to make %d trials",
			same.n, diff.n, mixed.n, trials)
	}
	if !(same.mean < mixed.mean && mixed.mean < diff.mean) {
		return fmt.Errorf("Table 1 means Same %.4f, Mixed %.4f, Different %.4f are not in that order",
			same.mean, mixed.mean, diff.mean)
	}
	return nil
}

// discoveryJob names one kind of child run and how its output is checked.
func jobArgs(which string, seed int64, trials, runs, workers int) []string {
	args := []string{"-run", which, "-seed", strconv.FormatInt(seed, 10),
		"-trials", strconv.Itoa(trials), "-workers", strconv.Itoa(workers)}
	if runs > 0 {
		args = append(args, "-runs", strconv.Itoa(runs))
	}
	return args
}

// runDiscovery measures the paper's own experiment as a batch program.
//
// Set-up (nSetups times, median): the determinism check — the same small
// -run all at one worker and at nproc workers must print byte-identical
// tables. Latency phase: single-worker Table 1 jobs back to back, each
// with its own seed so no one seed's luck sets the figure; a job's
// latency is its wall time. Saturation phase: -run all jobs on every
// core; throughput is trials per wall second.
func runDiscovery(e *env, sz discoverySizes, nSetups int, seed int64, log io.Writer) (*result, error) {
	r := newResult("discovery", seed)
	nproc := runtime.NumCPU()
	var attempted, failed int64
	judge := func(what string, err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(log, "oracle: discovery: %s: %v\n", what, err)
		}
	}
	peakRSS := 0.0

	var setupSecs []float64
	for k := 0; k < nSetups; k++ {
		begin := time.Now()
		one, _, _, rss1, err := experiment(e, jobArgs("all", seed, sz.checkTrials, sz.checkRuns, 1)...)
		if err != nil {
			return nil, err
		}
		many, _, _, rss2, err := experiment(e, jobArgs("all", seed, sz.checkTrials, sz.checkRuns, nproc)...)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(begin).Seconds())
		peakRSS = max(peakRSS, rss1, rss2)
		if k == 0 {
			var derr error
			if !bytes.Equal(one, many) {
				derr = fmt.Errorf("-workers 1 and -workers %d print different tables for seed %d", nproc, seed)
			}
			judge("determinism", derr)
			judge("determinism run", checkTable1(one, sz.checkTrials))
		}
	}
	q1, med, q3 := quartiles(setupSecs)
	r.set("setup_s", med)
	r.quart["setup_s"] = [3]float64{q1, med, q3}

	// Latency phase.
	start := now()
	var dues, lats []int64
	for job := int64(0); now() < start+int64(sz.fixed); job++ {
		t := now()
		out, wall, _, rss, err := experiment(e, jobArgs("table1", seed*1000+job, sz.jobTrials, 0, 1)...)
		if err != nil {
			return nil, err
		}
		judge("table1 job", checkTable1(out, sz.jobTrials))
		dues, lats = append(dues, t), append(lats, int64(wall))
		peakRSS = max(peakRSS, rss)
	}
	// A job takes about 90 ms, so the windows here are whole seconds.
	wins := windowSamples(dues, lats, start, int64(time.Second), int(sz.fixed/time.Second))
	r.setW("p50_us", windowPercentile(wins, 0.50), 1e-3)
	r.setW("bench.p95_us", windowPercentile(wins, 0.95), 1e-3)
	r.setW("bench.p99_us", windowPercentile(wins, 0.99), 1e-3)
	r.set("bench.p999_us", float64(wholePercentile(lats, 0.999))*1e-3)

	// Saturation phase.
	var rates []float64
	var cpuTotal time.Duration
	satStart := now()
	for job := int64(0); job < 2 || now() < satStart+int64(sz.sat); job++ {
		out, wall, cpu, rss, err := experiment(e, jobArgs("all", seed*1000+500+job, sz.satTrials, sz.satRuns, nproc)...)
		if err != nil {
			return nil, err
		}
		judge("all job", checkTable1(out, sz.satTrials))
		rates = append(rates, float64(sz.satTrials)/wall.Seconds())
		cpuTotal += cpu
		peakRSS = max(peakRSS, rss)
	}
	r.setRate("sat_ops_s", summarize(rates))
	r.set("cpu_us_per_op", float64(cpuTotal)/1e3/float64(len(rates)*sz.satTrials))
	r.set("rss_mb", peakRSS)

	r.attempted, r.failed = attempted, failed
	r.failures = " none"
	if failed > 0 {
		r.failures = fmt.Sprintf(" discovery-checks=%d", failed)
	}
	return r, nil
}
