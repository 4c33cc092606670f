package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// smokePlan is every workload at a fraction of its size: 256 users,
// one-second phases, one set-up, small experiment jobs.
func smokePlan() plan {
	return plan{
		serving: sizes{users: 256, fixed: time.Second, sat: time.Second, warmReqs: 2048, warmFrames: 32},
		discovery: discoverySizes{
			fixed: time.Second, sat: time.Second,
			jobTrials: 100, satTrials: 200, satRuns: 1, checkTrials: 50, checkRuns: 1,
		},
		setups: 1,
	}
}

var smoke struct {
	once sync.Once
	e    *env
	err  error
}

// smokeEnv builds the measured binaries once for all tests.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	smoke.once.Do(func() {
		if smoke.e, smoke.err = newEnv(); smoke.err == nil {
			_, smoke.err = smoke.e.build()
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.e
}

func TestMain(m *testing.M) {
	code := m.Run()
	killChildren()
	if smoke.e != nil {
		smoke.e.cleanup()
	}
	os.Exit(code)
}

// declared is what BENCHMARK.json says the benchmark prints.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json and the
// harness's own metric tables one declaration.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, harness runs %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d declared as %q (why %q), harness has %q", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, harness has %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		h := endToEnd[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better || m.Bound != h.bound {
			t.Errorf("end-to-end %d declared %+v, harness has %+v", i, m, h)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, harness has %d", len(d.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range d.PerLayer {
		h := perLayer[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better {
			t.Errorf("per-layer %d declared %+v, harness has %s %s %s", i, m, h.name, h.unit, h.better)
		}
		if seen[m.Name] || h.moves == "" || h.what == "" {
			t.Errorf("per-layer %s: duplicate, or no prediction of what it moves", m.Name)
		}
		seen[m.Name] = true
	}
	if len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", d.Paths)
	}
}

// printed parses a driver line back into name → unit.
func printed(t *testing.T, line string) map[string]string {
	t.Helper()
	var out struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("driver line %q: %v", line, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("driver line reports correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	units := make(map[string]string)
	for name, m := range out.Metrics {
		units[name] = m.Unit
	}
	return units
}

// TestSmokeEveryWorkload runs all four workloads at smoke size and
// checks what the contract checks: nothing fails, every declared
// end-to-end metric is printed with its unit, nothing undeclared is,
// and none of them is zero.
func TestSmokeEveryWorkload(t *testing.T) {
	e := smokeEnv(t)
	d := readDeclared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			r, err := runWorkload(e, name, 42, smokePlan(), &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("failed %d of %d:%s\n%s", r.failed, r.attempted, r.failures, log.String())
			}
			if extra := r.undeclared(); len(extra) > 0 {
				t.Errorf("undeclared metrics produced: %v", extra)
			}
			units := printed(t, r.driverLine(endToEnd))
			if len(units) != len(d.EndToEnd) {
				t.Errorf("%d metrics printed, %d declared", len(units), len(d.EndToEnd))
			}
			for _, m := range d.EndToEnd {
				if units[m.Name] != m.Unit {
					t.Errorf("%s printed with unit %q, declared %q", m.Name, units[m.Name], m.Unit)
				}
				if r.values[m.Name] <= 0 {
					t.Errorf("%s = %v; an end-to-end metric is never zero", m.Name, r.values[m.Name])
				}
			}
			if n := liveChildren(); n != 0 {
				t.Errorf("%d children still alive after the workload", n)
			}
		})
	}
}

// TestSmokeTracedRun runs the traced variant of the workload that
// crosses both paths and checks that every per-layer metric is printed,
// that both ledgers came out, and that the spans were written.
func TestSmokeTracedRun(t *testing.T) {
	e := smokeEnv(t)
	d := readDeclared(t)
	path := filepath.Join(t.TempDir(), "spans.json")
	var log bytes.Buffer
	pl := smokePlan()
	pl.serving.fixed, pl.serving.sat = 2*time.Second, 2*time.Second // halved again by the traced run
	r, err := runTraced(e, "mixed", 42, pl, path, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if r.failed != 0 {
		t.Errorf("failed %d of %d:%s\n%s", r.failed, r.attempted, r.failures, log.String())
	}
	if extra := r.undeclared(); len(extra) > 0 {
		t.Errorf("undeclared metrics produced: %v", extra)
	}
	units := printed(t, r.driverLine(perLayer))
	for _, m := range d.PerLayer {
		if units[m.Name] != m.Unit {
			t.Errorf("%s printed with unit %q, declared %q", m.Name, units[m.Name], m.Unit)
		}
	}
	for _, name := range []string{
		"wire.recv_ns", "registry.authorize_ns", "locdb.locate_ns", "locdb.apply_ns_per_delta",
		"storage.apply_ns_per_delta", "ingest.apply_ns_per_delta", "fanout.publish_ns_per_event",
		"analytics.apply_ns_per_event", "server.dispatch_ns", "server.serveconn_ns",
		"bench.trace_overhead", "ledger.query_sum_ns", "ledger.report_sum_ns",
	} {
		if r.values[name] <= 0 {
			t.Errorf("%s = %v on the workload that exercises it", name, r.values[name])
		}
	}
	for _, m := range endToEnd {
		if _, ok := r.values[m.name]; ok {
			t.Errorf("the traced run reports end-to-end metric %s; those come from the untraced run only", m.name)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	names := make(map[string]int)
	for _, sp := range spans {
		names[sp.Name]++
		if sp.End < sp.Start || sp.ID == 0 {
			t.Fatalf("span %+v", sp)
		}
	}
	for _, want := range []string{"req", "gen.wait", "gen.write", "net+server", "server.dispatch", "server.dispatch.batch", "storage.apply.batch"} {
		if names[want] == 0 {
			t.Errorf("no %q span among %d", want, len(spans))
		}
	}
}

// TestChildrenAreReapedOnFailure kills the server in the middle of a
// measurement: the run must end in an error or in counted failures, and
// either way leave no process behind.
func TestChildrenAreReapedOnFailure(t *testing.T) {
	e := smokeEnv(t)
	var log bytes.Buffer
	s := newServing(e, servingSpecs["query"], smokePlan().serving, 1, &log)
	if _, err := s.setUp(); err != nil {
		s.abandon()
		t.Fatal(err)
	}
	go func() {
		time.Sleep(300 * time.Millisecond)
		_ = s.srv.cmd.Process.Kill()
	}()
	r := newResult("query", 1)
	err := s.measure(r, nil)
	s.abandon()
	if err == nil && r.failed == 0 {
		t.Error("the server died mid-run and the run neither failed nor counted a failure")
	}
	if n := liveChildren(); n != 0 {
		t.Errorf("%d children alive after a failed run", n)
	}
}

func TestCommandLineRejectsWhatItCannotRun(t *testing.T) {
	var out, errw bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "history"},
		{"-seed", "seven"},
		{"-seconds", "1"},
		{"-no-such-flag"},
	} {
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("a refused command line printed a result: %s", out.String())
	}
}
