package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-run", "table1", "-trials", "60"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Same", "Different", "Mixed", "Paper Taverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig2(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-run", "fig2", "-runs", "3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "P(1s)") {
		t.Errorf("output missing fig2 table:\n%s", sb.String())
	}
}

func TestRunFig2Series(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-run", "fig2", "-runs", "2", "-series"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 100 {
		t.Errorf("series output too short: %d lines", len(lines))
	}
}

func TestRunPolicy(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-run", "policy", "-runs", "4"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Discovery slot", "3.84s", "Tracking load"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunAblations(t *testing.T) {
	for _, name := range []string{"ablation-collision", "ablation-scan", "ablation-duty"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(context.Background(), &sb, io.Discard, []string{"-run", name, "-runs", "3", "-trials", "20"}); err != nil {
				t.Fatal(err)
			}
			if len(sb.String()) < 100 {
				t.Errorf("output too short:\n%s", sb.String())
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-run", "bogus"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestExperimentGolden pins the paper's tables byte for byte against
// committed golden files, serial and on two workers: a change to the
// simulator that is meant to be exact must leave them untouched.
func TestExperimentGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.golden", []string{"-run", "all", "-seed", "2003", "-trials", "200", "-runs", "2"}},
		{"tracking.golden", []string{"-run", "tracking", "-runs", "2"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "2"} {
			args := append(append([]string(nil), tc.args...), "-workers", workers)
			t.Run(tc.golden+"/workers="+workers, func(t *testing.T) {
				var sb strings.Builder
				if err := run(context.Background(), &sb, io.Discard, args); err != nil {
					t.Fatal(err)
				}
				if got := sb.String(); got != string(want) {
					t.Errorf("bips-experiment %v drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
						args, got, want)
				}
			})
		}
	}
}

// TestWorkersDoNotChangeOutput runs the same sweep serial and wide and
// requires byte-identical stdout.
func TestWorkersDoNotChangeOutput(t *testing.T) {
	var serial, wide strings.Builder
	if err := run(context.Background(), &serial, io.Discard,
		[]string{"-run", "table1", "-trials", "80", "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &wide, io.Discard,
		[]string{"-run", "table1", "-trials", "80", "-workers", "8"}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != wide.String() {
		t.Errorf("output differs across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s",
			serial.String(), wide.String())
	}
}

func TestProgressReporting(t *testing.T) {
	var sb, errb strings.Builder
	if err := run(context.Background(), &sb, &errb,
		[]string{"-run", "table1", "-trials", "40", "-progress"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "40/40 trials") {
		t.Errorf("progress stream missing completion line:\n%q", errb.String())
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	if err := run(ctx, &sb, io.Discard, []string{"-run", "table1", "-trials", "200"}); err == nil {
		t.Error("cancelled run reported success")
	}
}
