package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bips"
)

func TestSimRuns(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-users", "2", "-duration", "1m", "-step", "20s", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"user01", "user02", "walking from"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Three timeline rows for a 1m run sampled every 20s.
	if got := strings.Count(out, "\n"); got < 8 {
		t.Errorf("output too short (%d lines)", got)
	}
}

// TestSimCustomPlan runs a floor plan loaded from JSON end-to-end: the
// timeline tracks walking users through the custom rooms and the final
// navigation demo answers a PathTo query over them.
func TestSimCustomPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := bips.GridPlan(3, 3, 12).Save(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	args := []string{"-plan", path, "-users", "2", "-duration", "3m", "-step", "30s", "-seed", "2"}
	if err := run(context.Background(), &sb, io.Discard, args); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`floor plan "grid-3x3": 9 rooms, 12 corridors`, "Room A1", "user01 -> user02"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The navigation demo line must answer with an actual path ("N m via
	// [...]"), not an error.
	if !strings.Contains(out, "m via [Room") {
		t.Errorf("no PathTo answer over the custom plan:\n%s", out)
	}

	if err := run(context.Background(), &sb, io.Discard, []string{"-plan", "/nonexistent.json"}); err == nil {
		t.Error("missing plan file accepted")
	}
}

// TestSimGolden pins the in-process deployment's end-to-end output —
// the default timeline and a Monte-Carlo aggregate — byte for byte
// against committed golden files.
func TestSimGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"timeline.golden", []string{"-seed", "7", "-users", "5", "-duration", "5m"}},
		{"replicas.golden", []string{"-replicas", "8", "-duration", "2m"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var sb strings.Builder
			if err := run(context.Background(), &sb, io.Discard, tc.args); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("bips-sim %v drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
					tc.args, got, want)
			}
		})
	}
}

func TestSimValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-users", "0"}); err == nil {
		t.Error("zero users accepted")
	}
	if err := run(context.Background(), &sb, io.Discard, []string{"-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestMonteCarloMode(t *testing.T) {
	var sb strings.Builder
	args := []string{"-replicas", "4", "-users", "2", "-duration", "1m", "-step", "20s", "-seed", "3"}
	if err := run(context.Background(), &sb, io.Discard, args); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Monte-Carlo: 4 replicas", "Tracking accuracy", "95% CI"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Worker count must not change the aggregate.
	var serial, wide strings.Builder
	if err := run(context.Background(), &serial, io.Discard, append(args, "-workers", "1")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &wide, io.Discard, append(args, "-workers", "8")); err != nil {
		t.Fatal(err)
	}
	if serial.String() != wide.String() {
		t.Errorf("Monte-Carlo output differs across worker counts:\n-- 1 --\n%s\n-- 8 --\n%s",
			serial.String(), wide.String())
	}
}

func TestMonteCarloValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-replicas", "0"}); err == nil {
		t.Error("zero replicas accepted")
	}
	if err := run(context.Background(), &sb, io.Discard, []string{"-step", "0s"}); err == nil {
		t.Error("zero step accepted")
	}
}

func TestDurationValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, io.Discard, []string{"-replicas", "2", "-duration", "0s"}); err == nil {
		t.Error("zero duration accepted")
	}
}
