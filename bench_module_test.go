package bips_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds keeps the benchmark harness inside tier-1's
// sight. bench/ is its own module (bips/bench, `replace bips => ../`),
// so `go build ./...` and `go test ./...` from the root never compile
// it; renaming anything it imports from bips/internal/... would
// otherwise surface only when the benchmark is next run.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("vetting the bench module skipped in -short mode")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
