package runner

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"bips/internal/stats"
)

// aggregate runs a toy Monte-Carlo sweep (each trial draws a handful of
// floats from its stream) and returns the order-sensitive running summary.
func aggregate(t *testing.T, workers, trials int, seed int64) (stats.Summary, []int) {
	t.Helper()
	var s stats.Summary
	var order []int
	err := Run(context.Background(), NewPool(WithWorkers(workers)), seed, trials,
		func(i int, rng *rand.Rand) (float64, error) {
			x := 0.0
			for k := 0; k < 5; k++ {
				x += rng.Float64()
			}
			return x, nil
		},
		func(i int, v float64) error {
			s.Add(v)
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return s, order
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	const trials = 500
	ref, refOrder := aggregate(t, 1, trials, 2003)
	for _, workers := range []int{2, 4, 8} {
		got, order := aggregate(t, workers, trials, 2003)
		// Mean and variance are float-order sensitive; exact equality
		// proves both the per-trial streams and the consume order are
		// independent of the worker count.
		if got != ref {
			t.Errorf("workers=%d: summary %+v != serial %+v", workers, got, ref)
		}
		if len(order) != len(refOrder) {
			t.Fatalf("workers=%d: consumed %d trials, want %d", workers, len(order), len(refOrder))
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("workers=%d: consume order broken at %d: got index %d", workers, i, order[i])
			}
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, _ := aggregate(t, 4, 200, 1)
	b, _ := aggregate(t, 4, 200, 2)
	if a.Mean() == b.Mean() {
		t.Error("different root seeds produced identical aggregates")
	}
}

func TestRunCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var consumed atomic.Int32
	err := Run(ctx, NewPool(WithWorkers(4)), 1, 10000,
		func(i int, rng *rand.Rand) (int, error) {
			time.Sleep(time.Microsecond)
			return i, nil
		},
		func(i int, v int) error {
			if consumed.Add(1) == 50 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := consumed.Load(); n >= 10000 || n < 50 {
		t.Errorf("consumed %d trials, want partial prefix >= 50", n)
	}
}

func TestRunTrialError(t *testing.T) {
	boom := errors.New("boom")
	var last int
	err := Run(context.Background(), NewPool(WithWorkers(4)), 1, 1000,
		func(i int, rng *rand.Rand) (int, error) {
			if i == 137 {
				return 0, boom
			}
			return i, nil
		},
		func(i int, v int) error {
			last = i
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// In-order consumption: everything before the failing trial, nothing at
	// or after it.
	if last >= 137 {
		t.Errorf("consumed index %d at or past the failing trial", last)
	}
}

// Workers hand trials over in batches. Whatever the batch size, the
// consumer sees every index once and in order up to the end of the sweep
// or, when a trial fails, exactly the prefix before it.
func TestRunBatchesKeepIndexOrder(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct{ workers, trials, fail int }{
		{2, 10001, -1}, // full batches and a short last one
		{2, 10001, 4000},
		{3, 1000, 137},
		{8, 20, 19},
	} {
		next := 0
		err := Run(context.Background(), NewPool(WithWorkers(tc.workers)), 1, tc.trials,
			func(i int, rng *rand.Rand) (int, error) {
				if i == tc.fail {
					return 0, boom
				}
				return i, nil
			},
			func(i int, v int) error {
				if i != next || v != i {
					t.Fatalf("%+v: consumed (%d, %d), want index %d", tc, i, v, next)
				}
				next++
				return nil
			})
		want, wantErr := tc.trials, error(nil)
		if tc.fail >= 0 {
			want, wantErr = tc.fail, boom
		}
		if !errors.Is(err, wantErr) || next != want {
			t.Errorf("%+v: err = %v after %d trials, want %v after %d", tc, err, next, wantErr, want)
		}
	}
}

func TestRunConsumeError(t *testing.T) {
	stop := errors.New("stop")
	err := Run(context.Background(), NewPool(WithWorkers(4)), 1, 1000,
		func(i int, rng *rand.Rand) (int, error) { return i, nil },
		func(i int, v int) error {
			if i == 10 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
}

func TestRunZeroTrials(t *testing.T) {
	called := false
	err := Run(context.Background(), NewPool(), 1, 0,
		func(i int, rng *rand.Rand) (int, error) { return 0, nil },
		func(i int, v int) error { called = true; return nil })
	if err != nil || called {
		t.Errorf("zero trials: err=%v called=%v", err, called)
	}
}

func TestRunProgress(t *testing.T) {
	var calls int
	var lastDone, lastTotal int
	p := NewPool(WithWorkers(3), WithProgress(func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	}))
	if err := Run(context.Background(), p, 1, 100,
		func(i int, rng *rand.Rand) (int, error) { return i, nil },
		func(i int, v int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if lastDone != 100 || lastTotal != 100 {
		t.Errorf("final progress = %d/%d, want 100/100", lastDone, lastTotal)
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := make(map[int64]int, 20000)
	for _, root := range []int64{0, 1, 2003, -7} {
		for i := 0; i < 5000; i++ {
			s := TrialSeed(root, i)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: %d (prev entry %d)", s, prev)
			}
			seen[s] = i
		}
	}
}

func TestNewRandIndependentOfWorkerState(t *testing.T) {
	a := NewRand(42, 7).Int63()
	b := NewRand(42, 7).Int63()
	if a != b {
		t.Error("NewRand not reproducible")
	}
	if NewRand(42, 8).Int63() == a {
		t.Error("adjacent trials share a stream")
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool().Workers() < 1 {
		t.Error("default pool has no workers")
	}
	if got := NewPool(WithWorkers(0)).Workers(); got < 1 {
		t.Errorf("WithWorkers(0) accepted: %d", got)
	}
	if got := NewPool(WithWorkers(6)).Workers(); got != 6 {
		t.Errorf("WithWorkers(6) = %d", got)
	}
}

// Workers reseed one stream per trial: a trial that draws past the
// source's 607-word lag must still see exactly math/rand's stream for
// TrialSeed(seed, i).
func TestReseededStreamMatchesNewRand(t *testing.T) {
	const (
		seed   = 11
		trials = 24
		draws  = 700
	)
	for _, workers := range []int{1, 4} {
		err := Run(context.Background(), NewPool(WithWorkers(workers)), seed, trials,
			func(i int, rng *rand.Rand) ([]int64, error) {
				out := make([]int64, draws)
				for k := range out {
					out[k] = rng.Int63()
				}
				return out, nil
			},
			func(i int, got []int64) error {
				want := rand.New(rand.NewSource(TrialSeed(seed, i)))
				for k, v := range got {
					if w := want.Int63(); v != w {
						t.Errorf("workers=%d trial %d draw %d = %d, want %d", workers, i, k, v, w)
						return nil
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
}
