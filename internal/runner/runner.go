// Package runner executes Monte-Carlo trials on a worker pool with
// deterministic per-trial randomness.
//
// Every experiment in this repository is a sweep of independent trials
// (Table 1's 500 inquiry trials, Figure 2's per-population runs, the
// ablations). The runner gives each trial its own rand.Rand whose seed is
// derived from the sweep's root seed and the trial index by a splittable
// mixing function (splitmix64), so the stream a trial sees depends only on
// (root seed, index) — never on which worker ran it or in what order.
// Results are handed to a single consumer in strict index order. Together
// these make every aggregate bit-identical at any worker count:
//
//	workers=1 and workers=8 produce byte-for-byte the same tables.
//
// Memory stays flat at millions of trials: the consumer streams results
// into running aggregates (see internal/stats), and the reorder window
// that restores index order is bounded, applying backpressure to the
// workers instead of buffering the whole sweep.
package runner

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"bips/internal/sim"
)

// errIncomplete guards against a sweep ending without error, cancellation
// or full coverage; it indicates a runner bug, not a caller mistake.
var errIncomplete = errors.New("runner: sweep ended before all trials were consumed")

// golden is 2^64/phi, the splitmix64 sequence increment.
const golden = 0x9E3779B97F4A7C15

// TrialSeed derives the RNG seed of one trial from the sweep's root seed
// and the trial index using the splitmix64 output function. Distinct
// (root, trial) pairs map to well-separated seeds, so per-trial streams
// are independent for all practical purposes.
func TrialSeed(root int64, trial int) int64 {
	z := uint64(root) + (uint64(trial)+1)*golden
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewRand returns the dedicated random stream of one trial. Its source is a
// sim.Source, so a worker reseeding it per trial pays O(1), not
// math/rand's 607-word fill.
func NewRand(root int64, trial int) *rand.Rand {
	return rand.New(sim.NewSource(TrialSeed(root, trial)))
}

// Pool is a reusable trial executor. The zero value is not valid; use
// NewPool. A Pool carries no per-sweep state and may be shared by
// consecutive sweeps.
type Pool struct {
	workers  int
	progress func(done, total int)
}

// Option configures a Pool.
type Option func(*Pool)

// WithWorkers overrides the worker count (default GOMAXPROCS). Values
// below 1 are ignored.
func WithWorkers(n int) Option {
	return func(p *Pool) {
		if n >= 1 {
			p.workers = n
		}
	}
}

// WithProgress installs a progress callback, invoked from the consumer
// goroutine roughly every 5% of the sweep and once at completion with
// done == total. The callback must not block for long: it is on the
// result-draining path.
func WithProgress(fn func(done, total int)) Option {
	return func(p *Pool) { p.progress = fn }
}

// NewPool builds a Pool sized by GOMAXPROCS unless overridden.
func NewPool(opts ...Option) *Pool {
	p := &Pool{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// batch carries the outcomes of consecutive trials lo, lo+1, ... to the
// sequencer. A batch that stopped short on a trial error carries that
// error; it belongs to trial lo+len(vs).
type batch[T any] struct {
	lo  int
	vs  []T
	err error
}

// closed reports, without blocking, whether done has been closed.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Run executes trials 0..trials-1 on the pool. Each trial i runs
// trial(i, rng) on some worker, with rng producing the stream of
// NewRand(seed, i). Each worker reseeds one rng for every trial it runs,
// so a trial must not keep rng after it returns. consume(i, v)
// then runs on the caller's goroutine in strict index order. The first
// error — from a trial (lowest index wins), from consume, or ctx — cancels
// the sweep and is returned. On cancellation consume is never called again,
// so aggregates reflect an index prefix of the sweep.
func Run[T any](ctx context.Context, p *Pool, seed int64, trials int,
	trial func(i int, rng *rand.Rand) (T, error),
	consume func(i int, v T) error) error {

	if trials <= 0 {
		return nil
	}
	workers := p.workers
	if workers > trials {
		workers = trials
	}

	every := trials / 20
	if every < 1 {
		every = 1
	}
	tick := func(done int) {
		if p.progress != nil && (done%every == 0 || done == trials) {
			p.progress(done, trials)
		}
	}

	if workers <= 1 {
		rng := NewRand(seed, 0)
		for i := 0; i < trials; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rng.Seed(TrialSeed(seed, i))
			v, err := trial(i, rng)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
			tick(i + 1)
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := ctx.Done()

	// Workers claim runs of `chunk` consecutive trials and hand each run
	// back as one batch, so a sweep of microsecond trials pays one channel
	// round trip per batch rather than per trial, and a worker rarely
	// sleeps waiting for another goroutine. The reorder window: at most
	// `window` batches are claimed but not yet consumed, which bounds both
	// the results channel and the pending map regardless of sweep length.
	chunk := max(1, min(trials/(workers*32), 64))
	window := 4 * workers
	sem := make(chan struct{}, window)
	results := make(chan batch[T], window)
	var claimed atomic.Int64

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			rng := NewRand(seed, 0)
			for {
				select {
				case sem <- struct{}{}:
				case <-done:
					return
				}
				lo := int(claimed.Add(int64(chunk))) - chunk
				if lo >= trials {
					<-sem
					return
				}
				b := batch[T]{lo: lo, vs: make([]T, 0, chunk)}
				for i := lo; i < min(lo+chunk, trials) && !closed(done); i++ {
					rng.Seed(TrialSeed(seed, i))
					v, err := trial(i, rng)
					if err != nil {
						b.err = err
						break
					}
					b.vs = append(b.vs, v)
				}
				select {
				case results <- b:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Sequencer: restore index order, stream into consume.
	pending := make(map[int]batch[T], window)
	next := 0
	var sweepErr error
	fail := func(err error) {
		if sweepErr == nil {
			sweepErr = err
			cancel()
		}
	}
	for b := range results {
		pending[b.lo] = b
		for sweepErr == nil {
			nb, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			for _, v := range nb.vs {
				if err := consume(next, v); err != nil {
					fail(err)
					break
				}
				next++
				tick(next)
			}
			if nb.err != nil {
				fail(nb.err)
			}
			if next < min(nb.lo+chunk, trials) {
				break // the batch stopped short: the sweep is ending
			}
			<-sem
		}
	}
	if sweepErr != nil {
		return sweepErr
	}
	if next < trials {
		// Workers stopped early: external cancellation.
		if err := ctx.Err(); err != nil {
			return err
		}
		return errIncomplete
	}
	return nil
}
