package bips

import (
	"errors"
	"fmt"
	"time"

	"bips/internal/building"
	"bips/internal/inquiry"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// ErrBadOption reports an invalid option value passed to New.
var ErrBadOption = errors.New("bips: invalid option")

// Option configures a Service at construction time. Options are applied
// in order, so a later option overrides an earlier one.
type Option interface {
	apply(*settings) error
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*settings) error

func (f optionFunc) apply(s *settings) error { return f(s) }

// settings is the resolved construction state an Option mutates.
type settings struct {
	seed    int64
	cycle   inquiry.DutyCycle
	bld     *building.Building
	radius  float64
	shards  int
	dataDir string
	// historyLimit uses the core convention: 0 = default, negative =
	// history disabled.
	historyLimit int
	// analyticsSeal uses the core convention: 0 = default period,
	// negative = background sealing disabled.
	analyticsSeal      time.Duration
	analyticsRetention time.Duration
}

// WithSeed sets the root random seed. All randomness (radio phases,
// backoffs, walkers) derives from it: identical seeds and identical call
// sequences replay identically. The default seed is 0.
func WithSeed(seed int64) Option {
	return optionFunc(func(s *settings) error {
		s.seed = seed
		return nil
	})
}

// WithDutyCycle overrides the workstation operational cycle: a discovery
// slot of slot per cycle of period. Both must be positive and slot must
// not exceed period. The default is the paper's 3.84 s / 15.4 s policy.
func WithDutyCycle(slot, period time.Duration) Option {
	return optionFunc(func(s *settings) error {
		if slot <= 0 || period <= 0 {
			return fmt.Errorf("%w: duty cycle %v/%v must be positive", ErrBadOption, slot, period)
		}
		s.cycle = inquiry.DutyCycle{
			Inquiry: sim.FromDuration(slot),
			Period:  sim.FromDuration(period),
		}
		return nil
	})
}

// WithPolicy schedules the workstations with the given derived policy
// (for example PaperPolicy, or a Policy built from other train-split
// assumptions). It is shorthand for WithDutyCycle(p.DiscoverySlot,
// p.Cycle).
func WithPolicy(p Policy) Option {
	return WithDutyCycle(p.DiscoverySlot, p.Cycle)
}

// WithBuilding deploys the service over the given floor plan instead of
// the built-in academic department. The plan is compiled (validated, the
// navigation graph built, all shortest paths precomputed) at New.
func WithBuilding(plan *FloorPlan) Option {
	return optionFunc(func(s *settings) error {
		if plan == nil {
			return fmt.Errorf("%w: nil floor plan", ErrBadOption)
		}
		bld, err := plan.Compile()
		if err != nil {
			return err
		}
		s.bld = bld
		return nil
	})
}

// WithShards splits the central location database into n independently
// locked shards keyed by device-address hash. More shards let presence
// deltas and location queries for different devices proceed in parallel
// instead of contending on one mutex; 1 reproduces the original
// single-mutex database. The default is locdb.DefaultShards (16). n must
// be in [1, 4096].
func WithShards(n int) Option {
	return optionFunc(func(s *settings) error {
		if n < 1 || n > locdb.MaxShards {
			return fmt.Errorf("%w: shard count %d (want 1..%d)", ErrBadOption, n, locdb.MaxShards)
		}
		s.shards = n
		return nil
	})
}

// WithDataDir backs the deployment's location database with the durable
// storage engine rooted at dir (created if missing): every presence
// delta is written through to an append-only WAL with periodic
// snapshots, and a later deployment constructed over the same directory
// recovers the full presence state and movement history. Close the
// service (Service.Close) for a clean final checkpoint. The empty
// default keeps the database purely in memory.
func WithDataDir(dir string) Option {
	return optionFunc(func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("%w: empty data directory", ErrBadOption)
		}
		s.dataDir = dir
		return nil
	})
}

// WithHistoryLimit bounds the per-device movement history backing the
// LocateAt and Trajectory queries to the newest n presence runs.
// n = 0 disables history entirely (the historical queries then answer
// nothing); the default is locdb.DefaultHistoryLimit (128). n must not
// be negative.
func WithHistoryLimit(n int) Option {
	return optionFunc(func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: negative history limit %d", ErrBadOption, n)
		}
		if n == 0 {
			s.historyLimit = -1
		} else {
			s.historyLimit = n
		}
		return nil
	})
}

// WithAnalyticsRetention bounds the analytics history (the data behind
// Contacts, Occupancy, DwellInRoom and DwellOf) to the most recent d of
// simulated time: sealed segments whose newest presence run ended more
// than d before the newest observed movement are deleted at the next
// compaction. d must be positive. The default keeps everything for the
// life of the deployment (and, with WithDataDir, across restarts).
func WithAnalyticsRetention(d time.Duration) Option {
	return optionFunc(func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("%w: analytics retention %v must be positive", ErrBadOption, d)
		}
		s.analyticsRetention = d
		return nil
	})
}

// WithAnalyticsSealInterval sets how often (in wall-clock time) the
// analytics engine compacts closed presence runs into immutable
// compressed segments. Shorter intervals bound the uncompacted hot tier
// more tightly; longer ones cut fewer, larger segments. d must be
// positive; the default is analytics.DefaultSealInterval (30s).
func WithAnalyticsSealInterval(d time.Duration) Option {
	return optionFunc(func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("%w: analytics seal interval %v must be positive", ErrBadOption, d)
		}
		s.analyticsSeal = d
		return nil
	})
}

// WithCoverageRadius overrides the 10 m default workstation coverage
// radius (in meters).
func WithCoverageRadius(meters float64) Option {
	return optionFunc(func(s *settings) error {
		if meters <= 0 {
			return fmt.Errorf("%w: coverage radius %v must be positive", ErrBadOption, meters)
		}
		s.radius = meters
		return nil
	})
}
