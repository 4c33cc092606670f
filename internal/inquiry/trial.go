package inquiry

import (
	"errors"
	"fmt"
	"math/rand"

	"bips/internal/baseband"
	"bips/internal/radio"
	"bips/internal/sim"
)

// TrialConfig parameterises one Table 1-style discovery trial: a master
// fully dedicated to inquiry (always in the inquiry state) discovering a
// single slave. Timing fields default to the Bluetooth 1.1 values used in
// the paper.
type TrialConfig struct {
	// Mode is the slave scan schedule. The paper's reported experiment
	// alternates inquiry scan and page scan. Default ScanAlternating.
	Mode ScanMode
	// Interval and Window override the slave scan timing when non-zero.
	Interval sim.Tick
	Window   sim.Tick
	// Timeout bounds the trial. Default 60 s.
	Timeout sim.Tick
	// Collision selects the response-collision rule (irrelevant with a
	// single slave, exposed for completeness).
	Collision radio.CollisionPolicy
}

func (c TrialConfig) withDefaults() TrialConfig {
	if c.Mode == 0 {
		c.Mode = ScanAlternating
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * sim.TicksPerSecond
	}
	return c
}

// TrialResult is the outcome of one discovery trial.
type TrialResult struct {
	// Discovered reports whether the slave responded before Timeout.
	Discovered bool
	// Time is the interval from inquiry entry to FHS reception, the
	// quantity the paper measures with ftime().
	Time sim.Tick
	// SameTrain reports whether the master's starting train equalled
	// the train of the slave's listening frequency at inquiry entry
	// (the paper's row classification).
	SameTrain bool
	// Backoffs and Responses count the slave's protocol actions.
	Backoffs  int
	Responses int
}

// ErrNotDiscovered is reported (via TrialResult.Discovered) when a trial
// times out; exported for tests that force pathological configurations.
var ErrNotDiscovered = errors.New("inquiry: slave not discovered within timeout")

// RunTrial executes one discovery trial with randomness drawn from rng:
// the master's starting train, the slave's clock phase and scan-sequence
// phase, and all backoff draws.
func RunTrial(rng *rand.Rand, cfg TrialConfig) TrialResult {
	cfg = cfg.withDefaults()
	k, m, s := newTrial(rng, cfg)

	var result TrialResult
	result.SameTrain = s.ListenTrain(0) == m.cfg.StartTrain
	m.OnDiscovered = func(_ baseband.BDAddr, at sim.Tick) {
		result.Discovered = true
		result.Time = at
		k.Stop()
	}
	m.StartInquiry()
	k.RunUntil(cfg.Timeout)
	m.StopInquiry()
	result.Backoffs = s.Backoffs
	result.Responses = s.Responses
	if !result.Discovered {
		result.Time = cfg.Timeout
	}
	return result
}

// newTrial draws a trial's kernel, master and slave from rng.
func newTrial(rng *rand.Rand, cfg TrialConfig) (*sim.Kernel, *Master, *Slave) {
	k := sim.NewKernel(rng.Int63())

	startTrain := baseband.TrainA
	if rng.Intn(2) == 1 {
		startTrain = baseband.TrainB
	}
	m := NewMaster(k, MasterConfig{
		Addr:       0xAA0000000001,
		StartTrain: startTrain,
		Policy:     TrainsAlternate,
		Collision:  cfg.Collision,
	}, nil)

	interval := cfg.Interval
	if interval == 0 {
		interval = baseband.TInquiryScanTicks
	}
	// The clock phase is uniform over two intervals so that the parity
	// of the alternating inquiry/page windows is also random.
	s := NewSlave(SlaveConfig{
		Addr:        0xBB0000000001,
		ClockOffset: sim.Tick(rng.Int63n(int64(2 * interval))),
		ScanPhase:   baseband.FreqIndex(rng.Intn(baseband.NumInquiryFreqs)),
		Mode:        cfg.Mode,
		Interval:    cfg.Interval,
		Window:      cfg.Window,
	})
	m.AddSlave(s)
	return k, m, s
}

// DutyCycle describes a master operational cycle: Inquiry ticks of device
// discovery at the start of every Period. The paper's Figure 2 uses
// 1 s / 5 s; its Section 5 policy uses 3.84 s / 15.4 s.
type DutyCycle struct {
	Inquiry sim.Tick
	Period  sim.Tick
}

// Validate checks the cycle is well formed.
func (d DutyCycle) Validate() error {
	if d.Inquiry <= 0 || d.Period <= 0 {
		return fmt.Errorf("inquiry: duty cycle %v: phases must be positive", d)
	}
	if d.Inquiry > d.Period {
		return fmt.Errorf("inquiry: duty cycle %v: inquiry exceeds period", d)
	}
	return nil
}

// Load returns the fraction of the cycle spent in device discovery.
func (d DutyCycle) Load() float64 {
	if d.Period == 0 {
		return 0
	}
	return float64(d.Inquiry) / float64(d.Period)
}

// String formats the cycle as "inquiry/period".
func (d DutyCycle) String() string {
	return fmt.Sprintf("%v/%v", d.Inquiry, d.Period)
}

// SwarmConfig parameterises a multi-slave discovery simulation (Figure 2).
type SwarmConfig struct {
	// Slaves is the piconet population in the master's coverage area.
	Slaves int
	// Cycle is the master duty cycle. The zero value means the master
	// is continuously in inquiry.
	Cycle DutyCycle
	// Horizon is the simulated time. Default 14 s (Figure 2's x-axis).
	Horizon sim.Tick
	// StartTrain is the master's (fixed or starting) train. Default A.
	StartTrain baseband.Train
	// Policy selects fixed-train (Figure 2) or alternating trains.
	// Default TrainFixed.
	Policy TrainPolicy
	// Collision selects the response-collision rule. Default
	// CollideDestroyAll.
	Collision radio.CollisionPolicy
	// SlaveMode is the slave scan schedule. Default ScanContinuous
	// ("slaves are always in inquiry scan mode").
	SlaveMode ScanMode
	// Discipline is the slave response rule. Default Immediate, the
	// BlueHoc behaviour the paper simulated.
	Discipline Discipline
	// BackoffSlots overrides the backoff range when non-zero.
	BackoffSlots int
	// TrainAScanOnly restricts slave scan phases to train A indices,
	// matching "they start listening on frequencies of train A".
	// Default true when Policy is TrainFixed.
	TrainAScanOnly *bool
}

func (c SwarmConfig) withDefaults() SwarmConfig {
	if c.Horizon == 0 {
		c.Horizon = 14 * sim.TicksPerSecond
	}
	if c.StartTrain == 0 {
		c.StartTrain = baseband.TrainA
	}
	if c.Policy == 0 {
		c.Policy = TrainFixed
	}
	if c.Collision == 0 {
		c.Collision = radio.CollideDestroyAll
	}
	if c.SlaveMode == 0 {
		c.SlaveMode = ScanContinuous
	}
	if c.Discipline == 0 {
		c.Discipline = Immediate
	}
	if c.TrainAScanOnly == nil {
		v := c.Policy == TrainFixed
		c.TrainAScanOnly = &v
	}
	return c
}

// SwarmResult is the outcome of one multi-slave simulation.
type SwarmResult struct {
	// Times holds, for each discovered slave, the first-response time.
	Times []sim.Tick
	// Slaves is the population size.
	Slaves int
	// Collisions counts destroyed response half slots.
	Collisions int
	// IDsSent counts transmitted ID packets.
	IDsSent int64
}

// DiscoveredBy returns the fraction of the population discovered at or
// before t.
func (r SwarmResult) DiscoveredBy(t sim.Tick) float64 {
	if r.Slaves == 0 {
		return 0
	}
	n := 0
	for _, dt := range r.Times {
		if dt <= t {
			n++
		}
	}
	return float64(n) / float64(r.Slaves)
}

// AllDiscovered reports whether every slave was discovered within the
// horizon.
func (r SwarmResult) AllDiscovered() bool { return len(r.Times) == r.Slaves }

// RunSwarm executes one multi-slave discovery simulation.
func RunSwarm(rng *rand.Rand, cfg SwarmConfig) (SwarmResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Slaves <= 0 {
		return SwarmResult{}, fmt.Errorf("inquiry: swarm needs at least one slave, got %d", cfg.Slaves)
	}
	if cfg.Cycle != (DutyCycle{}) {
		if err := cfg.Cycle.Validate(); err != nil {
			return SwarmResult{}, err
		}
	}

	k, m := newSwarm(rng, cfg)
	if cfg.Cycle == (DutyCycle{}) {
		m.StartInquiry()
	} else {
		scheduleCycle(k, m, cfg.Cycle, cfg.Horizon)
	}
	k.RunUntil(cfg.Horizon)
	m.StopInquiry()

	return SwarmResult{
		Times:      m.SortedDiscoveryTimes(),
		Slaves:     cfg.Slaves,
		Collisions: m.Collisions(),
		IDsSent:    m.IDsSent(),
	}, nil
}

// newSwarm draws a swarm's kernel and master, with its slaves attached,
// from rng.
func newSwarm(rng *rand.Rand, cfg SwarmConfig) (*sim.Kernel, *Master) {
	k := sim.NewKernel(rng.Int63())
	m := NewMaster(k, MasterConfig{
		Addr:       0xAA0000000001,
		StartTrain: cfg.StartTrain,
		Policy:     cfg.Policy,
		Collision:  cfg.Collision,
	}, nil)

	phaseSpan := baseband.NumInquiryFreqs
	if *cfg.TrainAScanOnly {
		phaseSpan = baseband.TrainSize
	}
	for i := 0; i < cfg.Slaves; i++ {
		m.AddSlave(NewSlave(SlaveConfig{
			Addr:           baseband.BDAddr(0xBB0000000001 + uint64(i)),
			ClockOffset:    sim.Tick(rng.Int63n(int64(2 * baseband.TInquiryScanTicks))),
			ScanPhase:      baseband.FreqIndex(rng.Intn(phaseSpan)),
			Mode:           cfg.SlaveMode,
			Discipline:     cfg.Discipline,
			BackoffSlots:   cfg.BackoffSlots,
			FrozenScanFreq: *cfg.TrainAScanOnly,
		}))
	}
	return k, m
}

// inquirer is what scheduleCycle drives: a Master, or in tests the
// reference transmit loop a Master is checked against.
type inquirer interface {
	StartInquiry()
	StopInquiry()
}

// scheduleCycle arms start/stop events realising the duty cycle over the
// horizon.
func scheduleCycle(k *sim.Kernel, m inquirer, cycle DutyCycle, horizon sim.Tick) {
	for start := sim.Tick(0); start <= horizon; start += cycle.Period {
		start := start
		if _, err := k.ScheduleAt(start, func(*sim.Kernel) { m.StartInquiry() }); err != nil {
			continue
		}
		stopAt := start + cycle.Inquiry
		if stopAt <= horizon {
			if _, err := k.ScheduleAt(stopAt, func(*sim.Kernel) { m.StopInquiry() }); err != nil {
				continue
			}
		}
	}
}
