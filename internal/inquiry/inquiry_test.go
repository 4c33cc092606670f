package inquiry

import (
	"math/rand"
	"testing"

	"bips/internal/baseband"
	"bips/internal/radio"
	"bips/internal/sim"
)

func TestContinuousSlaveDiscoveredFast(t *testing.T) {
	// A continuously scanning slave on the master's train must be
	// discovered within roughly one backoff (< 0.7 s) plus slack.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		k := sim.NewKernel(rng.Int63())
		m := NewMaster(k, MasterConfig{Addr: 1, StartTrain: baseband.TrainA, Policy: TrainFixed}, nil)
		s := NewSlave(SlaveConfig{
			Addr:      2,
			Mode:      ScanContinuous,
			ScanPhase: baseband.FreqIndex(rng.Intn(baseband.TrainSize)),
		})
		m.AddSlave(s)
		var at sim.Tick = -1
		m.OnDiscovered = func(_ baseband.BDAddr, tick sim.Tick) { at = tick; k.Stop() }
		m.StartInquiry()
		k.RunUntil(5 * sim.TicksPerSecond)
		if at < 0 {
			t.Fatalf("iteration %d: slave never discovered", i)
		}
		if at > sim.FromSeconds(0.8) {
			t.Errorf("iteration %d: discovery took %v, want < 0.8s", i, at)
		}
	}
}

func TestSlaveOnOtherTrainNotDiscoveredUnderFixedPolicy(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMaster(k, MasterConfig{Addr: 1, StartTrain: baseband.TrainA, Policy: TrainFixed}, nil)
	// Slave listens only on train B indices; its scan frequency drifts
	// one index per 1.28 s, so within ~10 s it can enter train A. Keep
	// the horizon below the drift boundary.
	s := NewSlave(SlaveConfig{Addr: 2, Mode: ScanContinuous, ScanPhase: 16, ClockOffset: 0})
	m.AddSlave(s)
	m.OnDiscovered = func(baseband.BDAddr, sim.Tick) {
		t.Error("train-B slave discovered by fixed-train-A master")
	}
	m.StartInquiry()
	k.RunUntil(2 * sim.TicksPerSecond)
}

func TestTrainSwitchEnablesDiscovery(t *testing.T) {
	// With alternating trains the same train-B slave is found shortly
	// after the 2.56 s switch.
	k := sim.NewKernel(1)
	m := NewMaster(k, MasterConfig{Addr: 1, StartTrain: baseband.TrainA, Policy: TrainsAlternate}, nil)
	s := NewSlave(SlaveConfig{Addr: 2, Mode: ScanContinuous, ScanPhase: 16})
	m.AddSlave(s)
	var at sim.Tick = -1
	m.OnDiscovered = func(_ baseband.BDAddr, tick sim.Tick) { at = tick; k.Stop() }
	m.StartInquiry()
	k.RunUntil(10 * sim.TicksPerSecond)
	if at < 0 {
		t.Fatal("slave never discovered")
	}
	if at < baseband.TrainDwellTicks {
		t.Errorf("train-B slave discovered at %v, before the 2.56s train switch", at)
	}
	if at > baseband.TrainDwellTicks+sim.TicksPerSecond {
		t.Errorf("discovery at %v, want within 1s of the train switch", at)
	}
}

func TestStopInquiryHaltsTransmission(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMaster(k, MasterConfig{Addr: 1}, nil)
	m.AddSlave(NewSlave(SlaveConfig{Addr: 2, Mode: ScanContinuous, ScanPhase: 0}))
	m.StartInquiry()
	k.RunUntil(sim.FromSeconds(0.01))
	m.StopInquiry()
	sent := m.IDsSent()
	if sent == 0 {
		t.Fatal("no IDs sent during inquiry phase")
	}
	k.RunUntil(sim.TicksPerSecond)
	if m.IDsSent() != sent {
		t.Errorf("IDs sent after StopInquiry: %d -> %d", sent, m.IDsSent())
	}
	if m.Inquiring() {
		t.Error("master still reports inquiring")
	}
}

func TestStartInquiryIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMaster(k, MasterConfig{Addr: 1}, nil)
	m.StartInquiry()
	m.StartInquiry() // no-op, must not double the transmit rate
	k.RunUntil(sim.TicksPerSecond)
	m.StopInquiry()
	m.StopInquiry() // no-op
	// One second of inquiry = 800 transmit slots * 2 IDs.
	if got := m.IDsSent(); got < 1500 || got > 1700 {
		t.Errorf("IDs sent in 1s = %d, want ~1600", got)
	}
}

func TestMediumGatesDiscovery(t *testing.T) {
	k := sim.NewKernel(1)
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: 1, Pos: radio.Point{X: 0, Y: 0}})
	med.Place(radio.Station{Addr: 2, Pos: radio.Point{X: 50, Y: 0}}) // out of range
	m := NewMaster(k, MasterConfig{Addr: 1, Policy: TrainFixed}, med)
	m.AddSlave(NewSlave(SlaveConfig{Addr: 2, Mode: ScanContinuous, ScanPhase: 0}))
	m.StartInquiry()
	k.RunUntil(3 * sim.TicksPerSecond)
	if len(m.Discovered()) != 0 {
		t.Fatal("out-of-range slave discovered")
	}
	// Walk into range: discovery proceeds.
	med.Move(2, radio.Point{X: 5, Y: 0})
	k.RunUntil(6 * sim.TicksPerSecond)
	m.StopInquiry()
	if len(m.Discovered()) != 1 {
		t.Error("in-range slave not discovered")
	}
}

func TestRunTrialDeterministic(t *testing.T) {
	a := RunTrial(rand.New(rand.NewSource(99)), TrialConfig{})
	b := RunTrial(rand.New(rand.NewSource(99)), TrialConfig{})
	if a != b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	c := RunTrial(rand.New(rand.NewSource(100)), TrialConfig{})
	if a == c {
		t.Error("different seeds produced identical trials (suspicious)")
	}
}

func TestRunTrialAlwaysDiscovers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		r := RunTrial(rng, TrialConfig{})
		if !r.Discovered {
			t.Fatalf("trial %d timed out: %+v", i, r)
		}
		if r.Responses < 1 || r.Backoffs < 1 {
			t.Errorf("trial %d: backoffs=%d responses=%d, want >=1 each",
				i, r.Backoffs, r.Responses)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	// The paper's Table 1: same-train mean 1.60s, different-train mean
	// 4.13s, mixed 2.87s, with a ~50/50 train split over 500 trials.
	// We require the shape with generous tolerances.
	rng := rand.New(rand.NewSource(2003))
	const trials = 500
	var sameSum, diffSum sim.Tick
	var sameN, diffN int
	for i := 0; i < trials; i++ {
		r := RunTrial(rng, TrialConfig{})
		if !r.Discovered {
			t.Fatalf("trial %d timed out", i)
		}
		if r.SameTrain {
			sameSum += r.Time
			sameN++
		} else {
			diffSum += r.Time
			diffN++
		}
	}
	if sameN < trials/3 || diffN < trials/3 {
		t.Fatalf("train split %d/%d, want roughly even", sameN, diffN)
	}
	sameMean := sameSum.Seconds() / float64(sameN)
	diffMean := diffSum.Seconds() / float64(diffN)
	if sameMean < 1.0 || sameMean > 2.2 {
		t.Errorf("same-train mean = %.3fs, want ~1.6s", sameMean)
	}
	if diffMean < 3.3 || diffMean > 5.0 {
		t.Errorf("different-train mean = %.3fs, want ~4.1s", diffMean)
	}
	if diffMean <= sameMean {
		t.Error("different-train should be slower than same-train")
	}
	ratio := diffMean / sameMean
	if ratio < 1.8 || ratio > 3.5 {
		t.Errorf("diff/same ratio = %.2f, want ~2.6", ratio)
	}
}

func TestDutyCycleValidate(t *testing.T) {
	tests := []struct {
		name    string
		cycle   DutyCycle
		wantErr bool
	}{
		{name: "paper fig2", cycle: DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond}},
		{name: "full duty", cycle: DutyCycle{Inquiry: 10, Period: 10}},
		{name: "zero inquiry", cycle: DutyCycle{Inquiry: 0, Period: 10}, wantErr: true},
		{name: "zero period", cycle: DutyCycle{Inquiry: 10, Period: 0}, wantErr: true},
		{name: "inquiry > period", cycle: DutyCycle{Inquiry: 20, Period: 10}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cycle.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDutyCycleLoad(t *testing.T) {
	d := DutyCycle{Inquiry: sim.FromSeconds(3.84), Period: sim.FromSeconds(15.4)}
	if got := d.Load(); got < 0.24 || got > 0.26 {
		t.Errorf("Load() = %.3f, want ~0.249 (the paper's ~24%%)", got)
	}
	if (DutyCycle{}).Load() != 0 {
		t.Error("zero cycle load should be 0")
	}
}

func TestRunSwarmValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RunSwarm(rng, SwarmConfig{Slaves: 0}); err == nil {
		t.Error("RunSwarm with 0 slaves should fail")
	}
	if _, err := RunSwarm(rng, SwarmConfig{
		Slaves: 1,
		Cycle:  DutyCycle{Inquiry: 10, Period: 5},
	}); err == nil {
		t.Error("RunSwarm with bad cycle should fail")
	}
}

func TestFig2ShapeTenSlaves(t *testing.T) {
	// Paper: with 10 slaves the master discovers ~90% in the first 1s
	// inquiry phase and 100% by the second cycle (t=6s).
	rng := rand.New(rand.NewSource(42))
	const runs = 20
	var frac1, frac6 float64
	for i := 0; i < runs; i++ {
		res, err := RunSwarm(rng, SwarmConfig{
			Slaves: 10,
			Cycle:  DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		frac1 += res.DiscoveredBy(sim.TicksPerSecond)
		frac6 += res.DiscoveredBy(6 * sim.TicksPerSecond)
	}
	frac1 /= runs
	frac6 /= runs
	if frac1 < 0.70 {
		t.Errorf("10 slaves discovered by 1s = %.2f, want >= 0.70 (paper ~0.9)", frac1)
	}
	if frac6 < 0.97 {
		t.Errorf("10 slaves discovered by 6s = %.2f, want ~1.0", frac6)
	}
}

func TestFig2TwentySlavesTwoCycles(t *testing.T) {
	// Paper: 15-20 slaves are all discovered within 2 cycles.
	rng := rand.New(rand.NewSource(43))
	const runs = 10
	var frac float64
	for i := 0; i < runs; i++ {
		res, err := RunSwarm(rng, SwarmConfig{
			Slaves: 20,
			Cycle:  DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		frac += res.DiscoveredBy(10 * sim.TicksPerSecond)
	}
	frac /= runs
	if frac < 0.95 {
		t.Errorf("20 slaves discovered within 2 cycles = %.2f, want >= 0.95", frac)
	}
}

func TestCollisionsOccurWithManySlaves(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	res, err := RunSwarm(rng, SwarmConfig{Slaves: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions == 0 {
		t.Error("20 contending slaves produced no collisions")
	}
}

func TestCollisionAblation(t *testing.T) {
	// Without collision destruction, early discovery can only be equal
	// or faster.
	runAt1s := func(policy radio.CollisionPolicy, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var frac float64
		const runs = 15
		for i := 0; i < runs; i++ {
			res, err := RunSwarm(rng, SwarmConfig{
				Slaves:    20,
				Collision: policy,
				Cycle:     DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			frac += res.DiscoveredBy(sim.TicksPerSecond)
		}
		return frac / runs
	}
	with := runAt1s(radio.CollideDestroyAll, 7)
	without := runAt1s(radio.CollideNone, 7)
	if without < with-0.05 {
		t.Errorf("collision-free discovery (%.2f) slower than with collisions (%.2f)", without, with)
	}
}

func TestSwarmDiscoveryOnlyDuringInquiryPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	res, err := RunSwarm(rng, SwarmConfig{
		Slaves: 10,
		Cycle:  DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range res.Times {
		inCycle := dt % (5 * sim.TicksPerSecond)
		// Responses arrive at most 2 ticks after the phase closes.
		if inCycle > sim.TicksPerSecond+2 {
			t.Errorf("discovery at %v is outside the 1s inquiry phase (offset %v)", dt, inCycle)
		}
	}
}

func TestDiscoveryOrderMatchesTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	k := sim.NewKernel(rng.Int63())
	m := NewMaster(k, MasterConfig{Addr: 1, Policy: TrainFixed}, nil)
	for i := 0; i < 5; i++ {
		m.AddSlave(NewSlave(SlaveConfig{
			Addr:      baseband.BDAddr(10 + i),
			Mode:      ScanContinuous,
			ScanPhase: baseband.FreqIndex(rng.Intn(16)),
		}))
	}
	m.StartInquiry()
	k.RunUntil(10 * sim.TicksPerSecond)
	m.StopInquiry()
	disc := m.Discovered()
	order := m.DiscoveryOrder()
	if len(order) != len(disc) {
		t.Fatalf("order len %d != map len %d", len(order), len(disc))
	}
	for i := 1; i < len(order); i++ {
		if disc[order[i-1]] > disc[order[i]] {
			t.Errorf("discovery order not sorted by time at %d", i)
		}
	}
}

func TestScanModeAndPolicyStrings(t *testing.T) {
	if ScanAlternating.String() != "alternating" ||
		ScanInquiryOnly.String() != "inquiry-only" ||
		ScanContinuous.String() != "continuous" {
		t.Error("unexpected scan mode names")
	}
	if TrainsAlternate.String() != "alternate" || TrainFixed.String() != "fixed" {
		t.Error("unexpected policy names")
	}
	if ScanMode(0).String() != "ScanMode(0)" || TrainPolicy(0).String() != "TrainPolicy(0)" {
		t.Error("unexpected zero-value names")
	}
}

// Property: earliestHear is a true lower bound. For random slaves in every
// scan mode and state, no tick in [t, earliestHear(t)) hears an ID on any
// frequency, including clocks within one interval of the 2^28 wrap.
func TestEarliestHearIsLowerBound(t *testing.T) {
	const wrap = 1 << 28
	rng := rand.New(rand.NewSource(3))
	intervals := []sim.Tick{2048, 4096, 8192, 3000}
	windows := []sim.Tick{36, 72}
	modes := []ScanMode{ScanAlternating, ScanInquiryOnly, ScanContinuous}
	states := []slaveState{stateScanning, stateBackoff, stateRespondListen, stateDone}
	for n := 0; n < 400; n++ {
		interval := intervals[rng.Intn(len(intervals))]
		now := sim.Tick(rng.Int63n(1 << 20))
		offset := sim.Tick(rng.Int63n(int64(2 * interval)))
		if n%2 == 1 {
			// Put the clock at now within one interval of the wrap.
			offset = wrap - now + sim.Tick(rng.Int63n(int64(2*interval))) - interval
		}
		s := NewSlave(SlaveConfig{
			Addr:           1,
			ClockOffset:    offset,
			ScanPhase:      baseband.FreqIndex(rng.Intn(baseband.NumInquiryFreqs)),
			FrozenScanFreq: rng.Intn(2) == 1,
			Mode:           modes[rng.Intn(len(modes))],
			Interval:       interval,
			Window:         windows[rng.Intn(len(windows))],
			KeepResponding: rng.Intn(2) == 1,
		})
		s.state = states[rng.Intn(len(states))]
		if s.state == stateBackoff {
			s.deafTill = now + sim.Tick(rng.Int63n(2048))*baseband.SlotTicks
		}
		bound := s.earliestHear(now)
		if bound < now {
			t.Fatalf("slave %d: earliestHear(%d) = %d lies in the past", n, now, bound)
		}
		if s.state == stateBackoff && bound > s.deafTill {
			t.Fatalf("slave %d: earliestHear(%d) = %d passes the backoff expiry %d", n, now, bound, s.deafTill)
		}
		// Check at most three intervals; a done slave's bound is never.
		end := min(bound, now+3*interval)
		for u := now; u < end; u++ {
			for f := baseband.FreqIndex(0); f < baseband.NumInquiryFreqs; f++ {
				if s.hearing(u, f) {
					t.Fatalf("slave %d (%v, state %d, interval %d, window %d, clock %d): hears f%d at %d before earliestHear(%d) = %d",
						n, s.cfg.Mode, s.state, interval, s.cfg.Window, s.clock.At(now), f, u, now, bound)
				}
			}
		}
	}
}

// A master with nothing to hear skips its slots; attaching a slave or
// forgetting a discovered one must bring the full slots back.
func TestQuietMasterWakesOnAddSlaveAndForget(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMaster(k, MasterConfig{Addr: 1, Policy: TrainFixed}, nil)
	m.StartInquiry()
	k.RunUntil(100)
	s := NewSlave(SlaveConfig{Addr: 2, Mode: ScanContinuous, FrozenScanFreq: true})
	m.AddSlave(s)
	k.RunUntil(k.Now() + 2*sim.TicksPerSecond)
	if !s.Done() {
		t.Fatal("slave attached during inquiry was not discovered")
	}
	m.Forget(s.Addr())
	k.RunUntil(k.Now() + 2*sim.TicksPerSecond)
	if _, ok := m.Discovered()[s.Addr()]; !ok {
		t.Error("forgotten slave was not discovered again")
	}
	if got, want := m.IDsSent(), int64(2*(k.Now()/4+1)); got != want {
		t.Errorf("IDsSent = %d by %d, want %d", got, k.Now(), want)
	}
}
