// Package inquiry implements the Bluetooth 1.1 device-discovery procedure
// at half-slot resolution: the master's inquiry state machine (train
// transmission with switching every 2.56 s, response reception) and the
// slave's inquiry-scan state machine (periodic scan windows, optionally
// alternating with page-scan windows, the random 0..1023-slot backoff, and
// the FHS inquiry response).
//
// This package is the substrate for the paper's Section 4 experiments: the
// single-slave discovery-time measurements of Table 1 and the multi-slave
// discovery-probability simulation of Figure 2, including the
// response-collision handling the authors added to BlueHoc.
package inquiry

import (
	"fmt"
	"math"
	"sort"

	"bips/internal/baseband"
	"bips/internal/radio"
	"bips/internal/sim"
)

// TrainPolicy selects which trains an inquiring master transmits.
type TrainPolicy int

// Train policies.
const (
	// TrainsAlternate is the standard behaviour: start on StartTrain,
	// switch every 2.56 s (N_inquiry repetitions).
	TrainsAlternate TrainPolicy = iota + 1
	// TrainFixed transmits only StartTrain, the configuration of the
	// paper's Figure 2 simulation ("using only train A").
	TrainFixed
)

// String names the policy.
func (p TrainPolicy) String() string {
	switch p {
	case TrainsAlternate:
		return "alternate"
	case TrainFixed:
		return "fixed"
	default:
		return fmt.Sprintf("TrainPolicy(%d)", int(p))
	}
}

// ScanMode selects how a slave schedules its scan windows.
type ScanMode int

// Scan modes.
const (
	// ScanAlternating alternates inquiry-scan and page-scan windows,
	// the slave programming of the paper's Table 1 experiment: only
	// every other window can hear inquiry IDs.
	ScanAlternating ScanMode = iota + 1
	// ScanInquiryOnly opens every window as an inquiry-scan window.
	ScanInquiryOnly
	// ScanContinuous listens for inquiry IDs all the time, the slave
	// configuration of the paper's Figure 2 simulation ("slaves are
	// always in inquiry scan mode").
	ScanContinuous
)

// String names the mode.
func (m ScanMode) String() string {
	switch m {
	case ScanAlternating:
		return "alternating"
	case ScanInquiryOnly:
		return "inquiry-only"
	case ScanContinuous:
		return "continuous"
	default:
		return fmt.Sprintf("ScanMode(%d)", int(m))
	}
}

// Discipline selects the inquiry-response rule a slave follows.
type Discipline int

// Response disciplines.
const (
	// BackoffFirst is the Bluetooth 1.1 rule: on the first ID heard the
	// slave draws a random backoff, goes deaf, and answers the next
	// matching ID after the backoff with an FHS. This matches the
	// paper's hardware measurements (Table 1: mean same-train delay
	// ~ half a scan interval + half a backoff ~ 1.6 s).
	BackoffFirst Discipline = iota + 1
	// Immediate is the Bluetooth 1.0b rule modelled by BlueHoc, the
	// simulator behind the paper's Figure 2: the slave answers the
	// first ID heard immediately and backs off *afterwards*. Slaves
	// sharing a scan frequency therefore collide deterministically at
	// the start of an inquiry phase, which is why the authors had to
	// add collision handling to BlueHoc.
	Immediate
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case BackoffFirst:
		return "backoff-first"
	case Immediate:
		return "immediate"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// slaveState is the discovery-side state of a slave.
type slaveState int

const (
	// stateScanning: normal operation; listening only inside open
	// inquiry-scan windows.
	stateScanning slaveState = iota + 1
	// stateBackoff: heard an ID, deaf until the random backoff expires.
	stateBackoff
	// stateRespondListen: backoff expired, listening continuously; the
	// next matching ID triggers the FHS response.
	stateRespondListen
	// stateDone: the master received this slave's FHS; the slave will
	// shortly be paged and stops scanning.
	stateDone
)

// SlaveConfig configures one scanning slave.
type SlaveConfig struct {
	// Addr is the device address. Required.
	Addr baseband.BDAddr
	// ClockOffset is the device's free-running native clock phase,
	// which determines where its scan windows fall. Draw it uniformly
	// in [0, Interval) for a realistic population.
	ClockOffset sim.Tick
	// ScanPhase is the starting index in the 32-frequency inquiry scan
	// sequence (advances one index every 1.28 s).
	ScanPhase baseband.FreqIndex
	// FrozenScanFreq pins the listening frequency to ScanPhase instead
	// of letting it drift one index per 1.28 s. The paper's Figure 2
	// scenario keeps its slaves on train A frequencies for the whole
	// simulation, which requires this.
	FrozenScanFreq bool
	// Mode selects the scan schedule. Default ScanAlternating.
	Mode ScanMode
	// Interval is the scan interval T_inquiry_scan. Default 1.28 s.
	Interval sim.Tick
	// Window is the scan window T_w_inquiry_scan. Default 11.25 ms.
	Window sim.Tick
	// Discipline is the response rule. Default BackoffFirst (BT 1.1).
	Discipline Discipline
	// BackoffSlots is the exclusive upper bound of the uniform random
	// backoff in slots. Defaults: 1024 (BT 1.1) under BackoffFirst,
	// 2048 under Immediate (the BlueHoc post-response backoff).
	BackoffSlots int
	// KeepResponding, if true, keeps the slave discoverable after a
	// successful response (the master will see duplicate results). The
	// default (false) models the BIPS behaviour: a discovered device is
	// paged and enrolled, leaving the discoverable population.
	KeepResponding bool
}

func (c SlaveConfig) withDefaults() SlaveConfig {
	if c.Mode == 0 {
		c.Mode = ScanAlternating
	}
	if c.Interval == 0 {
		c.Interval = baseband.TInquiryScanTicks
	}
	if c.Window == 0 {
		c.Window = baseband.TwInquiryScanTicks
	}
	if c.Discipline == 0 {
		c.Discipline = BackoffFirst
	}
	if c.BackoffSlots == 0 {
		switch c.Discipline {
		case Immediate:
			c.BackoffSlots = 2 * baseband.MaxBackoffSlots
		default:
			c.BackoffSlots = baseband.MaxBackoffSlots
		}
	}
	return c
}

// Slave is a scanning device attached to a Master.
type Slave struct {
	cfg      SlaveConfig
	clock    baseband.Clock
	state    slaveState
	deafTill sim.Tick // backoff expiry when state == stateBackoff
	// Responses counts FHS packets this slave transmitted.
	Responses int
	// Backoffs counts backoff periods entered.
	Backoffs int
}

// NewSlave returns a slave in the scanning state.
func NewSlave(cfg SlaveConfig) *Slave {
	cfg = cfg.withDefaults()
	return &Slave{
		cfg:   cfg,
		clock: baseband.Clock{Offset: cfg.ClockOffset},
		state: stateScanning,
	}
}

// Addr returns the slave's device address.
func (s *Slave) Addr() baseband.BDAddr { return s.cfg.Addr }

// Done reports whether the slave has been discovered and stopped scanning.
func (s *Slave) Done() bool { return s.state == stateDone }

// ListenTrain returns the train of the frequency the slave's scan sequence
// points at the given time. The paper classifies Table 1 trials by whether
// this train equals the master's starting train.
func (s *Slave) ListenTrain(now sim.Tick) baseband.Train {
	return s.scanFreq(now).Train()
}

func (s *Slave) scanFreq(now sim.Tick) baseband.FreqIndex {
	if s.cfg.FrozenScanFreq {
		return s.cfg.ScanPhase
	}
	return baseband.ScanFreq(s.clock.At(now), s.cfg.ScanPhase)
}

// windowOpen reports whether an inquiry-scan window is open at now,
// ignoring backoff state.
func (s *Slave) windowOpen(now sim.Tick) bool {
	if s.cfg.Mode == ScanContinuous {
		return true
	}
	clk := s.clock.At(now)
	pos := clk % s.cfg.Interval
	if pos >= s.cfg.Window {
		return false
	}
	if s.cfg.Mode == ScanAlternating {
		// Window k is an inquiry-scan window iff k is even; odd
		// windows are page-scan windows (deaf to inquiry IDs).
		k := clk / s.cfg.Interval
		return k%2 == 0
	}
	return true
}

// hearing reports whether the slave can hear an inquiry ID on freq at now.
// The state and the window are checked before the scan frequency, which
// costs the most.
func (s *Slave) hearing(now sim.Tick, freq baseband.FreqIndex) bool {
	switch s.state {
	case stateScanning:
		if !s.windowOpen(now) {
			return false
		}
	case stateRespondListen:
	default:
		return false
	}
	return s.scanFreq(now) == freq
}

// never is the earliestHear of a slave that hears no ID again.
const never = sim.Tick(math.MaxInt64)

// earliestHear returns a tick before which the slave, left in its current
// state, cannot hear an inquiry ID on any frequency at or after t. For a
// backoff slave it is the expiry, where deliverID promotes it.
func (s *Slave) earliestHear(t sim.Tick) sim.Tick {
	switch {
	case s.state == stateDone:
		return never
	case s.state == stateBackoff:
		return s.deafTill
	case s.state == stateRespondListen, s.windowOpen(t):
		return t
	}
	const wrap = 1 << 28
	clk := s.clock.At(t)
	// The next inquiry-scan window: the next one, or under
	// ScanAlternating the next even one.
	k := clk/s.cfg.Interval + 1
	if s.cfg.Mode == ScanAlternating && k%2 == 1 {
		k++
	}
	start := k * s.cfg.Interval
	if start >= wrap {
		// The clock wraps first and restarts the window pattern.
		return t
	}
	return t + start - clk
}

// Master runs the inquiry procedure and collects responses. It is driven by
// a sim.Kernel; StartInquiry/StopInquiry gate transmission (the workstation
// alternates them to realise the paper's duty cycles).
type Master struct {
	// OnDiscovered, if non-nil, is invoked when a slave's FHS response
	// is received for the first time.
	OnDiscovered func(addr baseband.BDAddr, at sim.Tick)

	kernel  *sim.Kernel
	cfg     MasterConfig
	medium  *radio.Medium
	slaves  []*Slave
	bucket  *radio.ResponseBucket
	active  bool
	startAt sim.Tick // when the current inquiry phase began

	discovered map[baseband.BDAddr]sim.Tick
	order      []baseband.BDAddr
	collisions int
	idsSent    int64
	// quiet is a tick before which no attached slave can hear an ID or
	// leave its backoff; transmit slots before it are skipped.
	quiet sim.Tick
	// During a phase the slots in [from, next) are skipped ones, counted
	// as the clock passes them (skipped); next is the slot of the pending
	// transmit event tx, or never.
	from, next sim.Tick
	tx         sim.Handle
	// txFn and rxFn hold the event method values: making one at every
	// Schedule would allocate.
	txFn, rxFn sim.Event
}

// txPeriod is the spacing of transmit slots: the even slots of the
// inquiry phase, one every 2 slots.
const txPeriod = 2 * baseband.SlotTicks

// MasterConfig configures an inquiring master.
type MasterConfig struct {
	// Addr is the master's device address.
	Addr baseband.BDAddr
	// StartTrain is the train transmitted first in each inquiry phase.
	// Default TrainA.
	StartTrain baseband.Train
	// Policy selects standard alternation or fixed-train transmission.
	// Default TrainsAlternate.
	Policy TrainPolicy
	// Collision selects the response-collision rule. Default
	// CollideDestroyAll (the authors' BlueHoc extension).
	Collision radio.CollisionPolicy
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.StartTrain == 0 {
		c.StartTrain = baseband.TrainA
	}
	if c.Policy == 0 {
		c.Policy = TrainsAlternate
	}
	if c.Collision == 0 {
		c.Collision = radio.CollideDestroyAll
	}
	return c
}

// NewMaster returns a master bound to the kernel. medium may be nil, in
// which case every attached slave is considered in range.
func NewMaster(k *sim.Kernel, cfg MasterConfig, medium *radio.Medium) *Master {
	cfg = cfg.withDefaults()
	m := &Master{
		kernel:     k,
		cfg:        cfg,
		medium:     medium,
		bucket:     radio.NewResponseBucket(cfg.Collision),
		discovered: make(map[baseband.BDAddr]sim.Tick),
	}
	m.txFn, m.rxFn = m.txEvent, m.rxEvent
	return m
}

// Addr returns the master's device address.
func (m *Master) Addr() baseband.BDAddr { return m.cfg.Addr }

// AddSlave attaches a slave to this master's channel. Without a medium a
// slave must be attached to one master only: the master skips transmit
// slots by what it knows of its slaves' states.
func (m *Master) AddSlave(s *Slave) {
	m.slaves = append(m.slaves, s)
	m.wake()
}

// Inquiring reports whether an inquiry phase is in progress.
func (m *Master) Inquiring() bool { return m.active }

// Collisions returns the number of response half slots destroyed by
// collisions so far.
func (m *Master) Collisions() int { return m.collisions }

// IDsSent returns the number of ID packets transmitted so far, two for
// every transmit slot, skipped ones included.
func (m *Master) IDsSent() int64 {
	if !m.active {
		return m.idsSent
	}
	return m.idsSent + 2*m.skipped()
}

// Discovered returns the first-response time of every discovered slave.
func (m *Master) Discovered() map[baseband.BDAddr]sim.Tick {
	out := make(map[baseband.BDAddr]sim.Tick, len(m.discovered))
	for a, t := range m.discovered {
		out[a] = t
	}
	return out
}

// DiscoveryOrder returns discovered addresses in discovery order.
func (m *Master) DiscoveryOrder() []baseband.BDAddr {
	out := make([]baseband.BDAddr, len(m.order))
	copy(out, m.order)
	return out
}

// CurrentTrain returns the train the master transmits at the given time, or
// (0, false) if not inquiring.
func (m *Master) CurrentTrain(now sim.Tick) (baseband.Train, bool) {
	if !m.active {
		return 0, false
	}
	if m.cfg.Policy == TrainFixed {
		return m.cfg.StartTrain, true
	}
	return baseband.CurrentTrain(now-m.startAt, m.cfg.StartTrain), true
}

// StartInquiry enters the inquiry state: the master begins broadcasting ID
// packets on its starting train. Starting an already-inquiring master is a
// no-op.
func (m *Master) StartInquiry() {
	if m.active {
		return
	}
	m.active = true
	now := m.kernel.Now()
	m.startAt, m.from, m.next = now, now, now
	m.txFn(m.kernel)
}

// StopInquiry leaves the inquiry state. In-flight responses that would
// arrive after the stop are discarded (the master is no longer listening on
// the inquiry response hops).
func (m *Master) StopInquiry() {
	if !m.active {
		return
	}
	m.idsSent += 2 * m.skipped()
	m.active = false
	m.tx.Cancel()
}

// skipped returns the number of skipped slots the clock has passed: those
// in [from, next) before now, and the one at now once the kernel is
// outside its events. An event at a skipped slot's tick is taken to run
// before the slot, as it did when a ticker armed every slot for any event
// scheduled before the previous slot ran.
func (m *Master) skipped() int64 {
	end := m.kernel.Now()
	if !m.kernel.InEvent() {
		end++
	}
	end = min(end, m.next)
	if end <= m.from {
		return 0
	}
	return int64((end - m.from + txPeriod - 1) / txPeriod)
}

// txEvent runs at a transmit slot: it counts the skipped slots before it
// and its own two IDs, transmits unless no slave can hear, and arms the
// next slot.
func (m *Master) txEvent(k *sim.Kernel) {
	now := k.Now()
	m.idsSent += 2 * int64((now-m.from)/txPeriod+1)
	m.from = now + txPeriod
	if now+1 >= m.quiet {
		m.transmit(now)
	}
	// Neither ID of a slot t with t+1 < quiet can be heard and no
	// backoff expires in it, so the next event goes on the first slot
	// at or after quiet-1. With a medium quiet stays 0.
	next := now + txPeriod
	if m.quiet == never {
		m.next = never
		return
	}
	if next+1 < m.quiet {
		next += (m.quiet - 1 - next + txPeriod - 1) / txPeriod * txPeriod
	}
	m.next = next
	m.tx = k.Schedule(next-now, m.txFn)
}

// wake drops the quiet bound after the slaves changed. During a phase it
// brings the pending transmit event forward to the first slot not yet
// passed; if that is already the pending one nothing is rescheduled, so
// a master that skips nothing keeps its event sequence.
func (m *Master) wake() {
	m.quiet = 0
	if !m.active {
		return
	}
	if first := m.from + txPeriod*sim.Tick(m.skipped()); m.next > first {
		m.tx.Cancel()
		m.next = first
		m.tx = m.kernel.Schedule(first-m.kernel.Now(), m.txFn)
	}
}

// transmit sends the slot's two ID packets, one per half slot, on the next
// two frequencies of the current train.
func (m *Master) transmit(now sim.Tick) {
	elapsed := now - m.startAt
	train := m.cfg.StartTrain
	if m.cfg.Policy == TrainsAlternate {
		train = baseband.CurrentTrain(elapsed, m.cfg.StartTrain)
	}
	f1, f2 := baseband.TrainFreqPair(train, elapsed)
	// The ID on f1 occupies half slot `now`, the ID on f2 half slot
	// now+1. A slave's FHS response arrives one slot (2 ticks) after
	// the ID it answers, landing in the master's listen slot.
	m.deliverID(now, f1, now+2)
	m.deliverID(now+1, f2, now+3)
	if m.medium == nil {
		// With a medium quiet stays 0 and every slot runs: slaves
		// move by kernel events and may be shared by several
		// masters, so quiet is not yet shown to bound when one can
		// next hear.
		m.quiet = never
		for _, s := range m.slaves {
			m.quiet = min(m.quiet, s.earliestHear(now))
		}
	}
}

// deliverID offers an ID packet transmitted at tick txAt on freq to every
// attached slave; responses arrive at respAt.
func (m *Master) deliverID(txAt sim.Tick, freq baseband.FreqIndex, respAt sim.Tick) {
	for _, s := range m.slaves {
		if s.state == stateDone && !s.cfg.KeepResponding {
			continue
		}
		if m.medium != nil && !m.medium.InRange(m.cfg.Addr, s.cfg.Addr) {
			continue
		}
		if !s.hearing(txAt, freq) {
			// A slave whose backoff expires is handled lazily:
			// promote it before the next hearing check. Under
			// BackoffFirst the slave listens continuously after
			// the backoff (respond-listen); under Immediate it
			// simply resumes scanning.
			if s.state == stateBackoff && txAt >= s.deafTill {
				if s.cfg.Discipline == Immediate {
					s.state = stateScanning
				} else {
					s.state = stateRespondListen
				}
				if !s.hearing(txAt, freq) {
					continue
				}
			} else {
				continue
			}
		}
		switch {
		case s.state == stateScanning && s.cfg.Discipline == BackoffFirst:
			// BT 1.1: first ID heard, draw the backoff and go
			// deaf until it expires.
			m.backoff(s, txAt)
		case s.state == stateRespondListen,
			s.state == stateScanning && s.cfg.Discipline == Immediate:
			// Answer with an FHS one slot later. Under the
			// BlueHoc (BT 1.0b) discipline the backoff follows
			// the response instead of preceding it.
			s.Responses++
			if s.cfg.Discipline == Immediate {
				m.backoff(s, txAt)
			} else {
				s.state = stateScanning
			}
			m.bucket.Submit(radio.Response{
				From: s.cfg.Addr,
				Freq: baseband.RespondFreq(freq),
				At:   respAt,
			})
			m.kernel.Schedule(respAt-m.kernel.Now(), m.rxFn)
		}
	}
}

// backoff puts the slave into the deaf backoff state starting at txAt.
func (m *Master) backoff(s *Slave, txAt sim.Tick) {
	slots := m.kernel.Rand().Int63n(int64(s.cfg.BackoffSlots))
	s.state = stateBackoff
	s.deafTill = txAt + sim.Tick(slots)*baseband.SlotTicks
	s.Backoffs++
}

// rxEvent drains the response bucket for the current half slot.
func (m *Master) rxEvent(k *sim.Kernel) {
	now := k.Now()
	delivered, collided := m.bucket.Drain(now)
	if len(collided) > 0 {
		m.collisions++
	}
	if !m.active {
		// Master left inquiry between the ID and the response; it
		// is no longer listening on the response hop.
		return
	}
	for _, r := range delivered {
		if _, seen := m.discovered[r.From]; !seen {
			m.discovered[r.From] = now
			m.order = append(m.order, r.From)
			if m.OnDiscovered != nil {
				m.OnDiscovered(r.From, now)
			}
		}
		m.markDone(r.From)
	}
}

// Forget removes the device from the discovered set and, if its slave had
// stopped scanning after a successful response, makes it discoverable
// again. The BIPS workstation calls this when a device departs its cell so
// that a returning device is re-discovered and re-enrolled.
func (m *Master) Forget(addr baseband.BDAddr) {
	if _, ok := m.discovered[addr]; ok {
		delete(m.discovered, addr)
		for i, a := range m.order {
			if a == addr {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
	for _, s := range m.slaves {
		if s.cfg.Addr == addr && s.state == stateDone {
			s.state = stateScanning
		}
	}
	m.wake()
}

func (m *Master) markDone(addr baseband.BDAddr) {
	for _, s := range m.slaves {
		if s.cfg.Addr == addr && !s.cfg.KeepResponding {
			s.state = stateDone
		}
	}
}

// SortedDiscoveryTimes returns the discovery times in ascending order,
// which is the empirical CDF input for Figure 2.
func (m *Master) SortedDiscoveryTimes() []sim.Tick {
	out := make([]sim.Tick, 0, len(m.discovered))
	for _, t := range m.discovered {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
