package inquiry

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bips/internal/baseband"
	"bips/internal/sim"
)

// refMaster drives a Master with the transmit loop it had before the
// master armed its own slots: a Kernel.Ticker fires at every transmit
// slot, and a slot before quiet-1 only counts its two IDs. It never sets
// the Master's from and next, so skipped reads 0 and wake only drops
// quiet: AddSlave, Forget and IDsSent behave as they did with the ticker.
type refMaster struct {
	*Master
	stopTx func()
	onTx   func() // runs before each full slot
}

func (r *refMaster) StartInquiry() {
	if r.active {
		return
	}
	r.active = true
	r.startAt = r.kernel.Now()
	r.slot(r.kernel)
	r.stopTx = r.kernel.Ticker(txPeriod, r.slot)
}

func (r *refMaster) StopInquiry() {
	if !r.active {
		return
	}
	r.active = false
	r.stopTx()
}

func (r *refMaster) slot(k *sim.Kernel) {
	r.idsSent += 2
	if now := k.Now(); now+1 >= r.quiet {
		r.onTx()
		r.transmit(now)
	}
}

// driven is what the scenarios below call on either master.
type driven interface {
	inquirer
	AddSlave(*Slave)
	Forget(baseband.BDAddr)
	IDsSent() int64
}

// trace logs one run: every executed receive event and full transmit
// slot with the slaves' state before it (the backoff expiries carry the
// kernel's draws), and IDsSent at every mark.
type trace struct {
	k   *sim.Kernel
	m   *Master
	log []string
}

func (tr *trace) event(kind string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s", tr.k.Now(), kind)
	for _, s := range tr.m.slaves {
		fmt.Fprintf(&b, " %d/%d/%d/%d", s.state, s.deafTill, s.Backoffs, s.Responses)
	}
	tr.log = append(tr.log, b.String())
}

func (tr *trace) mark(d driven) {
	tr.log = append(tr.log, fmt.Sprintf("%d mark IDsSent=%d", tr.k.Now(), d.IDsSent()))
}

// runTo runs k to limit in steps of 997 ticks, which land on every
// residue of the 4-tick slot grid, marking the count at each boundary.
// It returns early once done reports true.
func (tr *trace) runTo(d driven, limit sim.Tick, done func() bool) {
	for !done() && tr.k.Now() < limit {
		tr.k.RunUntil(min(tr.k.Now()+997, limit))
		tr.mark(d)
	}
}

// bothWays runs scenario on two setups built alike, one driven by
// refMaster and one by the Master itself, and fails t unless both logs
// and the kernels' next draws agree. It also fails t if the Master runs a
// transmit event for a slot no slave can hear, other than a phase's first.
func bothWays(t *testing.T, name string, setup func() (*sim.Kernel, *Master),
	scenario func(tr *trace, d driven)) {
	t.Helper()
	var logs [2][]string
	for side := range logs {
		k, m := setup()
		tr := &trace{k: k, m: m}
		rx := m.rxFn
		m.rxFn = func(k *sim.Kernel) { tr.event("rx"); rx(k) }
		var d driven = m
		if side == 0 {
			d = &refMaster{Master: m, onTx: func() { tr.event("tx") }}
		} else {
			tx := m.txFn
			m.txFn = func(k *sim.Kernel) {
				if k.Now()+1 >= m.quiet {
					tr.event("tx")
				} else if k.Now() != m.startAt {
					t.Errorf("%s: quiet slot %d ran as an event", name, k.Now())
				}
				tx(k)
			}
		}
		scenario(tr, d)
		tr.mark(d)
		tr.log = append(tr.log, fmt.Sprintf("discovered=%v collisions=%d next draws %d %d",
			m.Discovered(), m.Collisions(), k.Rand().Int63(), k.Rand().Int63()))
		logs[side] = tr.log
	}
	ref, got := logs[0], logs[1]
	for i := 0; i < max(len(ref), len(got)); i++ {
		var r, g string
		if i < len(ref) {
			r = ref[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if r != g {
			t.Fatalf("%s: line %d of %d/%d differs:\nticker: %q\nmaster: %q", name, i, len(ref), len(got), r, g)
		}
	}
}

// The Master arms its own next slot and skips the quiet ones between; the
// ticker it replaced fired at every slot. Table 1 trials, Figure 2 swarms
// under their duty cycle (whose stop events fall on transmit slots) and
// slaves attached or forgotten mid-phase must trace the same either way.
func TestArmedSlotsTraceLikeTicker(t *testing.T) {
	trials := []TrialConfig{
		{},
		{Mode: ScanInquiryOnly},
		{Timeout: 2000}, // times out on a slot, often a skipped one
		{Timeout: 2001, Interval: 2048, Window: 72},
	}
	for ci, cfg := range trials {
		cfg := cfg.withDefaults()
		for seed := int64(1); seed <= 40; seed++ {
			seed := seed
			var found bool
			setup := func() (*sim.Kernel, *Master) {
				k, m, _ := newTrial(rand.New(rand.NewSource(seed)), cfg)
				found = false
				m.OnDiscovered = func(baseband.BDAddr, sim.Tick) { found = true; k.Stop() }
				return k, m
			}
			bothWays(t, fmt.Sprintf("trial config %d seed %d", ci, seed), setup, func(tr *trace, d driven) {
				d.StartInquiry()
				tr.runTo(d, cfg.Timeout, func() bool { return found })
				d.StopInquiry()
			})
		}
	}

	swarms := []SwarmConfig{
		{Slaves: 1, Cycle: DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond}},
		{Slaves: 3, Cycle: DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond}},
		{Slaves: 10, Cycle: DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond}},
		{Slaves: 4, Cycle: DutyCycle{Inquiry: sim.FromSeconds(3.84), Period: sim.FromSeconds(15.4)}, Horizon: 40 * sim.TicksPerSecond},
		{Slaves: 3, Cycle: DutyCycle{Inquiry: 3203, Period: 5001}},
		{Slaves: 5},
		{Slaves: 4, Policy: TrainsAlternate, SlaveMode: ScanAlternating, Discipline: BackoffFirst,
			Cycle: DutyCycle{Inquiry: 2 * sim.TicksPerSecond, Period: 3 * sim.TicksPerSecond}, Horizon: 30 * sim.TicksPerSecond},
	}
	for ci, cfg := range swarms {
		cfg := cfg.withDefaults()
		for seed := int64(1); seed <= 8; seed++ {
			seed := seed
			setup := func() (*sim.Kernel, *Master) { return newSwarm(rand.New(rand.NewSource(seed)), cfg) }
			bothWays(t, fmt.Sprintf("swarm config %d seed %d", ci, seed), setup, func(tr *trace, d driven) {
				if cfg.Cycle == (DutyCycle{}) {
					d.StartInquiry()
				} else {
					scheduleCycle(tr.k, d, cfg.Cycle, cfg.Horizon)
				}
				tr.runTo(d, cfg.Horizon, func() bool { return false })
				d.StopInquiry()
			})
		}
	}

	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		setup := func() (*sim.Kernel, *Master) {
			k := sim.NewKernel(seed)
			return k, NewMaster(k, MasterConfig{Addr: 1, Policy: TrainFixed}, nil)
		}
		bothWays(t, fmt.Sprintf("add/forget seed %d", seed), setup, func(tr *trace, d driven) {
			rng := rand.New(rand.NewSource(seed))
			never := func() bool { return false }
			s1 := NewSlave(SlaveConfig{Addr: 2, Mode: ScanContinuous, FrozenScanFreq: true})
			s2 := NewSlave(SlaveConfig{Addr: 3, ClockOffset: sim.Tick(rng.Int63n(8192)),
				ScanPhase: baseband.FreqIndex(rng.Intn(16))})
			d.StartInquiry()
			tr.runTo(d, 100, never)
			d.AddSlave(s1) // outside an event, on a slot
			tr.runTo(d, 6500, never)
			d.Forget(s1.Addr()) // outside an event, off the grid
			// From events: on a slot, off the grid, and on a slot again.
			at := func(tick sim.Tick, fn func()) {
				if _, err := tr.k.ScheduleAt(tick, func(*sim.Kernel) { fn() }); err != nil {
					t.Fatal(err)
				}
			}
			at(8000, func() { d.AddSlave(s2) })
			at(12002, func() { d.Forget(s1.Addr()) })
			at(20000, func() { d.Forget(s2.Addr()) })
			tr.runTo(d, 30000, never)
			d.StopInquiry()
			tr.mark(d)
			// A new phase off the old grid, stopped by an event on one
			// of its own slots.
			tr.k.RunUntil(30001)
			d.StartInquiry()
			at(36001, d.StopInquiry)
			tr.runTo(d, 40000, never)
		})
	}
}
