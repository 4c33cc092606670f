// Package sim provides a deterministic discrete-event simulation kernel.
//
// All Bluetooth baseband activity in this repository is scheduled on a
// virtual clock whose unit is the Bluetooth half slot (312.5 microseconds,
// the native clock period of a Bluetooth 1.1 radio). The kernel is a plain
// binary-heap event queue: events are (tick, sequence, callback) triples and
// run strictly in (tick, sequence) order, so two simulations constructed
// with the same seed replay identically.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Tick is a point in virtual time measured in Bluetooth half slots
// (312.5 microseconds each) since the start of the simulation.
type Tick int64

// TickDuration is the real-time length of one simulation tick: one
// Bluetooth native clock period.
const TickDuration = 312500 * time.Nanosecond

// Common Bluetooth timing quantities expressed in ticks.
const (
	// TicksPerSlot is the number of ticks in one 625 microsecond slot.
	TicksPerSlot Tick = 2
	// TicksPerSecond is the number of ticks in one second (3.2 kHz clock).
	TicksPerSecond Tick = 3200
)

// Duration converts a tick count to a time.Duration.
func (t Tick) Duration() time.Duration {
	return time.Duration(int64(t)) * TickDuration
}

// Seconds returns the tick count as floating-point seconds.
func (t Tick) Seconds() float64 {
	return float64(t) / float64(TicksPerSecond)
}

// String formats the tick as seconds with millisecond precision.
func (t Tick) String() string {
	return fmt.Sprintf("%.4fs", t.Seconds())
}

// FromDuration converts a real duration to the nearest tick count.
func FromDuration(d time.Duration) Tick {
	return Tick((d + TickDuration/2) / TickDuration)
}

// FromSeconds converts seconds to ticks, rounding to nearest.
func FromSeconds(s float64) Tick {
	return Tick(s*float64(TicksPerSecond) + 0.5)
}

// Event is a scheduled callback. The callback receives the kernel so it can
// schedule follow-up events.
type Event func(k *Kernel)

// scheduled is one queue node. Nodes are recycled through the kernel's
// free list once popped; gen counts the recycles so that a Handle taken
// before one can no longer reach the node's next event.
type scheduled struct {
	at   Tick
	seq  uint64
	fn   Event
	gen  uint64
	dead bool
}

// Handle identifies a scheduled event so it can be cancelled. It stays
// safe to use after its event ran: Cancel is then a no-op even when the
// kernel has reused the event's node for another event.
type Handle struct {
	s   *scheduled
	gen uint64
}

// Cancel prevents the event from running. Cancelling an already-run or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.s != nil && h.s.gen == h.gen {
		h.s.dead = true
	}
}

// Cancelled reports whether the event was cancelled or has already run.
func (h Handle) Cancelled() bool {
	return h.s == nil || h.s.gen != h.gen || h.s.dead
}

// before orders events by (tick, sequence).
func before(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ErrPastEvent is returned by ScheduleAt when the requested tick is in the
// simulated past.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Tick
	seq     uint64
	queue   []*scheduled // binary min-heap in (tick, sequence) order
	free    []*scheduled // popped nodes awaiting reuse
	rng     *rand.Rand
	stopped bool
	inEvent bool
}

// NewKernel returns a kernel whose random source is seeded with seed: a
// Source, which draws the stream of rand.NewSource(seed). Identical seeds
// and identical schedules replay identically.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Tick { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// InEvent reports whether an event callback is running. Outside one, every
// event before Now has run, and after a Run or RunUntil that Stop did not
// end, every event at Now too.
func (k *Kernel) InEvent() bool { return k.inEvent }

// Pending returns the number of events waiting in the queue, including
// cancelled events that have not yet been discarded.
func (k *Kernel) Pending() int { return len(k.queue) }

// ScheduleAt schedules fn to run at the absolute tick at.
func (k *Kernel) ScheduleAt(at Tick, fn Event) (Handle, error) {
	if at < k.now {
		return Handle{}, fmt.Errorf("%w: now=%d at=%d", ErrPastEvent, k.now, at)
	}
	var s *scheduled
	if n := len(k.free); n > 0 {
		s = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		s.dead = false
	} else {
		s = new(scheduled)
	}
	s.at, s.seq, s.fn = at, k.seq, fn
	k.seq++
	k.push(s)
	return Handle{s: s, gen: s.gen}, nil
}

// push adds s to the heap and sifts it up.
func (k *Kernel) push(s *scheduled) {
	q := append(k.queue, s)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(s, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = s
	k.queue = q
}

// pop removes the earliest event from the non-empty heap and puts its node
// on the free list. It clears the node's callback, so a caller that runs
// the event reads the node first.
func (k *Kernel) pop() {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && before(q[r], q[child]) {
				child = r
			}
			if !before(q[child], last) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = last
	}
	k.queue = q
	top.gen++
	top.fn = nil
	k.free = append(k.free, top)
}

// Schedule schedules fn to run delay ticks from now. A non-positive delay
// runs fn after all events already scheduled for the current tick.
func (k *Kernel) Schedule(delay Tick, fn Event) Handle {
	if delay < 0 {
		delay = 0
	}
	h, err := k.ScheduleAt(k.now+delay, fn)
	if err != nil {
		// Unreachable: now+delay >= now by construction.
		return Handle{}
	}
	return h
}

// Stop makes the current Run call return after the in-flight event
// completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step runs the single earliest pending event. It reports whether an event
// ran (false when the queue is empty).
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		next := k.queue[0]
		at, fn, dead := next.at, next.fn, next.dead
		k.pop()
		if dead {
			continue
		}
		k.now = at
		k.inEvent = true
		fn(k)
		k.inEvent = false
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is empty, Stop is
// called, or the next event lies strictly after limit. The clock is left at
// the tick of the last executed event (or at limit if the run was not
// stopped and no event up to limit is left).
func (k *Kernel) RunUntil(limit Tick) {
	k.stopped = false
	for !k.stopped {
		// Discard cancelled events at the head.
		for len(k.queue) > 0 && k.queue[0].dead {
			k.pop()
		}
		if len(k.queue) == 0 || k.queue[0].at > limit {
			break
		}
		k.Step()
	}
	if !k.stopped && k.now < limit {
		k.now = limit
	}
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// Ticker invokes fn every period ticks starting at the next multiple of
// period, until the returned stop function is called. It is a convenience
// used by pollers and schedulers.
func (k *Kernel) Ticker(period Tick, fn Event) (stop func()) {
	if period <= 0 {
		period = 1
	}
	var h Handle
	stopped := false
	var tick Event
	tick = func(kk *Kernel) {
		if stopped {
			return
		}
		fn(kk)
		if !stopped {
			h = kk.Schedule(period, tick)
		}
	}
	h = k.Schedule(period, tick)
	return func() {
		stopped = true
		h.Cancel()
	}
}
