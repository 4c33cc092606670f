package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestTickConversions(t *testing.T) {
	tests := []struct {
		name string
		tick Tick
		want time.Duration
	}{
		{name: "zero", tick: 0, want: 0},
		{name: "one half slot", tick: 1, want: 312500 * time.Nanosecond},
		{name: "one slot", tick: TicksPerSlot, want: 625 * time.Microsecond},
		{name: "one second", tick: TicksPerSecond, want: time.Second},
		{name: "inquiry train", tick: 32, want: 10 * time.Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.tick.Duration(); got != tt.want {
				t.Errorf("Duration() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFromDurationRoundTrip(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want Tick
	}{
		{d: 0, want: 0},
		{d: 312500 * time.Nanosecond, want: 1},
		{d: 625 * time.Microsecond, want: 2},
		{d: 1280 * time.Millisecond, want: 4096},
		{d: 11250 * time.Microsecond, want: 36},
		{d: 10240 * time.Millisecond, want: 32768},
	}
	for _, tt := range tests {
		if got := FromDuration(tt.d); got != tt.want {
			t.Errorf("FromDuration(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.28); got != 4096 {
		t.Errorf("FromSeconds(1.28) = %d, want 4096", got)
	}
	if got := FromSeconds(2.56); got != 8192 {
		t.Errorf("FromSeconds(2.56) = %d, want 8192", got)
	}
	if got := FromSeconds(0); got != 0 {
		t.Errorf("FromSeconds(0) = %d, want 0", got)
	}
}

func TestSecondsInverse(t *testing.T) {
	f := func(n uint32) bool {
		tick := Tick(n % 10_000_000)
		return FromSeconds(tick.Seconds()) == tick
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelRunsEventsInOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(30, func(*Kernel) { order = append(order, 3) })
	k.Schedule(10, func(*Kernel) { order = append(order, 1) })
	k.Schedule(20, func(*Kernel) { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
}

func TestKernelSameTickFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func(*Kernel) { order = append(order, i) })
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-tick events ran out of order: %v", order)
		}
	}
}

func TestKernelClockAdvances(t *testing.T) {
	k := NewKernel(1)
	var at Tick
	k.Schedule(100, func(kk *Kernel) { at = kk.Now() })
	k.Run()
	if at != 100 {
		t.Errorf("event saw Now() = %d, want 100", at)
	}
	if k.Now() != 100 {
		t.Errorf("final Now() = %d, want 100", k.Now())
	}
}

func TestScheduleAtPastFails(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(50, func(*Kernel) {})
	k.Run()
	if _, err := k.ScheduleAt(10, func(*Kernel) {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("ScheduleAt(past) error = %v, want ErrPastEvent", err)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	h := k.Schedule(10, func(*Kernel) { ran = true })
	h.Cancel()
	if !h.Cancelled() {
		t.Error("handle not reported cancelled")
	}
	k.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestCancelIdempotent(t *testing.T) {
	k := NewKernel(1)
	h := k.Schedule(10, func(*Kernel) {})
	h.Cancel()
	h.Cancel() // must not panic
	var zero Handle
	zero.Cancel() // zero handle must not panic
	if !zero.Cancelled() {
		t.Error("zero handle should report cancelled")
	}
	k.Run()
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	k := NewKernel(1)
	var ran []Tick
	for _, at := range []Tick{10, 20, 30, 40} {
		at := at
		k.Schedule(at, func(kk *Kernel) { ran = append(ran, kk.Now()) })
	}
	k.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2 (only those <= 25)", len(ran))
	}
	if k.Now() != 25 {
		t.Errorf("Now() = %d after RunUntil(25), want 25", k.Now())
	}
	k.RunUntil(100)
	if len(ran) != 4 {
		t.Errorf("ran %d events after second RunUntil, want 4", len(ran))
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(500)
	if k.Now() != 500 {
		t.Errorf("Now() = %d, want 500", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Schedule(10, func(kk *Kernel) {
		count++
		kk.Stop()
	})
	k.Schedule(20, func(*Kernel) { count++ })
	k.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop should halt the run)", count)
	}
	// A later Run resumes from where the previous left off.
	k.Run()
	if count != 2 {
		t.Errorf("count = %d after resume, want 2", count)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var recur Event
	recur = func(kk *Kernel) {
		depth++
		if depth < 5 {
			kk.Schedule(10, recur)
		}
	}
	k.Schedule(10, recur)
	k.Run()
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if k.Now() != 50 {
		t.Errorf("Now() = %d, want 50", k.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Schedule(10, func(kk *Kernel) {
		kk.Schedule(-5, func(*Kernel) { ran = true })
	})
	k.Run()
	if !ran {
		t.Error("negative-delay event did not run")
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	var fires []Tick
	var stop func()
	stop = k.Ticker(100, func(kk *Kernel) {
		fires = append(fires, kk.Now())
		if len(fires) == 3 {
			stop()
		}
	})
	k.RunUntil(10_000)
	if len(fires) != 3 {
		t.Fatalf("ticker fired %d times, want 3", len(fires))
	}
	for i, at := range fires {
		want := Tick(100 * (i + 1))
		if at != want {
			t.Errorf("fire %d at %d, want %d", i, at, want)
		}
	}
}

func TestTickerStopBeforeFirstFire(t *testing.T) {
	k := NewKernel(1)
	fired := false
	stop := k.Ticker(100, func(*Kernel) { fired = true })
	stop()
	k.RunUntil(1000)
	if fired {
		t.Error("ticker fired after immediate stop")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		k := NewKernel(seed)
		var draws []int64
		k.Ticker(7, func(kk *Kernel) {
			draws = append(draws, kk.Rand().Int63n(1000))
		})
		k.RunUntil(700)
		return draws
	}
	a, b := run(42), run(42)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("draw lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws (suspicious)")
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel(1)
	if k.Pending() != 0 {
		t.Errorf("Pending() = %d on fresh kernel, want 0", k.Pending())
	}
	k.Schedule(10, func(*Kernel) {})
	k.Schedule(20, func(*Kernel) {})
	if k.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", k.Pending())
	}
}

// Property: RunUntil never leaves the clock beyond the limit and never runs
// an event scheduled after the limit.
func TestRunUntilProperty(t *testing.T) {
	f := func(seed int64, rawDelays []uint16, rawLimit uint16) bool {
		k := NewKernel(seed)
		limit := Tick(rawLimit)
		violation := false
		for _, d := range rawDelays {
			k.Schedule(Tick(d), func(kk *Kernel) {
				if kk.Now() > limit {
					violation = true
				}
			})
		}
		k.RunUntil(limit)
		return !violation && k.Now() == limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A Stop inside RunUntil leaves the clock at the stopping event, so the
// next run picks up the events still pending without moving time back.
func TestRunUntilStopKeepsClock(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10, func(kk *Kernel) { kk.Stop() })
	var seen []Tick
	k.Schedule(20, func(kk *Kernel) { seen = append(seen, kk.Now()) })
	k.RunUntil(100)
	if k.Now() != 10 {
		t.Fatalf("Now() = %d after Stop at 10, want 10", k.Now())
	}
	if _, err := k.ScheduleAt(15, func(kk *Kernel) { seen = append(seen, kk.Now()) }); err != nil {
		t.Fatalf("ScheduleAt(15) after Stop at 10: %v", err)
	}
	k.RunUntil(100)
	if len(seen) != 2 || seen[0] != 15 || seen[1] != 20 {
		t.Errorf("second run saw events at %v, want [15 20]", seen)
	}
	if k.Now() != 100 {
		t.Errorf("Now() = %d after the second run, want 100", k.Now())
	}
}

func TestInEvent(t *testing.T) {
	k := NewKernel(1)
	var inside []bool
	k.Schedule(3, func(kk *Kernel) { inside = append(inside, kk.InEvent()) })
	k.Schedule(3, func(kk *Kernel) { inside = append(inside, kk.InEvent()) })
	if k.InEvent() {
		t.Error("InEvent before any run")
	}
	k.RunUntil(3)
	if k.InEvent() {
		t.Error("InEvent after RunUntil returned")
	}
	if len(inside) != 2 || !inside[0] || !inside[1] {
		t.Errorf("InEvent inside the callbacks = %v, want [true true]", inside)
	}
}

// A handle whose event already ran must not reach the event that reuses
// its recycled node.
func TestStaleHandleCannotCancelReusedNode(t *testing.T) {
	k := NewKernel(1)
	old := k.Schedule(5, func(*Kernel) {})
	k.RunUntil(5)
	ran := false
	fresh := k.Schedule(5, func(*Kernel) { ran = true })
	if fresh.s != old.s {
		t.Fatal("the new event did not reuse the node of the event that ran")
	}
	if !old.Cancelled() {
		t.Error("handle of an event that ran is not reported cancelled")
	}
	old.Cancel()
	if fresh.Cancelled() {
		t.Error("stale handle cancelled the event reusing its node")
	}
	k.Run()
	if !ran {
		t.Error("event reusing a stale handle's node did not run")
	}
}

// A ticker that stops itself and starts its successor hands the successor
// its recycled node; calling the first stop func again later must leave
// the successor's fires alone.
func TestTickerStoppedAfterNFiresRunsNTimes(t *testing.T) {
	const n = 3
	k := NewKernel(1)
	var first, second int
	var stopFirst, stopSecond func()
	stopFirst = k.Ticker(10, func(kk *Kernel) {
		first++
		if first == n {
			stopFirst()
			stopSecond = kk.Ticker(10, func(*Kernel) {
				second++
				if second == n {
					stopSecond()
				}
			})
		}
	})
	k.ScheduleAt(45, func(*Kernel) { stopFirst() })
	k.RunUntil(1000)
	if first != n || second != n {
		t.Errorf("tickers fired %d and %d times, want %d each", first, second, n)
	}
	// Both tickers and the teardown event share two nodes: the successor
	// ran on its predecessor's.
	if nodes := len(k.free) + len(k.queue); nodes != 2 {
		t.Errorf("the run used %d event nodes, want 2", nodes)
	}
}

// A warmed ticker re-arms from the free list: running it allocates nothing.
func TestTickerRunsWithoutAllocating(t *testing.T) {
	k := NewKernel(1)
	fires := 0
	k.Ticker(4, func(*Kernel) { fires++ })
	limit := Tick(1000)
	k.RunUntil(limit)
	allocs := testing.AllocsPerRun(100, func() {
		limit += 1000
		k.RunUntil(limit)
	})
	if allocs != 0 {
		t.Errorf("ticker-driven RunUntil allocated %.1f times per run, want 0", allocs)
	}
	if fires != int(limit/4) {
		t.Errorf("ticker fired %d times by %d, want %d", fires, limit, limit/4)
	}
}
