package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Every timestamp in the harness is nanoseconds on the monotonic clock
// since the process started.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// The harness runs at most two pacing threads beside its readers. Each
// pacer comes back from its sleep needing a P at once; with GOMAXPROCS
// at the core count it queued behind the readers for up to a 10 ms
// preemption slice whenever they were busy (measured: 0.7–2 % of sends
// more than 1 ms late on the report workload). Two spare Ps leave the
// arbitration to the kernel, where the pacers outrank everything else.
func init() { runtime.GOMAXPROCS(runtime.NumCPU() + 2) }

// lockPacer dedicates the calling goroutine's OS thread to pacing: 1 ns
// timer slack (the default 50 µs is a whole request period at 20,000
// req/s) and the highest scheduling class the kernel will grant, so a
// server that saturates both cores cannot keep the generator from its
// schedule. The returned function releases the thread.
//
// Pacing sleeps in nanosleep(2) on this thread because the two obvious
// alternatives both falsify the measurement on a 2-core sandbox:
// time.Sleep parks on the runtime timer, whose idle wake-ups round up
// towards 1 ms, and a spin loop takes a core away from the server under
// test (see README, "Sandbox findings").
func lockPacer() (unlock func()) {
	runtime.LockOSThread()
	// All best effort: where the kernel refuses, the default stays and
	// the cost shows in bench.late_ratio and bench.late_p99_us.
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	const schedFIFO = 1
	prio := int32(1) // struct sched_param
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), -10)
	}
	return func() {
		// The thread goes back to the runtime's pool: hand it back as
		// an ordinary one.
		const schedOther = 0
		prio := int32(0)
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedOther, uintptr(unsafe.Pointer(&prio)))
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), 0)
		runtime.UnlockOSThread()
	}
}

// sleepUntil blocks the calling thread until the monotonic instant t.
func sleepUntil(t int64) {
	for {
		d := t - now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		// EINTR just re-evaluates the remaining time.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
