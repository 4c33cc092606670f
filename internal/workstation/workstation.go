// Package workstation implements the BIPS workstation of Section 2: the
// fixed machine in each significant room whose main task is discovering and
// enrolling mobile users entering its coverage area. It drives the HCI with
// the master scheduling policy the paper derives — a continuous discovery
// slot at the start of every operational cycle (3.84 s of every 15.4 s by
// default, ~24% tracking load) — converts enrollments and departures into
// presence deltas, and pushes only the deltas to the central server.
package workstation

import (
	"fmt"
	"sort"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/hci"
	"bips/internal/inquiry"
	"bips/internal/mobility"
	"bips/internal/sim"
	"bips/internal/wire"
)

// PaperCycle returns the operational cycle Section 5 derives: a 3.84 s
// discovery slot in a 15.4 s cycle (the mean time a walking user spends
// inside a 20 m cell at 1.3 m/s).
func PaperCycle() inquiry.DutyCycle {
	return inquiry.DutyCycle{
		Inquiry: sim.FromSeconds(3.84),
		Period:  mobility.PaperCrossingEstimate(),
	}
}

// Reporter receives presence deltas, one ingest frame per call: a
// flushed batch, or a single delta when the workstation does not batch.
// A station streams the frames over the LAN (ingest.Client); the
// in-process deployment applies them through the server's pipeline.
type Reporter interface {
	ReportBatch(deltas []wire.Presence) error
}

// Config configures a workstation.
type Config struct {
	// Room is the room (piconet/location granule) this workstation
	// covers.
	Room graph.NodeID
	// Cycle is the operational cycle; the zero value means PaperCycle.
	Cycle inquiry.DutyCycle
	// BatchMax, when > 0, buffers presence deltas and flushes them as a
	// batch once BatchMax are pending — the ingest write path's
	// max-batch policy. 0 reports every delta immediately, as a frame
	// of its own.
	BatchMax int
	// BatchDelay bounds how long a buffered delta may wait before a
	// partial batch is flushed anyway (the max-delay policy), driven by
	// the simulation clock so flush boundaries are deterministic for a
	// given seed. 0 with BatchMax > 0 defaults to the operational
	// cycle's period.
	BatchDelay sim.Tick
}

// Stats counts workstation activity.
type Stats struct {
	Cycles       int
	Discoveries  int
	Enrollments  int
	Departures   int
	ReportErrors int
	// Batches counts reported frames (one per delta when unbuffered).
	Batches int
	// Buffered is the number of deltas currently awaiting flush.
	Buffered int
}

// Workstation tracks the mobile devices in one room.
type Workstation struct {
	kernel   *sim.Kernel
	hci      *hci.HCI
	cfg      Config
	reporter Reporter

	present map[baseband.BDAddr]bool
	pending []baseband.BDAddr
	queued  map[baseband.BDAddr]bool

	// buf holds deltas awaiting a batch flush (BatchMax > 0). Flushes
	// happen on max-batch (buffer full) and max-delay (the periodic
	// flush tick) — both functions of simulation state only, so a rerun
	// with the same seed cuts byte-identical batches.
	buf       []wire.Presence
	stopFlush func()

	running   bool
	stopCycle func()
	stats     Stats
}

// New builds a workstation on top of an HCI controller. The workstation
// takes ownership of the controller's event stream.
func New(k *sim.Kernel, ctrl *hci.HCI, cfg Config, rep Reporter) (*Workstation, error) {
	if cfg.Cycle == (inquiry.DutyCycle{}) {
		cfg.Cycle = PaperCycle()
	}
	if err := cfg.Cycle.Validate(); err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("workstation: nil reporter")
	}
	if cfg.BatchMax < 0 {
		return nil, fmt.Errorf("workstation: negative BatchMax")
	}
	if cfg.BatchMax > 0 && cfg.BatchDelay <= 0 {
		cfg.BatchDelay = cfg.Cycle.Period
	}
	w := &Workstation{
		kernel:   k,
		hci:      ctrl,
		cfg:      cfg,
		reporter: rep,
		present:  make(map[baseband.BDAddr]bool),
		queued:   make(map[baseband.BDAddr]bool),
	}
	ctrl.OnEvent = w.onEvent
	return w, nil
}

// Room returns the covered room.
func (w *Workstation) Room() graph.NodeID { return w.cfg.Room }

// Stats returns a snapshot of the counters.
func (w *Workstation) Stats() Stats {
	st := w.stats
	st.Buffered = len(w.buf)
	return st
}

// Present returns the devices currently believed present, in ascending
// order.
func (w *Workstation) Present() []baseband.BDAddr {
	out := make([]baseband.BDAddr, 0, len(w.present))
	for a := range w.present {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Start begins the operational cycle (and, when batching, the periodic
// max-delay flush tick).
func (w *Workstation) Start() {
	if w.running {
		return
	}
	w.running = true
	w.runCycle(w.kernel)
	w.stopCycle = w.kernel.Ticker(w.cfg.Cycle.Period, w.runCycle)
	if w.cfg.BatchMax > 0 {
		w.stopFlush = w.kernel.Ticker(w.cfg.BatchDelay, func(*sim.Kernel) { w.FlushBatch() })
	}
}

// Stop halts the cycle and flushes any buffered deltas. Presence state
// is retained.
func (w *Workstation) Stop() {
	if !w.running {
		return
	}
	w.running = false
	if w.stopCycle != nil {
		w.stopCycle()
		w.stopCycle = nil
	}
	if w.stopFlush != nil {
		w.stopFlush()
		w.stopFlush = nil
	}
	w.FlushBatch()
	if err := w.hci.InquiryCancel(); err != nil {
		w.stats.ReportErrors++
	}
}

func (w *Workstation) runCycle(*sim.Kernel) {
	if !w.running {
		return
	}
	w.stats.Cycles++
	if err := w.hci.Inquiry(w.cfg.Cycle.Inquiry); err != nil {
		// Still inquiring (overrun): skip this cycle's slot.
		return
	}
}

func (w *Workstation) onEvent(e hci.Event) {
	switch e.Type {
	case hci.EventInquiryResult:
		w.stats.Discoveries++
		if !w.present[e.Addr] && !w.queued[e.Addr] {
			w.queued[e.Addr] = true
			w.pending = append(w.pending, e.Addr)
		}
	case hci.EventInquiryComplete:
		w.connectNext()
	case hci.EventConnectionComplete:
		if e.Status == hci.StatusOK {
			w.stats.Enrollments++
			w.present[e.Addr] = true
			w.report(e.Addr, true, e.At)
		}
		w.connectNext()
	case hci.EventDisconnectionComplete:
		if w.present[e.Addr] {
			delete(w.present, e.Addr)
			w.stats.Departures++
			w.report(e.Addr, false, e.At)
		}
	}
}

// connectNext pages the next pending device. Paging proceeds during the
// connection-management part of the cycle; the HCI serialises pages.
func (w *Workstation) connectNext() {
	for len(w.pending) > 0 {
		addr := w.pending[0]
		w.pending = w.pending[1:]
		delete(w.queued, addr)
		if w.present[addr] {
			continue
		}
		err := w.hci.CreateConnection(addr)
		switch {
		case err == nil:
			return // completion event will call connectNext again
		default:
			// Busy or unknown: drop this attempt; the device
			// will be rediscovered next cycle.
			continue
		}
	}
}

// report buffers one delta and flushes on max-batch; unbatched
// (BatchMax 0), every delta is flushed at once as a frame of its own.
func (w *Workstation) report(addr baseband.BDAddr, present bool, at sim.Tick) {
	w.buf = append(w.buf, wire.Presence{
		Device:  wire.FormatAddr(addr),
		Room:    w.cfg.Room,
		At:      at,
		Present: present,
	})
	if len(w.buf) >= w.cfg.BatchMax {
		w.FlushBatch()
	}
}

// FlushBatch hands the buffered deltas to the reporter in one call —
// one ingest frame. It is invoked on max-batch, on the max-delay tick,
// and on Stop; callers may also flush explicitly at deterministic
// points of their own.
func (w *Workstation) FlushBatch() {
	if len(w.buf) == 0 {
		return
	}
	batch := w.buf
	w.buf = nil
	w.stats.Batches++
	if err := w.reporter.ReportBatch(batch); err != nil {
		w.stats.ReportErrors++
	}
}
