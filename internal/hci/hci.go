// Package hci provides a BlueZ-like Host Controller Interface facade over
// the simulated baseband: Inquiry / Inquiry_Cancel / Create_Connection /
// Disconnect commands and Inquiry_Result / Inquiry_Complete /
// Connection_Complete / Disconnection_Complete events. The BIPS
// workstation programs against this interface exactly as the paper's
// implementation programmed against the official Linux Bluetooth stack.
package hci

import (
	"errors"
	"fmt"
	"slices"

	"bips/internal/baseband"
	"bips/internal/inquiry"
	"bips/internal/page"
	"bips/internal/radio"
	"bips/internal/sim"
)

// Defaults for link supervision.
const (
	// DefaultPollInterval is how often each open link is probed.
	DefaultPollInterval = sim.Tick(320) // 100 ms
	// DefaultSupervisionMisses is how many consecutive failed probes
	// close a link (link supervision timeout).
	DefaultSupervisionMisses = 3
)

// Device bundles the two radio roles of one mobile device: the inquiry-scan
// behaviour that makes it discoverable and the page-scan behaviour that
// makes it connectable.
type Device struct {
	Slave   *inquiry.Slave
	Scanner page.Scanner
}

// Addr returns the device address.
func (d Device) Addr() baseband.BDAddr { return d.Slave.Addr() }

// EventType enumerates HCI events.
type EventType int

// HCI events delivered to the host.
const (
	// EventInquiryResult reports one discovered device.
	EventInquiryResult EventType = iota + 1
	// EventInquiryComplete reports the end of an inquiry.
	EventInquiryComplete
	// EventConnectionComplete reports a finished Create_Connection
	// (inspect Status).
	EventConnectionComplete
	// EventDisconnectionComplete reports a closed connection.
	EventDisconnectionComplete
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventInquiryResult:
		return "inquiry-result"
	case EventInquiryComplete:
		return "inquiry-complete"
	case EventConnectionComplete:
		return "connection-complete"
	case EventDisconnectionComplete:
		return "disconnection-complete"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Status is the command status carried by completion events.
type Status int

// Statuses.
const (
	// StatusOK means success.
	StatusOK Status = iota
	// StatusTimeout means the operation timed out (page timeout).
	StatusTimeout
	// StatusUnreachable means the peer is out of radio coverage.
	StatusUnreachable
	// StatusSupervision means the link supervision timer expired.
	StatusSupervision
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusTimeout:
		return "timeout"
	case StatusUnreachable:
		return "unreachable"
	case StatusSupervision:
		return "supervision-timeout"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Event is one HCI event.
type Event struct {
	Type   EventType
	Addr   baseband.BDAddr
	At     sim.Tick
	Status Status
}

// Errors returned by commands.
var (
	ErrInquiryRunning = errors.New("hci: inquiry already running")
	ErrConnBusy       = errors.New("hci: connection setup in progress")
	ErrUnknownDevice  = errors.New("hci: unknown device")
	ErrNotConnected   = errors.New("hci: not connected")
	ErrConnected      = errors.New("hci: already connected")
)

// Config configures an HCI controller.
type Config struct {
	// Addr is the local radio address.
	Addr baseband.BDAddr
	// StartTrain, Policy, Collision configure the inquiry engine.
	StartTrain baseband.Train
	Policy     inquiry.TrainPolicy
	Collision  radio.CollisionPolicy
	// PollInterval is the link-supervision probe interval (default
	// DefaultPollInterval).
	PollInterval sim.Tick
	// SupervisionMisses is the number of consecutive failed probes that
	// close a link (default DefaultSupervisionMisses).
	SupervisionMisses int
	// PageTimeout bounds Create_Connection (0 = page default).
	PageTimeout sim.Tick
}

// HCI is one simulated Bluetooth controller in master role.
type HCI struct {
	// OnEvent receives every event; it must be set before issuing
	// commands. Events fire synchronously on the simulation goroutine.
	OnEvent func(Event)

	kernel *sim.Kernel
	cfg    Config
	medium *radio.Medium
	master *inquiry.Master
	pager  *page.Pager

	devices map[baseband.BDAddr]Device
	conns   map[baseband.BDAddr]*connState
	// linkScratch holds superviseLinks' sorted address walk.
	linkScratch []baseband.BDAddr

	inquiring   bool
	inquiryStop sim.Handle
	pollStop    func()
}

type connState struct{ misses int }

// New returns an idle controller. medium may be nil.
func New(k *sim.Kernel, cfg Config, medium *radio.Medium) *HCI {
	if cfg.PollInterval == 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.SupervisionMisses == 0 {
		cfg.SupervisionMisses = DefaultSupervisionMisses
	}
	h := &HCI{
		kernel:  k,
		cfg:     cfg,
		medium:  medium,
		devices: make(map[baseband.BDAddr]Device),
		conns:   make(map[baseband.BDAddr]*connState),
	}
	h.master = inquiry.NewMaster(k, inquiry.MasterConfig{
		Addr:       cfg.Addr,
		StartTrain: cfg.StartTrain,
		Policy:     cfg.Policy,
		Collision:  cfg.Collision,
	}, medium)
	h.master.OnDiscovered = func(addr baseband.BDAddr, at sim.Tick) {
		h.emit(Event{Type: EventInquiryResult, Addr: addr, At: at})
	}
	h.pager = page.NewPager(k, cfg.Addr, medium)
	h.pollStop = k.Ticker(cfg.PollInterval, h.superviseLinks)
	return h
}

// Close stops background supervision. The controller must not be used
// afterwards.
func (h *HCI) Close() {
	if h.pollStop != nil {
		h.pollStop()
		h.pollStop = nil
	}
	h.master.StopInquiry()
}

// Addr returns the controller address.
func (h *HCI) Addr() baseband.BDAddr { return h.cfg.Addr }

// AttachDevice registers a mobile device with the controller's radio
// environment (the simulation-world equivalent of the device being
// powered on nearby).
func (h *HCI) AttachDevice(d Device) {
	h.devices[d.Addr()] = d
	h.master.AddSlave(d.Slave)
}

// Connected returns whether a link to addr is open.
func (h *HCI) Connected(addr baseband.BDAddr) bool {
	_, ok := h.conns[addr]
	return ok
}

// NumConnections returns the number of open links.
func (h *HCI) NumConnections() int { return len(h.conns) }

// Inquiring reports whether an inquiry is in progress.
func (h *HCI) Inquiring() bool { return h.inquiring }

func (h *HCI) emit(e Event) {
	if h.OnEvent != nil {
		h.OnEvent(e)
	}
}

// Inquiry starts a device discovery of the given length (HCI Inquiry with
// Inquiry_Length). Results arrive as EventInquiryResult; the inquiry ends
// with EventInquiryComplete. Previously discovered devices are forgotten
// at the start of each inquiry, matching the HCI behaviour of reporting
// every device present during this inquiry.
func (h *HCI) Inquiry(length sim.Tick) error {
	if h.inquiring {
		return ErrInquiryRunning
	}
	if length <= 0 {
		length = baseband.InquiryTimeoutTicks
	}
	h.inquiring = true
	// Map order is harmless here: Forget only clears per-device state and
	// keeps the discovery order of the rest, so any walk leaves the same
	// master state.
	for addr := range h.devices {
		if !h.Connected(addr) {
			h.master.Forget(addr)
		}
	}
	h.master.StartInquiry()
	h.inquiryStop = h.kernel.Schedule(length, func(k *sim.Kernel) {
		h.finishInquiry(k.Now())
	})
	return nil
}

// InquiryCancel stops a running inquiry immediately (HCI Inquiry_Cancel).
func (h *HCI) InquiryCancel() error {
	if !h.inquiring {
		return nil
	}
	h.inquiryStop.Cancel()
	h.finishInquiry(h.kernel.Now())
	return nil
}

func (h *HCI) finishInquiry(at sim.Tick) {
	if !h.inquiring {
		return
	}
	h.inquiring = false
	h.master.StopInquiry()
	h.emit(Event{Type: EventInquiryComplete, At: at})
}

// CreateConnection pages the device (HCI Create_Connection). Completion is
// reported via EventConnectionComplete. A single page may be in flight at
// a time, matching the single radio.
func (h *HCI) CreateConnection(addr baseband.BDAddr) error {
	dev, ok := h.devices[addr]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownDevice, addr)
	}
	if h.Connected(addr) {
		return fmt.Errorf("%w: %v", ErrConnected, addr)
	}
	if h.pager.Busy() {
		return ErrConnBusy
	}
	return h.pager.Page(dev.Scanner, h.cfg.PageTimeout, func(r page.Result) {
		status := StatusOK
		switch {
		case r.Err == nil:
			h.conns[addr] = &connState{}
		case errors.Is(r.Err, page.ErrNotReachable):
			status = StatusUnreachable
		default:
			status = StatusTimeout
		}
		h.emit(Event{Type: EventConnectionComplete, Addr: addr, At: h.kernel.Now(), Status: status})
	})
}

// Disconnect closes the link (HCI Disconnect). EventDisconnectionComplete
// is emitted synchronously.
func (h *HCI) Disconnect(addr baseband.BDAddr) error {
	if !h.Connected(addr) {
		return fmt.Errorf("%w: %v", ErrNotConnected, addr)
	}
	delete(h.conns, addr)
	h.master.Forget(addr)
	h.emit(Event{Type: EventDisconnectionComplete, Addr: addr, At: h.kernel.Now(), Status: StatusOK})
	return nil
}

// superviseLinks probes every open link; consecutive failures close it
// with StatusSupervision. Links are probed in ascending address order, so
// links failing on the same tick disconnect in a deterministic order.
func (h *HCI) superviseLinks(k *sim.Kernel) {
	addrs := h.linkScratch[:0]
	for addr := range h.conns {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	h.linkScratch = addrs
	for _, addr := range addrs {
		c := h.conns[addr]
		if h.medium == nil || h.medium.InRange(h.cfg.Addr, addr) {
			c.misses = 0
			continue
		}
		c.misses++
		if c.misses >= h.cfg.SupervisionMisses {
			delete(h.conns, addr)
			h.master.Forget(addr)
			h.emit(Event{
				Type: EventDisconnectionComplete, Addr: addr,
				At: k.Now(), Status: StatusSupervision,
			})
		}
	}
}
