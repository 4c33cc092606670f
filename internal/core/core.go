// Package core assembles the complete BIPS system of the paper: a building
// full of workstation cells (one Bluetooth master per significant room), a
// central server holding the user registry and location database, the
// navigation service with precomputed shortest paths, and the mobile
// devices walking between cells — all driven by one deterministic
// discrete-event kernel.
//
// It also contains the Section 5 scheduling-policy derivation: how long the
// discovery slot must be (3.84 s), how long the operational cycle is (the
// 15.4 s mean cell-crossing time), what fraction of devices a slot catches
// (~95%), and the resulting tracking load (~24%).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bips/internal/analytics"
	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/device"
	"bips/internal/graph"
	"bips/internal/hci"
	"bips/internal/ingest"
	"bips/internal/inquiry"
	"bips/internal/locdb"
	"bips/internal/mobility"
	"bips/internal/radio"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/storage"
	"bips/internal/wire"
	"bips/internal/workstation"
)

// SystemConfig configures a simulated BIPS deployment.
type SystemConfig struct {
	// Seed drives all randomness. Same seed, same run.
	Seed int64
	// Building is the deployment topology; nil selects the academic
	// department preset.
	Building *building.Building
	// Cycle is the workstation operational cycle; the zero value
	// selects the paper's 3.84 s / 15.4 s policy.
	Cycle inquiry.DutyCycle
	// CoverageRadius overrides the 10 m default when non-zero.
	CoverageRadius float64
	// Shards is the location-database shard count; 0 selects
	// locdb.DefaultShards.
	Shards int
	// HistoryLimit bounds the per-device movement history; 0 selects
	// locdb.DefaultHistoryLimit, negative disables history (and with it
	// the LocateAt/Trajectory query surface).
	HistoryLimit int
	// DataDir, when non-empty, backs the location database with the
	// durable storage engine (WAL + snapshots) rooted at the directory,
	// so a deployment can be closed and reopened without losing
	// presence state or history.
	DataDir string
	// SnapshotInterval is the durable backend's checkpoint period; 0
	// selects storage.DefaultSnapshotInterval. Ignored without DataDir.
	SnapshotInterval time.Duration
	// AnalyticsSealInterval is the analytics engine's background
	// sealing period in wall-clock time: how often closed presence
	// runs are compacted into immutable segments. Zero selects
	// analytics.DefaultSealInterval; negative disables the background
	// sealer (segments are then cut only at Close).
	AnalyticsSealInterval time.Duration
	// AnalyticsRetention bounds the analytics history in simulated
	// time: after a seal, segments whose newest run ended more than
	// this long before the newest observed tick are deleted. Zero
	// keeps everything.
	AnalyticsRetention time.Duration
}

// System is a fully wired BIPS deployment.
//
// Locking contract: the discrete-event kernel is single-threaded, so every
// operation that advances or mutates it (Run, Start, Stop, AddMobile,
// Login, Logout) takes mu for writing, while the read-only queries (Now,
// Locate, PathTo, LocateAll) take it for reading and may therefore run
// from many goroutines concurrently with one stepping goroutine. Run
// releases the write lock between bounded step chunks so readers are never
// starved for a whole simulated run. Direct access to the exported Kernel
// and Medium fields is NOT synchronized; treat them as construction-time
// wiring unless the system is quiescent. Building is immutable and always
// safe. Server delegates to the registry and location database, which
// carry their own locks.
type System struct {
	Kernel   *sim.Kernel
	Medium   *radio.Medium
	Building *building.Building
	Server   *server.Server

	// mu splits the step path (write) from the query path (read).
	mu sync.RWMutex

	cfg          SystemConfig
	rng          *rand.Rand
	controllers  map[graph.NodeID]*hci.HCI
	workstations map[graph.NodeID]*workstation.Workstation
	mobiles      map[baseband.BDAddr]*device.Mobile
	running      bool
	// store is the location backend behind Server, retained so Close
	// can release it (flush + final checkpoint for a durable backend).
	store locdb.Store
	// analytics, when non-nil, is the system-owned engine behind the
	// Contacts/Occupancy/Dwell queries, closed alongside the store.
	// When nil the server runs its own memory-only engine instead.
	analytics *analytics.Engine
}

// NewSystem wires a deployment: one workstation (HCI + discovery schedule)
// per room, all reporting presence deltas in-process to the central server.
func NewSystem(cfg SystemConfig) (*System, error) {
	bld := cfg.Building
	if bld == nil {
		var err error
		bld, err = building.AcademicDepartment()
		if err != nil {
			return nil, err
		}
	}
	if cfg.Cycle == (inquiry.DutyCycle{}) {
		cfg.Cycle = workstation.PaperCycle()
	}
	if err := cfg.Cycle.Validate(); err != nil {
		return nil, err
	}

	s := &System{
		Kernel:       sim.NewKernel(cfg.Seed),
		Medium:       radio.NewMedium(),
		Building:     bld,
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		controllers:  make(map[graph.NodeID]*hci.HCI),
		workstations: make(map[graph.NodeID]*workstation.Workstation),
		mobiles:      make(map[baseband.BDAddr]*device.Mobile),
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = locdb.DefaultShards
	}
	historyLimit := cfg.HistoryLimit
	if historyLimit == 0 {
		historyLimit = locdb.DefaultHistoryLimit
	}
	var db locdb.Store
	if cfg.DataDir != "" {
		durable, err := storage.Open(storage.Options{
			Dir:              cfg.DataDir,
			Shards:           shards,
			HistoryLimit:     historyLimit,
			SnapshotInterval: cfg.SnapshotInterval,
		})
		if err != nil {
			return nil, err
		}
		db = durable
	} else {
		if historyLimit < 0 {
			historyLimit = 0
		}
		mem, err := locdb.NewSharded(shards, historyLimit)
		if err != nil {
			return nil, err
		}
		db = mem
	}
	s.store = db
	// A durable deployment (or one asking for retention / a custom seal
	// cadence) gets a system-owned analytics engine; segments live next
	// to the WAL so a reopened deployment keeps its sealed history.
	// Otherwise the server builds its own memory-only engine.
	var serverOpts []server.Option
	if cfg.DataDir != "" || cfg.AnalyticsSealInterval != 0 || cfg.AnalyticsRetention != 0 {
		aopts := analytics.Options{
			HistoryLimit: historyLimit,
			SealInterval: cfg.AnalyticsSealInterval,
			Retain:       sim.FromDuration(cfg.AnalyticsRetention),
		}
		if cfg.DataDir != "" {
			aopts.Dir = filepath.Join(cfg.DataDir, "analytics")
		}
		eng, err := analytics.Open(aopts)
		if err != nil {
			db.Close()
			return nil, err
		}
		s.analytics = eng
		serverOpts = append(serverOpts, server.WithAnalytics(eng))
	}
	s.Server = server.New(registry.New(), db, bld, serverOpts...)

	for _, room := range bld.Rooms() {
		s.Medium.Place(radio.Station{
			Addr:   room.Station,
			Pos:    room.Center,
			Radius: cfg.CoverageRadius,
		})
		ctrl := hci.New(s.Kernel, hci.Config{Addr: room.Station}, s.Medium)
		// One ingest session per workstation; BatchMax stays 0, so each
		// delta is its own frame, applied at the instant it was observed.
		rep := &sessionReporter{pl: s.Server.Ingest(), session: fmt.Sprintf("room-%d", room.ID)}
		_, err := rep.pl.Hello(wire.IngestHello{Session: rep.session, Station: room.Name, Room: room.ID})
		var ws *workstation.Workstation
		if err == nil {
			ws, err = workstation.New(s.Kernel, ctrl, workstation.Config{Room: room.ID, Cycle: cfg.Cycle}, rep)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("room %d: %w", room.ID, err)
		}
		s.controllers[room.ID] = ctrl
		s.workstations[room.ID] = ws
	}
	return s, nil
}

// sessionReporter reports one workstation's frames on its own session
// of the server's ingest pipeline, so the in-process deployment writes
// through Pipeline.Apply and ApplyBatch exactly like a station
// streaming presence.batch over the LAN.
type sessionReporter struct {
	pl      *ingest.Pipeline
	session string
	acked   uint64
}

// ReportBatch applies deltas as the session's next frame.
func (r *sessionReporter) ReportBatch(deltas []wire.Presence) error {
	ack, err := r.pl.Apply(wire.PresenceBatch{Session: r.session, Seq: r.acked + 1, Deltas: deltas})
	if err == nil {
		r.acked = ack.Acked
	}
	return err
}

// Workstation returns the workstation covering the room.
func (s *System) Workstation(room graph.NodeID) (*workstation.Workstation, bool) {
	ws, ok := s.workstations[room]
	return ws, ok
}

// Cycle returns the workstation duty cycle the system was built with.
func (s *System) Cycle() inquiry.DutyCycle { return s.cfg.Cycle }

// RegisterUser runs the off-line registration procedure.
func (s *System) RegisterUser(id registry.UserID, name, password string, rights ...registry.Right) error {
	return s.Server.Registry().Register(id, name, password, rights...)
}

// NewWalker builds a random-waypoint walker under the system lock:
// walker construction draws its first waypoint from the kernel RNG, which
// must not race with the step path.
func (s *System) NewWalker(cfg mobility.WalkerConfig) (*mobility.Walker, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mobility.NewWalker(cfg, s.Kernel.Rand())
}

// AddMobile creates a handheld, registers its radio with every cell, and
// returns it. The device answers inquiries from any workstation whose
// coverage disc contains it.
func (s *System) AddMobile(cfg device.Config) (*device.Mobile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.mobiles[cfg.Addr]; dup {
		return nil, fmt.Errorf("core: device %v already added", cfg.Addr)
	}
	// Devices must keep answering inquiries after enrollment so that
	// neighbouring cells can pick them up when they walk over.
	cfg.KeepResponding = true
	m, err := device.New(s.Kernel, s.Medium, cfg, s.rng)
	if err != nil {
		return nil, err
	}
	for _, ctrl := range s.controllers {
		ctrl.AttachDevice(m.Radio())
	}
	s.mobiles[cfg.Addr] = m
	return m, nil
}

// Login binds a registered user to a device address. A non-nil notify
// runs under the system lock immediately after a successful bind, with
// the simulated bind time — before the step path can reveal the device —
// so callers can publish causally ordered notifications.
func (s *System) Login(id registry.UserID, password string, dev baseband.BDAddr, notify func(at sim.Tick)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.Server.Login(wire.Login{
		User:     string(id),
		Password: password,
		Device:   wire.FormatAddr(dev),
	})
	if err != nil {
		return err
	}
	if notify != nil {
		notify(s.Kernel.Now())
	}
	return nil
}

// Logout releases the binding and stops tracking the device. notify runs
// like Login's: under the lock, after success, before further deltas.
func (s *System) Logout(id registry.UserID, notify func(at sim.Tick)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Server.Logout(wire.Logout{User: string(id)}); err != nil {
		return err
	}
	// The logout's drop leaves the fan-out tree like any delta; deliver
	// it before the lock opens, as Run does.
	s.Server.Fanout().Flush()
	if notify != nil {
		notify(s.Kernel.Now())
	}
	return nil
}

// Locate answers "where is user X" on behalf of the querier. It is safe to
// call from any goroutine, including while Run is stepping.
func (s *System) Locate(querier, target registry.UserID) (wire.LocateResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.Locate(wire.Locate{Querier: string(querier), Target: string(target)})
}

// PathTo answers the headline query: the shortest path the querier must
// walk to reach the target user. Safe for concurrent use like Locate.
func (s *System) PathTo(querier, target registry.UserID) (wire.PathResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.Path(wire.PathQuery{Querier: string(querier), Target: string(target)})
}

// LocateAt answers the historical spatio-temporal query: where was the
// target at tick at. Safe for concurrent use like Locate.
func (s *System) LocateAt(querier, target registry.UserID, at sim.Tick) (wire.LocateResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.LocateAt(wire.LocateAt{Querier: string(querier), Target: string(target), At: at})
}

// Trajectory answers the time-window spatio-temporal query: the
// target's presence runs overlapping [from, to]. Safe for concurrent
// use like Locate.
func (s *System) Trajectory(querier, target registry.UserID, from, to sim.Tick) (wire.TrajectoryResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.Trajectory(wire.TrajectoryQuery{
		Querier: string(querier), Target: string(target), From: from, To: to,
	})
}

// Contacts answers the contact-tracing query on behalf of querier: who
// shared a room with target during [from, to), for at least minOverlap
// ticks in total. Safe for concurrent use like Locate.
func (s *System) Contacts(querier, target registry.UserID, from, to, minOverlap sim.Tick) (wire.ContactsResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.Contacts(wire.ContactsQuery{
		Querier: string(querier), Target: string(target),
		From: from, To: to, MinOverlap: minOverlap,
	})
}

// Occupancy answers the occupancy time-series query on behalf of
// querier: distinct devices present in the room set per bucket of
// [from, to). Safe for concurrent use like Locate.
func (s *System) Occupancy(querier registry.UserID, rooms []graph.NodeID, from, to, bucket sim.Tick) (wire.OccupancyResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.Occupancy(wire.OccupancyQuery{
		Querier: string(querier), Rooms: rooms,
		From: from, To: to, Bucket: bucket,
	})
}

// DwellRoom answers the per-room dwell-time distribution over [from,
// to) on behalf of querier. Safe for concurrent use like Locate.
func (s *System) DwellRoom(querier registry.UserID, room graph.NodeID, from, to sim.Tick) (wire.DwellResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.Dwell(wire.DwellQuery{
		Querier: string(querier), Kind: wire.DwellRoom, Room: room, From: from, To: to,
	})
}

// DwellOf answers the per-user dwell-time distribution over [from, to)
// on behalf of querier. Safe for concurrent use like Locate.
func (s *System) DwellOf(querier, target registry.UserID, from, to sim.Tick) (wire.DwellResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Server.Dwell(wire.DwellQuery{
		Querier: string(querier), Kind: wire.DwellDevice, Target: string(target), From: from, To: to,
	})
}

// Close releases the server (with its own analytics engine's sealer),
// the location backend — for a durable store it flushes the WAL and
// writes the final checkpoint, so a subsequent deployment over the same
// data directory recovers this one's state — and a system-owned engine.
// Queries still answer from memory. Stop the workstations first; Close
// does not stop the simulation.
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.Server.Close()
	if serr := s.store.Close(); serr != nil && err == nil {
		err = serr
	}
	if s.analytics != nil {
		if aerr := s.analytics.Close(); aerr != nil && err == nil {
			err = aerr
		}
	}
	return err
}

// UserLocation is one entry of a LocateAll batch answer.
type UserLocation struct {
	User     registry.UserID
	Device   baseband.BDAddr
	Room     graph.NodeID
	RoomName string
	// At is the simulated tick the presence was recorded.
	At sim.Tick
}

// LocateAll returns the position of every logged-in user with a known
// fix, in ascending user order, together with the simulated time the
// batch was taken at. It is an administrative snapshot: no per-user
// access checks are applied. Safe for concurrent use like Locate.
//
// It reads the location database through its cached merged snapshot
// (locdb.DB.All), so repeated snapshot polling on a quiescent building is
// lock-free instead of taking one read lock per online user.
func (s *System) LocateAll() ([]UserLocation, sim.Tick) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, db := s.Server.Registry(), s.Server.DB()
	fixes := db.All()
	out := make([]UserLocation, 0, len(fixes))
	for _, fix := range fixes {
		id, err := reg.UserOf(fix.Device)
		if err != nil {
			// A fix can outlive its binding only transiently; skip it
			// like the anonymous devices the server never tracks.
			continue
		}
		name := ""
		if r, ok := s.Building.Room(fix.Piconet); ok {
			name = r.Name
		}
		out = append(out, UserLocation{
			User: id, Device: fix.Device,
			Room: fix.Piconet, RoomName: name, At: fix.At,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out, s.Kernel.Now()
}

// Start begins every workstation's operational cycle.
func (s *System) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	// Deterministic start order.
	ids := make([]graph.NodeID, 0, len(s.workstations))
	for id := range s.workstations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.workstations[id].Start()
	}
}

// Stop halts all workstations.
func (s *System) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.running = false
	for _, ws := range s.workstations {
		ws.Stop()
	}
}

// runChunk bounds how long Run holds the write lock: one simulated second
// of events per acquisition, so concurrent readers interleave with long
// runs instead of waiting for the whole duration.
const runChunk = sim.TicksPerSecond

// Run advances the simulation by d ticks. It is intended for a single
// stepping goroutine; queries may run concurrently from any number of
// other goroutines. Chunking does not change the event order, so results
// are identical with or without concurrent readers.
//
// Each chunk ends with a fan-out barrier before the lock is released:
// every subscriber callback for the chunk's deltas has run, so an
// in-process subscriber has its events once Run returns, and a later
// Logout cannot unbind a device before the callbacks for its earlier
// deltas resolved the user.
func (s *System) Run(d sim.Tick) {
	s.mu.Lock()
	target := s.Kernel.Now() + d
	for {
		now := s.Kernel.Now()
		if now >= target {
			s.mu.Unlock()
			return
		}
		limit := target
		if c := now + runChunk; c < target {
			limit = c
		}
		s.Kernel.RunUntil(limit)
		s.Server.Fanout().Flush()
		// Release briefly so pending readers get a turn.
		s.mu.Unlock()
		s.mu.Lock()
	}
}

// Now returns the current simulated time. Safe for concurrent use.
func (s *System) Now() sim.Tick {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Kernel.Now()
}

// --- Section 5: scheduling-policy derivation ------------------------------

// Policy is the derived master scheduling policy.
type Policy struct {
	// DiscoverySlot is the continuous inquiry slot per cycle.
	DiscoverySlot sim.Tick
	// Cycle is the operational cycle length (mean cell-crossing time).
	Cycle sim.Tick
	// ExpectedCoverage is the expected fraction of slaves discovered in
	// one slot.
	ExpectedCoverage float64
	// Load is DiscoverySlot / Cycle, the tracking load.
	Load float64
}

// DutyCycle converts the policy into a schedulable duty cycle.
func (p Policy) DutyCycle() inquiry.DutyCycle {
	return inquiry.DutyCycle{Inquiry: p.DiscoverySlot, Period: p.Cycle}
}

// ServiceSlot is the time per cycle left for serving the slaves'
// applications: the paper's "remaining 11.56 s" after the 3.84 s
// discovery slot.
func (p Policy) ServiceSlot() sim.Tick {
	if p.Cycle < p.DiscoverySlot {
		return 0
	}
	return p.Cycle - p.DiscoverySlot
}

// ErrBadPolicyInput reports out-of-range derivation parameters.
var ErrBadPolicyInput = errors.New("core: policy parameters out of range")

// DerivePolicy reproduces the paper's Section 5 argument. The master
// cannot choose the slaves' starting train, so with probability
// sameTrainFrac (~0.5) a slave listens on the master's first train and is
// discovered while the master dwells on it (2.56 s); the remaining slaves
// need the second train, of which the first 1.28 s discovers
// secondTrainFrac (~0.9, from the Figure 2 simulation with <= 10 slaves).
// Hence a slot of 2.56 s + 1.28 s = 3.84 s and an expected coverage of
// sameTrainFrac + (1-sameTrainFrac)*secondTrainFrac (~95%). The cycle is
// the mean cell-crossing time of a walking user (20 m / 1.3 m/s = 15.4 s).
func DerivePolicy(sameTrainFrac, secondTrainFrac float64) (Policy, error) {
	if sameTrainFrac < 0 || sameTrainFrac > 1 || secondTrainFrac < 0 || secondTrainFrac > 1 {
		return Policy{}, fmt.Errorf("%w: %v, %v", ErrBadPolicyInput, sameTrainFrac, secondTrainFrac)
	}
	slot := baseband.TrainDwellTicks + baseband.TrainDwellTicks/2
	cycle := mobility.PaperCrossingEstimate()
	p := Policy{
		DiscoverySlot:    slot,
		Cycle:            cycle,
		ExpectedCoverage: sameTrainFrac + (1-sameTrainFrac)*secondTrainFrac,
		Load:             float64(slot) / float64(cycle),
	}
	return p, nil
}

// PaperPolicy returns the policy with the paper's numbers: a 50/50 train
// split and 90% second-train discovery, giving the 3.84 s slot, ~95%
// coverage and ~24% load.
func PaperPolicy() Policy {
	p, err := DerivePolicy(0.5, 0.9)
	if err != nil {
		// Unreachable: constants are in range.
		return Policy{}
	}
	return p
}
