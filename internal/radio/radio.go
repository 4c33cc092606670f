// Package radio models the physical channel of a BIPS deployment: device
// positions, the disc coverage area of a Bluetooth cell, and the
// response-collision rule that the BIPS authors added to the BlueHoc
// simulator (two or more inquiry responses arriving at the master in the
// same receive half slot are all destroyed). No packet is lost at random:
// within coverage only the collision rule destroys one.
package radio

import (
	"fmt"
	"math"
	"sync"

	"bips/internal/baseband"
	"bips/internal/sim"
)

// DefaultCoverageRadiusMeters is the piconet coverage radius assumed by the
// paper (10 m radius, 20 m diameter cells).
const DefaultCoverageRadiusMeters = 10.0

// Point is a position on the building floor plan, in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dist returns the Euclidean distance between two points in meters.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{X: p.X + dx, Y: p.Y + dy} }

// String formats the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// Station is a radio endpoint registered with a Medium.
type Station struct {
	Addr   baseband.BDAddr
	Pos    Point
	Radius float64 // coverage radius in meters; 0 means DefaultCoverageRadiusMeters
}

func (s Station) radius() float64 {
	if s.Radius > 0 {
		return s.Radius
	}
	return DefaultCoverageRadiusMeters
}

// Medium tracks station positions and answers reachability queries. It is
// safe for concurrent use: the live BIPS system moves devices from one
// goroutine while workstations query coverage from others. (The
// discrete-event experiments use it single-threaded.)
type Medium struct {
	mu       sync.RWMutex
	stations map[baseband.BDAddr]Station
}

// NewMedium returns an empty medium.
func NewMedium() *Medium {
	return &Medium{stations: make(map[baseband.BDAddr]Station)}
}

// Place registers or moves a station.
func (m *Medium) Place(st Station) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stations[st.Addr] = st
}

// Move updates the position of an already-registered station. Moving an
// unknown station registers it with the default radius.
func (m *Medium) Move(addr baseband.BDAddr, pos Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.stations[addr]
	if !ok {
		st = Station{Addr: addr}
	}
	st.Pos = pos
	m.stations[addr] = st
}

// Remove unregisters a station. Removing an unknown station is a no-op.
func (m *Medium) Remove(addr baseband.BDAddr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.stations, addr)
}

// Position returns the station's position and whether it is registered.
func (m *Medium) Position(addr baseband.BDAddr) (Point, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.stations[addr]
	return st.Pos, ok
}

// InRange reports whether to lies within from's coverage disc. Unknown
// stations are never in range.
func (m *Medium) InRange(from, to baseband.BDAddr) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	a, okA := m.stations[from]
	b, okB := m.stations[to]
	if !okA || !okB {
		return false
	}
	return a.Pos.Dist(b.Pos) <= a.radius()
}

// Response is one inquiry response (FHS) in flight toward a master.
type Response struct {
	From baseband.BDAddr
	Freq baseband.FreqIndex
	At   sim.Tick
}

// CollisionPolicy selects how simultaneous inquiry responses are resolved.
type CollisionPolicy int

// Collision policies.
const (
	// CollideDestroyAll models the authors' BlueHoc extension: all
	// responses sharing a receive half slot are destroyed.
	CollideDestroyAll CollisionPolicy = iota + 1
	// CollideNone is the ablation switch: responses never collide
	// (BlueHoc's original optimistic behaviour).
	CollideNone
)

// String names the policy.
func (c CollisionPolicy) String() string {
	switch c {
	case CollideDestroyAll:
		return "destroy-all"
	case CollideNone:
		return "none"
	default:
		return fmt.Sprintf("CollisionPolicy(%d)", int(c))
	}
}

// ResponseBucket accumulates the inquiry responses that arrive at one
// master within the same receive half slot and applies a collision policy.
// It is used by the inquiry master state machine: responses submitted for
// tick T are resolved when the master's receive event at T drains the
// bucket.
type ResponseBucket struct {
	policy  CollisionPolicy
	pending map[sim.Tick][]Response
}

// NewResponseBucket returns a bucket with the given policy.
func NewResponseBucket(policy CollisionPolicy) *ResponseBucket {
	if policy == 0 {
		policy = CollideDestroyAll
	}
	return &ResponseBucket{
		policy:  policy,
		pending: make(map[sim.Tick][]Response),
	}
}

// Submit records a response that will arrive at tick r.At.
func (b *ResponseBucket) Submit(r Response) {
	b.pending[r.At] = append(b.pending[r.At], r)
}

// Drain resolves the receive half slot at tick now. It returns the
// successfully received responses and the responses destroyed by
// collision. Under CollideDestroyAll, two or more responses in the slot
// destroy each other; under CollideNone all are delivered.
func (b *ResponseBucket) Drain(now sim.Tick) (delivered, collided []Response) {
	rs := b.pending[now]
	if len(rs) == 0 {
		return nil, nil
	}
	delete(b.pending, now)
	if b.policy == CollideDestroyAll && len(rs) > 1 {
		return nil, rs
	}
	return rs, nil
}
