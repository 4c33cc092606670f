package bips

import (
	"sync"
	"sync/atomic"
	"time"

	"bips/internal/fanout"
)

// EventType classifies a Service event.
type EventType string

// The event types a Subscription delivers.
const (
	// EventLogin: a user logged in and BIPS started tracking their
	// device. Room fields are empty — the user has not been seen yet.
	EventLogin EventType = "login"
	// EventLogout: a user logged out; tracking stopped.
	EventLogout EventType = "logout"
	// EventUserEntered: a workstation revealed the user's presence in a
	// room (a new presence delta in the location database).
	EventUserEntered EventType = "user-entered"
	// EventUserLeft: the user left a cell — their old cell reported them
	// gone, or a handover into a neighboring cell revealed the move (a
	// handover emits the EventUserLeft for the old room immediately
	// followed by the EventUserEntered for the new one).
	EventUserLeft EventType = "user-left"
)

// Event is one tracked change of the deployment's user state.
type Event struct {
	Type EventType
	// User is the BIPS userid.
	User string
	// Device is the user's handheld BD_ADDR.
	Device string
	// Room and RoomName identify the cell for EventUserEntered and
	// EventUserLeft; they are zero/empty for login and logout.
	Room     int
	RoomName string
	// At is the simulated time of the change, relative to Start.
	At time.Duration
}

// subscriptionBuffer is the per-subscription channel capacity. Presence
// deltas are rare by design (the paper's load-reduction argument), so a
// small buffer absorbs any realistic burst between reads.
const subscriptionBuffer = 128

// Subscription is a registered event consumer. Events are delivered to a
// buffered channel; if the subscriber falls behind and the buffer fills,
// new events are dropped (and counted) rather than blocking the
// simulation.
type Subscription struct {
	hub     *eventHub
	id      int
	ch      chan Event
	dropped atomic.Int64
	once    sync.Once
}

// Events returns the delivery channel. It is closed by Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events were discarded because the buffer was
// full.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close cancels the subscription and closes the Events channel. It is
// idempotent.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.hub.remove(s.id)
		close(s.ch)
	})
}

// eventHub fans Service events out to the live subscriptions.
type eventHub struct {
	mu   sync.Mutex
	subs map[int]*Subscription
	next int
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[int]*Subscription)}
}

func (h *eventHub) subscribe() *Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub := &Subscription{hub: h, id: h.next, ch: make(chan Event, subscriptionBuffer)}
	h.next++
	h.subs[sub.id] = sub
	return sub
}

func (h *eventHub) remove(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, id)
}

// publish delivers e to every subscription without blocking: the sends
// happen under the hub lock (so Close cannot race a send on a closed
// channel) and full buffers drop the event.
func (h *eventHub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, sub := range h.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
		}
	}
}

// Subscribe returns a subscription to the deployment's event stream:
// logins, logouts, and the presence deltas (EventUserEntered,
// EventUserLeft) flowing from the workstations into the location
// database. Events carry simulated timestamps. Presence events are
// delivered by the fan-out tree's delivery goroutine, and every Run
// waits for that delivery before it returns, so a Run call fills the
// buffer which the caller drains between (or concurrently with) runs.
// Close the subscription when done.
func (s *Service) Subscribe() *Subscription {
	return s.hub.subscribe()
}

// onNotification translates a fan-out notification into a public event.
// The Service rides the server's fan-out tree with a catch-all filter,
// so in-process subscribers observe the same enter/leave sequence, in
// the same order, as wire-level subscribers. It runs on the tree's
// delivery goroutine; the simulation's Run and Logout wait for it before
// they release the system lock, so the UserOf lookup below always sees
// the binding the delta was applied under.
func (s *Service) onNotification(e fanout.Event) {
	var typ EventType
	switch e.Kind {
	case fanout.Enter:
		typ = EventUserEntered
	case fanout.Leave:
		typ = EventUserLeft
	default:
		// A catch-all filter only ever sees enter/leave.
		return
	}
	// Only logged-in devices reach the database, so the lookup normally
	// succeeds; a logout racing the delta loses the binding, and the
	// notification is dropped with it.
	user, err := s.sys.Server.Registry().UserOf(e.Device)
	if err != nil {
		return
	}
	name := ""
	if r, ok := s.sys.Building.Room(e.Room); ok {
		name = r.Name
	}
	s.hub.publish(Event{
		Type:     typ,
		User:     string(user),
		Device:   e.Device.String(),
		Room:     int(e.Room),
		RoomName: name,
		At:       e.At.Duration(),
	})
}
