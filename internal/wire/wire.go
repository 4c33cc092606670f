// Package wire defines the LAN protocol between BIPS workstations, mobile
// clients and the central server, over any io.ReadWriter (TCP in the live
// system, net.Pipe in tests and simulations). One connection type,
// FrameCodec (frame.go), carries JSON envelopes in length-prefixed frames
// — sized up front and safe to pipeline aggressively.
//
// Every request envelope carries a sequence number — the correlation id.
// The peer answers with an envelope of the matching sequence number whose
// type is either the request-specific response type or MsgError. Requests
// may be pipelined: a client may send many requests before reading any
// response, and the server may answer them out of order; the correlation
// id is what ties each response to its request. See docs/PROTOCOL.md for
// the full specification.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// MsgType tags an envelope.
type MsgType string

// Protocol message types.
const (
	// MsgHello announces a workstation to the server.
	MsgHello MsgType = "hello"
	// MsgLogin binds a userid to a device.
	MsgLogin MsgType = "login"
	// MsgLogout releases the binding.
	MsgLogout MsgType = "logout"
	// MsgLocate asks for a user's current piconet.
	MsgLocate MsgType = "locate"
	// MsgLocateAt asks for a user's piconet at a past instant (the
	// paper's spatio-temporal query over the historical MAP relation).
	MsgLocateAt MsgType = "locate.at"
	// MsgTrajectory asks for a user's movement history over a time
	// window.
	MsgTrajectory MsgType = "trajectory"
	// MsgPath asks for the shortest path to a user.
	MsgPath MsgType = "path"
	// MsgRooms asks for the server's floor plan.
	MsgRooms MsgType = "rooms"
	// MsgStats asks for the server's metrics snapshot.
	MsgStats MsgType = "stats"
	// MsgIngestHello opens (or resumes) a workstation ingest session;
	// the response is a MsgIngestAck carrying the session's cumulative
	// ack, which tells a reconnecting station where to resume.
	MsgIngestHello MsgType = "ingest.hello"
	// MsgPresenceBatch carries one sequenced frame of presence deltas on
	// an ingest session; the response is a MsgIngestAck.
	MsgPresenceBatch MsgType = "presence.batch"
	// MsgContacts asks which devices shared a room with a target user's
	// device inside a time window (contact tracing); the response is a
	// MsgContactsResult.
	MsgContacts MsgType = "contacts"
	// MsgOccupancy asks for a distinct-device occupancy time series
	// over a room set; the response is a MsgOccupancyResult.
	MsgOccupancy MsgType = "occupancy"
	// MsgDwell asks for a dwell-time distribution, per room or per user
	// device; the response is a MsgDwellResult.
	MsgDwell MsgType = "dwell"
	// MsgSubscribe registers a push-notification subscription on this
	// connection; the response is a MsgOK, after which matching MsgEvent
	// envelopes are pushed until unsubscribe or disconnect.
	MsgSubscribe MsgType = "subscribe"
	// MsgUnsubscribe cancels a subscription by id; the response is a
	// MsgOK.
	MsgUnsubscribe MsgType = "unsubscribe"
	// MsgOK is the empty success response.
	MsgOK MsgType = "ok"
	// MsgLocateResult answers MsgLocate and MsgLocateAt.
	MsgLocateResult MsgType = "locate.result"
	// MsgTrajectoryResult answers MsgTrajectory.
	MsgTrajectoryResult MsgType = "trajectory.result"
	// MsgPathResult answers MsgPath.
	MsgPathResult MsgType = "path.result"
	// MsgRoomsResult answers MsgRooms.
	MsgRoomsResult MsgType = "rooms.result"
	// MsgStatsResult answers MsgStats.
	MsgStatsResult MsgType = "stats.result"
	// MsgIngestAck answers MsgIngestHello and MsgPresenceBatch with the
	// session's cumulative ack.
	MsgIngestAck MsgType = "ingest.ack"
	// MsgContactsResult answers MsgContacts.
	MsgContactsResult MsgType = "contacts.result"
	// MsgOccupancyResult answers MsgOccupancy.
	MsgOccupancyResult MsgType = "occupancy.result"
	// MsgDwellResult answers MsgDwell.
	MsgDwellResult MsgType = "dwell.result"
	// MsgEvent is a server push notification on a subscription. It is
	// not a response: its correlation id is always 0 and it may arrive
	// between any two responses on the connection.
	MsgEvent MsgType = "event"
	// MsgError is the failure response.
	MsgError MsgType = "error"
)

// AllMsgTypes lists every message type of the protocol, requests first,
// then responses. It is the registry docs/PROTOCOL.md is checked against
// (see protocoldoc_test.go) and the envelope decoder interns type names
// from; keep it in sync with the constant block
// above — a test parses this file's AST and fails if a MsgType constant is
// missing here.
var AllMsgTypes = []MsgType{
	MsgHello, MsgLogin, MsgLogout, MsgLocate, MsgLocateAt,
	MsgTrajectory, MsgPath, MsgRooms, MsgStats,
	MsgIngestHello, MsgPresenceBatch, MsgContacts, MsgOccupancy,
	MsgDwell, MsgSubscribe, MsgUnsubscribe,
	MsgOK, MsgLocateResult, MsgTrajectoryResult, MsgPathResult,
	MsgRoomsResult, MsgStatsResult, MsgIngestAck,
	MsgContactsResult, MsgOccupancyResult, MsgDwellResult,
	MsgEvent, MsgError,
}

// Envelope frames every message.
type Envelope struct {
	Type MsgType         `json:"type"`
	Seq  uint64          `json:"seq"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Hello announces a workstation and the room it covers.
type Hello struct {
	Station string       `json:"station"`
	Room    graph.NodeID `json:"room"`
}

// Presence is one presence/absence delta from a workstation; it travels
// only inside a PresenceBatch.
type Presence struct {
	Device  string       `json:"device"`
	Room    graph.NodeID `json:"room"`
	At      sim.Tick     `json:"at"`
	Present bool         `json:"present"`
}

// Login is a mobile client's login request.
type Login struct {
	User     string `json:"user"`
	Password string `json:"password"`
	Device   string `json:"device"`
}

// Logout releases a user's binding.
type Logout struct {
	User string `json:"user"`
}

// Locate asks where a target user is.
type Locate struct {
	Querier string `json:"querier"`
	Target  string `json:"target"`
}

// LocateResult answers Locate and LocateAt.
type LocateResult struct {
	Room     graph.NodeID `json:"room"`
	RoomName string       `json:"roomName"`
	At       sim.Tick     `json:"at"`
}

// LocateAt asks where a target user was at a past simulation tick. The
// server answers with the presence run covering the tick: the last fix
// recorded at or before it, as far back as the bounded per-device
// history reaches.
type LocateAt struct {
	Querier string   `json:"querier"`
	Target  string   `json:"target"`
	At      sim.Tick `json:"at"`
}

// TrajectoryQuery asks for a target user's movement over [from, to].
type TrajectoryQuery struct {
	Querier string   `json:"querier"`
	Target  string   `json:"target"`
	From    sim.Tick `json:"from"`
	To      sim.Tick `json:"to"`
}

// TrajectoryStep is one presence run of a trajectory: the user entered
// the room at tick At and stayed until the next step's At (or past the
// window's end, for the last step).
type TrajectoryStep struct {
	Room     graph.NodeID `json:"room"`
	RoomName string       `json:"roomName"`
	At       sim.Tick     `json:"at"`
}

// TrajectoryResult answers TrajectoryQuery, oldest step first. Steps is
// empty when the window is before the recorded history (or empty).
type TrajectoryResult struct {
	Steps []TrajectoryStep `json:"steps"`
}

// PathQuery asks for the shortest path from the querier to the target.
type PathQuery struct {
	Querier string `json:"querier"`
	Target  string `json:"target"`
}

// PathResult answers PathQuery.
type PathResult struct {
	Rooms       []graph.NodeID `json:"rooms"`
	Names       []string       `json:"names"`
	TotalMeters float64        `json:"totalMeters"`
}

// RoomsQuery asks for the server's room list; it has no parameters.
type RoomsQuery struct{}

// RoomInfo describes one room of the server's building.
type RoomInfo struct {
	ID   graph.NodeID `json:"id"`
	Name string       `json:"name"`
	// X, Y are the workstation's floor coordinates in meters.
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// RoomsResult answers RoomsQuery with the rooms in ascending id order.
type RoomsResult struct {
	Rooms []RoomInfo `json:"rooms"`
}

// StatsQuery asks for the server's metrics snapshot; it has no parameters.
type StatsQuery struct{}

// HistogramStats is the wire form of one latency histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// StatsResult answers StatsQuery: a flat counter map (dotted names, e.g.
// "server.requests.locate" or "locdb.updates") and the request-latency
// histograms in seconds.
type StatsResult struct {
	Counters   map[string]int64          `json:"counters"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// PrintStats renders a StatsResult for terminal consumption: counters in
// sorted order (zero counters elided), then histograms with their
// percentiles in milliseconds; bips-query -stats prints it.
func PrintStats(w io.Writer, res StatsResult) {
	names := make([]string, 0, len(res.Counters))
	for name := range res.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if res.Counters[name] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-32s %d\n", name, res.Counters[name])
	}
	hnames := make([]string, 0, len(res.Histograms))
	for name := range res.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	ms := func(s float64) float64 { return s * 1000 }
	for _, name := range hnames {
		h := res.Histograms[name]
		fmt.Fprintf(w, "%-32s count=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n",
			name, h.Count, ms(h.P50), ms(h.P90), ms(h.P99), ms(h.Max))
	}
}

// Error is the failure response body.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Message) }

// Error codes.
const (
	CodeDenied     = "denied"
	CodeNotFound   = "not-found"
	CodeBadRequest = "bad-request"
	CodeAuth       = "auth"
	CodeInternal   = "internal"
	// CodeSlowConsumer reports that the connection's subscription event
	// buffer overflowed past the server's drop limit; the server sends
	// it best-effort and disconnects.
	CodeSlowConsumer = "slow-consumer"
)

// FormatAddr renders a device address for the wire.
func FormatAddr(a baseband.BDAddr) string { return a.String() }

// ParseAddr parses a wire device address.
func ParseAddr(s string) (baseband.BDAddr, error) { return baseband.ParseBDAddr(s) }

// MarshalBody encodes a typed body into an envelope.
func MarshalBody(t MsgType, seq uint64, body any) (Envelope, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return Envelope{}, fmt.Errorf("wire: marshal %s: %w", t, err)
	}
	return Envelope{Type: t, Seq: seq, Body: raw}, nil
}

// UnmarshalBody decodes an envelope body into out. A body that does not
// decode is a malformed message (ErrMalformed), which the server
// answers with bad-request.
func UnmarshalBody(env Envelope, out any) error {
	if err := json.Unmarshal(env.Body, out); err != nil {
		return fmt.Errorf("%w: unmarshal %s: %w", ErrMalformed, env.Type, err)
	}
	return nil
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("wire: connection closed")

// Client is a synchronous RPC client over a FrameCodec. A single receive loop dispatches responses to waiting
// callers by sequence number, so multiple goroutines may issue calls
// concurrently — each in-flight call is one pipelined request on the
// shared connection, and out-of-order completion by the server is handled
// transparently.
type Client struct {
	codec *FrameCodec

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]chan callDone
	push    func(Envelope)
	err     error
	done    chan struct{}

	// sendMu guards writers: how many goroutines are currently staging
	// a request. Concurrent pipelined calls
	// group-commit — each stages its frame without flushing and the
	// last one out issues the single Flush — so a burst of requests
	// from many workers leaves in one write(2). A lone caller sees
	// writers drop to zero on every call, i.e. flush-per-send.
	sendMu  sync.Mutex
	writers int
}

// callDone hands a response from the receive loop to the waiting
// caller. buf is the pooled receive buffer the envelope's Body aliases;
// the receiver owns it and releases it after decoding.
type callDone struct {
	env Envelope
	buf *Buf
}

// doneChanPool recycles the per-call completion channels; a channel is
// repooled only by a caller that provably still owned it (received on
// it, or removed it from pending before the receive loop could).
var doneChanPool = sync.Pool{
	New: func() any { return make(chan callDone, 1) },
}

// NewClient starts the receive loop over the codec.
func NewClient(codec *FrameCodec) *Client {
	c := &Client{
		codec:   codec,
		pending: make(map[uint64]chan callDone),
		done:    make(chan struct{}),
	}
	go c.recvLoop()
	return c
}

// SetPushHandler registers fn for server-push envelopes (MsgEvent):
// envelopes that are notifications, not responses, and therefore match
// no pending call. fn runs on the receive loop goroutine, so it must
// not block for long — a stalled handler delays every in-flight
// response on the connection. The envelope's Body may alias a pooled
// receive buffer that is released when fn returns: decode or copy it
// inside the handler, never retain it. Without a handler, push
// envelopes are silently discarded (the pre-subscription behavior).
func (c *Client) SetPushHandler(fn func(Envelope)) {
	c.mu.Lock()
	c.push = fn
	c.mu.Unlock()
}

// Done is closed when the receive loop ends — the server closed the
// connection, the transport failed, or Close was called. Err reports
// why. Event-stream consumers (bips-query subscribe) block on it.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the receive-loop failure, nil while the connection is
// healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) recvLoop() {
	defer close(c.done)
	for {
		buf := GetBuf()
		var env Envelope
		var err error
		env, buf.B, err = c.codec.RecvBuf(buf.B)
		if err != nil {
			buf.Release()
			c.fail(fmt.Errorf("wire: receive: %w", err))
			return
		}
		if env.Type == MsgEvent {
			c.mu.Lock()
			fn := c.push
			c.mu.Unlock()
			if fn != nil {
				fn(env)
			}
			buf.Release()
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[env.Seq]
		if ok {
			delete(c.pending, env.Seq)
		}
		c.mu.Unlock()
		if ok {
			ch <- callDone{env: env, buf: buf}
		} else {
			buf.Release()
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for seq, ch := range c.pending {
		close(ch)
		delete(c.pending, seq)
	}
}

// Call sends a request and waits for the matching response. A MsgError
// response is converted into a *Error return value. Bodies that
// implement Appender are encoded straight into the connection's write
// buffer (pass a pointer to skip even the interface-boxing allocation);
// responses whose out implements
// BodyDecoder are decoded without the encoding/json round trip.
func (c *Client) Call(t MsgType, body any, out any) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.nextSeq++
	seq := c.nextSeq
	ch := doneChanPool.Get().(chan callDone)
	c.pending[seq] = ch
	c.mu.Unlock()

	if err := c.send(t, seq, body); err != nil {
		c.drop(seq, ch)
		return err
	}
	resp, ok := <-ch
	if !ok {
		// fail() closed the channel; a closed channel is never repooled.
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	doneChanPool.Put(ch)
	err := decodeResp(resp.env, out)
	resp.buf.Release()
	return err
}

// send stages the request without flushing and the last concurrent
// sender out flushes for everyone (group commit); the flush always runs
// on the final decrement even after a staging error, so a frame another
// caller staged is never stranded in the buffer.
func (c *Client) send(t MsgType, seq uint64, body any) error {
	c.sendMu.Lock()
	c.writers++
	c.sendMu.Unlock()
	err := c.stage(t, seq, body)
	c.sendMu.Lock()
	c.writers--
	last := c.writers == 0
	c.sendMu.Unlock()
	if last {
		if ferr := c.codec.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// stage encodes the request into the connection's write buffer without
// flushing. Appender bodies encode in place — no pooled buffer, no
// copy; everything else is marshaled and goes through a pooled buffer.
func (c *Client) stage(t MsgType, seq uint64, body any) error {
	if a, ok := body.(Appender); ok {
		return c.codec.sendAppendNoFlush(t, seq, a)
	}
	env, err := MarshalBody(t, seq, body)
	if err != nil {
		return err
	}
	buf := GetBuf()
	defer buf.Release()
	buf.B = AppendEnvelopeRaw(buf.B, env)
	return c.codec.SendPayloadNoFlush(buf.B)
}

// decodeResp decodes a response envelope into out; env.Body may alias
// a pooled buffer, so everything is copied out before the caller
// releases it (both UnmarshalBody and DecodeBody copy).
func decodeResp(env Envelope, out any) error {
	if env.Type == MsgError {
		var werr Error
		if err := UnmarshalBody(env, &werr); err != nil {
			return err
		}
		return &werr
	}
	if out == nil {
		return nil
	}
	if d, ok := out.(BodyDecoder); ok && d.DecodeBody(env.Body) {
		return nil
	}
	return UnmarshalBody(env, out)
}

// drop abandons a pending call after a send failure. The channel is
// repooled only when the call was still pending — otherwise the receive
// loop owns it and may still deliver into its buffered slot.
func (c *Client) drop(seq uint64, ch chan callDone) {
	c.mu.Lock()
	_, mine := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if mine {
		doneChanPool.Put(ch)
	}
}

// Close tears down the connection and unblocks pending calls.
func (c *Client) Close() error {
	err := c.codec.Close()
	<-c.done
	return err
}
