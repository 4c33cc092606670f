package ingest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"bips/internal/graph"
	"bips/internal/wire"
)

// Client defaults.
const (
	// DefaultDialTimeout bounds one connection attempt.
	DefaultDialTimeout = 5 * time.Second
	// DefaultMinBackoff / DefaultMaxBackoff bound the exponential
	// reconnect backoff.
	DefaultMinBackoff = 100 * time.Millisecond
	DefaultMaxBackoff = 5 * time.Second
)

// ClientConfig parameterizes a streaming ingest client.
type ClientConfig struct {
	// Addr is the central server's TCP address.
	Addr string
	// Session is the stable session identifier; reusing it across
	// restarts is what makes the stream resumable. Required.
	Session string
	// Station and Room identify the reporting cell in the hello.
	Station string
	Room    graph.NodeID
	// MaxBatch is the frame size (deltas per frame); 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// DialTimeout bounds one connection attempt; 0 selects
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// MinBackoff/MaxBackoff bound the reconnect backoff; 0 selects the
	// defaults.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Logf reports connection-level events; nil is silent.
	Logf func(format string, args ...any)
}

func (c *ClientConfig) fill() error {
	if c.Addr == "" {
		return errors.New("ingest: no server address")
	}
	if c.Session == "" {
		return errors.New("ingest: no session id")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = DefaultMinBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.MaxBackoff < c.MinBackoff {
		c.MaxBackoff = c.MinBackoff
	}
	return nil
}

// ClientStats snapshots a client's activity.
type ClientStats struct {
	// FramesSent counts frame transmissions (retransmissions included).
	FramesSent int64
	// DeltasAcked counts deltas in frames covered by the cumulative ack.
	DeltasAcked int64
	// Acked is the cumulative ack high-water mark.
	Acked uint64
	// SkippedFrames counts regenerated frames retired without sending
	// (the server had already applied them in a previous life).
	SkippedFrames int64
	// Reconnects counts successful connections after the first.
	Reconnects int64
	// WireErrors counts MsgError responses (protocol violations — a
	// healthy station never sees one).
	WireErrors int64
	// UnackedFrames describes the current backlog.
	UnackedFrames int64
}

// Client is the station side of an ingest session: it seals each
// reported batch into sequenced frames and streams them to the server,
// reconnecting with exponential backoff and resuming from the server's
// cumulative ack after any interruption — a severed TCP connection, a
// restarted server connection handler, or its own process restart (same
// Session).
//
// ReportBatch never touches the network: it queues under a mutex and
// returns immediately, so a partition back-pressures into memory instead
// of stalling the reporting workstation. A single sender goroutine owns
// all I/O. Client implements workstation.Reporter.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	b      *Batcher
	stats  ClientStats
	closed bool
	drain  *sync.Cond

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	connMu sync.Mutex
	wc     *wire.Client
	dialed bool // a connection has succeeded at least once
}

// NewClient validates the config and starts the sender goroutine. The
// first connection is made lazily, when there is something to send.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:  cfg,
		b:    NewBatcher(cfg.MaxBatch),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.drain = sync.NewCond(&c.mu)
	go c.sendLoop()
	return c, nil
}

// ReportBatch seals an externally assembled batch straight into
// sequenced frames (workstation.Reporter). One call is one frame
// (or several, if the batch exceeds the frame size) — callers that cut
// on deterministic boundaries get deterministic frames. It never blocks
// on the network and never fails while the client is open.
func (c *Client) ReportBatch(deltas []wire.Presence) error {
	if len(deltas) == 0 {
		return nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("ingest: client closed")
	}
	c.b.CutFrame(deltas)
	c.mu.Unlock()
	c.wake()
	return nil
}

// Drain blocks until every frame is acked or the timeout expires.
func (c *Client) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.drain.Broadcast()
		c.mu.Unlock()
	})
	defer wake.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.b.UnackedDeltas() > 0 {
		if c.closed {
			return errors.New("ingest: client closed with frames unacked")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest: drain timed out with %d frames unacked", c.b.Unacked())
		}
		c.drain.Wait()
	}
	return nil
}

// Close stops the sender and closes the connection. It does not wait
// for unacked frames — call Drain first for a graceful shutdown. The
// session itself survives on the server; a new Client with the same
// Session resumes it.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.drain.Broadcast()
	c.mu.Unlock()
	close(c.stop)
	c.closeConn()
	<-c.done
	return nil
}

// KillConn severs the current connection without stopping the client —
// a fault-injection hook for chaos tests and drills. The sender
// reconnects with backoff and resumes from the server's ack.
func (c *Client) KillConn() { c.closeConn() }

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Acked = c.b.Acked()
	st.SkippedFrames = c.b.Skipped()
	st.UnackedFrames = int64(c.b.Unacked())
	return st
}

func (c *Client) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// sendLoop is the single I/O owner: cut frames are sent stop-and-wait
// (one frame in flight — frames are large, so the pipe stays busy), the
// ack retires them, transport failures reconnect with backoff and
// resume from the server's cumulative ack.
func (c *Client) sendLoop() {
	defer close(c.done)
	backoff := c.cfg.MinBackoff
	for {
		c.mu.Lock()
		frame, ok := c.b.Next()
		c.mu.Unlock()
		if !ok {
			select {
			case <-c.stop:
				return
			case <-c.kick:
			}
			continue
		}

		wc, err := c.ensureConn()
		if err != nil {
			c.logf("ingest: connect %s: %v (retrying in %v)", c.cfg.Addr, err, backoff)
			if !c.sleep(backoff) {
				return
			}
			backoff = nextBackoff(backoff, c.cfg.MaxBackoff)
			continue
		}
		backoff = c.cfg.MinBackoff

		// Re-fetch the head frame: the hello inside ensureConn may have
		// retired it (resume ack) or renumbered the backlog (rebase
		// after a server that lost the session) — the copy fetched
		// before connecting could carry a stale sequence number.
		c.mu.Lock()
		frame, ok = c.b.Next()
		c.mu.Unlock()
		if !ok {
			continue
		}

		var ack wire.IngestAck
		callErr := wc.Call(wire.MsgPresenceBatch, wire.PresenceBatch{
			Session: c.cfg.Session,
			Seq:     frame.Seq,
			Deltas:  frame.Deltas,
		}, &ack)
		c.mu.Lock()
		c.stats.FramesSent++
		c.mu.Unlock()
		if callErr == nil {
			c.ackFrames(ack.Acked)
			if ack.Rejected > 0 {
				c.logf("ingest: server rejected %d deltas of frame %d", ack.Rejected, frame.Seq)
			}
			continue
		}
		var werr *wire.Error
		if errors.As(callErr, &werr) {
			// The server answered: a protocol violation (sequence gap
			// after a desync, session-table pressure, ...). Re-hello
			// resynchronizes the ack; backoff keeps a persistent
			// rejection from spinning.
			c.mu.Lock()
			c.stats.WireErrors++
			c.mu.Unlock()
			c.logf("ingest: frame %d rejected: %v (re-syncing)", frame.Seq, werr)
		} else {
			c.logf("ingest: send frame %d: %v (reconnecting)", frame.Seq, callErr)
		}
		c.closeConn()
		if !c.sleep(backoff) {
			return
		}
		backoff = nextBackoff(backoff, c.cfg.MaxBackoff)
	}
}

// ackFrames records a cumulative ack and credits the retired deltas.
func (c *Client) ackFrames(acked uint64) {
	c.mu.Lock()
	before := c.b.UnackedDeltas()
	c.b.Ack(acked)
	c.stats.DeltasAcked += int64(before - c.b.UnackedDeltas())
	if c.b.UnackedDeltas() == 0 {
		c.drain.Broadcast()
	}
	c.mu.Unlock()
}

// ensureConn returns the live connection, dialing and re-helloing when
// there is none. On resume, the server's cumulative ack retires every
// frame it already applied — including frames a restarted station
// regenerated but never sent.
func (c *Client) ensureConn() (*wire.Client, error) {
	c.connMu.Lock()
	if c.wc != nil {
		wc := c.wc
		c.connMu.Unlock()
		return wc, nil
	}
	reconnect := c.dialed
	c.connMu.Unlock()

	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	wc := wire.NewClient(wire.NewFrameCodec(conn))
	var ack wire.IngestAck
	if err := wc.Call(wire.MsgIngestHello, wire.IngestHello{
		Session: c.cfg.Session,
		Station: c.cfg.Station,
		Room:    c.cfg.Room,
	}, &ack); err != nil {
		wc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	if regressed := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if ack.Acked < c.b.Acked() {
			// The server lost the session (restart); renumber the
			// backlog onto its position and replay — idempotent.
			c.b.Rebase(ack.Acked)
			return true
		}
		return false
	}(); regressed {
		c.logf("ingest: session %q rebased to server ack %d (server lost session state)", c.cfg.Session, ack.Acked)
	} else {
		c.ackFrames(ack.Acked)
	}

	c.connMu.Lock()
	c.wc = wc
	c.dialed = true
	c.connMu.Unlock()
	if reconnect {
		c.mu.Lock()
		c.stats.Reconnects++
		c.mu.Unlock()
		c.logf("ingest: reconnected to %s, session %q resumed at ack %d", c.cfg.Addr, c.cfg.Session, ack.Acked)
	}
	return wc, nil
}

// closeConn tears down the current connection (idempotent).
func (c *Client) closeConn() {
	c.connMu.Lock()
	wc := c.wc
	c.wc = nil
	c.connMu.Unlock()
	if wc != nil {
		_ = wc.Close()
	}
}

// sleep waits d, interruptible by Close; false means the client closed.
func (c *Client) sleep(d time.Duration) bool {
	select {
	case <-c.stop:
		return false
	case <-time.After(d):
		return true
	}
}

func nextBackoff(cur, max time.Duration) time.Duration {
	next := cur * 2
	if next > max {
		next = max
	}
	return next
}
