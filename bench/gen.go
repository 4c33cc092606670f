package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"bips/internal/wire"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// opFn appends the envelope payload of operation i, carrying the
// correlation id seq, to buf and returns it.
type opFn func(i int, seq uint64, buf []byte) []byte

// link is one loopback TCP connection to the server under test: the
// repo's own v2 frame codec over a byte-counting socket. One goroutine
// sends and one reads; the harness never opens more than two links.
type link struct {
	nc       net.Conn
	fc       *wire.FrameCodec
	in, out  atomic.Int64 // socket bytes read / written
	scratch  []byte
	readDone chan struct{}
	readErr  error
}

// countingConn counts the bytes of both directions for wire.bytes_per_op.
type countingConn struct {
	net.Conn
	l *link
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}

func dialLink(addr string) (*link, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	l := &link{nc: nc, scratch: make([]byte, 0, 16<<10)}
	// The write buffer holds a whole burst, so one pacing wake-up costs
	// one write(2) however many operations came due during it.
	l.fc = wire.NewFrameCodecBuffered(countingConn{nc, l}, 256<<10)
	return l, nil
}

func (l *link) close() {
	_ = l.fc.Close()
	if l.readDone != nil {
		<-l.readDone
	}
}

// stage encodes one operation into the write buffer without flushing.
func (l *link) stage(i int, seq uint64, mk opFn) error {
	l.scratch = mk(i, seq, l.scratch[:0])
	return l.fc.SendPayloadNoFlush(l.scratch)
}

// pipeline runs n request/response pairs synchronously on the calling
// goroutine with at most window outstanding — the set-up path (logins,
// placement, subscriptions), used before the reader goroutine exists.
// Correlation ids are seq0..seq0+n-1; on receives each answer.
func (l *link) pipeline(n, window int, seq0 uint64, mk opFn, on func(i int, env wire.Envelope) error) error {
	var buf []byte
	sent, got := 0, 0
	for got < n {
		for sent < n && sent-got < window {
			if err := l.stage(sent, seq0+uint64(sent), mk); err != nil {
				return err
			}
			sent++
		}
		if err := l.fc.Flush(); err != nil {
			return err
		}
		// Read at least one answer, then whatever else the window allows.
		for {
			var env wire.Envelope
			var err error
			env, buf, err = l.fc.RecvBuf(buf)
			if err != nil {
				return err
			}
			if env.Type == wire.MsgEvent {
				continue
			}
			i := int(env.Seq - seq0)
			if i < 0 || i >= n {
				return fmt.Errorf("set-up answer with unknown correlation id %d", env.Seq)
			}
			if err := on(i, env); err != nil {
				return err
			}
			got++
			break
		}
	}
	return nil
}

// startReader starts the link's single reader goroutine. h runs for
// every frame with the monotonic instant the frame was read; env.Body
// aliases the reader's buffer and dies when h returns.
func (l *link) startReader(h func(env wire.Envelope, t int64)) {
	l.readDone = make(chan struct{})
	go func() {
		defer close(l.readDone)
		var buf []byte
		for {
			var env wire.Envelope
			var err error
			env, buf, err = l.fc.RecvBuf(buf)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					l.readErr = err
				}
				return
			}
			h(env, now())
		}
	}()
}

// openLoop is one fixed-rate phase on one link. Operation i is due at
// start + offs[i] whatever happened to the operations before it, and
// its latency is counted from that instant — so a server stall shows as
// the queue it builds, not as a gap in the samples (no coordinated
// omission). Samples are kept exactly, one slot per operation.
type openLoop struct {
	start atomic.Int64 // phase start; set by run
	offs  []int64      // due time of each operation, ns after start
	n     int
	seq0  uint64

	lat      []int64      // answer read − due, ns; -1 until answered (reader-owned)
	late     []int64      // write begin − due, ns (sender-owned)
	answered atomic.Int64 // operations answered so far
	allDone  chan struct{}

	// Traced run only: when each operation's write began and returned
	// (sender to reader, hence atomic), and where the spans go.
	tr             *tracer
	began, written []atomic.Int64
}

// trace makes the phase record client-side spans for every operation.
func (o *openLoop) trace(tr *tracer) {
	if tr != nil {
		o.tr, o.began, o.written = tr, make([]atomic.Int64, o.n), make([]atomic.Int64, o.n)
	}
}

// newOpenLoop lays out rate·dur operations over dur. The gaps between
// them are exponential — independent users make a Poisson stream —
// drawn from rng and scaled so the last operation falls due as the
// phase ends: every run of a workload offers the same number of
// operations over the same time. A nil rng gives a fixed period.
//
// The random gaps are not decoration. With a fixed period the
// generator's wake-ups phase-lock with the server's own periodic work
// and with the scheduler, each run settles into one of a few regimes,
// and the median latency of the mixed workload read 103–144 µs run to
// run (28 % spread); with Poisson gaps the same runs read 122–132 µs.
func newOpenLoop(rate float64, dur time.Duration, seq0 uint64, rng *rand.Rand) *openLoop {
	n := int(rate * dur.Seconds())
	o := &openLoop{
		offs:    make([]int64, n),
		n:       n,
		seq0:    seq0,
		lat:     make([]int64, n),
		late:    make([]int64, n),
		allDone: make(chan struct{}),
	}
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = 1
		if rng != nil {
			gaps[i] = rng.ExpFloat64()
		}
		total += gaps[i]
	}
	at := 0.0
	for i := range o.offs {
		o.lat[i] = -1
		o.offs[i] = int64(at / total * float64(dur))
		at += gaps[i]
	}
	return o
}

func (o *openLoop) due(i int) int64 { return o.start.Load() + o.offs[i] }

// index maps a correlation id to this phase's operation, or -1.
func (o *openLoop) index(seq uint64) int {
	if seq < o.seq0 || seq >= o.seq0+uint64(o.n) {
		return -1
	}
	return int(seq - o.seq0)
}

// answer records operation i's answer, read at t. Reader goroutine only.
func (o *openLoop) answer(i int, t int64) {
	if o.lat[i] >= 0 {
		return
	}
	due := o.due(i)
	o.lat[i] = t - due
	if o.tr != nil {
		// An answer can overtake the sender's note that its write
		// returned; the write had returned by the time it was read.
		written := o.written[i].Load()
		if written == 0 {
			written = t
		}
		o.tr.request(o.seq0+uint64(i), due, o.began[i].Load(), written, t)
	}
	if o.answered.Add(1) == int64(o.n) {
		close(o.allDone)
	}
}

// run is the sender: it sleeps until the next operation is due, then
// stages every operation that has come due and flushes them in one
// write. It returns when the last operation has been written.
func (o *openLoop) run(l *link, start int64, mk opFn) error {
	defer lockPacer()()
	o.start.Store(start)
	for i := 0; i < o.n; {
		sleepUntil(o.due(i))
		t := now()
		first := i
		for i < o.n && o.due(i) <= t {
			o.late[i] = t - o.due(i)
			if o.tr != nil {
				o.began[i].Store(t)
			}
			if err := l.stage(i, o.seq0+uint64(i), mk); err != nil {
				return err
			}
			i++
		}
		if err := l.fc.Flush(); err != nil {
			return err
		}
		if o.tr != nil {
			for t := now(); first < i; first++ {
				o.written[first].Store(t)
			}
		}
	}
	return nil
}

// wait blocks until every operation is answered or grace has passed
// since the last one was due, and reports how many never were.
func (o *openLoop) wait(grace time.Duration) (unanswered int) {
	deadline := o.due(o.n-1) + int64(grace)
	select {
	case <-o.allDone:
	case <-time.After(time.Duration(deadline - now())):
	}
	return o.n - int(o.answered.Load())
}

// dues returns every operation's due time, parallel to lat.
func (o *openLoop) dues() []int64 {
	d := make([]int64, o.n)
	for i := range d {
		d[i] = o.due(i)
	}
	return d
}

// closedLoop is one saturation phase on one link: a fixed number of
// operations in flight, a new one sent for each that completes.
type closedLoop struct {
	window int
	seq0   uint64

	completed atomic.Int64 // answers read (reader side)
	wake      chan struct{}
	sent      int64 // sender-owned
	// perWindow[w] counts the completions read during window w of the
	// phase (reader-owned until the phase ends).
	start     atomic.Int64
	perWindow []int64
}

func newClosedLoop(window int, dur time.Duration, seq0 uint64) *closedLoop {
	return &closedLoop{
		window: window,
		seq0:   seq0,
		// One token is enough: the sender re-reads the counter after
		// every wake-up, so coalesced wake-ups lose nothing.
		wake:      make(chan struct{}, 1),
		perWindow: make([]int64, int(dur/windowDur)),
	}
}

func (c *closedLoop) index(seq uint64) int64 {
	if seq < c.seq0 {
		return -1
	}
	return int64(seq - c.seq0)
}

// answer counts one completion read at t, weighing it as weight
// operations (a frame of deltas completes all of them). Reader only.
func (c *closedLoop) answer(t int64, weight int64) {
	if w := int((t - c.start.Load()) / int64(windowDur)); w >= 0 && w < len(c.perWindow) {
		c.perWindow[w] += weight
	}
	c.completed.Add(1)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// run sends until stopAt or until limit operations are out (0: no
// limit), keeping window operations in flight, then waits (at most
// grace) for the tail to complete. It returns how many operations were
// sent and how many of them were never answered.
func (c *closedLoop) run(l *link, stopAt, limit int64, grace time.Duration, mk opFn) (sent, unanswered int64, err error) {
	c.start.Store(now())
	stop := time.NewTimer(time.Duration(stopAt - now()))
	defer stop.Stop()
	for now() < stopAt && (limit == 0 || c.sent < limit) {
		room := int64(c.window) - (c.sent - c.completed.Load())
		if limit > 0 {
			room = min(room, limit-c.sent)
		}
		if room == 0 {
			select {
			case <-c.wake:
				continue
			case <-stop.C:
			}
			break
		}
		for ; room > 0; room-- {
			if err := l.stage(int(c.sent), c.seq0+uint64(c.sent), mk); err != nil {
				return c.sent, c.sent - c.completed.Load(), err
			}
			c.sent++
		}
		if err := l.fc.Flush(); err != nil {
			return c.sent, c.sent - c.completed.Load(), err
		}
	}
	deadline := time.After(grace)
	for c.completed.Load() < c.sent {
		select {
		case <-c.wake:
		case <-deadline:
			return c.sent, c.sent - c.completed.Load(), nil
		}
	}
	return c.sent, 0, nil
}

// rate is completions per second in each of the phase's windows,
// summarised.
func (c *closedLoop) rate() windowed {
	vals := make([]float64, len(c.perWindow))
	for i, n := range c.perWindow {
		vals[i] = float64(n) / windowDur.Seconds()
	}
	return summarize(vals)
}
