package main

import (
	"net"
	"testing"
	"time"

	"bips/internal/wire"
)

// stubServer answers every frame at once with an empty ok of the same
// correlation id — except that on reading request stallAt it stops
// reading and answering for stall, the way a server stuck in a
// checkpoint does. It serves one connection.
func stubServer(t *testing.T, stallAt uint64, stall time.Duration) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := wire.NewFrameCodec(conn)
		var buf, out []byte
		for {
			var env wire.Envelope
			env, buf, err = fc.RecvBuf(buf)
			if err != nil {
				return
			}
			if env.Seq == stallAt {
				time.Sleep(stall)
			}
			out = wire.AppendEnvelope(out[:0], wire.MsgOK, env.Seq, nil)
			if fc.SendPayload(out) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestOpenLoopCountsTheQueueAStallBuilds is the coordinated-omission
// check. At 5,000 req/s a 200 ms stall leaves 1,000 requests due while
// nothing is answered; an honest generator keeps them on schedule and
// reports the wait of each, so about 900 of them read 20 ms or more. A
// generator that timed from the send, or waited for each answer before
// the next send, would report one slow request.
func TestOpenLoopCountsTheQueueAStallBuilds(t *testing.T) {
	const (
		rate  = 5000
		dur   = 2 * time.Second
		seq0  = 1000
		stall = 200 * time.Millisecond
	)
	addr := stubServer(t, seq0+rate/2, stall)
	l, err := dialLink(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	// A fixed period, so the count below is arithmetic and not a draw.
	o := newOpenLoop(rate, dur, seq0, nil)
	l.startReader(func(env wire.Envelope, at int64) {
		if i := o.index(env.Seq); i >= 0 && env.Type == wire.MsgOK {
			o.answer(i, at)
		}
	})
	locate := func(i int, seq uint64, buf []byte) []byte {
		return wire.AppendEnvelope(buf, wire.MsgLocate, seq, &wire.Locate{Querier: "a", Target: "b"})
	}
	if err := o.run(l, now()+int64(10*time.Millisecond), locate); err != nil {
		t.Fatal(err)
	}
	if lost := o.wait(time.Second); lost != 0 {
		t.Fatalf("%d of %d requests never answered", lost, o.n)
	}

	slow, late := 0, 0
	for i := range o.lat {
		if o.lat[i] >= int64(20*time.Millisecond) {
			slow++
		}
		if o.late[i] > int64(time.Millisecond) {
			late++
		}
	}
	if slow < 900 {
		t.Errorf("%d requests waited 20 ms or more; the %s stall queued at least 900", slow, stall)
	}
	if slow > 1200 {
		t.Errorf("%d requests waited 20 ms or more; the stall alone explains about 900", slow)
	}
	if ratio := float64(late) / float64(o.n); ratio >= 0.02 {
		t.Errorf("late_ratio %.4f: the sender fell behind its schedule although only the reader's peer stalled", ratio)
	}
	if worst := wholePercentile(o.lat, 1); worst < int64(stall) || worst > int64(stall+100*time.Millisecond) {
		t.Errorf("worst latency %s, want a little over the %s stall", time.Duration(worst), stall)
	}
}

// TestClosedLoopKeepsItsWindow: the saturation driver never has more
// than its window in flight, completes everything it sent, and counts
// completions in the window they were read in.
func TestClosedLoopKeepsItsWindow(t *testing.T) {
	addr := stubServer(t, 0, 0)
	l, err := dialLink(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	c := newClosedLoop(8, time.Second, 500)
	inFlightMax := int64(0)
	l.startReader(func(env wire.Envelope, at int64) {
		if flying := int64(env.Seq-500) + 1 - c.completed.Load(); flying > inFlightMax {
			inFlightMax = flying
		}
		c.answer(at, 1)
	})
	sent, lost, err := c.run(l, now()+int64(time.Minute), 5000, time.Second, func(i int, seq uint64, buf []byte) []byte {
		return wire.AppendEnvelope(buf, wire.MsgRooms, seq, nil)
	})
	if err != nil || sent != 5000 || lost != 0 {
		t.Fatalf("sent %d, lost %d, err %v; want 5000 sent and answered", sent, lost, err)
	}
	if inFlightMax > 8 {
		t.Errorf("saw answer %d positions ahead of the completions: more than the window of 8 was in flight", inFlightMax)
	}
	total := int64(0)
	for _, n := range c.perWindow {
		total += n
	}
	if total != 5000 {
		t.Errorf("windows count %d completions, want 5000", total)
	}
}

// TestExactPercentiles pins the statistics on distributions whose
// answers are known without running anything.
func TestExactPercentiles(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}

	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{20, 10})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	if s := spread([]float64{10, 20}); s != 1 {
		t.Errorf("spread(10, 20) = %v, want 1", s)
	}

	// Three windows of 100 samples: window w holds 100w+1..100w+100, and
	// one unanswered operation is left out. The window p95s are 95, 195
	// and 295: the median is the middle one, and the deciles lie a fifth
	// of the way in from the ends.
	var due, lat []int64
	for w := 0; w < 3; w++ {
		for k := 1; k <= 100; k++ {
			due = append(due, int64(w)*1000+int64(k))
			lat = append(lat, int64(100*w+k))
		}
	}
	due, lat = append(due, 5), append(lat, -1)
	wins := windowSamples(due, lat, 0, 1000, 3)
	if n := len(wins[0]); n != 100 {
		t.Fatalf("window 0 holds %d samples, want 100 (the unanswered one left out)", n)
	}
	got := windowPercentile(wins, 0.95)
	if got.med != 195 || got.q1 != 95 || got.q3 != 295 || got.lo != 115 || got.hi != 275 {
		t.Errorf("window p95 = %+v, want deciles 115 and 275, quartiles 95, 195, 295", got)
	}
}

// TestPoissonScheduleKeepsCountAndLength: random gaps change when each
// operation is due, not how many there are or how long the phase is.
func TestPoissonScheduleKeepsCountAndLength(t *testing.T) {
	a := newOpenLoop(1000, 2*time.Second, 1, newRand(7))
	b := newOpenLoop(1000, 2*time.Second, 1, newRand(7))
	c := newOpenLoop(1000, 2*time.Second, 1, newRand(8))
	if a.n != 2000 || a.offs[0] != 0 || a.offs[a.n-1] >= int64(2*time.Second) {
		t.Fatalf("n=%d first=%d last=%d, want 2000 operations inside 2 s", a.n, a.offs[0], a.offs[a.n-1])
	}
	same, differ := true, false
	for i := range a.offs {
		if i > 0 && a.offs[i] < a.offs[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
		same = same && a.offs[i] == b.offs[i]
		differ = differ || a.offs[i] != c.offs[i]
	}
	if !same || !differ {
		t.Errorf("same seed same schedule: %v; other seed other schedule: %v", same, differ)
	}
}
