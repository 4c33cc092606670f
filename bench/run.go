package main

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// setups is how many times a run sets its workload up: setup_s is the
// median, and only the last server is measured.
const setups = 3

// runServing sets a serving workload up (n times, keeping the last),
// measures it and tears it down. sample adds one MsgStats query a
// second during the phases; tr adds client-side spans.
func runServing(e *env, spec servingSpec, sz sizes, seed int64, n int, sample bool, tr *tracer, log io.Writer) (*result, error) {
	var s *serving
	var setupSecs []float64
	for k := 0; k < n; k++ {
		s = newServing(e, spec, sz, seed, log)
		s.sample = sample
		took, err := s.setUp()
		if err != nil {
			s.abandon()
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setupSecs = append(setupSecs, took.Seconds())
		if k < n-1 {
			s.abandon()
		}
	}
	defer s.abandon()
	r := newResult(spec.name, seed)
	q1, med, q3 := quartiles(setupSecs)
	r.set("setup_s", med)
	r.quart["setup_s"] = [3]float64{q1, med, q3}
	if err := s.measure(r, tr); err != nil {
		return nil, fmt.Errorf("%s: %w\nserver log:\n%s", spec.name, err, tail(s.srv.stderr.String(), 10))
	}
	return r, nil
}

// phaseMark is the server's and the harness's state at a phase edge.
type phaseMark struct {
	srvCPU   time.Duration
	selfCPU  time.Duration
	bytes    int64
	counters map[string]int64
}

func (s *serving) mark() (phaseMark, error) {
	var m phaseMark
	var err error
	if m.counters, err = s.serverStats(); err != nil {
		return m, err
	}
	if m.srvCPU, err = procCPU(s.srv.pid()); err != nil {
		return m, err
	}
	m.selfCPU = selfCPU()
	m.bytes = s.a.in.Load() + s.a.out.Load() + s.b.in.Load() + s.b.out.Load()
	return m, nil
}

// measure runs the fixed-rate phase and the saturation phase against
// the server that setUp left ready, then shuts it down and closes the
// oracle's books.
func (s *serving) measure(r *result, tr *tracer) error {
	before, err := s.mark()
	if err != nil {
		return err
	}

	stopSampling := func() {}
	if s.sample {
		stop := make(chan struct{})
		sampled := make(chan struct{})
		var once sync.Once
		stopSampling = func() { once.Do(func() { close(stop); <-sampled }) }
		defer stopSampling()
		go func() {
			defer close(sampled)
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if c, err := s.serverStats(); err == nil {
						s.samples = append(s.samples, statSample{now(), c})
					}
				}
			}
		}()
	}

	// Fixed-rate phase, open loop. The first operation is due a little
	// ahead so both senders are parked on their threads when it is.
	start := now() + int64(20*time.Millisecond)
	fixedEnd := start + int64(s.sz.fixed)
	var senders sync.WaitGroup
	sendErr := make(chan error, 2)
	if ln := s.lanes[0]; ln != nil && ln.fixed != nil {
		senders.Add(1)
		go func() {
			defer senders.Done()
			ln.fixed.trace(tr)
			if err := ln.fixed.run(s.a, start, s.reqOp(ln, ln.ringBase[1], s.spec.churn)); err != nil {
				sendErr <- err
			}
		}()
	}
	frameSender := make(chan struct{})
	if fl := s.frames; fl != nil {
		fl.frame0[1] = s.nextFrame
		go func() {
			defer close(frameSender)
			if err := fl.fixed.run(s.b, start, s.frameOp(fl.fixed.due)); err != nil {
				sendErr <- err
			}
		}()
	} else {
		close(frameSender)
	}
	framesHold := s.frames != nil && s.frames.sat == nil // B keeps its rate through saturation
	senders.Wait()
	if !framesHold {
		<-frameSender
	}
	time.Sleep(time.Duration(fixedEnd - now()))
	if ln := s.lanes[0]; ln != nil && ln.fixed != nil {
		lost := ln.fixed.wait(lateLimit)
		s.model.failN(failTransport, int64(lost), "%d fixed-rate requests never answered", lost)
	}
	if fl := s.frames; fl != nil && !framesHold {
		lost := fl.fixed.wait(lateLimit)
		s.model.failN(failTransport, int64(lost), "%d fixed-rate frames never acknowledged", lost)
	}
	after, err := s.mark()
	if err != nil {
		return err
	}
	// Peak memory is read here, after the phase that does the same work
	// in every run; the saturation phase does as much as it can, and its
	// peak follows its speed.
	rss, err := procPeakRSS(s.srv.pid())
	if err != nil {
		return err
	}

	// Saturation phase, closed loop.
	stopAt := now() + int64(s.sz.sat)
	var sat sync.WaitGroup
	for li, ln := range s.lanes {
		if ln == nil {
			continue
		}
		sat.Add(1)
		go func(l *link, ln *reqLane) {
			defer sat.Done()
			sent, lost, err := ln.sat.run(l, stopAt, 0, lateLimit, s.reqOp(ln, ln.ringBase[2], false))
			s.model.attempt(sent)
			if err != nil {
				sendErr <- err
			}
			s.model.failN(failTransport, lost, "%d saturation requests never answered", lost)
		}([]*link{s.a, s.b}[li], ln)
	}
	if fl := s.frames; fl != nil && fl.sat != nil {
		fl.frame0[2] = s.nextFrame
		sat.Add(1)
		go func() {
			defer sat.Done()
			_, lost, err := fl.sat.run(s.b, stopAt, 0, lateLimit, s.frameOp(func(int) int64 { return 0 }))
			if err != nil {
				sendErr <- err
			}
			s.model.failN(failTransport, lost, "%d saturation frames never acknowledged", lost)
		}()
	}
	sat.Wait()
	if framesHold {
		<-frameSender
		lost := s.frames.fixed.wait(lateLimit)
		s.model.failN(failTransport, int64(lost), "%d fixed-rate frames never acknowledged", lost)
	}
	select {
	case err := <-sendErr:
		return fmt.Errorf("send: %w", err)
	default:
	}
	// Give the last deltas' events the same second every other one had.
	for deadline := time.Now().Add(lateLimit); s.model.pendingEvents() > 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	stopSampling()
	end, err := s.mark()
	if err != nil {
		return err
	}

	// Shut down: links first, then SIGTERM, then look at what a
	// restarted server would find.
	s.a.close()
	s.b.close()
	if err := s.srv.terminate(30 * time.Second); err != nil {
		return err
	}
	for _, l := range []*link{s.a, s.b} {
		if l.readErr != nil {
			s.model.fail(failTransport, "link read: %v", l.readErr)
		}
	}
	if s.spec.durable {
		got, took, err := s.recovered()
		if err != nil {
			return err
		}
		s.model.checkRecovered(got)
		r.set("storage.recover_ms", float64(took)/1e6)
	}
	s.model.finish()

	s.report(r, before, after, end, start, rss)
	return nil
}

// lateCount counts operations of a phase answered later than lateLimit
// after due.
func lateCount(lat []int64) (n int64) {
	for _, l := range lat {
		if l > int64(lateLimit) {
			n++
		}
	}
	return n
}

// report turns the run's samples and marks into metric values.
func (s *serving) report(r *result, before, after, end phaseMark, start int64, rss float64) {
	const usPerNs = 1e-3
	windows := int(s.sz.fixed / windowDur)
	sec := int64(windowDur)

	var reqOps, deltaOps int64
	var lateSends, sends int64
	var lateness []int64

	// Responses.
	if ln := s.lanes[0]; ln != nil && ln.fixed != nil {
		fx := ln.fixed
		s.model.attempt(int64(fx.n))
		n := lateCount(fx.lat)
		s.model.failN(failLate, n, "%d responses later than %s after due", n, lateLimit)
		dues := fx.dues()
		wins := windowSamples(dues, fx.lat, start, sec, windows)
		r.setW("p50_us", windowPercentile(wins, 0.50), usPerNs)
		r.setW("bench.p95_us", windowPercentile(wins, 0.95), usPerNs)
		r.setW("bench.p99_us", windowPercentile(wins, 0.99), usPerNs)
		r.set("bench.p999_us", float64(wholePercentile(fx.lat, 0.999))*usPerNs)
		// Per kind, for the fast-path reading of p50 against p95.
		kindLat := func(kind reqKind) windowed {
			lat := make([]int64, fx.n)
			for i := range lat {
				lat[i] = -1
				if s.requestAt(ln.ringBase[1], i, s.spec.churn).kind == kind {
					lat[i] = fx.lat[i]
				}
			}
			return windowPercentile(windowSamples(dues, lat, start, sec, windows), 0.50)
		}
		r.setW("bench.locate_p50_us", kindLat(reqLocate), usPerNs)
		if s.spec.pathShare > 0 {
			r.setW("bench.path_p50_us", kindLat(reqPath), usPerNs)
		}
		reqOps = fx.answered.Load()
		lateness = append(lateness, fx.late...)
	}

	// Acks and events.
	if fl := s.frames; fl != nil {
		fx := fl.fixed
		n := lateCount(fx.lat)
		s.model.failN(failLate, n, "%d acks later than %s after due", n, lateLimit)
		wins := windowSamples(fx.dues(), fx.lat, start, sec, windows)
		r.setW("ingest.ack_p50_us", windowPercentile(wins, 0.50), usPerNs)
		r.setW("ingest.ack_p95_us", windowPercentile(wins, 0.95), usPerNs)
		for i, l := range fx.lat {
			if l >= 0 && fx.due(i) < start+int64(s.sz.fixed) {
				deltaOps += frameDeltas
			}
		}
		lateness = append(lateness, fx.late...)

		n = lateCount(s.evLat)
		s.model.failN(failLate, n, "%d events later than %s after due", n, lateLimit)
		ewins := windowSamples(s.evDue, s.evLat, start, sec, windows)
		p50, p95 := windowPercentile(ewins, 0.50), windowPercentile(ewins, 0.95)
		r.setW("bench.event_p50_us", p50, usPerNs)
		r.setW("bench.event_p95_us", p95, usPerNs)
		r.setW("bench.event_p99_us", windowPercentile(ewins, 0.99), usPerNs)
		if s.spec.reqRate == 0 {
			// No requests: the events are what this workload's user sees.
			r.setW("p50_us", p50, usPerNs)
			r.setW("bench.p95_us", p95, usPerNs)
			r.setW("bench.p99_us", windowPercentile(ewins, 0.99), usPerNs)
			r.set("bench.p999_us", float64(wholePercentile(s.evLat, 0.999))*usPerNs)
		}
		slow := 0
		for _, l := range s.evLat {
			if l > int64(10*time.Millisecond) {
				slow++
			}
		}
		if len(s.evLat) > 0 {
			r.set("storage.ckpt_slow_ratio", float64(slow)/float64(len(s.evLat)))
		}
	}

	// Saturation.
	switch {
	case s.frames != nil && s.frames.sat != nil:
		r.setRate("sat_ops_s", s.frames.sat.rate())
	default:
		total := make([]float64, int(s.sz.sat/windowDur))
		for _, ln := range s.lanes {
			if ln == nil {
				continue
			}
			for w, n := range ln.sat.perWindow {
				total[w] += float64(n) / windowDur.Seconds()
			}
		}
		r.setRate("sat_ops_s", summarize(total))
	}

	if ops := r.values["sat_ops_s"] * s.sz.sat.Seconds(); ops > 0 {
		r.satCPUNs = float64(end.srvCPU-after.srvCPU) / ops
	}

	// Costs over the fixed-rate phase.
	if ops := float64(reqOps + deltaOps); ops > 0 {
		r.set("cpu_us_per_op", float64(after.srvCPU-before.srvCPU)/1e3/ops)
		r.set("bench.client_cpu_us_per_op", float64(after.selfCPU-before.selfCPU)/1e3/ops)
		r.set("wire.bytes_per_op", float64(after.bytes-before.bytes)/ops)
	}
	r.set("rss_mb", rss)

	// The generator about itself.
	for _, l := range lateness {
		sends++
		if l > int64(time.Millisecond) {
			lateSends++
		}
	}
	if sends > 0 {
		ratio := float64(lateSends) / float64(sends)
		r.set("bench.late_ratio", ratio)
		r.set("bench.late_p99_us", float64(wholePercentile(lateness, 0.99))*usPerNs)
		if ratio > 0.02 {
			r.invalid = fmt.Sprintf("bench.late_ratio %.4f > 0.02: the generator could not hold its schedule", ratio)
		}
	}

	// Server counters around the phases.
	delta := func(a, b phaseMark, name string) float64 { return float64(b.counters[name] - a.counters[name]) }
	if f := delta(before, after, "wire.flushes"); f > 0 {
		r.set("wire.frames_per_flush", delta(before, after, "wire.frames")/f)
	}
	if s.frames != nil {
		if d := delta(before, after, "ingest.applied"); d > 0 {
			r.set("storage.wal_bytes_per_delta", delta(before, after, "storage.wal_bytes")/d)
		}
		r.set("ingest.dup_frames", float64(end.counters["ingest.duplicate_frames"]))
		r.set("ingest.seq_gaps", float64(end.counters["ingest.seq_gaps"]))
		r.set("fanout.events_dropped", float64(end.counters["fanout.events_dropped"]))
		if p := float64(end.counters["fanout.published"]); p > 0 {
			r.set("fanout.delivered_per_published", float64(end.counters["fanout.delivered"])/p)
		}
	}

	// What the once-a-second samples saw (traced run only).
	if len(s.samples) > 0 {
		backlog := int64(0)
		var stalls []float64
		for k, sm := range s.samples {
			backlog = max(backlog, sm.counters["fanout.backlog"])
			if k == 0 || sm.counters["storage.snapshots"] == s.samples[k-1].counters["storage.snapshots"] {
				continue
			}
			// A checkpoint finished between the two samples: the stall
			// it caused is the worst event due within a second of them.
			lo, hi := s.samples[k-1].t-int64(time.Second), sm.t+int64(time.Second)
			peak := int64(0)
			for i, due := range s.evDue {
				if due >= lo && due <= hi {
					peak = max(peak, s.evLat[i])
				}
			}
			if peak > 0 {
				stalls = append(stalls, float64(peak)/1e6)
			}
		}
		r.set("fanout.backlog_max", float64(backlog))
		if len(stalls) > 0 {
			r.set("storage.ckpt_stall_ms", median(stalls))
		}
	}

	r.attempted, r.failed = s.model.totals()
	r.failures = s.model.summary()
}

// wholePercentile is the p-th percentile over every answered sample of
// a phase (not windowed): for percentiles a 1 s window cannot support.
func wholePercentile(lat []int64, p float64) int64 {
	got := make([]int64, 0, len(lat))
	for _, l := range lat {
		if l >= 0 {
			got = append(got, l)
		}
	}
	slices.Sort(got)
	return percentile(got, p)
}
