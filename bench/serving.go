package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"bips"
	"bips/internal/graph"
	"bips/internal/loadgen"
	"bips/internal/sim"
	"bips/internal/storage"
	"bips/internal/wire"
)

// The building and population every serving workload shares.
const (
	gridSide     = 16 // rooms per side: a 16×16 grid, 256 rooms
	gridSpacing  = 12 // metres between neighbouring rooms
	numRooms     = gridSide * gridSide
	watchedRooms = 16 // rooms the subscriber link watches
	frameDeltas  = 64 // deltas per presence.batch frame
	churnUsers   = 64 // users set aside for login/logout pairs
	checkEvery   = 64 // one answer in this many is decoded and checked against the model
	lateLimit    = time.Second
	session      = "bench"
	password     = "loadgen" // what -loadgen-users registers
	ringSize     = 1 << 18   // pre-generated requests, cycled through
	// Stream deltas carry ticks from tickBase up, one per delta, so an
	// event or a locate answer names the delta that caused it. Set-up
	// placement uses ticks 1..users.
	tickBase = 1 << 20
	// Per mixed-workload request cycle: churnCycle locates, then one
	// logout and one login. At 10,100 requests/s that is 10,000
	// locates/s and 50 pairs/s.
	churnCycle = 200
)

// servingSpec says what one serving workload runs; see README for why
// each exists.
type servingSpec struct {
	name      string
	durable   bool    // -data-dir: WAL, checkpoints and analytics seals inside the window
	watch     bool    // link A subscribes to watchedRooms rooms and reads their events
	reqRate   float64 // link A fixed-rate phase, requests/s (0: A sends nothing)
	pathShare float64 // share of path requests, the rest locate
	zipf      bool    // locate targets Zipf(1.1) instead of uniform (path targets are always uniform)
	churn     bool    // a logout and a login after every churnCycle requests
	deltaRate float64 // link B fixed-rate phase, deltas/s (0: no ingest stream)

	// Saturation phase: closed loop.
	satReqLinks    int // links sending requests (0, 1: A, 2: A and B)
	satReqWindow   int // requests in flight per link
	satFrameWindow int // frames in flight on B; 0 with deltaRate > 0 keeps B at its fixed rate
}

var servingSpecs = map[string]servingSpec{
	"query": {
		name: "query", reqRate: 20000, pathShare: 0.2, zipf: true,
		satReqLinks: 2, satReqWindow: 32,
	},
	"report": {
		name: "report", durable: true, watch: true, deltaRate: 50000,
		satFrameWindow: 8,
	},
	"mixed": {
		name: "mixed", durable: true, watch: true, churn: true,
		reqRate: 10000 * float64(churnCycle+2) / churnCycle, deltaRate: 25000,
		satReqLinks: 1, satReqWindow: 32,
	},
}

// sizes scales a run: the full benchmark and the 1 s smoke test differ
// only here.
type sizes struct {
	users      int
	fixed, sat time.Duration
	warmReqs   int // closed-loop requests per requesting link before measuring
	warmFrames int // closed-loop frames before measuring
}

// fullSizes splits a run of the given length two to one: latency
// percentiles need the windows more than the completion count does.
func fullSizes(seconds int) sizes {
	sat := time.Duration(seconds) * time.Second / 3
	fixed := time.Duration(seconds)*time.Second - sat
	return sizes{users: 4096, fixed: fixed, sat: sat, warmReqs: 32768, warmFrames: 256}
}

type reqKind uint8

const (
	reqLocate reqKind = iota
	reqPath
	reqLogout
	reqLogin
)

// request is one pre-generated query: who asks about whom.
type request struct {
	kind            reqKind
	querier, target int32
}

// Correlation-id spaces, so a reader can tell an answer's phase from
// its id alone. Set-up uses 1..; each phase of each lane has its own
// 2^32 block.
const (
	seqWarm  = 1 << 32
	seqFixed = 2 << 32
	seqSat   = 3 << 32
	seqStats = 7 << 32
)

// reqLane is the request traffic of one link: up to three phases over
// the shared request ring, each starting at its own ring offset.
type reqLane struct {
	warm, sat *closedLoop
	fixed     *openLoop
	ringBase  [3]int // warm, fixed, sat

	// fresh holds, for each sampled locate in flight, the oldest tick
	// its answer may carry (only used when deltas move the targets).
	freshMu sync.Mutex
	fresh   map[uint64]int64
}

// frameLane is the ingest traffic of link B. Frames are numbered over
// the whole run; frame0[p] is the run-wide index of phase p's first.
type frameLane struct {
	warm, sat *closedLoop
	fixed     *openLoop
	frame0    [3]uint64
}

// serving is one server child with its population, links and oracle.
type serving struct {
	spec servingSpec
	sz   sizes
	e    *env
	seed int64

	srv     *child
	addr    string
	dataDir string
	a, b    *link

	names   []string // user name per index
	devices []string // device address per index, wire form
	placed  int      // users [0, placed) have a position; the rest churn
	watched []int    // rooms link A subscribes to
	ring    []request
	model   *model

	lanes  [2]*reqLane // request lane of link A, link B
	frames *frameLane

	// Frame generator state, owned by whichever goroutine sends on the
	// frame lane (one at a time).
	frameRng  *rand.Rand
	cur       []int // room per placed user
	nextFrame uint64
	deltaBuf  []delta
	presBuf   []wire.Presence

	// Event samples of fixed-rate deltas, appended by link A's reader.
	evDue, evLat []int64

	// MsgStats plumbing: one query in flight at a time; the answer
	// comes back through link A's reader. sample asks for one query a
	// second during the phases (traced run only), kept in samples.
	statsMu sync.Mutex
	stats   chan []byte
	sample  bool
	samples []statSample
}

// statSample is the server's counters at one instant of a phase.
type statSample struct {
	t        int64
	counters map[string]int64
}

func subID(room int) string { return "r" + strconv.Itoa(room) }

// userOfDevice inverts loadgen.UserDevice.
func userOfDevice(addr string) (int, bool) {
	a, err := wire.ParseAddr(addr)
	if err != nil {
		return 0, false
	}
	u := int64(a) - int64(loadgen.UserDevice(0))
	return int(u), u >= 0
}

// newServing generates a workload's inputs from the seed. Nothing is
// started yet.
func newServing(e *env, spec servingSpec, sz sizes, seed int64, log io.Writer) *serving {
	s := &serving{
		spec: spec, sz: sz, e: e, seed: seed,
		model: newModel(log),
		stats: make(chan []byte, 1),
	}
	s.placed = sz.users
	if spec.churn {
		s.placed -= churnUsers
	}
	s.names = make([]string, sz.users)
	s.devices = make([]string, sz.users)
	for i := range s.names {
		s.names[i] = loadgen.UserName(i)
		s.devices[i] = wire.FormatAddr(loadgen.UserDevice(i))
	}
	rng := newRand(seed)
	s.cur = make([]int, s.placed)
	for u := range s.cur {
		s.cur[u] = 1 + rng.Intn(numRooms)
	}
	if spec.watch {
		s.watched = rng.Perm(numRooms)[:watchedRooms]
		for i := range s.watched {
			s.watched[i]++ // room ids start at 1
		}
	}
	// Zipf ranks are mapped through a seeded permutation so the hot
	// users are not the low-numbered ones (which share name prefixes
	// and neighbouring device addresses).
	perm := rng.Perm(s.placed)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(s.placed-1))
	s.ring = make([]request, ringSize)
	for i := range s.ring {
		rq := request{querier: int32(rng.Intn(s.placed))}
		if rng.Float64() < spec.pathShare {
			rq.kind = reqPath
		}
		// A path's cost grows with its length, and under Zipf a third
		// of the requests go to five users: with Zipf path targets the
		// rooms those five happened to get (corner or centre) set the
		// mean path length, and p95_us read 14 % apart over ten seeds
		// against 5 % over ten runs of one. Popularity is a property of
		// who is looked for; the way there is drawn uniformly.
		if spec.zipf && rq.kind != reqPath {
			rq.target = int32(perm[zipf.Uint64()])
		} else {
			rq.target = int32(rng.Intn(s.placed))
		}
		s.ring[i] = rq
	}
	s.frameRng = newRand(seed ^ 0x5eed)
	s.deltaBuf = make([]delta, frameDeltas)
	s.presBuf = make([]wire.Presence, frameDeltas)
	return s
}

// requestAt is operation i of a request stream that started at ring
// offset base. With churn, every churnCycle locates are followed by a
// logout of one churn user and a login of the one logged out 32 pairs
// earlier, so a user's two state changes are never in flight together.
func (s *serving) requestAt(base, i int, withChurn bool) request {
	if !withChurn {
		return s.ring[(base+i)%ringSize]
	}
	cycle, pos := i/(churnCycle+2), i%(churnCycle+2)
	if pos < churnCycle {
		return s.ring[(base+cycle*churnCycle+pos)%ringSize]
	}
	first := int32(s.placed)
	if pos == churnCycle {
		return request{kind: reqLogout, target: first + int32(cycle%churnUsers)}
	}
	if cycle < churnUsers/2 {
		// Nobody is logged out long enough yet: one more locate.
		return s.ring[(base+cycle*churnCycle)%ringSize]
	}
	return request{kind: reqLogin, target: first + int32((cycle-churnUsers/2)%churnUsers)}
}

// start launches the server child and waits until it listens.
func (s *serving) start() error {
	plan := filepath.Join(s.e.tmp, "plan.json")
	if err := bips.GridPlan(gridSide, gridSide, gridSpacing).Save(plan); err != nil {
		return err
	}
	addrFile := filepath.Join(s.e.tmp, "addr")
	_ = os.Remove(addrFile)
	args := []string{
		"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-plan", plan, "-loadgen-users", strconv.Itoa(s.sz.users),
	}
	if s.spec.watch {
		// With the default buffer of 256 the burst that follows a
		// checkpoint stall overflows it on this sandbox (22 to 92 events
		// lost in 3 of 12 runs; see README). The contract wants workloads
		// on which nothing fails, so the subscriber gets the buffer an
		// operator who must not lose events would give it.
		args = append(args, "-event-buffer", "4096")
	}
	if s.spec.durable {
		dir, err := os.MkdirTemp(s.e.tmp, "data-")
		if err != nil {
			return err
		}
		s.dataDir = dir
		// Every phase spans at least two checkpoints and two analytics
		// seals whatever their alignment.
		every := (s.sz.fixed * 2 / 5).String()
		args = append(args, "-data-dir", dir, "-snapshot-interval", every, "-analytics-seal", every)
	}
	srv, err := startChild(filepath.Join(s.e.bin, "bips-server"), args...)
	if err != nil {
		return err
	}
	s.srv = srv
	deadline := time.Now().Add(20 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			s.addr = string(raw)
			return nil
		}
		select {
		case <-srv.waited:
			return fmt.Errorf("bips-server exited during start-up: %v\n%s", srv.err, tail(srv.stderr.String(), 10))
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("bips-server did not listen within 20s")
		}
		time.Sleep(time.Millisecond)
	}
}

// okAnswer is the set-up check: anything but the expected type fails.
func okAnswer(want wire.MsgType) func(int, wire.Envelope) error {
	return func(i int, env wire.Envelope) error {
		if env.Type != want {
			return fmt.Errorf("set-up operation %d answered %s %s, want %s", i, env.Type, env.Body, want)
		}
		return nil
	}
}

// appendRaw encodes a request whose body has no append-style encoder.
func appendRaw(buf []byte, t wire.MsgType, seq uint64, body any) []byte {
	env, err := wire.MarshalBody(t, seq, body)
	if err != nil {
		panic(err) // flat structs of strings and ints
	}
	return wire.AppendEnvelopeRaw(buf, env)
}

// rawOp is the opFn that sends the same such request every time.
func rawOp(t wire.MsgType, body any) opFn {
	return func(_ int, seq uint64, buf []byte) []byte { return appendRaw(buf, t, seq, body) }
}

// populate logs every user in, places the placed ones (in frames, on a
// session of its own), registers the subscriptions and opens the
// measured ingest session.
func (s *serving) populate() error {
	var err error
	if s.a, err = dialLink(s.addr); err != nil {
		return err
	}
	if s.b, err = dialLink(s.addr); err != nil {
		return err
	}
	seq := uint64(1)
	err = s.a.pipeline(s.sz.users, 256, seq, func(i int, seq uint64, buf []byte) []byte {
		return appendRaw(buf, wire.MsgLogin, seq, wire.Login{User: s.names[i], Password: password, Device: s.devices[i]})
	}, okAnswer(wire.MsgOK))
	if err != nil {
		return fmt.Errorf("log in: %w", err)
	}
	seq += uint64(s.sz.users)

	hello := func(l *link, id string) error {
		return l.pipeline(1, 1, seq, rawOp(wire.MsgIngestHello, wire.IngestHello{Session: id, Station: "bench", Room: 1}),
			okAnswer(wire.MsgIngestAck))
	}
	if err := hello(s.a, "place"); err != nil {
		return fmt.Errorf("placement session: %w", err)
	}
	seq++
	nFrames := (s.placed + frameDeltas - 1) / frameDeltas
	err = s.a.pipeline(nFrames, 16, seq, func(f int, seq uint64, buf []byte) []byte {
		lo, hi := f*frameDeltas, min((f+1)*frameDeltas, s.placed)
		batch := wire.PresenceBatch{Session: "place", Seq: uint64(f + 1)}
		for u := lo; u < hi; u++ {
			batch.Deltas = append(batch.Deltas, wire.Presence{
				Device: s.devices[u], Room: graph.NodeID(s.cur[u]), At: sim.Tick(u + 1), Present: true,
			})
			s.model.place(u, s.cur[u], int64(u+1))
		}
		return wire.AppendEnvelope(buf, wire.MsgPresenceBatch, seq, &batch)
	}, func(f int, env wire.Envelope) error {
		var ack wire.IngestAck
		if env.Type != wire.MsgIngestAck || !ack.DecodeBody(env.Body) || ack.Rejected != 0 {
			return fmt.Errorf("placement frame %d answered %s %s", f, env.Type, env.Body)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("place: %w", err)
	}
	seq += uint64(nFrames)

	if s.spec.watch {
		err = s.a.pipeline(len(s.watched), len(s.watched), seq, func(i int, seq uint64, buf []byte) []byte {
			room := s.watched[i]
			s.model.subscribed[room] = true
			return appendRaw(buf, wire.MsgSubscribe, seq, wire.Subscribe{
				ID: subID(room), Querier: s.names[0],
				Filter: wire.SubFilter{Kind: wire.FilterRoom, Room: graph.NodeID(room)},
			})
		}, okAnswer(wire.MsgOK))
		if err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
	}
	if s.spec.deltaRate > 0 {
		if err := hello(s.b, session); err != nil {
			return fmt.Errorf("ingest session: %w", err)
		}
	}
	return nil
}

// plan lays out every phase of every lane before any reader starts, so
// the readers only ever see finished structures.
func (s *serving) plan() {
	if s.spec.reqRate > 0 || s.spec.satReqLinks > 0 {
		for li := 0; li < max(1, s.spec.satReqLinks); li++ {
			ln := &reqLane{fresh: make(map[uint64]int64)}
			// Each link and phase reads its own stretch of the ring.
			off := li * ringSize / 2
			ln.ringBase = [3]int{off, off + s.sz.warmReqs, off + ringSize/4}
			ln.warm = newClosedLoop(s.spec.satReqWindow, time.Second, seqWarm)
			if li == 0 && s.spec.reqRate > 0 {
				ln.fixed = newOpenLoop(s.spec.reqRate, s.sz.fixed, seqFixed, newRand(s.seed^0xa11))
			}
			ln.sat = newClosedLoop(s.spec.satReqWindow, s.sz.sat, seqSat)
			s.lanes[li] = ln
		}
	}
	if s.spec.deltaRate > 0 {
		fl := &frameLane{}
		window := s.spec.satFrameWindow
		dur := s.sz.fixed
		if window == 0 {
			// B holds its fixed rate through the saturation phase.
			window = 8
			dur += s.sz.sat
		} else {
			fl.sat = newClosedLoop(window, s.sz.sat, seqSat)
		}
		fl.warm = newClosedLoop(window, time.Second, seqWarm)
		fl.fixed = newOpenLoop(s.spec.deltaRate/frameDeltas, dur, seqFixed, newRand(s.seed^0xb22))
		s.frames = fl
	}
}

// reqOp is the opFn of one request-lane phase.
func (s *serving) reqOp(ln *reqLane, base int, withChurn bool) opFn {
	moving := s.spec.deltaRate > 0
	return func(i int, seq uint64, buf []byte) []byte {
		rq := s.requestAt(base, i, withChurn)
		switch rq.kind {
		case reqLogout:
			return appendRaw(buf, wire.MsgLogout, seq, wire.Logout{User: s.names[rq.target]})
		case reqLogin:
			return appendRaw(buf, wire.MsgLogin, seq, wire.Login{
				User: s.names[rq.target], Password: password, Device: s.devices[rq.target],
			})
		}
		if moving && seq%checkEvery == 0 {
			at := s.model.freshness(int(rq.target))
			ln.freshMu.Lock()
			ln.fresh[seq] = at
			ln.freshMu.Unlock()
		}
		t := wire.MsgLocate
		if rq.kind == reqPath {
			t = wire.MsgPath
		}
		// path carries the same two fields as locate.
		buf = wire.AppendEnvelopePrefix(buf, t, seq)
		buf = wire.Locate{Querier: s.names[rq.querier], Target: s.names[rq.target]}.AppendTo(buf)
		return append(buf, '}')
	}
}

// frameOp is the opFn of one frame-lane phase: it generates the next
// frame of the run — every delta moves a uniformly chosen placed user
// to a different uniformly chosen room — tells the model, and encodes
// it. dueOf gives operation i's due time (0 in closed-loop phases).
func (s *serving) frameOp(dueOf func(i int) int64) opFn {
	return func(i int, seq uint64, buf []byte) []byte {
		f := s.nextFrame
		s.nextFrame++
		for j := range s.deltaBuf {
			u := s.frameRng.Intn(s.placed)
			room := 1 + s.frameRng.Intn(numRooms-1)
			if room >= s.cur[u] {
				room++
			}
			s.cur[u] = room
			at := int64(tickBase + f*frameDeltas + uint64(j))
			s.deltaBuf[j] = delta{user: u, room: room, at: at}
			s.presBuf[j] = wire.Presence{Device: s.devices[u], Room: graph.NodeID(room), At: sim.Tick(at), Present: true}
		}
		s.model.emit(f+1, s.deltaBuf, dueOf(i))
		buf = wire.AppendEnvelopePrefix(buf, wire.MsgPresenceBatch, seq)
		buf = wire.PresenceBatch{Session: session, Seq: f + 1, Deltas: s.presBuf}.AppendTo(buf)
		return append(buf, '}')
	}
}

// onFrame is the reader handler of both links.
func (s *serving) onFrame(li int) func(wire.Envelope, int64) {
	ln := s.lanes[li]
	return func(env wire.Envelope, t int64) {
		switch env.Type {
		case wire.MsgEvent:
			s.onEvent(env, t)
		case wire.MsgStatsResult:
			s.stats <- append([]byte(nil), env.Body...)
		case wire.MsgIngestAck:
			s.onAck(env, t)
		default:
			if ln == nil {
				s.model.fail(failTransport, "unexpected %s on link %d", env.Type, li)
				return
			}
			s.onAnswer(ln, env, t)
		}
	}
}

// onAnswer routes a request's answer to its phase and checks it.
func (s *serving) onAnswer(ln *reqLane, env wire.Envelope, t int64) {
	var rq request
	switch phase := env.Seq >> 32; phase {
	case seqWarm >> 32:
		rq = s.requestAt(ln.ringBase[0], int(ln.warm.index(env.Seq)), false)
		ln.warm.answer(t, 1)
	case seqFixed >> 32:
		i := ln.fixed.index(env.Seq)
		if i < 0 {
			s.model.fail(failTransport, "answer with unknown correlation id %d", env.Seq)
			return
		}
		rq = s.requestAt(ln.ringBase[1], i, s.spec.churn)
		ln.fixed.answer(i, t)
	case seqSat >> 32:
		rq = s.requestAt(ln.ringBase[2], int(ln.sat.index(env.Seq)), false)
		ln.sat.answer(t, 1)
	default:
		s.model.fail(failTransport, "answer with unknown correlation id %d", env.Seq)
		return
	}
	s.checkAnswer(ln, rq, env)
}

// checkAnswer judges one answer. Every answer's type is checked; one in
// checkEvery is decoded and compared with the model.
func (s *serving) checkAnswer(ln *reqLane, rq request, env wire.Envelope) {
	want := wire.MsgLocateResult
	switch rq.kind {
	case reqPath:
		want = wire.MsgPathResult
	case reqLogin, reqLogout:
		want = wire.MsgOK
	}
	if env.Type != want {
		kind := failAnswer
		if env.Type == wire.MsgError {
			kind = failError
		}
		s.model.fail(kind, "request %+v answered %s %s", rq, env.Type, env.Body)
		return
	}
	if env.Seq%checkEvery != 0 {
		return
	}
	switch rq.kind {
	case reqLocate:
		var res wire.LocateResult
		if !res.DecodeBody(env.Body) {
			s.model.fail(failAnswer, "locate answer %s does not decode", env.Body)
			return
		}
		ln.freshMu.Lock()
		minAt := ln.fresh[env.Seq]
		delete(ln.fresh, env.Seq)
		ln.freshMu.Unlock()
		s.model.checkLocate(int(rq.target), int(res.Room), int64(res.At), minAt)
	case reqPath:
		var res wire.PathResult
		if err := json.Unmarshal(env.Body, &res); err != nil {
			s.model.fail(failAnswer, "path answer %s: %v", env.Body, err)
			return
		}
		s.checkPath(rq, res)
	}
}

// gridPos is a room's column and row in the grid plan.
func gridPos(room int) (col, row int) { return (room - 1) % gridSide, (room - 1) / gridSide }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkPath judges a path answer on the grid: it starts in the
// querier's room, ends in the target's, each step moves to a
// neighbouring room, and its length is the Manhattan distance (a grid
// has many shortest paths; any of them is right). Only the query
// workload asks for paths, and nobody moves there.
func (s *serving) checkPath(rq request, res wire.PathResult) {
	from, _ := s.model.current(int(rq.querier))
	to, _ := s.model.current(int(rq.target))
	fc, fr := gridPos(from.room)
	tc, tr := gridPos(to.room)
	steps := abs(fc-tc) + abs(fr-tr)
	ok := len(res.Rooms) == steps+1 && len(res.Names) == len(res.Rooms) &&
		int(res.Rooms[0]) == from.room && int(res.Rooms[steps]) == to.room &&
		res.TotalMeters == float64(steps*gridSpacing)
	for i := 1; ok && i < len(res.Rooms); i++ {
		pc, pr := gridPos(int(res.Rooms[i-1]))
		c, r := gridPos(int(res.Rooms[i]))
		ok = abs(pc-c)+abs(pr-r) == 1
	}
	if !ok {
		s.model.fail(failAnswer, "path user%d(room %d) -> user%d(room %d) = %v, %.0f m",
			rq.querier, from.room, rq.target, to.room, res.Rooms, res.TotalMeters)
	}
}

// onAck routes a frame's acknowledgement to its phase and the model.
func (s *serving) onAck(env wire.Envelope, t int64) {
	fl := s.frames
	var ack wire.IngestAck
	if fl == nil || !ack.DecodeBody(env.Body) {
		s.model.fail(failAck, "ack %s (correlation id %d)", env.Body, env.Seq)
		return
	}
	// Each phase's answer() reads the phase's start, which its sender
	// stored after setting frame0 — so frame0 is read after it.
	var frame uint64
	switch phase := env.Seq >> 32; {
	case phase == seqWarm>>32:
		fl.warm.answer(t, frameDeltas)
		frame = fl.frame0[0] + uint64(fl.warm.index(env.Seq)) + 1
	case phase == seqFixed>>32 && fl.fixed.index(env.Seq) >= 0:
		i := fl.fixed.index(env.Seq)
		fl.fixed.answer(i, t)
		frame = fl.frame0[1] + uint64(i) + 1
	case phase == seqSat>>32 && fl.sat != nil:
		fl.sat.answer(t, frameDeltas)
		frame = fl.frame0[2] + uint64(fl.sat.index(env.Seq)) + 1
	default:
		s.model.fail(failAck, "ack with unknown correlation id %d", env.Seq)
		return
	}
	s.model.ack(frame, ack.Acked, ack.Applied, ack.Rejected, ack.Duplicate)
}

// onEvent decodes one pushed event and hands it to the model.
func (s *serving) onEvent(env wire.Envelope, t int64) {
	var ev wire.Event
	if err := json.Unmarshal(env.Body, &ev); err != nil {
		s.model.fail(failEventUnknown, "event %s: %v", env.Body, err)
		return
	}
	user, ok := userOfDevice(ev.Device)
	enter := ev.Kind == wire.EventEnter
	if !ok || user >= s.placed || ev.User != s.names[user] ||
		(!enter && ev.Kind != wire.EventLeave) || ev.Sub != subID(int(ev.Room)) {
		s.model.fail(failEventUnknown, "event %s is not an enter or leave of a known user on its room's subscription", env.Body)
		return
	}
	if lat, ok := s.model.event(int(ev.Room), enter, user, int64(ev.At), t); ok {
		s.evDue = append(s.evDue, t-lat)
		s.evLat = append(s.evLat, lat)
	}
}

// warmUp starts the readers and runs the fixed warm-up work: a closed
// loop of the workload's own operations, so connections, pools, the
// session and the subscriptions have all been used before timing.
func (s *serving) warmUp() error {
	s.a.startReader(s.onFrame(0))
	s.b.startReader(s.onFrame(1))
	far := now() + int64(time.Minute)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for li, ln := range s.lanes {
		if ln == nil {
			continue
		}
		wg.Add(1)
		go func(l *link, ln *reqLane) {
			defer wg.Done()
			_, lost, err := ln.warm.run(l, far, int64(s.sz.warmReqs), lateLimit, s.reqOp(ln, ln.ringBase[0], false))
			s.model.attempt(int64(s.sz.warmReqs))
			if err != nil || lost > 0 {
				errs <- fmt.Errorf("warm-up requests: %d unanswered, %v", lost, err)
			}
		}([]*link{s.a, s.b}[li], ln)
	}
	if fl := s.frames; fl != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl.frame0[0] = s.nextFrame
			_, lost, err := fl.warm.run(s.b, far, int64(s.sz.warmFrames), lateLimit, s.frameOp(func(int) int64 { return 0 }))
			if err != nil || lost > 0 {
				errs <- fmt.Errorf("warm-up frames: %d unacknowledged, %v", lost, err)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// setUp brings one server from nothing to ready-to-measure and returns
// how long that took: child start, population logged in and placed,
// subscriptions and session open, warm-up work done.
func (s *serving) setUp() (time.Duration, error) {
	begin := time.Now()
	if err := s.start(); err != nil {
		return 0, err
	}
	if err := s.populate(); err != nil {
		return 0, fmt.Errorf("%w\nserver log:\n%s", err, tail(s.srv.stderr.String(), 10))
	}
	s.plan()
	if err := s.warmUp(); err != nil {
		return 0, err
	}
	return time.Since(begin), nil
}

// abandon stops a server without ceremony: throw-away set-ups and
// every error path.
func (s *serving) abandon() {
	if s.a != nil {
		s.a.close()
	}
	if s.b != nil {
		s.b.close()
	}
	if s.srv != nil {
		s.srv.kill()
	}
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}

// serverStats asks the server for its MsgStats counters over link A.
// The codec serialises it with whatever the request lane is sending.
func (s *serving) serverStats() (map[string]int64, error) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if err := s.a.fc.SendPayload(wire.AppendEnvelope(nil, wire.MsgStats, seqStats, nil)); err != nil {
		return nil, err
	}
	select {
	case raw := <-s.stats:
		var res wire.StatsResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, err
		}
		return res.Counters, nil
	case <-time.After(5 * time.Second):
		return nil, errors.New("no answer to stats within 5s")
	}
}

// recovered reopens the data directory the way a restarted server would
// and returns the positions it holds, with the time the reopen took.
func (s *serving) recovered() (map[int]fix, time.Duration, error) {
	begin := time.Now()
	st, err := storage.Open(storage.Options{Dir: s.dataDir, SnapshotInterval: -1})
	if err != nil {
		return nil, 0, fmt.Errorf("reopen data dir: %w", err)
	}
	took := time.Since(begin)
	got := make(map[int]fix)
	for _, f := range st.All() {
		got[int(int64(f.Device)-int64(loadgen.UserDevice(0)))] = fix{room: int(f.Piconet), at: int64(f.At)}
	}
	if err := st.Close(); err != nil {
		return nil, 0, fmt.Errorf("close reopened data dir: %w", err)
	}
	return got, took, nil
}
