package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"

	"bips"
	"bips/internal/analytics"
	"bips/internal/building"
	"bips/internal/experiments"
	"bips/internal/fanout"
	"bips/internal/graph"
	"bips/internal/ingest"
	"bips/internal/inquiry"
	"bips/internal/loadgen"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/runner"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/storage"
	"bips/internal/wire"
)

// The traced run. Over TCP it repeats a workload's fixed-rate phase
// twice on fresh servers — untraced, then with client-side spans for
// every request — which gives bench.trace_overhead and the counters
// that come from MsgStats. Then the layer walk builds the same object
// graph in this process from the public constructors, with the same
// population, and pushes the first walkOps operations of the workload's
// generated stream through each layer's public function in a pass of
// its own: one span per batch of walkBatch operations under a span per
// layer, per-operation time = span time over operations, allocations
// from runtime.MemStats. The enclosing calls (DispatchBytes, ServeConn)
// get the same treatment, and what they cost beyond the sum of their
// parts is the ledger's residual.

const (
	walkOps   = 65536
	walkBatch = 1024
)

// runTraced produces every per-layer metric of one workload and writes
// the spans to path.
func runTraced(e *env, name string, seed int64, pl plan, path string, log io.Writer) (*result, error) {
	tr := &tracer{}
	var r *result
	if name == "discovery" {
		r = newResult(name, seed)
		walkDiscovery(r, tr, pl.discovery, seed)
		r.attempted, r.failures = 1, " none"
	} else {
		spec := servingSpecs[name]
		// Two servers are measured in the time of one.
		sz := pl.serving
		sz.fixed, sz.sat = sz.fixed/2, sz.sat/2
		var err error
		if r, err = runServing(e, spec, sz, seed, 1, true, nil, log); err != nil {
			return nil, err
		}
		if spec.reqRate > 0 {
			// Only the fixed-rate phase is traced; saturation is kept
			// to one window.
			sz.sat = windowDur
			traced, err := runServing(e, spec, sz, seed, 1, false, tr, log)
			if err != nil {
				return nil, err
			}
			if p50 := r.values["p50_us"]; p50 > 0 {
				r.set("bench.trace_overhead", traced.values["p50_us"]/p50)
			}
		}
		s := newServing(e, spec, sz, seed, log)
		w := &walk{s: s, tr: tr, r: r, e: e, batch: walkBatch}
		if spec.reqRate > 0 {
			if err := w.queryPath(); err != nil {
				return nil, fmt.Errorf("layer walk, query path: %w", err)
			}
		}
		if spec.deltaRate > 0 {
			if err := w.reportPath(); err != nil {
				return nil, fmt.Errorf("layer walk, report path: %w", err)
			}
		}
		// The end-to-end values of the shortened untraced run are not
		// this run's product.
		for _, d := range endToEnd {
			delete(r.values, d.name)
		}
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(log, "trace: %d spans written to %s\n", len(tr.spans), path)
	return r, nil
}

// walk is one layer walk over one workload's inputs.
type walk struct {
	s     *serving
	tr    *tracer
	r     *result
	e     *env
	batch int // operations per span
}

// pass runs fn for ops operations in batches, one span per batch under
// one parent span, and returns nanoseconds and heap allocations per
// operation. A layer's figure is its spans' time, not the pass's wall
// time, so the MemStats reads and span bookkeeping stay outside it.
func (w *walk) pass(layer string, ops int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	parent := w.tr.add(layer, 0, 0, now(), 0)
	var busy int64
	for lo := 0; lo < ops; lo += w.batch {
		hi := min(lo+w.batch, ops)
		t0 := now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		t1 := now()
		busy += t1 - t0
		w.tr.add(layer+".batch", parent, 0, t0, t1)
	}
	runtime.ReadMemStats(&after)
	w.tr.end(parent, now())
	return float64(busy) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// discardStream is a stream that reads from r and swallows writes.
type discardStream struct {
	io.Reader
}

func (discardStream) Write(p []byte) (int, error) { return len(p), nil }

// framed renders payloads as one v2 byte stream.
func framed(payloads [][]byte) []byte {
	var buf bytes.Buffer
	fc := wire.NewFrameCodec(&buf)
	for _, p := range payloads {
		if err := fc.SendPayload(p); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
	}
	return buf.Bytes()
}

// graphOf builds the server's object graph the way cmd/bips-server
// does, over db, with the workload's population logged in and placed.
func (w *walk) graphOf(db locdb.Store) (*registry.Registry, *building.Building, error) {
	s := w.s
	bld, err := bips.GridPlan(gridSide, gridSide, gridSpacing).Compile()
	if err != nil {
		return nil, nil, err
	}
	reg := registry.New()
	for u, name := range s.names {
		id := registry.UserID(name)
		if err := reg.Register(id, name, password, registry.RightLocate, registry.RightTrackable); err != nil {
			return nil, nil, err
		}
		if err := reg.Login(id, password, loadgen.UserDevice(u)); err != nil {
			return nil, nil, err
		}
	}
	muts := make([]locdb.Mutation, 0, frameDeltas)
	for u := 0; u < s.placed; u++ {
		muts = append(muts, locdb.Mutation{
			Op: locdb.MutPresence, Dev: loadgen.UserDevice(u), Piconet: graph.NodeID(s.cur[u]), At: sim.Tick(u + 1),
		})
		if len(muts) == frameDeltas || u == s.placed-1 {
			db.ApplyBatch(muts)
			muts = muts[:0]
		}
	}
	return reg, bld, nil
}

func newMemDB() (*locdb.DB, error) {
	return locdb.NewSharded(locdb.DefaultShards, locdb.DefaultHistoryLimit)
}

// serveConnPass times ServeConn over net.Pipe: depth payloads are
// written in one burst, then their answers read, per round.
func (w *walk) serveConnPass(layer string, srv *server.Server, payloads [][]byte, depth int) (nsPerOp, allocsPerOp float64) {
	client, srvSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(srvSide)
	}()
	fc := wire.NewFrameCodecBuffered(client, 256<<10)
	var buf []byte
	rounds := len(payloads) / depth
	ns, allocs := w.pass(layer, rounds, func(round int) {
		for _, p := range payloads[round*depth : (round+1)*depth] {
			_ = fc.SendPayloadNoFlush(p)
		}
		_ = fc.Flush()
		for range depth {
			_, buf, _ = fc.RecvBuf(buf)
		}
	})
	_ = fc.Close()
	<-done
	return ns / float64(depth), allocs / float64(depth)
}

// queryPath walks the layers a locate or path request crosses.
func (w *walk) queryPath() error {
	s, r := w.s, w.r
	db, err := newMemDB()
	if err != nil {
		return err
	}
	reg, bld, err := w.graphOf(db)
	if err != nil {
		return err
	}
	srv := server.New(reg, db, bld)
	defer srv.Close()

	// The stream: the first walkOps requests of the fixed-rate phase.
	ln := &reqLane{fresh: make(map[uint64]int64)}
	mk := s.reqOp(ln, 0, false)
	payloads := make([][]byte, walkOps)
	reqs := make([]request, walkOps)
	for i := range payloads {
		payloads[i] = mk(i, uint64(i+1), nil)
		reqs[i] = s.requestAt(0, i, false)
	}
	users := func(rq request) (registry.UserID, registry.UserID) {
		return registry.UserID(s.names[rq.querier]), registry.UserID(s.names[rq.target])
	}

	in := wire.NewFrameCodec(discardStream{bytes.NewReader(framed(payloads))})
	var rbuf []byte
	recv, recvAllocs := w.pass("wire.recv", walkOps, func(int) { _, rbuf, _ = in.RecvBuf(rbuf) })

	envs := make([]wire.Envelope, walkOps)
	envDecode, _ := w.pass("wire.envelope_decode", walkOps, func(i int) { envs[i], _ = wire.DecodeEnvelope(payloads[i]) })

	bodyDecode, bodyAllocs := w.pass("wire.body_decode", walkOps, func(i int) {
		if reqs[i].kind == reqPath {
			var q wire.PathQuery
			_ = wire.UnmarshalBody(envs[i], &q)
			return
		}
		var q wire.Locate
		q.DecodeBody(envs[i].Body)
	})

	authorize, _ := w.pass("registry.authorize", walkOps, func(i int) {
		q, t := users(reqs[i])
		if reqs[i].kind == reqPath {
			_, _ = reg.DeviceOf(q)
		}
		_, _ = reg.Authorize(q, t)
	})

	fixes := make([]locdb.Fix, walkOps)
	locate, _ := w.pass("locdb.locate", walkOps, func(i int) {
		if reqs[i].kind == reqPath {
			_, _ = db.Locate(loadgen.UserDevice(int(reqs[i].querier)))
		}
		fixes[i], _ = db.Locate(loadgen.UserDevice(int(reqs[i].target)))
	})

	paths := 0
	pathRes := make([]wire.PathResult, walkOps)
	pathTotal, _ := w.pass("graph.path", walkOps, func(i int) {
		if reqs[i].kind != reqPath {
			return
		}
		paths++
		p, _ := bld.ShortestPath(graph.NodeID(s.cur[reqs[i].querier]), fixes[i].Piconet)
		pathRes[i] = wire.PathResult{Rooms: p.Nodes, Names: bld.PathNames(p), TotalMeters: float64(p.Total)}
	})

	// The server encodes into pooled buffers; so does this pass. The
	// send pass gets each response's bytes from an untimed copy.
	locRes := make([]wire.LocateResult, walkOps)
	for i := range locRes {
		room, _ := bld.Room(fixes[i].Piconet)
		locRes[i] = wire.LocateResult{Room: fixes[i].Piconet, RoomName: room.Name, At: fixes[i].At}
	}
	resps := make([][]byte, walkOps)
	var ebuf []byte
	encodeOne := func(i int) {
		if reqs[i].kind == reqPath {
			env, _ := wire.MarshalBody(wire.MsgPathResult, uint64(i+1), pathRes[i])
			ebuf = wire.AppendEnvelopeRaw(ebuf[:0], env)
			return
		}
		ebuf = wire.AppendEnvelopePrefix(ebuf[:0], wire.MsgLocateResult, uint64(i+1))
		ebuf = append(locRes[i].AppendTo(ebuf), '}')
	}
	for i := range resps {
		encodeOne(i)
		resps[i] = append([]byte(nil), ebuf...)
	}
	encode, encodeAllocs := w.pass("wire.encode", walkOps, encodeOne)

	out := wire.NewFrameCodecBuffered(discardStream{}, server.DefaultFlushBytes)
	send, sendAllocs := w.pass("wire.send", walkOps, func(i int) {
		_ = out.SendPayloadNoFlush(resps[i])
		if i%16 == 15 {
			_ = out.Flush()
		}
	})

	var dbuf []byte
	dispatch, dispatchAllocs := w.pass("server.dispatch", walkOps, func(i int) { dbuf = srv.DispatchBytes(envs[i], dbuf[:0]) })
	serveConn, serveConnAllocs := w.serveConnPass("server.serveconn", srv, payloads, 16)

	churn := s.sz.users - 1
	login, _ := w.pass("registry.login", 4096, func(int) {
		id := registry.UserID(s.names[churn])
		_ = reg.Logout(id)
		_ = reg.Login(id, password, loadgen.UserDevice(churn))
	})
	all, _ := w.pass("locdb.all", walkOps, func(int) { _ = db.All() })

	r.set("wire.recv_ns", recv)
	r.set("wire.envelope_decode_ns", envDecode)
	r.set("wire.body_decode_ns", bodyDecode)
	r.set("wire.encode_ns", encode)
	r.set("wire.send_ns", send)
	r.set("wire.allocs_per_op", recvAllocs+bodyAllocs+encodeAllocs+sendAllocs)
	r.set("registry.authorize_ns", authorize)
	r.set("registry.login_ns", login)
	r.set("locdb.locate_ns", locate)
	r.set("locdb.all_ns", all)
	if paths > 0 {
		r.set("graph.path_ns", pathTotal*walkOps/float64(paths))
	}
	r.set("server.dispatch_ns", dispatch)
	r.set("server.dispatch_allocs", dispatchAllocs)
	r.set("server.serveconn_ns", serveConn)
	r.set("server.serveconn_allocs", serveConnAllocs)

	// The ledger. recv already contains the envelope decode; pathTotal
	// is spread over every request, as dispatch's path share is.
	inner := bodyDecode + authorize + locate + pathTotal + encode
	r.set("ledger.query_sum_ns", recv+inner+send)
	r.set("ledger.query_dispatch_residual", (dispatch-inner)/dispatch)
	r.set("ledger.query_serveconn_residual", (serveConn-dispatch-recv-send)/serveConn)
	if sat := r.satCPUNs; sat > 0 && s.spec.deltaRate == 0 {
		r.set("ledger.query_tcp_residual", (sat-serveConn)/sat)
	}
	return nil
}

// eventCollector keeps the locdb events of each applied frame.
type eventCollector struct{ frames [][]locdb.Event }

func (c *eventCollector) OnEvent(ev locdb.Event) { c.frames = append(c.frames, []locdb.Event{ev}) }
func (c *eventCollector) OnEvents(evs []locdb.Event) {
	c.frames = append(c.frames, append([]locdb.Event(nil), evs...))
}

// reportPath walks the layers a presence.batch frame crosses. Each
// pass that mutates a store gets the next walkOps deltas of the stream,
// so every delta it applies still moves somebody.
func (w *walk) reportPath() error {
	s, r := w.s, w.r
	const frames = walkOps / frameDeltas
	// A pass here iterates over frames; a span still covers walkBatch
	// deltas.
	w.batch = walkBatch / frameDeltas

	mem, err := newMemDB()
	if err != nil {
		return err
	}
	reg, bld, err := w.graphOf(mem)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.e.tmp, "walk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func(sub string) (*storage.Durable, error) {
		d, err := storage.Open(storage.Options{Dir: dir + "/" + sub, SnapshotInterval: -1})
		if err != nil {
			return nil, err
		}
		_, _, err = w.graphOf(d)
		return d, err
	}
	durable, err := open("store")
	if err != nil {
		return err
	}
	defer durable.Close()
	srvDB, err := open("server")
	if err != nil {
		return err
	}
	defer srvDB.Close()
	srv := server.New(reg, srvDB, bld)
	defer srv.Close()
	for _, room := range s.watched {
		srv.Fanout().Subscribe(fanout.Filter{Kind: fanout.KindRoom, Room: graph.NodeID(room)}, func(fanout.Event) {})
	}

	// segment cuts the next `frames` frames off the generated stream.
	type segment struct {
		payloads [][]byte
		muts     [][]locdb.Mutation
	}
	mk := s.frameOp(func(int) int64 { return 0 })
	seq := uint64(0)
	next := func() segment {
		sg := segment{payloads: make([][]byte, frames), muts: make([][]locdb.Mutation, frames)}
		for f := range sg.payloads {
			seq++
			sg.payloads[f] = mk(f, seq, nil)
			ms := make([]locdb.Mutation, frameDeltas)
			for j, d := range s.deltaBuf {
				ms[j] = locdb.Mutation{Op: locdb.MutPresence, Dev: loadgen.UserDevice(d.user), Piconet: graph.NodeID(d.room), At: sim.Tick(d.at)}
			}
			sg.muts[f] = ms
		}
		return sg
	}
	perDelta := func(nsPerFrame float64) float64 { return nsPerFrame / frameDeltas }

	first := next()
	in := wire.NewFrameCodec(discardStream{bytes.NewReader(framed(first.payloads))})
	var rbuf []byte
	recv, _ := w.pass("wire.recv", frames, func(int) { _, rbuf, _ = in.RecvBuf(rbuf) })

	envs := make([]wire.Envelope, frames)
	for f := range envs {
		envs[f], _ = wire.DecodeEnvelope(first.payloads[f])
	}
	batches := make([]wire.PresenceBatch, frames)
	bodyDecode, _ := w.pass("wire.body_decode", frames, func(f int) { _ = wire.UnmarshalBody(envs[f], &batches[f]) })

	seedDump := mem.Dump()
	col := &eventCollector{}
	cancel := mem.SubscribeSink(col)
	memApply, _ := w.pass("locdb.apply", frames, func(f int) { mem.ApplyBatch(first.muts[f]) })
	cancel()

	second := next()
	var syncNs int64
	syncs := 0
	durApply, _ := w.pass("storage.apply", frames, func(f int) {
		durable.ApplyBatch(second.muts[f])
		if f%w.batch == w.batch-1 {
			// Timed apart and taken out of the apply figure below.
			t0 := now()
			_ = durable.Sync()
			syncNs += now() - t0
			syncs++
		}
	})
	durApply -= float64(syncNs) / frames
	t0 := now()
	if err := durable.Snapshot(); err != nil {
		return err
	}
	snapshot := now() - t0
	w.tr.add("storage.snapshot", 0, 0, t0, t0+snapshot)

	// Pipeline.Apply over a store with no sinks, with the three checks
	// the server's resolver makes, so that minus locdb.apply it is the
	// session and resolve cost alone.
	third := next()
	ingMem, err := newMemDB()
	if err != nil {
		return err
	}
	if _, _, err := w.graphOf(ingMem); err != nil {
		return err
	}
	pl := ingest.NewPipeline(ingMem, func(p wire.Presence) (locdb.Mutation, bool, error) {
		dev, err := wire.ParseAddr(p.Device)
		if err != nil {
			return locdb.Mutation{}, false, err
		}
		if _, ok := bld.Room(p.Room); !ok {
			return locdb.Mutation{}, false, building.ErrUnknownRoom
		}
		if _, err := reg.UserOf(dev); err != nil {
			return locdb.Mutation{}, false, nil
		}
		return locdb.Mutation{Op: locdb.MutPresence, Dev: dev, Piconet: p.Room, At: p.At}, true, nil
	})
	if _, err := pl.Hello(wire.IngestHello{Session: session, Station: "walk", Room: 1}); err != nil {
		return err
	}
	thirdBatches := make([]wire.PresenceBatch, frames)
	for f := range thirdBatches {
		env, _ := wire.DecodeEnvelope(third.payloads[f])
		_ = wire.UnmarshalBody(env, &thirdBatches[f])
		// The pipeline's session numbers its own frames from 1.
		thirdBatches[f].Seq = uint64(f + 1)
	}
	ingApply, _ := w.pass("ingest.apply", frames, func(f int) { _, _ = pl.Apply(thirdBatches[f]) })

	// Fan-out and analytics consume the events the first segment made.
	tree := fanout.NewWithConfig(fanout.Config{})
	var matched []fanout.Event
	for _, room := range s.watched {
		tree.Subscribe(fanout.Filter{Kind: fanout.KindRoom, Room: graph.NodeID(room)}, func(e fanout.Event) { matched = append(matched, e) })
	}
	tree.Seed(w.placement())
	events := 0
	for _, evs := range col.frames {
		events += len(evs)
	}
	publish, _ := w.pass("fanout.publish", len(col.frames), func(f int) { tree.PublishBatch(col.frames[f]) })
	tree.Flush()
	tree.Close()

	eng, err := analytics.Open(analytics.Options{Dir: dir + "/analytics", HistoryLimit: locdb.DefaultHistoryLimit, SealInterval: -1})
	if err != nil {
		return err
	}
	defer eng.Close()
	eng.Seed(seedDump)
	anApply, _ := w.pass("analytics.apply", len(col.frames), func(f int) { eng.OnEvents(col.frames[f]) })
	t0 = now()
	if err := eng.Seal(); err != nil {
		return err
	}
	seal := now() - t0
	w.tr.add("analytics.seal", 0, 0, t0, t0+seal)

	var evbuf []byte
	evEncode, _ := w.pass("wire.encode", len(matched), func(i int) {
		e := matched[i]
		user, _ := reg.UserOf(e.Device)
		room, _ := bld.Room(e.Room)
		body := wire.Event{Sub: subID(int(e.Room)), Kind: string(e.Kind), Device: wire.FormatAddr(e.Device),
			User: string(user), Room: e.Room, RoomName: room.Name, At: e.At}
		evbuf = wire.AppendEnvelope(evbuf[:0], wire.MsgEvent, 0, &body)
	})

	var ack wire.IngestAck
	ackPayload := wire.AppendEnvelope(nil, wire.MsgIngestAck, 1, &ack)
	out := wire.NewFrameCodecBuffered(discardStream{}, server.DefaultFlushBytes)
	send, _ := w.pass("wire.send", frames, func(f int) {
		_ = out.SendPayloadNoFlush(ackPayload)
		if f%4 == 3 {
			_ = out.Flush()
		}
	})

	// The enclosing calls, on the server that has every sink attached.
	hello := appendRaw(nil, wire.MsgIngestHello, 1, wire.IngestHello{Session: session, Station: "walk", Room: 1})
	helloEnv, _ := wire.DecodeEnvelope(hello)
	var dbuf []byte
	dbuf = srv.DispatchBytes(helloEnv, dbuf[:0])
	// The server's session continues the stream's frame numbers where
	// the hello found them: at 0, so renumber the fourth segment.
	renumber := func(sg segment, from uint64) [][]byte {
		out := make([][]byte, frames)
		for f := range out {
			env, _ := wire.DecodeEnvelope(sg.payloads[f])
			var b wire.PresenceBatch
			_ = wire.UnmarshalBody(env, &b)
			b.Seq = from + uint64(f) + 1
			out[f] = wire.AppendEnvelope(nil, wire.MsgPresenceBatch, env.Seq, &b)
		}
		return out
	}
	fourth := renumber(next(), 0)
	fourthEnvs := make([]wire.Envelope, frames)
	for f := range fourthEnvs {
		fourthEnvs[f], _ = wire.DecodeEnvelope(fourth[f])
	}
	dispatch, dispatchAllocs := w.pass("server.dispatch", frames, func(f int) { dbuf = srv.DispatchBytes(fourthEnvs[f], dbuf[:0]) })
	fifth := renumber(next(), frames)
	// One frame in flight: frames of a deeper pipeline are handled in
	// parallel, and wall time per frame then undercuts the CPU it cost.
	serveConn, serveConnAllocs := w.serveConnPass("server.serveconn", srv, fifth, 1)
	srv.Fanout().Flush()

	r.set("locdb.apply_ns_per_delta", perDelta(memApply))
	r.set("storage.apply_ns_per_delta", perDelta(durApply))
	if syncs > 0 {
		r.set("storage.sync_us", float64(syncNs)/float64(syncs)/1e3)
	}
	r.set("storage.snapshot_ms", float64(snapshot)/1e6)
	r.set("ingest.apply_ns_per_delta", perDelta(ingApply))
	perEvent := float64(len(col.frames)) / float64(max(events, 1))
	r.set("fanout.publish_ns_per_event", publish*perEvent)
	r.set("analytics.apply_ns_per_event", anApply*perEvent)
	r.set("analytics.seal_ms", float64(seal)/1e6)
	if s.spec.reqRate == 0 {
		// On a workload with both paths the wire.* and server.* rows
		// are the query path's; the report path's stay in the ledger.
		r.set("wire.recv_ns", recv)
		r.set("wire.body_decode_ns", perDelta(bodyDecode))
		r.set("wire.encode_ns", evEncode)
		r.set("wire.send_ns", send)
		r.set("server.dispatch_ns", dispatch)
		r.set("server.dispatch_allocs", dispatchAllocs)
		r.set("server.serveconn_ns", serveConn)
		r.set("server.serveconn_allocs", serveConnAllocs)
	}

	// The ledger, per delta. A locdb event costs the fan-out and the
	// analytics sink once each; a matched event is encoded once.
	evPerDelta := float64(events) / walkOps
	sinks := (publish*perEvent+anApply*perEvent)*evPerDelta + evEncode*float64(len(matched))/walkOps
	journal := perDelta(durApply) - perDelta(memApply)
	inner := perDelta(bodyDecode) + perDelta(ingApply) + journal + sinks
	dispatchPD, serveConnPD := perDelta(dispatch), perDelta(serveConn)
	r.set("ledger.report_sum_ns", perDelta(recv)+inner+perDelta(send))
	r.set("ledger.report_dispatch_residual", (dispatchPD-inner)/dispatchPD)
	r.set("ledger.report_serveconn_residual", (serveConnPD-dispatchPD-perDelta(recv)-perDelta(send))/serveConnPD)
	if sat := r.satCPUNs; sat > 0 && s.spec.reqRate == 0 {
		r.set("ledger.report_tcp_residual", (sat-serveConnPD)/sat)
	}
	return nil
}

// placement is the population's set-up positions as locdb fixes.
func (w *walk) placement() []locdb.Fix {
	fixes := make([]locdb.Fix, w.s.placed)
	for u := range fixes {
		fixes[u] = locdb.Fix{Device: loadgen.UserDevice(u), Piconet: graph.NodeID(w.s.cur[u]), At: sim.Tick(u + 1)}
	}
	return fixes
}

// walkDiscovery times the simulator's layers: one inquiry trial, the
// runner's scaling from one worker to all cores, and the three
// experiments a saturation job spends its time in.
func walkDiscovery(r *result, tr *tracer, sz discoverySizes, seed int64) {
	w := &walk{tr: tr, r: r, batch: walkBatch}
	rng := newRand(seed)
	trial, trialAllocs := w.pass("inquiry.trial", 4096, func(int) { inquiry.RunTrial(rng, inquiry.TrialConfig{}) })
	r.set("inquiry.trial_ns", trial)
	r.set("inquiry.trial_allocs", trialAllocs)

	ctx := context.Background()
	timed := func(name string, fn func()) float64 {
		t0 := now()
		fn()
		t1 := now()
		tr.add(name, 0, 0, t0, t1)
		return float64(t1-t0) / 1e9
	}
	nproc := runtime.NumCPU()
	one, all := runner.NewPool(runner.WithWorkers(1)), runner.NewPool(runner.WithWorkers(nproc))
	single := timed("runner.one_worker", func() { _, _ = experiments.RunTable1On(ctx, one, seed, sz.satTrials) })
	table1 := timed("experiments.table1", func() { _, _ = experiments.RunTable1On(ctx, all, seed, sz.satTrials) })
	r.set("runner.scaling", single/table1)
	r.set("experiments.table1_s", table1)
	r.set("experiments.fig2_s", timed("experiments.fig2", func() {
		_, _ = experiments.RunFig2On(ctx, all, seed, experiments.Fig2Config{Runs: sz.satRuns})
	}))
	r.set("experiments.policy_s", timed("experiments.policy", func() { _, _ = experiments.RunPolicyOn(ctx, all, seed, sz.satRuns) }))
}
