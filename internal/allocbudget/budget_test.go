package allocbudget

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/fanout"
	"bips/internal/graph"
	"bips/internal/inquiry"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/wire"
)

// budgets is THE allocation table: every hot-path ceiling in one place,
// asserted by the subtests below. The numbers are the measured steady
// state of the pooled-buffer serving path (see docs/OPERATIONS.md §4),
// not aspirations — raise one only with a benchmark run in hand
// explaining where the new allocations come from.
var budgets = map[string]float64{
	// DispatchBytes for a MsgLocate: fast body decode, registry
	// authorization, sharded lookup, append-encode into the caller's
	// buffer. The remaining allocations are the two result strings
	// (device address, room name) and error-path-free interface
	// plumbing in the registry.
	"dispatch_locate": 4,
	// Full client round trip over net.Pipe through ServeConn's inline
	// reader path: pooled receive buffer on each side, pooled response
	// buffer, pooled completion channel — what is left is the pending-
	// map entry and the result decode.
	"serve_conn_round_trip": 9,
	// One locdb.ApplyBatch call with a reused 64-mutation frame: the
	// per-shard group headers amortize, history ring entries reuse
	// their storage in steady state.
	"locdb_apply_batch": 4,
	// One ingest frame (64 deltas) through Pipeline.Apply: batch
	// validation, mutation build, ApplyBatch, ack.
	"ingest_apply": 8,
	// DispatchBytes of a canonical 64-delta presence.batch frame in
	// which every delta moves a randomly chosen device (the benchmark's
	// report traffic). The body decodes into a pooled batch without
	// reflection; what is left is one string per delta (the device) and
	// one for the session, the ack's boxing in AppendEnvelope, and
	// ingest_apply's: Pipeline.Apply's mutation slice and the amortised
	// growth of the histories (histdb, the analytics sink) that every
	// room change appends to.
	"dispatch_presence_batch": 72,
	// One presence change reported as a one-delta ingest frame (the
	// in-process deployment's write path), pushed through locdb notify,
	// the fan-out tree, the connection writer (pooled pre-encoded
	// frame), and received by a raw frame codec into a reused buffer.
	"fanout_event_push": 8,
	// One 64-event ApplyBatch frame through the staged fan-out tree's
	// batch sink — counting-sort regroup from pooled scratch, per-shard
	// matching, ring enqueue, delivery-goroutine drain (AllocsPerRun
	// counts every goroutine's mallocs). Steady state is fully pooled.
	"fanout_publish_batch": 0,
	// Full snapshot of a quiescent database: version-vector check and
	// a shared cached slice. Anything above zero means the cache
	// stopped being a cache.
	"locdb_all_unchanged": 0,
	// One Table 1 discovery trial (inquiry.RunTrial, default config)
	// drawing from a shared stream. Kernel events are recycled and the
	// master re-arms its transmit slot through a stored method value, so
	// what is left is set-up: the kernel with its random source, event
	// heap and free list, the master with its discovered map, response
	// bucket and two event method values, the slave, and the bookkeeping
	// of the one response.
	"inquiry_trial": 22,
}

const pw = "pw"

// check measures op and asserts its table ceiling. Under -race the
// path is exercised (the aliasing coverage is the point there) but the
// number is only logged: detector bookkeeping allocates.
func check(t *testing.T, name string, runs int, op func()) {
	t.Helper()
	ceiling, ok := budgets[name]
	if !ok {
		t.Fatalf("no budget table entry for %q", name)
	}
	got := testing.AllocsPerRun(runs, op)
	if raceEnabled {
		t.Logf("%s: %.2f allocs/op (race build, budget %.0f not asserted)", name, got, ceiling)
		return
	}
	if got > ceiling {
		t.Errorf("%s: %.2f allocs/op exceeds budget %.0f", name, got, ceiling)
	} else {
		t.Logf("%s: %.2f allocs/op (budget %.0f)", name, got, ceiling)
	}
}

// newHotServer builds a server with devs logged-in users (w0..wN, each
// on its own device) ready for the hot-path fixtures.
func newHotServer(t testing.TB, devs int) *server.Server {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	db, err := locdb.NewSharded(locdb.DefaultShards, locdb.DefaultHistoryLimit)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(reg, db, bld)
	s.Logf = nil
	for i := 0; i < devs; i++ {
		name := fmt.Sprintf("w%d", i)
		if err := reg.Register(registry.UserID(name), name, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
		if err := s.Login(wire.Login{User: name, Password: pw, Device: dev(i).String()}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func dev(i int) baseband.BDAddr {
	return baseband.BDAddr(0xA110_0000_0000 + uint64(i+1))
}

func TestDispatchLocateBudget(t *testing.T) {
	s := newHotServer(t, 2)
	s.DB().ApplyBatch([]locdb.Mutation{{Op: locdb.MutPresence, Dev: dev(1), Piconet: 6, At: 1}})
	env, err := wire.MarshalBody(wire.MsgLocate, 1, wire.Locate{Querier: "w0", Target: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	check(t, "dispatch_locate", 200, func() {
		buf = s.DispatchBytes(env, buf[:0])
		if len(buf) == 0 {
			t.Fatal("empty response")
		}
	})
}

func TestServeConnRoundTripBudget(t *testing.T) {
	s := newHotServer(t, 2)
	s.DB().ApplyBatch([]locdb.Mutation{{Op: locdb.MutPresence, Dev: dev(1), Piconet: 6, At: 1}})
	cliConn, srvConn := net.Pipe()
	go s.ServeConn(srvConn)
	client := wire.NewClient(wire.NewFrameCodec(cliConn))
	defer client.Close()

	req := wire.Locate{Querier: "w0", Target: "w1"}
	var res wire.LocateResult
	check(t, "serve_conn_round_trip", 200, func() {
		if err := client.Call(wire.MsgLocate, &req, &res); err != nil {
			t.Fatal(err)
		}
	})
}

func TestApplyBatchBudget(t *testing.T) {
	db, err := locdb.NewSharded(locdb.DefaultShards, locdb.DefaultHistoryLimit)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const frame = 64
	muts := make([]locdb.Mutation, frame)
	tick := sim.Tick(0)
	check(t, "locdb_apply_batch", 200, func() {
		tick++
		for i := range muts {
			muts[i] = locdb.Mutation{
				Op:      locdb.MutPresence,
				Dev:     dev(i),
				Piconet: graph.NodeID(int(tick) % 8),
				At:      tick,
			}
		}
		db.ApplyBatch(muts)
	})
}

func TestIngestApplyBudget(t *testing.T) {
	s := newHotServer(t, 64)
	pl := s.Ingest()
	if _, err := pl.Hello(wire.IngestHello{Session: "budget", Station: "S", Room: 1}); err != nil {
		t.Fatal(err)
	}
	const frame = 64
	addrs := make([]string, frame)
	for i := range addrs {
		addrs[i] = dev(i).String()
	}
	deltas := make([]wire.Presence, frame)
	seq := uint64(0)
	tick := sim.Tick(0)
	check(t, "ingest_apply", 200, func() {
		seq++
		tick++
		for i := range deltas {
			deltas[i] = wire.Presence{
				Device:  addrs[i],
				Room:    graph.NodeID(1 + int(tick)%7),
				At:      tick,
				Present: true,
			}
		}
		if _, err := pl.Apply(wire.PresenceBatch{Session: "budget", Seq: seq, Deltas: deltas}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDispatchPresenceBatchBudget(t *testing.T) {
	s := newHotServer(t, 64)
	if _, err := s.Ingest().Hello(wire.IngestHello{Session: "budget", Station: "S", Room: 1}); err != nil {
		t.Fatal(err)
	}
	devices := make([]string, 64)
	for i := range devices {
		devices[i] = dev(i).String()
	}
	// Like the benchmark's report frames, every delta moves a uniformly
	// chosen device to another room, so no device keeps its position
	// from frame to frame.
	rng := rand.New(rand.NewSource(1))
	room := make([]int, len(devices))
	batch := wire.PresenceBatch{Session: "budget", Deltas: make([]wire.Presence, 64)}
	var payload, buf []byte
	check(t, "dispatch_presence_batch", 200, func() {
		batch.Seq++
		for i := range batch.Deltas {
			d := rng.Intn(len(devices))
			room[d] = 1 + (room[d]+rng.Intn(6))%7
			batch.Deltas[i] = wire.Presence{Device: devices[d], Room: graph.NodeID(room[d]),
				At: sim.Tick(batch.Seq), Present: true}
		}
		payload = wire.AppendEnvelope(payload[:0], wire.MsgPresenceBatch, batch.Seq, &batch)
		env, err := wire.DecodeEnvelope(payload)
		if err != nil {
			t.Fatal(err)
		}
		buf = s.DispatchBytes(env, buf[:0])
		var ack wire.IngestAck
		if ackEnv, err := wire.DecodeEnvelope(buf); err != nil || ackEnv.Type != wire.MsgIngestAck ||
			!ack.DecodeBody(ackEnv.Body) || ack.Acked != batch.Seq || ack.Applied != len(batch.Deltas) {
			t.Fatalf("ack = %s, %v", buf, err)
		}
	})
}

func TestFanoutEventPushBudget(t *testing.T) {
	s := newHotServer(t, 2)
	s.DB().ApplyBatch([]locdb.Mutation{{Op: locdb.MutPresence, Dev: dev(1), Piconet: 6, At: 1}})
	cliConn, srvConn := net.Pipe()
	go s.ServeConn(srvConn)
	codec := wire.NewFrameCodec(cliConn)
	defer codec.Close()

	sub, err := wire.MarshalBody(wire.MsgSubscribe, 1, wire.Subscribe{
		ID: "track", Querier: "w0",
		Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "w1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Send(sub); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	ack, buf, err := codec.RecvBuf(buf)
	if err != nil || ack.Type != wire.MsgOK {
		t.Fatalf("subscribe ack = %+v, %v", ack, err)
	}

	// Deltas arrive the way the in-process deployment reports them: a
	// one-delta frame on a workstation's ingest session.
	pl := s.Ingest()
	if _, err := pl.Hello(wire.IngestHello{Session: "ws", Station: "S", Room: 6}); err != nil {
		t.Fatal(err)
	}
	frame := []wire.Presence{{Device: dev(1).String(), Room: 6}}
	seq := uint64(0)
	tick := sim.Tick(1)
	present := false
	check(t, "fanout_event_push", 200, func() {
		seq++
		tick++
		// Alternate leave/enter: exactly one event per mutation.
		frame[0].At, frame[0].Present = tick, present
		if ack, err := pl.Apply(wire.PresenceBatch{Session: "ws", Seq: seq, Deltas: frame}); err != nil || ack.Applied != 1 {
			t.Fatalf("report: ack %+v, %v", ack, err)
		}
		present = !present
		var env wire.Envelope
		env, buf, err = codec.RecvBuf(buf)
		if err != nil || env.Type != wire.MsgEvent {
			t.Fatalf("push = %+v, %v", env, err)
		}
	})
}

func TestFanoutPublishBatchBudget(t *testing.T) {
	const (
		frame = 64
		devs  = 128
		rooms = 8
	)
	tree := fanout.NewWithConfig(fanout.Config{})
	defer tree.Close()
	var delivered atomic.Int64
	cb := func(fanout.Event) { delivered.Add(1) }
	tree.Subscribe(fanout.Filter{Kind: fanout.KindAll}, cb)
	tree.Subscribe(fanout.Filter{Kind: fanout.KindDevice, Device: dev(3)}, cb)
	tree.Subscribe(fanout.Filter{Kind: fanout.KindRoom, Room: 5}, cb)

	evs := make([]locdb.Event, frame)
	round := 0
	fill := func() {
		round++
		for i := range evs {
			evs[i] = locdb.Event{
				Fix: locdb.Fix{
					Device: dev((round*frame + i) % devs),
					// Consecutive rounds always differ mod rooms, so every
					// event is a real room change (enter + handover leave).
					Piconet: graph.NodeID(1 + (round+i)%rooms),
					At:      sim.Tick(round),
				},
				Present: true,
			}
		}
	}
	// Warm the device→room view and the scratch/ring pools.
	fill()
	tree.PublishBatch(evs)
	tree.Flush()

	check(t, "fanout_publish_batch", 200, func() {
		fill()
		tree.PublishBatch(evs)
		// Flush inside the op: the delivery goroutine's work is part of
		// the budget, and the barrier keeps the backlog from growing
		// across runs.
		tree.Flush()
	})
	if delivered.Load() == 0 {
		t.Fatal("no deliveries")
	}
}

func TestSnapshotBudgets(t *testing.T) {
	db, err := locdb.NewSharded(locdb.DefaultShards, locdb.DefaultHistoryLimit)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	muts := make([]locdb.Mutation, 512)
	for i := range muts {
		muts[i] = locdb.Mutation{Op: locdb.MutPresence, Dev: dev(i), Piconet: graph.NodeID(i % 8), At: 1}
	}
	db.ApplyBatch(muts)
	if got := len(db.All()); got != 512 {
		t.Fatalf("All returned %d fixes", got)
	}
	check(t, "locdb_all_unchanged", 500, func() {
		if len(db.All()) != 512 {
			t.Fatal("snapshot shrank")
		}
	})
}

func TestInquiryTrialBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check(t, "inquiry_trial", 200, func() {
		inquiry.RunTrial(rng, inquiry.TrialConfig{})
	})
}
