package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef declares one metric. BENCHMARK.json lists the same names,
// units and directions (its schema has no room for the rest; the smoke
// test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median by which it may worsen
	what   string  // per-layer: the call it times or counts; end-to-end: its definition
	moves  string  // per-layer: the end-to-end metric and workload it should move
}

// endToEnd are the guarded metrics; every workload reports every one.
// One bound serves a metric on all four workloads, and the host that
// checks the benchmark is noisier than the one it was written on
// (README, "Spreads"), so every bound is the contract's widest. The
// 95th percentile is not among them: it could not be held, and is the
// per-layer bench.p95_us.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		what: "median of three set-ups: child start to population logged in and placed, subscriptions and session open, warm-up work done (discovery: the determinism check); excludes go build"},
	{name: "sat_ops_s", unit: "op/s", better: "higher", bound: 0.25,
		what: "saturation phase, closed loop: completions per second, ninth decile over half-second windows; op = request (query), delta (report), locate under fixed write load (mixed), trial (discovery: over jobs)"},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.25,
		what: "fixed-rate phase, open loop, Poisson arrivals: latency from due time, first decile over half-second windows of the per-window median; of responses (query, mixed), of events at the subscriber (report), of one single-worker Table 1 job (discovery)"},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25,
		what: "child user+system CPU over the fixed-rate phase divided by the operations completed in it (requests plus deltas); discovery: over the saturation jobs, per trial"},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.25,
		what: "child peak resident set (VmHWM) at the end of the fixed-rate phase, which does the same work in every run; discovery: largest over all jobs"},
}

// perLayer are the attribution metrics: no bounds, produced by the
// traced run's layer walk, by MsgStats deltas around a phase, or by the
// generator about itself. A metric that does not apply to a workload
// reads 0 there. Every per-window latency is summarised like the
// end-to-end ones: first decile over windows.
var perLayer = []metricDef{
	{name: "wire.recv_ns", unit: "ns", better: "lower", what: "FrameCodec.RecvBuf per request frame (header, payload read, envelope decode)", moves: "sat_ops_s, cpu_us_per_op @ query"},
	{name: "wire.envelope_decode_ns", unit: "ns", better: "lower", what: "DecodeEnvelope per request payload", moves: "sat_ops_s, cpu_us_per_op @ query"},
	{name: "wire.body_decode_ns", unit: "ns", better: "lower", what: "Locate.DecodeBody per request; UnmarshalBody into PresenceBatch per delta on report", moves: "cpu_us_per_op @ query, report"},
	{name: "wire.encode_ns", unit: "ns", better: "lower", what: "response envelope append (AppendEnvelopePrefix + AppendTo); Event envelope per event on report", moves: "cpu_us_per_op @ query; p50_us @ report"},
	{name: "wire.send_ns", unit: "ns", better: "lower", what: "SendPayloadNoFlush plus one Flush per 16 frames into a discarding stream", moves: "sat_ops_s @ query"},
	{name: "wire.allocs_per_op", unit: "count", better: "lower", what: "heap allocations across recv + decode + encode + send per request", moves: "cpu_us_per_op, rss_mb @ query"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower", what: "socket bytes both ways per operation, fixed-rate phase, counted by the generator", moves: "cpu_us_per_op @ all serving"},
	{name: "wire.frames_per_flush", unit: "count", better: "higher", what: "MsgStats wire.frames / wire.flushes over the fixed-rate phase", moves: "cpu_us_per_op @ query, mixed"},
	{name: "registry.authorize_ns", unit: "ns", better: "lower", what: "Registry.Authorize(querier, target)", moves: "sat_ops_s @ query; none @ report"},
	{name: "registry.login_ns", unit: "ns", better: "lower", what: "Registry.Logout + Registry.Login pair", moves: "bench.p95_us @ mixed; setup_s @ all serving"},
	{name: "locdb.locate_ns", unit: "ns", better: "lower", what: "Store.Locate", moves: "sat_ops_s @ query, mixed"},
	{name: "locdb.apply_ns_per_delta", unit: "ns", better: "lower", what: "in-memory DB.ApplyBatch of 64-delta frames, per delta", moves: "sat_ops_s @ report; sat_ops_s @ mixed when a read gain is paid by writers"},
	{name: "locdb.all_ns", unit: "ns", better: "lower", what: "Store.All on the unchanged population", moves: "setup_s @ report (fan-out seed)"},
	{name: "graph.path_ns", unit: "ns", better: "lower", what: "Building.ShortestPath + PathNames over the grid", moves: "bench.p95_us @ query"},
	{name: "storage.apply_ns_per_delta", unit: "ns", better: "lower", what: "Durable.ApplyBatch per delta; minus locdb.apply_ns_per_delta = journal cost", moves: "sat_ops_s, cpu_us_per_op @ report"},
	{name: "storage.sync_us", unit: "us", better: "lower", what: "Durable.Sync after each 1024-delta batch", moves: "none today; p50_us @ report once acks wait for the WAL"},
	{name: "storage.snapshot_ms", unit: "ms", better: "lower", what: "Durable.Snapshot at the workload's population", moves: "bench.p95_us @ report, mixed; storage.ckpt_stall_ms"},
	{name: "storage.recover_ms", unit: "ms", better: "lower", what: "storage.Open on the run's data directory after SIGTERM", moves: "setup_s after a restart"},
	{name: "storage.wal_bytes_per_delta", unit: "B", better: "lower", what: "MsgStats storage.wal_bytes delta / deltas applied, fixed-rate phase", moves: "cpu_us_per_op @ report"},
	{name: "storage.ckpt_stall_ms", unit: "ms", better: "lower", what: "median over the fixed-rate phase's checkpoints of the peak event latency within 1 s of one", moves: "bench.p95_us @ report, mixed; failed operations"},
	{name: "storage.ckpt_slow_ratio", unit: "ratio", better: "lower", what: "share of fixed-rate events later than 10 ms", moves: "bench.p95_us @ report, mixed"},
	{name: "ingest.apply_ns_per_delta", unit: "ns", better: "lower", what: "Pipeline.Apply per delta; minus locdb.apply_ns_per_delta = session and resolve cost", moves: "p50_us, sat_ops_s @ report"},
	{name: "ingest.ack_p50_us", unit: "us", better: "lower", what: "frame due to its ingest.ack read, fixed-rate phase, per-window median", moves: "unguarded: ROADMAP item 4 trades it for ack-means-durable"},
	{name: "ingest.ack_p95_us", unit: "us", better: "lower", what: "same, 95th percentile", moves: "unguarded, as above"},
	{name: "ingest.dup_frames", unit: "count", better: "lower", what: "MsgStats ingest.duplicate_frames over the run; must be 0", moves: "failed operations"},
	{name: "ingest.seq_gaps", unit: "count", better: "lower", what: "MsgStats ingest.seq_gaps over the run; must be 0", moves: "failed operations"},
	{name: "fanout.publish_ns_per_event", unit: "ns", better: "lower", what: "staged Tree.PublishBatch with the workload's 16 room subscriptions, per locdb event", moves: "p50_us, bench.p95_us @ report; sat_ops_s @ report"},
	{name: "fanout.delivered_per_published", unit: "ratio", better: "lower", what: "MsgStats fanout.delivered / fanout.published over the run", moves: "p50_us @ report"},
	{name: "fanout.events_dropped", unit: "count", better: "lower", what: "MsgStats fanout.events_dropped over the run", moves: "failed operations @ report, mixed"},
	{name: "fanout.backlog_max", unit: "count", better: "lower", what: "largest MsgStats fanout.backlog over one-per-second samples", moves: "bench.p95_us @ report, mixed"},
	{name: "analytics.apply_ns_per_event", unit: "ns", better: "lower", what: "Engine.OnEvents per locdb event", moves: "cpu_us_per_op @ report"},
	{name: "analytics.seal_ms", unit: "ms", better: "lower", what: "Engine.Seal of the walk's runs", moves: "storage.ckpt_stall_ms; bench.p95_us @ report"},
	{name: "server.dispatch_ns", unit: "ns", better: "lower", what: "Server.DispatchBytes per request (per frame on report)", moves: "sat_ops_s, cpu_us_per_op @ query, mixed"},
	{name: "server.dispatch_allocs", unit: "count", better: "lower", what: "heap allocations per DispatchBytes", moves: "cpu_us_per_op, rss_mb @ query"},
	{name: "server.serveconn_ns", unit: "ns", better: "lower", what: "ServeConn over net.Pipe, 16 in flight, per round trip", moves: "sat_ops_s, cpu_us_per_op @ query, mixed"},
	{name: "server.serveconn_allocs", unit: "count", better: "lower", what: "heap allocations per ServeConn round trip, client side included", moves: "cpu_us_per_op @ query"},
	{name: "inquiry.trial_ns", unit: "ns", better: "lower", what: "inquiry.RunTrial, Table 1 configuration", moves: "sat_ops_s, p50_us, cpu_us_per_op @ discovery only"},
	{name: "inquiry.trial_allocs", unit: "count", better: "lower", what: "heap allocations per RunTrial", moves: "cpu_us_per_op, rss_mb @ discovery"},
	{name: "runner.scaling", unit: "ratio", better: "higher", what: "Table 1 trials/s on nproc workers over trials/s on one", moves: "sat_ops_s @ discovery"},
	{name: "experiments.table1_s", unit: "s", better: "lower", what: "RunTable1On at the saturation job's size", moves: "sat_ops_s @ discovery"},
	{name: "experiments.fig2_s", unit: "s", better: "lower", what: "RunFig2On at the saturation job's size", moves: "sat_ops_s @ discovery"},
	{name: "experiments.policy_s", unit: "s", better: "lower", what: "RunPolicyOn at the saturation job's size", moves: "sat_ops_s @ discovery"},
	{name: "bench.late_ratio", unit: "ratio", better: "lower", what: "fixed-rate sends written more than 1 ms after due / sends; above 0.02 the run is invalid", moves: "validity of p50_us, bench.p95_us"},
	{name: "bench.late_p99_us", unit: "us", better: "lower", what: "99th percentile of write begin minus due", moves: "validity of p50_us"},
	{name: "bench.client_cpu_us_per_op", unit: "us", better: "lower", what: "the harness's own user+system CPU over the fixed-rate phase per operation", moves: "shares the two cores with the server: sat_ops_s"},
	{name: "bench.p95_us", unit: "us", better: "lower", what: "primary latency (the samples of p50_us), 95th percentile per window; unguarded: two sets of ten runs of one build read it 41 % and 26 % apart on mixed where the benchmark is checked", moves: "reported only"},
	{name: "bench.p99_us", unit: "us", better: "lower", what: "primary latency, 99th percentile per window; unguarded (8–12 % run-to-run)", moves: "reported only"},
	{name: "bench.p999_us", unit: "us", better: "lower", what: "same, 99.9th percentile over the whole phase", moves: "reported only"},
	{name: "bench.event_p50_us", unit: "us", better: "lower", what: "delta's frame due to its event read at the subscriber, per-window median (mixed: beside the responses)", moves: "reported only @ mixed; equals p50_us @ report"},
	{name: "bench.event_p95_us", unit: "us", better: "lower", what: "same, 95th percentile", moves: "reported only"},
	{name: "bench.event_p99_us", unit: "us", better: "lower", what: "same, 99th percentile", moves: "reported only"},
	{name: "bench.locate_p50_us", unit: "us", better: "lower", what: "locate responses only, per-window median", moves: "a fast-path-only gain shows here and in p50_us, not in bench.p95_us"},
	{name: "bench.path_p50_us", unit: "us", better: "lower", what: "path responses only, per-window median", moves: "bench.p95_us @ query"},
	{name: "bench.build_s", unit: "s", better: "lower", what: "go build of bips-server and bips-experiment", moves: "outside setup_s"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower", what: "traced p50 / untraced p50 of the same fixed-rate phase", moves: "trust in the traced numbers"},
	{name: "ledger.query_sum_ns", unit: "ns", better: "lower", what: "recv + body decode + authorize + locate + encode + send", moves: "server.dispatch_ns"},
	{name: "ledger.query_dispatch_residual", unit: "ratio", better: "lower", what: "(server.dispatch_ns − decode − authorize − locate − encode) / server.dispatch_ns", moves: "unattributed dispatch cost: counters, histogram, clock reads"},
	{name: "ledger.query_serveconn_residual", unit: "ratio", better: "lower", what: "(server.serveconn_ns − server.dispatch_ns − recv − send) / server.serveconn_ns", moves: "reader/writer hand-off, channel, goroutine switches"},
	{name: "ledger.query_tcp_residual", unit: "ratio", better: "lower", what: "(saturation CPU per request − server.serveconn_ns) / saturation CPU per request", moves: "kernel TCP, syscalls, scheduler: not this repo's code"},
	{name: "ledger.report_sum_ns", unit: "ns", better: "lower", what: "per delta: body decode + ingest apply (durable) + publish + analytics + event encode share", moves: "server.dispatch_ns @ report"},
	{name: "ledger.report_dispatch_residual", unit: "ratio", better: "lower", what: "(dispatch per delta − body decode − ingest apply over the durable store) / dispatch per delta", moves: "ack encode, counters"},
	{name: "ledger.report_serveconn_residual", unit: "ratio", better: "lower", what: "(serveconn per delta − dispatch − recv − send) / serveconn per delta", moves: "handler goroutine hand-off"},
	{name: "ledger.report_tcp_residual", unit: "ratio", better: "lower", what: "(saturation CPU per delta − serveconn per delta) / saturation CPU per delta", moves: "kernel, WAL flusher, checkpoints, fan-out delivery and pusher"},
}

// result is what one workload run produced.
type result struct {
	workload  string
	seed      int64
	values    map[string]float64    // by metric name
	quart     map[string][3]float64 // quartiles over windows (or set-ups), where there are any
	attempted int64
	failed    int64
	failures  string // per-kind counts, for people
	invalid   string // non-empty: why the run's timings should not be trusted
	// satCPUNs is the server's CPU per operation over the saturation
	// phase: what the ledger's TCP residual is measured against.
	satCPUNs float64
}

func newResult(workload string, seed int64) *result {
	return &result{
		workload: workload, seed: seed,
		values: make(map[string]float64), quart: make(map[string][3]float64),
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setW records a windowed latency, scaled into the metric's unit: the
// first decile over windows is the figure (see windowed).
func (r *result) setW(name string, w windowed, scale float64) {
	r.values[name] = w.lo * scale
	r.quart[name] = [3]float64{w.q1 * scale, w.med * scale, w.q3 * scale}
}

// setRate records a windowed rate: the ninth decile is the figure.
func (r *result) setRate(name string, w windowed) {
	r.values[name] = w.hi
	r.quart[name] = [3]float64{w.q1, w.med, w.q3}
}

func (r *result) correct() bool { return r.failed == 0 }

// driverLine renders the one JSON object the benchmark contract asks
// for as the last line of standard output.
func (r *result) driverLine(defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = mv{r.values[d.name], d.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(raw)
}

// print renders the given metrics for people: one line each, with the
// window quartiles where the metric has them.
func (r *result) print(w io.Writer, defs []metricDef, onlySet bool) {
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && onlySet {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.name, v, d.unit)
		if q, ok := r.quart[d.name]; ok {
			line += fmt.Sprintf("  [quartiles %.4f, %.4f, %.4f]", q[0], q[1], q[2])
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func (r *result) printSummary(w io.Writer) {
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14d\n  %-34s %14d   fail_ratio %.6f  (%s)\n",
		"attempted", r.attempted, "failed", r.failed, ratio, strings.TrimSpace(r.failures))
	if r.invalid != "" {
		fmt.Fprintf(w, "  INVALID: %s\n", r.invalid)
	}
}

// undeclared lists values a run produced that no table declares — a
// metric must be declared to be printed, so this is a harness bug.
func (r *result) undeclared() []string {
	known := make(map[string]bool)
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	var out []string
	for name := range r.values {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
