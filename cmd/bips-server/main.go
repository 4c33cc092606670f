// Command bips-server runs the BIPS central server over TCP: the user
// registry, the location database and the navigation service. By default
// it serves the built-in academic-department building; -plan loads any
// floor plan from a JSON file (see bips.FloorPlan, and
// bips.AcademicPlan().Save to write a template to edit).
//
//	bips-server -listen :7700 -user alice:secret -user bob:secret
//	bips-server -plan museum.json -user guide:secret
//	bips-server -shards 32 -inflight 128 -loadgen-users 16
//	bips-server -data-dir /var/lib/bips -snapshot-interval 30s
//
// Workstations (bips-station) stream presence deltas over ingest
// sessions; clients (bips-query) log users in and ask locate/path/rooms
// queries — plus the historical at/trajectory queries — over the framed
// wire protocol (docs/PROTOCOL.md).
//
// -data-dir makes the location database durable: presence deltas are
// written through to an append-only WAL with periodic snapshots
// (-snapshot-interval), and a restarted server recovers the full
// presence state and movement history from the directory (the recipe is
// in docs/OPERATIONS.md). Without it the database lives in memory and a
// restart starts empty. -history-limit bounds the per-device history
// backing the at/trajectory queries (0 disables them).
//
// The history analytics queries (contacts/occupancy/dwell, PROTOCOL.md
// §10) are always served; with -data-dir their sealed segments live
// under <data-dir>/analytics and survive restarts. -analytics-seal sets
// the compaction period and -analytics-retention bounds how far back
// (in simulated time) the analytics history reaches; see
// docs/OPERATIONS.md §9 for tuning.
//
// -shards splits the location database into independently locked shards
// (default 16); -inflight bounds concurrently executing requests per
// connection; -loadgen-users N registers the synthetic users user0..N-1
// with password "loadgen" that the benchmark harness (bench/) logs in
// and moves around. Clients may also subscribe to push notifications
// (PROTOCOL.md §9): -event-buffer, -drop-limit and -max-subs bound what
// one subscriber connection may cost the server, and -pprof serves
// net/http/pprof on a side address so fan-out contention is
// profileable under load. -flush-bytes bounds how much a connection
// writer may stage before forcing a flush — the flush-coalescing knob;
// its effect shows up in the wire.flushes / wire.frames_per_flush
// counters of the stats output. Tuning guidance lives in
// docs/OPERATIONS.md.
//
// On SIGINT/SIGTERM the server stops accepting, drains connections and —
// when running with -data-dir — flushes the WAL and writes a final
// checkpoint before exiting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux for -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bips"
	"bips/internal/analytics"
	"bips/internal/building"
	"bips/internal/loadgen"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/storage"
)

type userList []string

func (u *userList) String() string { return strings.Join(*u, ",") }

func (u *userList) Set(v string) error {
	if !strings.Contains(v, ":") {
		return fmt.Errorf("want user:password, got %q", v)
	}
	*u = append(*u, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("bips-server: ", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bips-server", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7700", "TCP listen address")
	planPath := fs.String("plan", "", "floor-plan JSON file (default: built-in academic department)")
	shards := fs.Int("shards", locdb.DefaultShards, "location-database shard count")
	inflight := fs.Int("inflight", server.DefaultMaxInFlight, "max concurrently executing requests per connection")
	loadgenUsers := fs.Int("loadgen-users", 0, `register N synthetic users user0..userN-1 (password "loadgen") for the benchmark harness (bench/)`)
	dataDir := fs.String("data-dir", "", "durable storage directory (empty: in-memory only, state is lost on restart)")
	snapInterval := fs.Duration("snapshot-interval", storage.DefaultSnapshotInterval, "checkpoint period for -data-dir")
	historyLimit := fs.Int("history-limit", locdb.DefaultHistoryLimit, "per-device movement-history bound (0 disables at/trajectory queries)")
	walFlush := fs.Duration("wal-flush", storage.DefaultFlushInterval, "WAL group-commit interval for -data-dir (the crash-loss window)")
	analyticsSeal := fs.Duration("analytics-seal", 0, "analytics segment-seal period (0: the 30s default; negative: seal only at shutdown)")
	analyticsRetention := fs.Duration("analytics-retention", 0, "analytics history retention in simulated time (0: keep everything)")
	eventBuffer := fs.Int("event-buffer", server.DefaultEventBuffer, "per-connection push-event buffer (queued events before drops)")
	dropLimit := fs.Int("drop-limit", server.DefaultDropLimit, "dropped events before a subscriber is disconnected as a slow consumer")
	maxSubs := fs.Int("max-subs", server.DefaultMaxSubsPerConn, "max subscriptions per connection")
	flushBytes := fs.Int("flush-bytes", server.DefaultFlushBytes, "max bytes a connection writer stages before forcing a flush (lower bounds latency, higher amortizes more frames per write)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (for scripts using :0)")
	var users userList
	fs.Var(&users, "user", "register user:password (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The profiling endpoint comes up before anything else so a hung
	// startup (WAL recovery, say) is itself profileable.
	if *pprofAddr != "" {
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		defer pl.Close()
		go func() {
			// The net/http/pprof blank import registers its handlers on
			// http.DefaultServeMux.
			if err := http.Serve(pl, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("pprof: %v", err)
			}
		}()
		log.Printf("pprof listening on http://%s/debug/pprof/", pl.Addr())
	}

	bld, err := loadBuilding(*planPath)
	if err != nil {
		return err
	}
	reg := registry.New()
	for _, u := range users {
		parts := strings.SplitN(u, ":", 2)
		if err := reg.Register(registry.UserID(parts[0]), parts[0], parts[1],
			registry.RightLocate, registry.RightTrackable); err != nil {
			return err
		}
		log.Printf("registered user %q", parts[0])
	}
	for i := 0; i < *loadgenUsers; i++ {
		name := loadgen.UserName(i)
		if err := reg.Register(registry.UserID(name), name, "loadgen",
			registry.RightLocate, registry.RightTrackable); err != nil {
			return err
		}
	}
	if *loadgenUsers > 0 {
		log.Printf("registered %d loadgen users", *loadgenUsers)
	}

	db, closeStore, err := openStore(*dataDir, *shards, *historyLimit, *snapInterval, *walFlush)
	if err != nil {
		return err
	}
	srvOpts := []server.Option{
		server.WithMaxInFlight(*inflight),
		server.WithEventBuffer(*eventBuffer),
		server.WithDropLimit(*dropLimit),
		server.WithMaxSubsPerConn(*maxSubs),
		server.WithFlushBytes(*flushBytes),
	}
	eng, err := openAnalytics(*dataDir, *historyLimit, *analyticsSeal, *analyticsRetention)
	if err != nil {
		closeStore()
		return err
	}
	if eng != nil {
		srvOpts = append(srvOpts, server.WithAnalytics(eng))
	}
	srv := server.New(reg, db, bld, srvOpts...)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	log.Printf("BIPS central server listening on %s (%d rooms, %d locdb shards, %d in-flight/conn)",
		l.Addr(), bld.NumRooms(), db.NumShards(), srv.MaxInFlight())

	// Graceful shutdown: stop serving first, then checkpoint the store.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, shutting down", s)
		if err := srv.Close(); err != nil {
			log.Printf("server close: %v", err)
		}
	}()

	serveErr := srv.Serve(l)
	if err := closeStore(); err != nil {
		log.Printf("storage close: %v", err)
		if serveErr == nil {
			serveErr = err
		}
	}
	if eng != nil {
		if err := eng.Close(); err != nil {
			log.Printf("analytics close: %v", err)
			if serveErr == nil {
				serveErr = err
			}
		}
	}
	return serveErr
}

// openAnalytics builds the history analytics engine when the deployment
// is durable or asks for a non-default seal/retention policy; segments
// then live under <data-dir>/analytics beside the WAL. Otherwise it
// returns nil and the server runs its own memory-only engine.
func openAnalytics(dataDir string, historyLimit int, seal, retention time.Duration) (*analytics.Engine, error) {
	if dataDir == "" && seal == 0 && retention == 0 {
		return nil, nil
	}
	opts := analytics.Options{
		HistoryLimit: historyLimit,
		SealInterval: seal,
		Retain:       sim.FromDuration(retention),
	}
	if dataDir != "" {
		opts.Dir = filepath.Join(dataDir, "analytics")
	}
	eng, err := analytics.Open(opts)
	if err != nil {
		return nil, err
	}
	if opts.Dir != "" {
		log.Printf("analytics engine %s: %d segments (%d sealed runs) recovered",
			opts.Dir, eng.Stats()["segments"], eng.Stats()["sealed_runs"])
	}
	return eng, nil
}

// openStore builds the location backend: durable when dataDir is set,
// in-memory otherwise. The returned closer flushes and checkpoints the
// durable backend (a no-op for the memory one).
func openStore(dataDir string, shards, historyLimit int, snapInterval, walFlush time.Duration) (locdb.Store, func() error, error) {
	if dataDir == "" {
		if historyLimit < 0 {
			historyLimit = 0
		}
		db, err := locdb.NewSharded(shards, historyLimit)
		if err != nil {
			return nil, nil, err
		}
		return db, db.Close, nil
	}
	if historyLimit == 0 {
		historyLimit = -1 // storage.Options: negative disables
	}
	st, err := storage.Open(storage.Options{
		Dir:              dataDir,
		Shards:           shards,
		HistoryLimit:     historyLimit,
		SnapshotInterval: snapInterval,
		FlushInterval:    walFlush,
	})
	if err != nil {
		return nil, nil, err
	}
	stats := st.StorageStats()
	log.Printf("durable store %s: recovered %d devices from snapshot, replayed %d WAL records",
		dataDir, stats["restored_devices"], stats["replayed_records"])
	return st, st.Close, nil
}

// loadBuilding compiles the -plan file, or falls back to the built-in
// academic-department preset.
func loadBuilding(path string) (*building.Building, error) {
	if path == "" {
		return building.AcademicDepartment()
	}
	plan, err := bips.LoadFloorPlan(path)
	if err != nil {
		return nil, err
	}
	bld, err := plan.Compile()
	if err != nil {
		return nil, err
	}
	log.Printf("loaded floor plan %q from %s (%d rooms)", plan.Name, path, bld.NumRooms())
	return bld, nil
}
