// Command bips-sim runs a whole-building BIPS simulation: walking users
// tracked by every cell, printing a timeline of locate answers and the
// final tracking statistics. By default it deploys the academic-department
// preset; -plan runs any floor plan from a JSON file (write a template
// with bips.AcademicPlan().Save, or see bips.GridPlan/CorridorPlan).
//
//	bips-sim -users 5 -duration 5m -seed 7
//	bips-sim -plan museum.json -users 8 -duration 10m
//
// With -replicas > 1 it switches to Monte-Carlo mode: that many
// independent deployments (each with its own RNG stream derived from
// -seed and the replica index) run in parallel on a worker pool
// (-workers, default GOMAXPROCS), and the per-replica tracking accuracy —
// the fraction of timeline samples where a walking user was locatable —
// is aggregated into a mean with a 95% confidence interval. Results do
// not depend on the worker count.
//
//	bips-sim -replicas 32 -users 5 -duration 5m -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"bips"
	"bips/internal/replica"
	"bips/internal/runner"
	"bips/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bips-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w, errw io.Writer, args []string) error {
	fs := flag.NewFlagSet("bips-sim", flag.ContinueOnError)
	var (
		users    = fs.Int("users", 5, "walking users")
		duration = fs.Duration("duration", 5*time.Minute, "simulated time")
		step     = fs.Duration("step", 30*time.Second, "timeline sampling step")
		seed     = fs.Int64("seed", 7, "root random seed")
		planPath = fs.String("plan", "", "floor-plan JSON file (default: built-in academic department)")
		replicas = fs.Int("replicas", 1, "independent deployments; > 1 switches to Monte-Carlo mode")
		workers  = fs.Int("workers", 0, "worker goroutines for -replicas > 1 (default GOMAXPROCS)")
		progress = fs.Bool("progress", false, "report replica progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users < 1 {
		return fmt.Errorf("need at least one user")
	}
	if *replicas < 1 {
		return fmt.Errorf("need at least one replica")
	}
	if *step <= 0 {
		return fmt.Errorf("step must be positive")
	}
	if *duration <= 0 {
		return fmt.Errorf("duration must be positive")
	}
	var plan *bips.FloorPlan
	if *planPath != "" {
		var err error
		if plan, err = bips.LoadFloorPlan(*planPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "floor plan %q: %d rooms, %d corridors\n",
			plan.Name, len(plan.Rooms), len(plan.Corridors))
	}

	if *replicas > 1 {
		return runMonteCarlo(ctx, w, errw, mcConfig{
			users:    *users,
			duration: *duration,
			step:     *step,
			seed:     *seed,
			plan:     plan,
			replicas: *replicas,
			workers:  *workers,
			progress: *progress,
		})
	}
	return runTimeline(w, *users, *duration, *step, *seed, plan)
}

// runTimeline is the classic single-deployment mode with a printed
// room-by-room timeline. The deployment setup is the shared replica unit,
// so timeline and Monte-Carlo mode cannot drift apart.
func runTimeline(w io.Writer, users int, duration, step time.Duration, seed int64, plan *bips.FloorPlan) error {
	svc, deployed, err := replica.New(seed, replica.Config{
		Users: users, Duration: duration, Step: step, Plan: plan,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	for _, u := range deployed {
		fmt.Fprintf(w, "%s walking from %q on device %s\n", u.Name, u.Start, u.Device)
	}

	svc.Start()
	defer svc.Stop()

	fmt.Fprintf(w, "\n%-8s", "t")
	for _, u := range deployed {
		fmt.Fprintf(w, "  %-14s", u.Name)
	}
	fmt.Fprintln(w)
	querier := deployed[0].Name
	for elapsed := time.Duration(0); elapsed < duration; elapsed += step {
		svc.Run(step)
		fmt.Fprintf(w, "%-8s", svc.Now().Truncate(time.Second))
		for _, u := range deployed {
			cell := "(unseen)"
			if loc, err := svc.Locate(querier, u.Name); err == nil {
				cell = loc.RoomName
			}
			fmt.Fprintf(w, "  %-14s", cell)
		}
		fmt.Fprintln(w)
	}

	// Final pairwise navigation demo.
	if len(deployed) >= 2 {
		a, b := deployed[0].Name, deployed[1].Name
		if p, err := svc.PathTo(a, b); err == nil {
			fmt.Fprintf(w, "\n%s -> %s: %.0f m via %v\n", a, b, p.Meters, p.RoomNames)
		} else {
			fmt.Fprintf(w, "\n%s -> %s: %v\n", a, b, err)
		}
	}
	return nil
}

type mcConfig struct {
	users    int
	duration time.Duration
	step     time.Duration
	seed     int64
	plan     *bips.FloorPlan
	replicas int
	workers  int
	progress bool
}

// runMonteCarlo runs independent replica deployments on a pool and
// aggregates tracking accuracy.
func runMonteCarlo(ctx context.Context, w, errw io.Writer, cfg mcConfig) error {
	opts := []runner.Option{runner.WithWorkers(cfg.workers)}
	if cfg.progress {
		opts = append(opts, runner.WithProgress(func(done, total int) {
			fmt.Fprintf(errw, "\rreplicas %d/%d", done, total)
			if done == total {
				fmt.Fprintln(errw)
			}
		}))
	}
	pool := runner.NewPool(opts...)

	var acc stats.Summary
	err := runner.Run(ctx, pool, cfg.seed, cfg.replicas,
		func(i int, rng *rand.Rand) (replica.Result, error) {
			// Each replica's Service gets its own derived seed; the
			// pool-provided stream is the canonical source so replica i
			// is identical no matter which worker runs it.
			return replica.Run(rng.Int63(), replica.Config{
				Users:    cfg.users,
				Duration: cfg.duration,
				Step:     cfg.step,
				Plan:     cfg.plan,
			})
		},
		func(i int, r replica.Result) error {
			if r.Samples > 0 {
				acc.Add(r.Fraction())
			}
			return nil
		})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Monte-Carlo: %d replicas x %d users x %s (step %s)\n",
		cfg.replicas, cfg.users, cfg.duration, cfg.step)
	tb := stats.NewTable("Quantity", "Value")
	tb.AddRow("Tracking accuracy (mean)", fmt.Sprintf("%.1f%%", acc.Mean()*100))
	tb.AddRow("95% CI", fmt.Sprintf("±%.1f%%", acc.CI95()*100))
	tb.AddRow("Worst replica", fmt.Sprintf("%.1f%%", acc.Min()*100))
	tb.AddRow("Best replica", fmt.Sprintf("%.1f%%", acc.Max()*100))
	_, werr := io.WriteString(w, tb.String())
	return werr
}
