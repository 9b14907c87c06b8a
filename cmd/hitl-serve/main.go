// Command hitl-serve exposes the hitl library as a JSON HTTP API.
//
// Usage:
//
//	hitl-serve [-addr :8080] [-drain 15s] [-readiness-grace 2s] [-pprof addr]
//	           [-max-inflight N] [-max-queue N] [-queue-timeout 2s]
//	           [-compute-timeout 60s] [-allow-faults]
//	           [-store-dir DIR] [-job-workers N] [-job-timeout 10m]
//	           [-workers URL,URL,...] [-workers-file FILE]
//	           [-shard-timeout 60s] [-shard-attempts 4] [-probe-interval 5s]
//
// -pprof exposes net/http/pprof on a separate listener (e.g. -pprof
// localhost:6060) so profiling never shares the public address; it is off
// by default.
//
// Endpoints: GET /v1/healthz, /v1/metrics, /v1/components, /v1/patterns,
// /v1/experiments; POST /v1/analyze, /v1/process, /v1/recommend,
// /v1/experiments/run; async jobs under /v1/jobs. See internal/server for
// payload shapes.
//
// -store-dir roots the persistent content-addressed result store for the
// async job API: completed job results land there keyed by the spec's
// canonical digest, survive restarts, and are served with strong ETags
// (If-None-Match answers 304). Without it, jobs still run but results are
// memory-only. During graceful shutdown, accepted jobs get the drain
// window to finish and persist before the process exits.
//
// Overload protection: at most -max-inflight compute requests execute
// concurrently; up to -max-queue more wait, each at most -queue-timeout,
// and everything beyond that is shed with 429 + Retry-After. Admitted
// requests get -compute-timeout of compute before a 503. -allow-faults
// enables the ?faults= chaos-drill parameter on compute runs (keep it
// off on anything public).
//
// Cluster mode: -workers (comma-separated URLs) or -workers-file (one URL
// per line, # comments) gives the server a worker pool; POST
// /v1/cluster/run then shards scenario runs across the pool with
// health-aware placement, per-shard retry, and failover, merging shard
// aggregates into a result bit-identical to a single-node run. Every
// hitl-serve is a shard worker (POST /v1/cluster/shard) whether or not it
// coordinates. -shard-timeout, -shard-attempts, and -probe-interval tune
// the coordinator's robustness machinery.
//
// The process shuts down gracefully on SIGINT/SIGTERM: /v1/healthz flips
// to 503 "draining" immediately so load balancers stop routing, the
// process keeps serving for -readiness-grace to let them notice, then it
// stops accepting connections and lets in-flight requests drain for up to
// -drain before exiting. Requests whose clients disconnect are cancelled
// mid-run via their request context and surface as HTTP 499 in the access
// log and /v1/metrics.
//
// Example:
//
//	hitl-serve &
//	hitl-analyze -example | curl -s -X POST --data-binary @- localhost:8080/v1/analyze
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/server"
	"hitl/internal/telemetry"
)

// workerPool merges the -workers list and the -workers-file contents into
// one worker URL list. The file format is one base URL per line; blank
// lines and #-comments are ignored.
func workerPool(flagList, file string) ([]string, error) {
	var pool []string
	for _, w := range strings.Split(flagList, ",") {
		if w = strings.TrimSpace(w); w != "" {
			pool = append(pool, w)
		}
	}
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("reading -workers-file: %w", err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if line = strings.TrimSpace(line); line != "" {
				pool = append(pool, line)
			}
		}
	}
	return pool, nil
}

// serve runs srv on ln until ctx is cancelled, then shuts it down
// gracefully: onDrain (if non-nil) runs first — flipping readiness so load
// balancers stop routing — the accept loop keeps serving for grace to let
// them notice, and in-flight requests then get up to drain to complete.
// It returns nil on a clean drain and the shutdown error otherwise.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drain, grace time.Duration, onDrain func()) error {
	// On cancellation only the accept loop stops immediately; in-flight
	// requests keep their own lifetimes so they can finish (or be client-
	// cancelled) inside the drain window.
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	if onDrain != nil {
		onDrain()
	}
	if grace > 0 {
		// Readiness grace: the server still accepts and answers (healthz
		// now reports 503 draining) so load balancers can pull it from
		// rotation before connections start being refused.
		select {
		case err := <-errc:
			return err
		case <-time.After(grace):
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain deadline exceeded: force-close lingering connections.
		_ = srv.Close()
		return err
	}
	return <-errc
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
	grace := flag.Duration("readiness-grace", 2*time.Second,
		"how long to keep serving (healthz reporting 503 draining) before shutdown, so load balancers stop routing")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	maxInFlight := flag.Int("max-inflight", 0,
		"max concurrently executing compute requests (0 = 2x GOMAXPROCS, negative = unlimited)")
	maxQueue := flag.Int("max-queue", 0,
		"max compute requests waiting for a slot (0 = 4x max-inflight, negative = no queue)")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second,
		"max time a compute request may wait for a slot before a 429 shed")
	computeTimeout := flag.Duration("compute-timeout", 60*time.Second,
		"per-request compute deadline (503 on expiry; negative = unlimited)")
	allowFaults := flag.Bool("allow-faults", false,
		"enable the ?faults= chaos-drill parameter on compute runs")
	storeDir := flag.String("store-dir", "",
		"persistent content-addressed result store for async jobs (empty = memory-only)")
	jobWorkers := flag.Int("job-workers", 0,
		"max concurrently executing async jobs (0 = default 2)")
	jobTimeout := flag.Duration("job-timeout", 0,
		"per-job compute deadline (0 = default 10m, negative = unlimited)")
	workers := flag.String("workers", "",
		"comma-separated worker base URLs; enables the cluster coordinator (POST /v1/cluster/run)")
	workersFile := flag.String("workers-file", "",
		"file of worker base URLs, one per line (# comments); merged with -workers")
	shardTimeout := flag.Duration("shard-timeout", 0,
		"cluster: per-shard attempt deadline (0 = default 60s)")
	shardAttempts := flag.Int("shard-attempts", 0,
		"cluster: per-shard attempt budget across retries and failovers (0 = default 4)")
	probeInterval := flag.Duration("probe-interval", 0,
		"cluster: worker health-probe period (0 = default 5s, negative = off)")
	flag.Parse()

	pool, err := workerPool(*workers, *workersFile)
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		// The pprof listener is deliberately separate from the API listener
		// and from its graceful shutdown: it dies with the process.
		go func() {
			log.Printf("hitl-serve pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("hitl-serve pprof: %v", err)
			}
		}()
	}

	api := server.New(server.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		ComputeTimeout: *computeTimeout,
		AllowFaults:    *allowFaults,
		StoreDir:       *storeDir,
		JobWorkers:     *jobWorkers,
		JobTimeout:     *jobTimeout,
		Cluster: cluster.Config{
			Workers:       pool,
			ShardTimeout:  *shardTimeout,
			MaxAttempts:   *shardAttempts,
			ProbeInterval: *probeInterval,
		},
	})
	defer api.Close()
	srv := &http.Server{
		Handler:           api,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      120 * time.Second, // experiment runs can take a while
		IdleTimeout:       60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("hitl-serve listening on %s", ln.Addr())
	onDrain := func() {
		log.Printf("hitl-serve draining: healthz now 503, shutdown in %s", *grace)
		api.SetDraining()
	}
	if err := serve(ctx, srv, ln, *drain, *grace, onDrain); err != nil {
		log.Fatal(err)
	}
	// HTTP is drained; async jobs accepted before the drain began may still
	// be computing. Give them the same drain window to finish and persist,
	// so every 202 the API returned is honored by the store.
	jobCtx, cancelJobs := context.WithTimeout(context.Background(), *drain)
	defer cancelJobs()
	if err := api.WaitJobs(jobCtx); err != nil {
		log.Printf("hitl-serve: jobs still running at drain deadline: %v", err)
	}
	// Dump the flight recorder last: if this shutdown is part of an incident,
	// the final log carries the recent wide events needed to reconstruct it.
	if dump := telemetry.FlightDump(); dump != "" {
		log.Printf("hitl-serve flight recorder:\n%s", dump)
	}
	log.Printf("hitl-serve drained; bye")
}
