// Command ksetd is the agreement-as-a-service daemon: a long-running
// HTTP server exposing condition-based k-set agreement campaigns, sweeps
// and the paper's experiment registry as a JSON API with server-sent
// progress events.
//
// Endpoints:
//
//	POST   /v1/campaigns            submit a JobSpec (202; ?wait=1 blocks)
//	GET    /v1/campaigns            list jobs (?tenant=x filters)
//	GET    /v1/campaigns/{id}        job status and terminal results
//	DELETE /v1/campaigns/{id}        cancel a queued or running job
//	GET    /v1/campaigns/{id}/events SSE: snapshots, then stats/sweep/error
//	GET    /v1/experiments           list the registered experiments
//	POST   /v1/experiments/{id}      run one, with optional param overrides
//	POST   /v1/merge                 fold shard result uploads into one report
//	GET    /healthz                  liveness probe
//
// /v1/merge is the fold point of sharded campaigns: K processes each run
// one shard (for example `experiments -campaign -shard i/K`), upload
// their accumulators, checkpoints or stats reports, and receive the
// byte-identical stats a single process over the whole stream would have
// produced.
//
// Submissions are queued per tenant (X-Tenant header) and scheduled
// round-robin across tenants, so one tenant's backlog cannot starve
// another's. SIGINT/SIGTERM drains gracefully: new submissions get 503
// while accepted jobs run to completion (bounded by -drain-timeout).
//
// The daemon's memory is bounded: a finished job is kept as its encoded
// event log only, and only the 256 most recently finished ones are kept
// at all — an older ID answers 404 like an unknown one. Queued and
// running jobs are never forgotten.
//
// Usage:
//
//	ksetd [-addr :8344] [-active 2] [-queue 1024]
//	      [-snapshot 250ms] [-drain-timeout 30s] [-max-body 8388608]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kset/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ksetd:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until a termination signal, then drains.
func run(argv []string) error {
	fs := flag.NewFlagSet("ksetd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8344", "listen address")
		active   = fs.Int("active", 2, "max concurrently running jobs")
		queue    = fs.Int("queue", 1024, "max queued jobs per tenant")
		snapshot = fs.Duration("snapshot", 250*time.Millisecond, "SSE progress snapshot interval")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "max time to finish accepted jobs on shutdown")
		maxBody  = fs.Int64("max-body", 8<<20, "max request body bytes (oversized bodies get a structured 413)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	svc := service.NewServer(service.Config{
		MaxActive:          *active,
		MaxQueuedPerTenant: *queue,
		SnapshotInterval:   *snapshot,
		MaxBodyBytes:       *maxBody,
	})
	defer svc.Close()

	// The signal handler is installed before the listener goes live, so a
	// supervisor (or test) that sees the port up can already terminate us.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	// A daemon on an open port must bound what a slow or hostile client
	// can hold: slowloris headers (ReadHeaderTimeout), drip-fed bodies
	// (ReadTimeout), and idle keep-alive connections (IdleTimeout).
	// WriteTimeout stays unset because SSE streams legitimately run for
	// the life of a job; the stream handler clears per-connection read
	// deadlines itself.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ksetd: listening on %s\n", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ksetd: %v, draining (max %v)\n", s, *drainTO)
	}

	// Drain first — accepted jobs finish while new submissions get 503 —
	// then shut the listener down, unblocking any live SSE streams.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ksetd: drain incomplete: %v\n", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "ksetd: stopped")
	return nil
}
