package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/serve"
)

// runVersion implements `tango version`: the build identity line, the same
// one /healthz and the report headers carry.
func runVersion(w io.Writer) error {
	fmt.Fprintln(w, buildinfo.String())
	return nil
}

// runServe implements `tango serve`: the long-running analysis daemon.
// SIGINT/SIGTERM trigger a graceful drain (stop admitting, answer in-flight
// requests, then exit 0); a second signal forces exit 1; an incomplete drain
// past -drain-timeout also exits 1 — the same 0/1 ends of the CLI exit-code
// scheme every other subcommand uses.
func runServe(args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(ew)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers    = fs.Int("j", 0, "concurrent analyses (default GOMAXPROCS)")
		queueDepth = fs.Int("queue", 0, "admission queue depth beyond running analyses (default 4*workers)")
		cacheSize  = fs.Int("spec-cache", 0, "compiled-spec LRU capacity (default 32)")
		budget     = fs.Int64("budget", 0, "max transition budget per request (default 5000000)")
		deadline   = fs.Duration("deadline", 0, "default per-request deadline (default 10s)")
		maxDead    = fs.Duration("max-deadline", 0, "max per-request deadline a client may ask for (default 60s)")
		stall      = fs.Duration("stall-timeout", 0, "stream stall timeout before a partial verdict (default 30s)")
		breaker    = fs.Int64("breaker", 0, "quarantine a spec after N contained panics (default 3)")
		heartbeat  = fs.Duration("heartbeat", 0, "emit a load heartbeat to stderr every interval (0 = off)")
		drainT     = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		metricsOut = fs.String("metrics-out", "", "write a final /metrics JSON snapshot to this file on shutdown")
		pprofOn    = fs.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints (exposes goroutine stacks and heap contents)")
		storeDir   = fs.String("store", "", "durable state directory: persisted specs + batch work journal (crash-only restart/handoff)")
		tenantsCfg = fs.String("tenants", "", "per-tenant admission policy JSON file (rate/burst/max_inflight/max_queue/weight)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{}
	}
	if fs.NArg() != 0 {
		return usageError{}
	}

	var store *serve.Store
	if *storeDir != "" {
		var err error
		if store, err = serve.OpenStore(*storeDir); err != nil {
			return fmt.Errorf("serve: open store: %w", err)
		}
		// Release the store lock only on the way out, after the drain: the
		// successor generation may open the store the moment we let go.
		defer store.Close()
	}
	var tenants serve.TenantConfig
	if *tenantsCfg != "" {
		var err error
		if tenants, err = serve.LoadTenantConfig(*tenantsCfg); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}

	srv := serve.New(serve.Options{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		SpecCacheSize: *cacheSize,
		Limits: serve.Limits{
			DefaultDeadline: *deadline,
			MaxDeadline:     *maxDead,
			MaxBudget:       *budget,
		},
		BreakerPanics:      *breaker,
		StreamStallTimeout: *stall,
		HeartbeatEvery:     *heartbeat,
		EnablePprof:        *pprofOn,
		Store:              store,
		Tenants:            tenants,
		Log:                ew,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stopSignals := shutdownContext(context.Background(), ew)
	defer stopSignals()

	fmt.Fprintf(ew, "tango: serving on http://%s (%s)\n", ln.Addr(), buildinfo.String())
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	select {
	case err := <-served:
		// Listener died on its own (port stolen, ...): operational error.
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admission first so every request that arrives
	// after the signal is answered 503 instead of hanging in Shutdown's
	// connection wait, then let the in-flight ones finish.
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	shutErr := httpSrv.Shutdown(dctx)
	idleErr := srv.AwaitIdle(dctx)

	if *metricsOut != "" {
		if err := writeMetricsSnapshot(srv, *metricsOut); err != nil {
			fmt.Fprintln(ew, "tango: serve: metrics snapshot:", err)
		}
	}
	if shutErr != nil || idleErr != nil {
		return fmt.Errorf("serve: drain incomplete after %s: %w", *drainT, errors.Join(shutErr, idleErr))
	}
	fmt.Fprintln(ew, "tango: serve: graceful shutdown complete")
	return nil
}

func writeMetricsSnapshot(srv *serve.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.Metrics().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
