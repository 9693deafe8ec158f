// Command samd is the simulation-as-a-service daemon: it accepts
// simulation, sweep, and reliability-campaign jobs over HTTP/JSON from
// many concurrent clients and multiplexes them onto one bounded worker
// pool with per-tenant quotas, priority classes, and content-addressed
// dedup — an identical design × config × seed submitted by any number of
// tenants runs exactly once, and results are byte-identical to the batch
// CLIs (samfig, samsim) for any client count and arrival order.
//
//	samd -listen 127.0.0.1:8315 -workers 4 &
//	curl -s -X POST localhost:8315/jobs -d '{"kind":"figure","tenant":"ci","figure":{"id":"fig12"}}'
//	curl -s localhost:8315/jobs/j-000001          # poll state / ETA
//	curl -s localhost:8315/jobs/j-000001/result   # the fig12 table
//
// The telemetry plane (/metrics, /progress, /healthz, /debug/pprof) is
// served on the same listener. On SIGTERM/SIGINT the daemon drains:
// submissions get 503, in-flight jobs finish (or are canceled once
// -drain-grace expires), every accepted job reaches a terminal state,
// and the -obs-log event log is closed with its summary record.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sam/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("samd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8315", "address to serve the job API and telemetry endpoints on")
	workers := fs.Int("workers", 2, "concurrent jobs (scheduler dispatch width)")
	innerWorkers := fs.Int("inner-workers", 0, "worker pool size inside one figure/sweep/reliability job (0 = -workers)")
	queueCap := fs.Int("queue-cap", 256, "max queued jobs before submissions get 503")
	tenantQuota := fs.Int("tenant-quota", 16, "max non-terminal jobs per tenant (0 = unlimited)")
	maxQueueWait := fs.Duration("max-queue-wait", 30*time.Second, "anti-starvation bound: a job queued this long is dispatched before any fresher job of any priority")
	drainGrace := fs.Duration("drain-grace", time.Minute, "how long a SIGTERM drain lets in-flight jobs finish before canceling them")
	cacheDir := fs.String("cache-dir", "", "persistent run-result cache directory (share a samfig -cache-dir to start warm)")
	memoEntries := fs.Int("memo-entries", 0, "in-memory run-result cache entries (0 = default)")
	obsLog := fs.String("obs-log", "", "append the structured JSONL run-lifecycle event log to this file")
	_ = fs.Parse(os.Args[1:])

	cfg := serve.Config{
		Workers:      *workers,
		InnerWorkers: *innerWorkers,
		QueueCap:     *queueCap,
		TenantQuota:  *tenantQuota,
		MaxQueueWait: *maxQueueWait,
		MemoEntries:  *memoEntries,
		CacheDir:     *cacheDir,
	}
	var logFile *os.File
	if *obsLog != "" {
		f, err := os.Create(*obsLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "samd: event log: %v\n", err)
			os.Exit(1)
		}
		logFile = f
		cfg.EventLog = f
	}

	d := serve.NewDaemon(cfg)
	stopWatch := d.Tracker().Watch(2 * time.Second)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "samd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "samd: serving job API + telemetry on http://%s (workers=%d)\n",
		ln.Addr(), *workers)

	// Wait for SIGTERM/SIGINT, then drain: the listener stays up so
	// clients can keep polling and fetching results while in-flight work
	// completes; only new submissions are refused.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	fmt.Fprintf(os.Stderr, "samd: draining (grace %s)\n", *drainGrace)

	graceCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	drainErr := d.Drain(graceCtx)
	cancel()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Shutdown(shutCtx)
	cancel()
	stopWatch()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "samd: event log: %v\n", drainErr)
	}
	if logFile != nil {
		if err := logFile.Close(); err != nil && drainErr == nil {
			drainErr = err
			fmt.Fprintf(os.Stderr, "samd: event log: %v\n", err)
		}
	}
	if drainErr != nil {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "samd: drained cleanly")
}
