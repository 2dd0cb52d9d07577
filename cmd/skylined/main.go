// Command skylined is the discovery job daemon: a long-running HTTP
// service that accepts skyline-discovery jobs against named stores,
// runs them behind a max-concurrent-jobs FIFO gate, streams progress
// over polling and SSE endpoints, and checkpoints resumable jobs into a
// snapshot directory — kill the daemon mid-job and the restarted
// process resumes every in-flight job without repeating a counted
// query.
//
// Stores are named targets: a remote skyserve endpoint (http:// URL) or
// a local CSV dataset served through the in-process simulator.
//
// Usage:
//
//	skylined -addr 127.0.0.1:8090 -snapshots ./snapshots -max-jobs 4 \
//	         -store diamonds=http://127.0.0.1:8080 -store autos=autos.csv
//
// Submit and watch jobs with the HTTP API (see internal/service). A
// job spec composes algo, band, a "where" filter and resumability
// freely; combinations the store's interface cannot satisfy are
// rejected at submit with the planner's reason:
//
//	curl -XPOST localhost:8090/v1/jobs -d '{"store":"diamonds","resumable":true}'
//	curl -XPOST localhost:8090/v1/jobs -d '{"store":"diamonds","algo":"sq","where":"A0<500"}'
//	curl localhost:8090/v1/jobs/j000001
//	curl -N localhost:8090/v1/jobs/j000001/events
package main

import (
	"context"

	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/retry"
	"hiddensky/internal/service"
	"hiddensky/internal/web"
)

// storeFlags collects repeated -store name=target flags.
type storeFlags []string

func (s *storeFlags) String() string { return strings.Join(*s, ",") }

func (s *storeFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	snapshots := flag.String("snapshots", "", "snapshot directory (empty = no persistence, jobs die with the daemon)")
	maxJobs := flag.Int("max-jobs", 2, "max concurrently running jobs; further jobs queue FIFO")
	cacheSize := flag.Int("cache", 4096, "shared query-cache entries (0 = no cache, -1 = unbounded)")
	checkpointEvery := flag.Int("checkpoint-every", 8, "queries between snapshot writes for resumable jobs")
	k := flag.Int("k", 10, "top-k limit for CSV-backed stores")
	rankName := flag.String("rank", "sum", "ranking for CSV-backed stores: sum | attrN | lex | random")
	debugAddr := flag.String("debug-addr", "", "optional separate listen address for net/http/pprof (empty = profiling off)")
	spanBuffer := flag.Int("span-buffer", 0, "span ring-buffer capacity shared by all jobs (0 = default 8192; rounded up to a power of two)")
	sampleInterval := flag.Duration("sample-interval", 0, "time-series sampling interval for /v1/history and the health rollup (0 = 1s)")
	sampleRetention := flag.Int("sample-retention", 0, "samples retained per series (0 = 512; rounded up to a power of two)")
	maxFailureRate := flag.Float64("health-max-failure-rate", 0, "failed jobs/sec (1m window) before /healthz reports degraded (0 = 0.1, negative = disabled)")
	max429Rate := flag.Float64("health-max-429-rate", 0, "upstream 429s/sec (1m window) before degraded (0 = 1.0, negative = disabled)")
	maxEvictionRate := flag.Float64("health-max-eviction-rate", 0, "cache evictions/sec (1m window) before degraded (0 = 100, negative = disabled)")
	upstreamRetries := flag.Int("upstream-retries", 0, "attempts per upstream query for remote stores, transparently absorbing 429s and transient faults (0 = 4, 1 = no retries)")
	upstreamBackoff := flag.Duration("upstream-backoff", 0, "base upstream retry backoff, doubled per attempt with jitter (0 = 250ms)")
	upstreamBackoffMax := flag.Duration("upstream-backoff-max", 0, "upstream retry backoff cap; Retry-After hints are honored up to this long (0 = 5s)")
	upstreamTimeout := flag.Duration("upstream-timeout", 0, "per-attempt timeout for remote store queries (0 = no per-attempt deadline)")
	retryMaxDelay := flag.Duration("retry-max-delay", 0, "cap on the escalating park-and-retry delay for interrupted resumable jobs (0 = 8x the base delay)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive upstream-failure job endings before a store's circuit opens and runs park without querying (0 = 3, negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "base circuit cooldown before half-open probes; doubles per consecutive open (0 = 30s)")
	var stores storeFlags
	flag.Var(&stores, "store", "name=target store (repeatable); target is a skyserve URL (http://...) or a CSV path")
	flag.Parse()

	if len(stores) == 0 {
		fmt.Fprintln(os.Stderr, "skylined: at least one -store is required")
		flag.Usage()
		os.Exit(2)
	}

	mgr, err := service.NewManager(service.Config{
		MaxConcurrent:    *maxJobs,
		SnapshotDir:      *snapshots,
		CacheSize:        *cacheSize,
		CheckpointEvery:  *checkpointEvery,
		SpanBuffer:       *spanBuffer,
		SampleInterval:   *sampleInterval,
		SampleRetention:  *sampleRetention,
		MaxRetryDelay:    *retryMaxDelay,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Health: service.HealthThresholds{
			MaxFailureRate:     *maxFailureRate,
			MaxRateLimitedRate: *max429Rate,
			MaxEvictionRate:    *maxEvictionRate,
		},
		Logger: obs.NewLogger(os.Stderr, "skylined"),
	})
	if err != nil {
		fatal(err)
	}
	// Any upstream flag set installs an explicit retry policy on remote
	// stores; unset fields fall back to the policy defaults (4 attempts,
	// 250ms base, 5s cap, jittered).
	upstreamPolicy := retry.Policy{
		Attempts:          *upstreamRetries,
		BaseBackoff:       *upstreamBackoff,
		MaxBackoff:        *upstreamBackoffMax,
		PerAttemptTimeout: *upstreamTimeout,
	}
	tuneUpstream := *upstreamRetries != 0 || *upstreamBackoff != 0 ||
		*upstreamBackoffMax != 0 || *upstreamTimeout != 0
	for _, s := range stores {
		name, target, ok := strings.Cut(s, "=")
		if !ok || name == "" || target == "" {
			fatal(fmt.Errorf("bad -store %q (want name=target)", s))
		}
		db, desc, err := openStore(target, *k, *rankName)
		if err != nil {
			fatal(fmt.Errorf("store %q: %w", name, err))
		}
		if wc, ok := db.(*web.Client); ok && tuneUpstream {
			wc.SetRetryPolicy(upstreamPolicy)
		}
		if err := mgr.AddStore(name, db); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "skylined: store %q = %s\n", name, desc)
	}
	resumed, err := mgr.Recover()
	if err != nil {
		fatal(err)
	}
	if resumed > 0 {
		fmt.Fprintf(os.Stderr, "skylined: resumed %d unfinished job(s) from %s\n", resumed, *snapshots)
	}

	// Requests inherit baseCtx so open SSE streams (which otherwise live
	// until their job is terminal) end when shutdown begins — without
	// that, srv.Shutdown would wait its full timeout on every watcher.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	srv := &http.Server{
		Addr:        *addr,
		Handler:     service.NewHandler(mgr),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	if *debugAddr != "" {
		// pprof lives on its own opt-in listener, never the API port.
		dbg := &http.Server{Addr: *debugAddr, Handler: obs.DebugMux()}
		go func() { errc <- dbg.ListenAndServe() }()
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "skylined: pprof on http://%s/debug/pprof/\n", *debugAddr)
	}
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "skylined: serving %d store(s) on http://%s (max-jobs=%d, snapshots=%q)\n",
		len(stores), *addr, *maxJobs, *snapshots)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "skylined: shutting down (checkpointing jobs, draining connections)")
	// Park and checkpoint the jobs first — their budget should not be
	// shared with (or starved by) the HTTP drain.
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClose()
	if err := mgr.Close(closeCtx); err != nil {
		fmt.Fprintf(os.Stderr, "skylined: manager shutdown: %v\n", err)
	}
	baseCancel() // end the SSE streams so the drain below is quick
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "skylined: http shutdown: %v\n", err)
	}
}

// openStore resolves a -store target: a URL dials a remote skyserve, a
// path loads a CSV dataset into the in-process simulator.
func openStore(target string, k int, rankName string) (db core.Interface, desc string, err error) {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		client, err := web.Dial(target, nil)
		if err != nil {
			return nil, "", err
		}
		return client, fmt.Sprintf("remote %s (%d attrs, k=%d)", target, client.NumAttrs(), client.K()), nil
	}
	f, err := os.Open(target)
	if err != nil {
		return nil, "", err
	}
	d, err := datagen.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, "", err
	}
	rank, err := hidden.ParseRanking(rankName)
	if err != nil {
		return nil, "", err
	}
	hdb, err := hidden.New(d.Config(k, rank))
	if err != nil {
		return nil, "", err
	}
	return hdb, fmt.Sprintf("local %s (%d tuples, %d attrs, k=%d)", target, hdb.Size(), hdb.NumAttrs(), k), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "skylined: %v\n", err)
	os.Exit(1)
}
