package service

import (
	"log/slog"
	"strconv"
	"time"

	"hiddensky/internal/answer"
	"hiddensky/internal/core"
	"hiddensky/internal/engine"
	"hiddensky/internal/obs"
	"hiddensky/internal/qcache"
	"hiddensky/internal/web"
)

// The manager's observability surface: one obs.Registry per Manager
// (explicit, so a test process can host many managers without series
// collisions), carrying every layer's telemetry — upstream clients,
// the shared query cache, the execution substrate, the answer indexes
// and the job lifecycle. NewHandler exposes it as Prometheus text on
// GET /metrics and as JSON on GET /v1/stats.

// managerMetrics holds the manager-owned series. Per-store upstream
// client series are registered by AddStore; cache series are
// scrape-time funcs over qcache's own exact atomics.
type managerMetrics struct {
	jobsSubmitted *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	jobsRetried   *obs.Counter
	jobSeconds    *obs.Histogram
	jobQueries    *obs.Counter

	jobsParkedCircuit *obs.Counter
	circuitOpens      *obs.Counter

	indexSwaps   *obs.Counter
	indexBuild   *obs.Histogram
	answerShared *answer.Metrics

	batchSweeps   *obs.Counter
	batchVectors  *obs.Counter
	recoverBinary *obs.Counter
	recoverJSON   *obs.Counter

	pool       *engine.PoolMetrics
	budgetUsed *obs.Gauge
}

func newManagerMetrics(r *obs.Registry) *managerMetrics {
	return &managerMetrics{
		jobsSubmitted: r.Counter("jobs_submitted_total", "discovery jobs accepted by Submit"),
		jobsDone:      r.Counter("jobs_done_total", "jobs finished in state done (complete or anytime-partial)"),
		jobsFailed:    r.Counter("jobs_failed_total", "jobs finished in state failed"),
		jobsCancelled: r.Counter("jobs_cancelled_total", "jobs finished in state cancelled"),
		jobsRetried:   r.Counter("jobs_retried_total", "resumable jobs parked and requeued after an upstream rate limit"),
		jobSeconds:    r.Histogram("job_seconds", "wall-clock duration of terminal jobs (start to finish)"),
		jobQueries:    r.Counter("job_queries_total", "counted queries of terminal jobs (cache hits included)"),

		jobsParkedCircuit: r.Counter("jobs_parked_circuit_total", "job runs parked without querying because the store circuit was open"),
		circuitOpens:      r.Counter("circuit_opens_total", "store circuits opened after consecutive upstream failures"),

		indexSwaps: r.Counter("answer_index_swaps_total", "answer index hot-swaps published"),
		indexBuild: r.Histogram("answer_index_build_seconds", "answer.Build duration per published index"),
		answerShared: &answer.Metrics{
			TopKSeconds:      r.Histogram("answer_topk_seconds", "answer index top-k latency"),
			SkylineSeconds:   r.Histogram("answer_skyline_seconds", "answer index subspace-skyline latency"),
			DominatesSeconds: r.Histogram("answer_dominates_seconds", "answer index dominance-test latency"),
			BatchSeconds:     r.Histogram("answer_batch_seconds", "answer index batch top-k latency (whole batch, one observation per sweep)"),
			BatchSize:        r.Histogram("answer_batch_size", "weight vectors per batch top-k sweep (dimensionless; 1ns == 1 vector)"),
		},

		batchSweeps:   r.Counter("answer_batch_sweeps_total", "batch top-k requests answered (POST /v1/answer/topk_batch)"),
		batchVectors:  r.Counter("answer_batch_vectors_total", "weight vectors answered through the batch top-k path"),
		recoverBinary: r.Counter(`answer_recover_source_total{source="binary"}`, "answer indexes recovered from binary columnar snapshots"),
		recoverJSON:   r.Counter(`answer_recover_source_total{source="json"}`, "answer indexes recovered by re-indexing JSON job snapshots"),

		pool: &engine.PoolMetrics{
			Tasks:       r.Counter("engine_pool_tasks_total", "worker-pool tasks executed"),
			Dropped:     r.Counter("engine_pool_dropped_total", "worker-pool tasks dropped after an error or cancellation"),
			Depth:       r.Gauge("engine_pool_depth", "worker-pool tasks queued or executing, across every live run"),
			TaskSeconds: r.Histogram("engine_pool_task_seconds", "worker-pool task execution latency"),
		},
		budgetUsed: r.Gauge("fleet_budget_used", "upstream queries consumed by running fleet jobs' shared budgets"),
	}
}

// registerManagerFuncs wires the scrape-time series that read live
// manager state: job scheduling gauges and (when the manager has a
// cache) the cache's exact counters plus per-shard occupancy. The
// funcs run at scrape time without holding the registry lock, so
// taking m.mu inside them is safe.
func (m *Manager) registerManagerFuncs() {
	m.reg.GaugeFunc("jobs_running", "jobs running discovery right now", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.running)
	})
	m.reg.GaugeFunc("jobs_queued", "jobs waiting for a concurrency slot", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.queue))
	})
	if m.cache == nil {
		return
	}
	counter := func(name, help string, read func(qcache.Stats) int) {
		m.reg.CounterFunc(name, help, func() float64 {
			return float64(read(m.cache.Stats()))
		})
	}
	counter("qcache_lookups_total", "queries served through the shared cache", func(s qcache.Stats) int { return s.Lookups })
	counter("qcache_hits_total", "cache lookups answered from the memo store", func(s qcache.Stats) int { return s.Hits })
	counter("qcache_coalesced_total", "cache lookups that shared an in-flight backend query", func(s qcache.Stats) int { return s.Coalesced })
	counter("qcache_misses_total", "cache lookups that paid a backend query", func(s qcache.Stats) int { return s.Misses })
	counter("qcache_evictions_total", "cache entries dropped by the LRU bound", func(s qcache.Stats) int { return s.Evictions })
	m.reg.GaugeFunc("qcache_entries", "memoized answers currently held", func() float64 {
		return float64(m.cache.Len())
	})
	for i := 0; i < m.cache.NumShards(); i++ {
		shard := i
		l := `{shard="` + strconv.Itoa(shard) + `"}`
		// ShardStat (singular) locks exactly one shard and allocates
		// nothing — these funcs run on every sampler tick, where a
		// ShardStats slice per shard per tick would break the sampling
		// path's zero-allocation contract.
		m.reg.GaugeFunc("qcache_shard_entries"+l, "memoized answers held by the shard", func() float64 {
			return float64(m.cache.ShardStat(shard).Entries)
		})
		m.reg.CounterFunc("qcache_shard_evictions_total"+l, "entries the shard dropped over its lifetime", func() float64 {
			return float64(m.cache.ShardStat(shard).Evictions)
		})
	}
}

// registerHealthChecks builds the manager's rollup: the readiness gate
// (closed until Recover when a snapshot store is configured) plus one
// windowed-rate check per failure signal. The rate closures read the
// sampler, never m.mu, so Evaluate can run from any handler.
func (m *Manager) registerHealthChecks() {
	m.health = obs.NewHealthRollup("recovering: snapshot jobs not yet replayed")
	h := m.cfg.Health
	m.health.AddCheck("job_failure_rate", threshold(h.MaxFailureRate, DefaultMaxFailureRate), func() float64 {
		return m.sampler.Rate("jobs_failed_total", time.Minute)
	})
	m.health.AddCheck("upstream_429_rate", threshold(h.MaxRateLimitedRate, DefaultMaxRateLimitedRate), func() float64 {
		return m.sampler.Rate("upstream_rate_limited_total", time.Minute)
	})
	if m.cache != nil {
		m.health.AddCheck("qcache_eviction_rate", threshold(h.MaxEvictionRate, DefaultMaxEvictionRate), func() float64 {
			return m.sampler.Rate("qcache_evictions_total", time.Minute)
		})
	}
	// An open store circuit degrades the daemon (it is parked away from
	// that upstream) without making it unready: the answer tier keeps
	// serving the last published index, so /readyz stays 200. This
	// check reads live breaker state, not the sampler; taking m.mu here
	// is as safe as in the scrape-time gauge funcs (Evaluate never runs
	// under it).
	m.health.AddCheck("upstream_circuit_open", 0.5, func() float64 {
		now := time.Now()
		m.mu.Lock()
		defer m.mu.Unlock()
		open := 0
		for _, b := range m.breakers {
			if b.stateAt(now) == circuitOpen {
				open++
			}
		}
		return float64(open)
	})
}

// Sampler exposes the time-series layer (handlers, tests).
func (m *Manager) Sampler() *obs.Sampler { return m.sampler }

// HealthRollup exposes the rollup (handlers, flag wiring).
func (m *Manager) HealthRollup() *obs.HealthRollup { return m.health }

// History snapshots the retained time-series rings — the body of
// GET /v1/history. last bounds trailing samples (<= 0: everything).
func (m *Manager) History(last int) obs.HistorySnapshot { return m.sampler.History(last) }

// HealthReport evaluates the rollup — the body of GET /healthz.
func (m *Manager) HealthReport() obs.HealthReport { return m.health.Evaluate() }

// Registry exposes the manager's metrics registry. cmd/skylined uses
// it to serve /metrics; tests scrape it directly.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// logger returns the configured structured logger (a no-op logger
// when none was configured).
func (m *Manager) logger() *slog.Logger { return m.log }

// StatsDetail is the body of GET /v1/stats: the health summary plus
// every metric series (JSON rendering of the same registry /metrics
// exposes) and the cache's exact counters with per-shard detail.
type StatsDetail struct {
	Health  Health         `json:"health"`
	Metrics []obs.Snapshot `json:"metrics"`
	// Cache carries the shared query cache's counters (absent without
	// a cache).
	Cache *CacheDetail `json:"cache,omitempty"`
}

// CacheDetail is the cache section of StatsDetail.
type CacheDetail struct {
	qcache.Stats
	// DedupRatio is the fraction of lookups answered without a
	// backend query.
	DedupRatio float64 `json:"dedup_ratio"`
	// Entries is the number of memoized answers currently held.
	Entries int `json:"entries"`
	// Shards is the per-shard occupancy/eviction breakdown.
	Shards []qcache.ShardStat `json:"shards"`
}

// StatsFull returns the /v1/stats snapshot.
func (m *Manager) StatsFull() StatsDetail {
	d := StatsDetail{Health: m.Stats(), Metrics: m.reg.Snapshots()}
	if m.cache != nil {
		s := m.cache.Stats()
		d.Cache = &CacheDetail{
			Stats:      s,
			DedupRatio: s.DedupRatio(),
			Entries:    m.cache.Len(),
			Shards:     m.cache.ShardStats(),
		}
	}
	return d
}

// instrumentStore attaches the per-store upstream metrics to remote
// stores. Called by AddStore before the client is shared with jobs
// (WithContext views inherit the bundle).
func (m *Manager) instrumentStore(name string, db core.Interface) {
	if wc, ok := db.(*web.Client); ok {
		wc.SetMetrics(web.NewClientMetrics(m.reg, name))
		wc.SetName(name) // traced query spans carry the store label
	}
}
