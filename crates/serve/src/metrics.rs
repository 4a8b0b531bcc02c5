//! Lock-free request metrics for the `/metrics` endpoint.
//!
//! Everything is `AtomicU64` counters updated on the worker threads:
//! request counts by status class, a fixed log-spaced latency histogram
//! (for percentile estimates without storing samples), cache hit/miss
//! counts, and shed (`503`) counts. Gauges that belong to the server —
//! worker count and live pool depth — are published into [`Gauges`] by the
//! server (the connection shard, just before it routes `GET /metrics`) so
//! the metrics endpoint never needs a handle on the pool itself.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cuisine_exec::Faults;
use serde::{Map, Value};

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// unbounded.
pub const LATENCY_BOUNDS_US: [u64; 12] =
    [50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000];

/// Gauges owned by the server and read by `/metrics`.
#[derive(Debug, Default)]
pub struct Gauges {
    /// Jobs queued or running in the worker pool.
    pub pool_depth: AtomicUsize,
    /// Worker-thread count.
    pub workers: AtomicUsize,
    /// Currently open client connections across all shards.
    pub connections: AtomicUsize,
    /// Handler panics contained by the evolve and registry worker pools
    /// (published by the connection shard from the pools' own counters).
    pub worker_panics: AtomicU64,
}

/// Snapshot provenance reported by `/metrics`: which build produced the
/// precomputed bodies, with which mining kernel, and how long it took.
#[derive(Debug, Clone)]
pub struct SnapshotInfo<'a> {
    /// Snapshot set version tag.
    pub version: &'a str,
    /// Label of the mining kernel the snapshots were built with.
    pub miner: &'a str,
    /// Wall-clock of the snapshot build in milliseconds (0 when the
    /// embedding did not measure it, e.g. test fixtures).
    pub build_wall_ms: u64,
    /// Wall-clock of the build's mining stage (the two fig3 passes) in
    /// milliseconds (0 when the build ran without a real clock).
    pub mining_wall_ms: u64,
}

/// Registry counters and per-corpus rows reported by `/metrics`,
/// snapshotted from [`CorpusRegistry::stats`].
///
/// [`CorpusRegistry::stats`]: crate::registry::CorpusRegistry::stats
#[derive(Debug, Clone)]
pub struct RegistryStats {
    /// Snapshot builds dispatched (initial registrations + hot-swaps).
    pub builds: u64,
    /// Completed builds that replaced an already-Ready corpus (epoch
    /// bumps past the first).
    pub swaps: u64,
    /// Registrations that coalesced onto an identical pending build
    /// instead of queueing their own.
    pub coalesced_registrations: u64,
    /// Builds that failed (panic or injected fault). A failed rebuild
    /// leaves the last-good epoch serving; a failed first build leaves
    /// the entry in a Failed state answering a named `500`.
    pub build_failures: u64,
    /// Per-corpus rows: key, state, epoch, miner, build_ms, mining_ms,
    /// hits, rebuilding, degraded, error.
    pub corpora: Value,
}

impl Default for RegistryStats {
    fn default() -> Self {
        RegistryStats {
            builds: 0,
            swaps: 0,
            coalesced_registrations: 0,
            build_failures: 0,
            corpora: Value::Array(Vec::new()),
        }
    }
}

/// Aggregated request counters. All methods are safe to call concurrently.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests: AtomicU64,
    by_class: [AtomicU64; 5],
    latency_total_us: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    shed: AtomicU64,
    keepalive_reuses: AtomicU64,
    coalesced_waiters: AtomicU64,
    evolve_cache_hits: AtomicU64,
    evolve_cache_misses: AtomicU64,
    evolve_computations: AtomicU64,
    deadline_expired: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters with the uptime clock starting now.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            by_class: Default::default(),
            latency_total_us: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            coalesced_waiters: AtomicU64::new(0),
            evolve_cache_hits: AtomicU64::new(0),
            evolve_cache_misses: AtomicU64::new(0),
            evolve_computations: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
        }
    }

    /// Record a request answered `504` because its deadline budget ran
    /// out (waiting on a flight, or reaped mid-frame by the idle sweep).
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline expiries recorded so far.
    pub fn deadline_expired(&self) -> u64 {
        self.deadline_expired.load(Ordering::Relaxed)
    }

    /// Record one completed request.
    pub fn record(&self, status: u16, latency: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let class = (status / 100).clamp(1, 5) as usize - 1;
        self.by_class[class].fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_total_us.fetch_add(us, Ordering::Relaxed);
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record an LRU cache lookup outcome.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a request shed with `503` because the pool queue was full.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request served over an already-used persistent connection
    /// (every request after the first on one connection).
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an `/evolve` request that attached to an identical in-flight
    /// computation instead of starting its own.
    pub fn record_coalesced_waiter(&self) {
        self.coalesced_waiters.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a seeded-evolve result-cache lookup outcome.
    pub fn record_evolve_cache(&self, hit: bool) {
        if hit {
            self.evolve_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.evolve_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one underlying `/evolve` ensemble computation actually run
    /// (coalesced waiters and cache hits do not count one).
    pub fn record_evolve_computation(&self) {
        self.evolve_computations.fetch_add(1, Ordering::Relaxed);
    }

    /// Keep-alive reuse count recorded so far.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// Coalesced-waiter count recorded so far.
    pub fn coalesced_waiters(&self) -> u64 {
        self.coalesced_waiters.load(Ordering::Relaxed)
    }

    /// `(cache hits, cache misses, computations)` for `/evolve`.
    pub fn evolve_counts(&self) -> (u64, u64, u64) {
        (
            self.evolve_cache_hits.load(Ordering::Relaxed),
            self.evolve_cache_misses.load(Ordering::Relaxed),
            self.evolve_computations.load(Ordering::Relaxed),
        )
    }

    /// Total requests recorded.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Cache hits and misses recorded so far.
    pub fn cache_counts(&self) -> (u64, u64) {
        (self.cache_hits.load(Ordering::Relaxed), self.cache_misses.load(Ordering::Relaxed))
    }

    /// Latency percentile estimate in µs: the upper bound of the histogram
    /// bucket containing quantile `p` (0 < p ≤ 1). `None` before any
    /// request.
    pub fn latency_percentile_us(&self, p: f64) -> Option<u64> {
        let counts: Vec<u64> =
            self.latency_buckets.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(*LATENCY_BOUNDS_US.get(i).unwrap_or(&u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Render the metrics document served by `/metrics`. `snapshot` is
    /// the *default* corpus's provenance; `registry` carries the
    /// registry counters plus one row per registered corpus; `faults` is
    /// the stack's fault-injection handle (its firing counters are
    /// reported whenever a plan is installed).
    pub fn to_json(
        &self,
        gauges: &Gauges,
        snapshot: &SnapshotInfo<'_>,
        lru_len: usize,
        registry: &RegistryStats,
        faults: &Faults,
    ) -> String {
        let requests = self.requests();
        let (hits, misses) = self.cache_counts();
        let total_us = self.latency_total_us.load(Ordering::Relaxed);

        let mut doc = Map::new();
        doc.insert("service", Value::String("cuisine-serve".into()));
        doc.insert("snapshot_version", Value::String(snapshot.version.into()));
        doc.insert("snapshot_build_ms", Value::U64(snapshot.build_wall_ms));
        doc.insert("mining_wall_ms", Value::U64(snapshot.mining_wall_ms));
        doc.insert("miner", Value::String(snapshot.miner.into()));
        doc.insert("uptime_seconds", Value::F64(self.started.elapsed().as_secs_f64()));
        doc.insert("requests_total", Value::U64(requests));

        let mut by_class = Map::new();
        for (i, counter) in self.by_class.iter().enumerate() {
            by_class.insert(format!("{}xx", i + 1), Value::U64(counter.load(Ordering::Relaxed)));
        }
        doc.insert("requests_by_class", Value::Object(by_class));
        doc.insert("requests_shed", Value::U64(self.shed.load(Ordering::Relaxed)));
        doc.insert("keepalive_reuses", Value::U64(self.keepalive_reuses()));
        doc.insert("coalesced_waiters", Value::U64(self.coalesced_waiters()));
        let (evolve_hits, evolve_misses, evolve_computations) = self.evolve_counts();
        doc.insert("evolve_cache_hits", Value::U64(evolve_hits));
        doc.insert("evolve_cache_misses", Value::U64(evolve_misses));
        doc.insert("evolve_computations", Value::U64(evolve_computations));
        doc.insert("registry_builds", Value::U64(registry.builds));
        doc.insert("registry_swaps", Value::U64(registry.swaps));
        doc.insert(
            "registry_coalesced_registrations",
            Value::U64(registry.coalesced_registrations),
        );
        doc.insert("registry_build_failures", Value::U64(registry.build_failures));
        doc.insert("corpora", registry.corpora.clone());
        doc.insert("deadline_expired", Value::U64(self.deadline_expired()));
        doc.insert(
            "worker_panics",
            Value::U64(gauges.worker_panics.load(Ordering::Relaxed)),
        );
        // Process-wide: every OrderedMutex in exec/serve feeds this one
        // counter, so a panic that escaped containment while any tracked
        // guard was live shows up here instead of being silently healed.
        doc.insert(
            "poisoned_lock_recoveries",
            Value::U64(cuisine_exec::lockorder::poison_recoveries()),
        );
        match faults.plan() {
            None => {
                doc.insert("fault_firings", Value::U64(0));
                doc.insert("faults", Value::Null);
            }
            Some(plan) => {
                doc.insert("fault_firings", Value::U64(plan.total_fired()));
                let mut fdoc = Map::new();
                fdoc.insert("spec", Value::String(plan.spec().to_string()));
                fdoc.insert("seed", Value::U64(plan.seed()));
                let points: Vec<Value> = plan
                    .counts()
                    .iter()
                    .map(|count| {
                        let mut row = Map::new();
                        row.insert("point", Value::String(count.point.clone()));
                        row.insert("occurrences", Value::U64(count.occurrences));
                        row.insert("fired", Value::U64(count.fired));
                        Value::Object(row)
                    })
                    .collect();
                fdoc.insert("points", Value::Array(points));
                doc.insert("faults", Value::Object(fdoc));
            }
        }

        let mut latency = Map::new();
        latency.insert(
            "mean_us",
            if requests == 0 {
                Value::Null
            } else {
                Value::F64(total_us as f64 / requests as f64)
            },
        );
        for (label, p) in [("p50_us", 0.50), ("p95_us", 0.95), ("p99_us", 0.99)] {
            latency.insert(
                label,
                self.latency_percentile_us(p).map_or(Value::Null, Value::U64),
            );
        }
        doc.insert("latency", Value::Object(latency));

        let mut cache = Map::new();
        cache.insert("hits", Value::U64(hits));
        cache.insert("misses", Value::U64(misses));
        cache.insert(
            "hit_rate",
            if hits + misses == 0 {
                Value::Null
            } else {
                Value::F64(hits as f64 / (hits + misses) as f64)
            },
        );
        cache.insert("entries", Value::U64(lru_len as u64));
        doc.insert("response_cache", Value::Object(cache));

        let mut pool = Map::new();
        pool.insert("workers", Value::U64(gauges.workers.load(Ordering::Relaxed) as u64));
        pool.insert("depth", Value::U64(gauges.pool_depth.load(Ordering::Relaxed) as u64));
        doc.insert("pool", Value::Object(pool));
        doc.insert(
            "open_connections",
            Value::U64(gauges.connections.load(Ordering::Relaxed) as u64),
        );

        serde_json::to_string(&Value::Object(doc)).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_the_histogram() {
        let m = Metrics::new();
        assert_eq!(m.latency_percentile_us(0.5), None);
        for _ in 0..90 {
            m.record(200, Duration::from_micros(40)); // bucket <=50
        }
        for _ in 0..10 {
            m.record(200, Duration::from_millis(20)); // bucket <=25ms
        }
        assert_eq!(m.latency_percentile_us(0.50), Some(50));
        assert_eq!(m.latency_percentile_us(0.90), Some(50));
        assert_eq!(m.latency_percentile_us(0.99), Some(25_000));
        assert_eq!(m.requests(), 100);
    }

    #[test]
    fn json_document_has_the_headline_fields() {
        let m = Metrics::new();
        m.record(200, Duration::from_micros(120));
        m.record(404, Duration::from_micros(80));
        m.record_cache(true);
        m.record_cache(false);
        m.record_shed();
        m.record_keepalive_reuse();
        m.record_keepalive_reuse();
        m.record_coalesced_waiter();
        m.record_evolve_cache(true);
        m.record_evolve_cache(false);
        m.record_evolve_computation();
        let gauges = Gauges::default();
        gauges.workers.store(4, Ordering::Relaxed);
        gauges.pool_depth.store(2, Ordering::Relaxed);
        gauges.connections.store(7, Ordering::Relaxed);
        m.record_deadline_expired();
        let info = SnapshotInfo {
            version: "test-v1",
            miner: "eclat-bitset",
            build_wall_ms: 1234,
            mining_wall_ms: 345,
        };
        let registry = RegistryStats { builds: 3, swaps: 1, build_failures: 2, ..Default::default() };
        let faults = Faults::new();
        faults.install(cuisine_exec::FaultPlan::parse("evolve.compute=delay:1@nth:1").unwrap());
        faults.fire("evolve.compute");
        let doc: serde::Value =
            serde_json::from_str(&m.to_json(&gauges, &info, 3, &registry, &faults)).unwrap();
        let doc = doc.as_object().unwrap();
        assert_eq!(doc.get("requests_total").unwrap().as_u64(), Some(2));
        assert_eq!(
            doc.get("snapshot_version").unwrap().as_str(),
            Some("test-v1")
        );
        assert_eq!(doc.get("miner").unwrap().as_str(), Some("eclat-bitset"));
        assert_eq!(doc.get("snapshot_build_ms").unwrap().as_u64(), Some(1234));
        assert_eq!(doc.get("mining_wall_ms").unwrap().as_u64(), Some(345));
        let classes = doc.get("requests_by_class").unwrap().as_object().unwrap();
        assert_eq!(classes.get("2xx").unwrap().as_u64(), Some(1));
        assert_eq!(classes.get("4xx").unwrap().as_u64(), Some(1));
        let cache = doc.get("response_cache").unwrap().as_object().unwrap();
        assert_eq!(cache.get("hit_rate").unwrap().as_f64(), Some(0.5));
        let pool = doc.get("pool").unwrap().as_object().unwrap();
        assert_eq!(pool.get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(pool.get("depth").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("requests_shed").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("keepalive_reuses").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("coalesced_waiters").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("evolve_cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("evolve_cache_misses").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("evolve_computations").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("registry_builds").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("registry_swaps").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("registry_coalesced_registrations").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(doc.get("corpora").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(doc.get("open_connections").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("registry_build_failures").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("deadline_expired").unwrap().as_u64(), Some(1));
        // Process-wide counter (other tests may poison locks on purpose),
        // so assert presence rather than an exact value.
        assert!(doc.get("poisoned_lock_recoveries").unwrap().as_u64().is_some());
        assert_eq!(doc.get("fault_firings").unwrap().as_u64(), Some(1));
        let fdoc = doc.get("faults").unwrap().as_object().unwrap();
        assert_eq!(
            fdoc.get("spec").unwrap().as_str(),
            Some("evolve.compute=delay:1@nth:1")
        );
        let points = fdoc.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 1);
        let row = points[0].as_object().unwrap();
        assert_eq!(row.get("point").unwrap().as_str(), Some("evolve.compute"));
        assert_eq!(row.get("fired").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn faults_report_null_without_a_plan() {
        let m = Metrics::new();
        let info =
            SnapshotInfo { version: "v", miner: "fpgrowth", build_wall_ms: 0, mining_wall_ms: 0 };
        let doc: serde::Value = serde_json::from_str(&m.to_json(
            &Gauges::default(),
            &info,
            0,
            &RegistryStats::default(),
            &Faults::new(),
        ))
        .unwrap();
        let doc = doc.as_object().unwrap();
        assert_eq!(doc.get("fault_firings").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("faults"), Some(&serde::Value::Null));
        assert_eq!(doc.get("worker_panics").unwrap().as_u64(), Some(0));
    }
}
