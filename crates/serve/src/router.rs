//! Request routing: canonical paths → snapshot lookups, cached through the
//! LRU, plus the live endpoints (`/healthz`, `/metrics`, `POST /evolve`)
//! and the registry admin API.
//!
//! Endpoint map:
//!
//! | route | source |
//! |---|---|
//! | `GET /` | index document (endpoints + version) |
//! | `GET /healthz` | liveness + snapshot version + corpus count |
//! | `GET /metrics` | [`Metrics::to_json`] |
//! | `GET /table1`, `/fig1`, `/fig2`, `/fig4`, `/cuisines` | snapshot |
//! | `GET /fig3/{ingredient\|category}` | snapshot |
//! | `GET /fig4/{cuisine}` | snapshot (code or name, case-insensitive) |
//! | `GET /similarity[?mode=ingredient\|category]` | snapshot |
//! | `POST /evolve` | on-demand ensemble ([`crate::evolve`]) |
//! | `GET /admin/corpora` | registry listing ([`crate::registry`]) |
//! | `POST /admin/corpora` | register / hot-swap a corpus (`202`) |
//! | `DELETE /admin/corpora/{key}` | retire a corpus (`409` on default) |
//!
//! Every artifact GET and `/evolve` accepts `?corpus={key}` and resolves
//! it through the [`CorpusRegistry`] (absent = the default corpus, so the
//! pre-registry API is unchanged). Cacheable GETs go through the LRU
//! keyed on the corpus scope (`key@epoch`) joined with
//! [`canonical_key`](crate::http::canonical_key) — a hot-swap bumps the
//! epoch and thereby the key, so stale bodies are unreachable. `/healthz`,
//! `/metrics`, and the admin endpoints bypass the LRU so they always
//! reflect live state.

use std::sync::Arc;

use cuisine_core::Experiment;
use cuisine_exec::lockorder::{self, OrderedMutex};
use cuisine_exec::{FaultPlan, Faults};
use serde::{Map, Value};

use crate::deadline::{budget_ms, DeadlineConfig};
use crate::evolve::{evolve_sync, EvolveRequest, EvolveTask};
use crate::http::{canonical_key, HttpError, Method, Request, Response};
use crate::lru::Lru;
use crate::metrics::{Gauges, Metrics};
use crate::registry::{CorpusError, CorpusHandle, CorpusRegistry, CorpusSpec, RegistryConfig};
use crate::snapshot::SnapshotStore;

/// Shared application state: the experiment (corpus + transaction cache),
/// the snapshot store, the corpus registry, the LRU response cache, and
/// metrics.
///
/// The heavy parts (experiment, snapshots, registry) are behind `Arc` so
/// several server instances — or tests — can share one build while
/// keeping independent caches and counters. `experiment` and `snapshots`
/// are the *default* corpus's — the same `Arc`s the registry serves for
/// corpus-less requests, kept here so startup-path code and tests can
/// reach them without a resolve.
pub struct AppState {
    /// Default corpus: corpus, lexicon, pipeline config, shared cache.
    pub experiment: Arc<Experiment>,
    /// Default corpus: precomputed artifact bodies.
    pub snapshots: Arc<SnapshotStore>,
    /// The multi-corpus registry every read resolves through.
    pub registry: Arc<CorpusRegistry>,
    /// Response cache for GET endpoints.
    pub lru: OrderedMutex<Lru<Response>>,
    /// Seeded-evolve result cache: canonical evolve key → finished `200`
    /// response. Sits *beneath* the GET LRU (which never sees POSTs) and
    /// is consulted by both the sync route path and the single-flight
    /// engine. Safe because `/evolve` is deterministic in its key.
    pub evolve_cache: OrderedMutex<Lru<Response>>,
    /// Request counters.
    pub metrics: Metrics,
    /// Server-published gauges (worker count, pool depth).
    pub gauges: Gauges,
    /// The fault-injection handle shared with the registry's builder pool
    /// and the evolve engine (`POST /admin/faults` swaps plans on all of
    /// them at once).
    pub faults: Arc<Faults>,
    /// Request-deadline knobs (default budget + clamp).
    pub deadline: DeadlineConfig,
}

/// Default capacity of the seeded-evolve result cache.
pub const DEFAULT_EVOLVE_CACHE: usize = 256;

impl AppState {
    /// Bundle state with an LRU of the given capacity.
    pub fn new(experiment: Experiment, snapshots: SnapshotStore, lru_capacity: usize) -> Self {
        Self::with_shared(Arc::new(experiment), Arc::new(snapshots), lru_capacity)
    }

    /// Bundle state around an already-shared experiment and snapshot set
    /// (fresh LRU and metrics). Lets multiple servers reuse one snapshot
    /// build. The registry is built with [`RegistryConfig::default`]: no
    /// default spec (the startup snapshots serve under the key
    /// `"default"`), minimal build options.
    pub fn with_shared(
        experiment: Arc<Experiment>,
        snapshots: Arc<SnapshotStore>,
        lru_capacity: usize,
    ) -> Self {
        Self::with_registry(experiment, snapshots, lru_capacity, RegistryConfig::default())
    }

    /// Bundle state with a fully-configured [`CorpusRegistry`] adopting
    /// the startup experiment + snapshots as its default corpus.
    pub fn with_registry(
        experiment: Arc<Experiment>,
        snapshots: Arc<SnapshotStore>,
        lru_capacity: usize,
        config: RegistryConfig,
    ) -> Self {
        // Adopt the registry's fault handle so one `POST /admin/faults`
        // governs the builder pool, the evolve engine, and the connection
        // layer together.
        let faults = Arc::clone(&config.faults);
        let registry = Arc::new(CorpusRegistry::new(
            Arc::clone(&experiment),
            Arc::clone(&snapshots),
            config,
        ));
        AppState {
            experiment,
            snapshots,
            registry,
            lru: OrderedMutex::new(lockorder::SERVE_LRU, Lru::new(lru_capacity)),
            evolve_cache: OrderedMutex::new(
                lockorder::SERVE_EVOLVE_CACHE,
                Lru::new(DEFAULT_EVOLVE_CACHE),
            ),
            metrics: Metrics::new(),
            gauges: Gauges::default(),
            faults,
            deadline: DeadlineConfig::default(),
        }
    }

    /// Replace the deadline configuration (builder style, for servers and
    /// tests that need tighter or looser budgets).
    pub fn with_deadline(mut self, deadline: DeadlineConfig) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replace the seeded-evolve cache capacity (0 disables it — used by
    /// the determinism tests to force every request through a real
    /// computation).
    pub fn with_evolve_cache(mut self, capacity: usize) -> Self {
        self.evolve_cache = OrderedMutex::new(lockorder::SERVE_EVOLVE_CACHE, Lru::new(capacity));
        self
    }

    fn lru_len(&self) -> usize {
        self.lru.lock().len()
    }
}

/// Outcome of routing on the non-blocking connection path.
///
/// Everything except `/evolve` resolves synchronously (snapshot lookups
/// and cache probes are microseconds); a validated `/evolve` is handed
/// back so the shard can submit it to the single-flight engine and keep
/// serving its other connections while the ensemble runs.
pub enum Routed {
    /// The response is ready now.
    Ready(Response),
    /// A validated `/evolve` request, bound to its resolved corpus, for
    /// the engine.
    Evolve(EvolveTask),
}

/// Route one request on the connection path: like [`route`], but `/evolve`
/// bodies are validated, bound to their resolved corpus, and returned as
/// [`Routed::Evolve`] instead of being computed inline.
pub fn route_conn(state: &AppState, request: &Request) -> Routed {
    if request.method == Method::Post && normalized(&request.path) == "/evolve" {
        let corpus = match state.registry.resolve(request.query_param("corpus")) {
            Ok(handle) => handle,
            Err(error) => return Routed::Ready(corpus_error_response(state, request, error)),
        };
        return match EvolveRequest::from_json(&request.body) {
            Ok(evolve) => {
                corpus.record_hit();
                Routed::Evolve(EvolveTask { corpus, request: evolve })
            }
            Err(error) => Routed::Ready(Response::from(&error)),
        };
    }
    Routed::Ready(route(state, request))
}

/// Route one parsed request to a response. Never panics; every failure is
/// a status-carrying JSON error body.
pub fn route(state: &AppState, request: &Request) -> Response {
    match dispatch(state, request) {
        Ok(response) => response,
        Err(error) => Response::from(&error),
    }
}

/// Render a [`CorpusError`], clamping the `409` `retry_after_ms` hint to
/// the request's deadline budget: advising a client to wait longer than
/// its own deadline allows would guarantee a wasted retry.
fn corpus_error_response(state: &AppState, request: &Request, error: CorpusError) -> Response {
    let error = match error {
        CorpusError::Building { key, retry_after_ms } => {
            let budget = budget_ms(request.header("x-deadline-ms"), &state.deadline);
            CorpusError::Building { key, retry_after_ms: retry_after_ms.min(budget) }
        }
        other => other,
    };
    error.to_response()
}

fn dispatch(state: &AppState, request: &Request) -> Result<Response, HttpError> {
    let path = normalized(&request.path);
    match (request.method, path) {
        (Method::Get, "/healthz") => Ok(healthz(state)),
        (Method::Get, "/metrics") => {
            let registry = state.registry.stats();
            // The serving shard publishes engine + registry pool panics
            // just before routing here; the embedded/test path (no server)
            // still surfaces the registry's own counter here. `fetch_max`
            // so neither writer clobbers the other's larger total.
            state
                .gauges
                .worker_panics
                .fetch_max(state.registry.worker_panics(), std::sync::atomic::Ordering::Relaxed);
            Ok(Response::json(
                200,
                state.metrics.to_json(
                    &state.gauges,
                    &state.snapshots.info(),
                    state.lru_len(),
                    &registry,
                    &state.faults,
                ),
            ))
        }
        (Method::Get, "/admin/corpora") => Ok(state.registry.admin_list()),
        (Method::Post, "/admin/corpora") => {
            let defaults = state.registry.default_spec();
            let spec = CorpusSpec::from_json(&request.body, defaults.as_ref())?;
            Ok(state.registry.register(spec))
        }
        (Method::Get, "/admin/faults") => Ok(faults_status(state)),
        (Method::Post, "/admin/faults") => faults_update(state, &request.body),
        (Method::Delete, admin) => match admin.strip_prefix("/admin/corpora/") {
            Some(key) if !key.is_empty() => Ok(state.registry.retire(key)),
            _ => Err(HttpError::new(405, "DELETE is only accepted on /admin/corpora/{key}")),
        },
        (Method::Post, "/evolve") => {
            let corpus = match state.registry.resolve(request.query_param("corpus")) {
                Ok(handle) => handle,
                Err(error) => return Ok(corpus_error_response(state, request, error)),
            };
            let evolve = EvolveRequest::from_json(&request.body)?;
            corpus.record_hit();
            Ok(evolve_sync(state, &corpus, &evolve))
        }
        (Method::Post, _) => Err(HttpError::new(
            405,
            "POST is only accepted on /evolve, /admin/corpora, and /admin/faults",
        )),
        (Method::Get, "/evolve") => {
            Err(HttpError::new(405, "/evolve requires POST with a JSON body"))
        }
        (Method::Get, _) => cached_get(state, request),
    }
}

/// Trim a redundant trailing slash (`/table1/` → `/table1`).
pub(crate) fn normalized(path: &str) -> &str {
    if path.len() > 1 { path.trim_end_matches('/') } else { path }
}

fn cached_get(state: &AppState, request: &Request) -> Result<Response, HttpError> {
    let corpus = match state.registry.resolve(request.query_param("corpus")) {
        Ok(handle) => handle,
        Err(error) => return Ok(corpus_error_response(state, request, error)),
    };
    corpus.record_hit();
    // Scope the cache key to (corpus key, epoch): a hot-swap bumps the
    // epoch, so entries cached before the swap can never answer after it.
    let key = format!(
        "{} {}",
        corpus.cache_scope(),
        canonical_key(request.method, &request.path, &request.query)
    );
    {
        let mut lru = state.lru.lock();
        if let Some(hit) = lru.get(&key) {
            state.metrics.record_cache(true);
            return Ok(hit);
        }
    }
    state.metrics.record_cache(false);
    let response = resolve_get(&corpus, request)?;
    if response.status == 200 {
        state.lru.lock().insert(key, response.clone());
    }
    Ok(response)
}

fn resolve_get(corpus: &CorpusHandle, request: &Request) -> Result<Response, HttpError> {
    let path = normalized(&request.path);
    if path == "/" {
        return Ok(index(corpus));
    }

    // Exact snapshot paths (artifact families and /fig3/{mode}).
    if let Some(body) = corpus.snapshots.get(path) {
        return Ok(Response::json_shared(body));
    }

    let mut segments = path.trim_start_matches('/').splitn(2, '/');
    let head = segments.next().unwrap_or("");
    let tail = segments.next();

    match (head, tail) {
        ("similarity", mode) => {
            let label = match mode.or_else(|| request.query_param("mode")) {
                None => "ingredient",
                Some("ingredient" | "ingredients") => "ingredient",
                Some("category" | "categories") => "category",
                Some(other) => {
                    return Err(HttpError::new(
                        404,
                        format!("unknown similarity mode {other:?} (ingredient|category)"),
                    ));
                }
            };
            corpus
                .snapshots
                .get(&format!("/similarity/{label}"))
                .map(Response::json_shared)
                .ok_or_else(|| HttpError::new(500, "similarity snapshot missing"))
        }
        ("fig3", Some(other)) => Err(HttpError::new(
            404,
            format!("unknown fig3 granularity {other:?} (ingredient|category)"),
        )),
        ("fig3", None) => Err(HttpError::new(
            404,
            "choose a granularity: /fig3/ingredient or /fig3/category",
        )),
        ("fig4", Some(cuisine)) => {
            let id: cuisine_data::CuisineId = cuisine
                .parse()
                .map_err(|_| HttpError::new(404, format!("unknown cuisine {cuisine:?}")))?;
            corpus
                .snapshots
                .get(&format!("/fig4/{}", id.code()))
                .map(Response::json_shared)
                .ok_or_else(|| {
                    HttpError::new(404, format!("cuisine {} not in this corpus", id.code()))
                })
        }
        _ => Err(HttpError::new(404, format!("no such endpoint {path:?}"))),
    }
}

/// The `GET /admin/faults` document: the active plan (spec, seed, firing
/// counters per point) or `{"spec": null}` when none is installed.
fn faults_status(state: &AppState) -> Response {
    let mut doc = Map::new();
    match state.faults.plan() {
        None => {
            doc.insert("spec", Value::Null);
            doc.insert("total_fired", Value::U64(0));
        }
        Some(plan) => {
            doc.insert("spec", Value::String(plan.spec().to_string()));
            doc.insert("seed", Value::U64(plan.seed()));
            doc.insert("total_fired", Value::U64(plan.total_fired()));
            let points: Vec<Value> = plan
                .counts()
                .into_iter()
                .map(|count| {
                    let mut row = Map::new();
                    row.insert("point", Value::String(count.point));
                    row.insert("occurrences", Value::U64(count.occurrences));
                    row.insert("fired", Value::U64(count.fired));
                    Value::Object(row)
                })
                .collect();
            doc.insert("points", Value::Array(points));
        }
    }
    Response::json(200, serde_json::to_string(&Value::Object(doc)).unwrap_or_default())
}

/// `POST /admin/faults`: install a plan from `{"spec": "..."}` (see the
/// grammar in [`cuisine_exec::faults`](cuisine_exec::FaultPlan)), or clear
/// the active one with `{"clear": true}` or an empty spec. Unparseable
/// specs are `422` naming the offending entry.
fn faults_update(state: &AppState, body: &[u8]) -> Result<Response, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::bad_request("fault plan body must be UTF-8 JSON"))?;
    let doc: Value = serde_json::from_str(text)
        .map_err(|e| HttpError::bad_request(format!("fault plan body is not JSON: {e}")))?;
    let fields = doc
        .as_object()
        .ok_or_else(|| HttpError::bad_request("fault plan body must be a JSON object"))?;
    let clear = matches!(fields.get("clear"), Some(Value::Bool(true)));
    let spec = match fields.get("spec") {
        Some(Value::String(spec)) => spec.as_str(),
        Some(Value::Null) | None => "",
        Some(other) => {
            return Err(HttpError::bad_request(format!(
                "fault spec must be a string, got {}",
                other.kind()
            )));
        }
    };
    if clear || spec.trim().is_empty() {
        state.faults.clear();
    } else {
        let plan = FaultPlan::parse(spec).map_err(|reason| HttpError::new(422, reason))?;
        state.faults.install(plan);
    }
    Ok(faults_status(state))
}

fn healthz(state: &AppState) -> Response {
    let mut doc = Map::new();
    doc.insert("status", Value::String("ok".into()));
    doc.insert("snapshot_version", Value::String(state.snapshots.version().to_string()));
    doc.insert("snapshots", Value::U64(state.snapshots.len() as u64));
    doc.insert("corpora", Value::U64(state.registry.len() as u64));
    Response::json(200, serde_json::to_string(&Value::Object(doc)).unwrap_or_default())
}

/// The `/` document for the resolved corpus: its snapshot paths and
/// version, plus the live endpoints shared by every corpus.
fn index(corpus: &CorpusHandle) -> Response {
    let mut doc = Map::new();
    doc.insert("service", Value::String("cuisine-serve".into()));
    doc.insert("snapshot_version", Value::String(corpus.snapshots.version().to_string()));
    let mut endpoints: Vec<Value> = corpus
        .snapshots
        .paths()
        .map(|p| Value::String(p.to_string()))
        .collect();
    for live in [
        "/healthz",
        "/metrics",
        "/similarity?mode=category",
        "POST /evolve",
        "GET /admin/corpora",
        "POST /admin/corpora",
        "DELETE /admin/corpora/{key}",
        "GET /admin/faults",
        "POST /admin/faults",
    ] {
        endpoints.push(Value::String(live.to_string()));
    }
    doc.insert("endpoints", Value::Array(endpoints));
    Response::json(200, serde_json::to_string(&Value::Object(doc)).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fresh_state as state;
    use std::time::Duration;

    fn get(state: &AppState, path: &str) -> Response {
        let (method, path, query) = crate::http::parse_request_line(&format!(
            "GET {path} HTTP/1.1"
        ))
        .unwrap();
        route(state, &Request { method, path, query, headers: vec![], body: vec![] })
    }

    fn send(state: &AppState, method: Method, path: &str, body: &[u8]) -> Response {
        let (_, path, query) = crate::http::parse_request_line(&format!(
            "GET {path} HTTP/1.1"
        ))
        .unwrap();
        route(state, &Request { method, path, query, headers: vec![], body: body.to_vec() })
    }

    fn json(response: &Response) -> Value {
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    #[test]
    fn snapshot_endpoints_serve_the_stored_bytes() {
        let state = state();
        for path in ["/table1", "/fig1", "/fig2", "/fig3/ingredient", "/cuisines", "/fig4"] {
            let response = get(&state, path);
            assert_eq!(response.status, 200, "{path}");
            assert_eq!(
                response.body.as_slice(),
                state.snapshots.get(path).unwrap().as_slice(),
                "{path}"
            );
        }
    }

    #[test]
    fn similarity_modes_and_aliases() {
        let state = state();
        let default = get(&state, "/similarity");
        let by_path = get(&state, "/similarity/ingredient");
        let by_query = get(&state, "/similarity?mode=ingredient");
        assert_eq!(default.body, by_path.body);
        assert_eq!(default.body, by_query.body);
        let cat = get(&state, "/similarity?mode=category");
        assert_eq!(cat.status, 200);
        assert_ne!(cat.body, default.body);
        assert_eq!(get(&state, "/similarity?mode=nope").status, 404);
    }

    #[test]
    fn fig4_cuisine_lookup_is_case_insensitive() {
        let state = state();
        let by_code = get(&state, "/fig4/ita");
        assert_eq!(by_code.status, 200);
        let by_name = get(&state, "/fig4/Italy");
        assert_eq!(by_code.body, by_name.body);
        assert_eq!(get(&state, "/fig4/Atlantis").status, 404);
    }

    #[test]
    fn unknown_paths_are_404_and_wrong_methods_405() {
        let state = state();
        assert_eq!(get(&state, "/nope").status, 404);
        assert_eq!(get(&state, "/fig3").status, 404);
        assert_eq!(get(&state, "/evolve").status, 405);
        let post = Request {
            method: Method::Post,
            path: "/table1".into(),
            query: vec![],
            headers: vec![],
            body: b"{}".to_vec(),
        };
        assert_eq!(route(&state, &post).status, 405);
    }

    #[test]
    fn lru_serves_repeat_requests_and_counts_hits() {
        let state = state();
        let first = get(&state, "/table1/?x=1&y=2");
        let second = get(&state, "/table1?y=2&x=1"); // same canonical key
        assert_eq!(first.body, second.body);
        let (hits, misses) = state.metrics.cache_counts();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn healthz_metrics_and_index_respond() {
        let state = state();
        assert_eq!(get(&state, "/healthz").status, 200);
        let metrics = get(&state, "/metrics");
        assert_eq!(metrics.status, 200);
        let doc: Value =
            serde_json::from_str(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
        let fields = doc.as_object().unwrap();
        assert_eq!(fields.get("service").unwrap().as_str(), Some("cuisine-serve"));
        // Snapshot provenance: which kernel built the bodies, and how long
        // the build took (0 for the untimed test fixture).
        assert_eq!(
            fields.get("miner").unwrap().as_str(),
            Some(state.snapshots.miner())
        );
        assert_eq!(fields.get("snapshot_build_ms").unwrap().as_u64(), Some(0));
        let index = get(&state, "/");
        assert_eq!(index.status, 200);
        assert!(String::from_utf8_lossy(&index.body).contains("/table1"));
    }

    #[test]
    fn unknown_corpus_reads_are_404_json() {
        let state = state();
        for path in ["/table1?corpus=seed99-scale0.5-eclat", "/?corpus=seed99-scale0.5-eclat"] {
            let response = get(&state, path);
            assert_eq!(response.status, 404, "{path}");
            let doc = json(&response);
            let message = doc.as_object().unwrap().get("error").unwrap().as_str().unwrap();
            assert!(message.contains("no corpus"), "{message}");
        }
        // /evolve resolves the corpus before touching the body.
        let response = send(
            &state,
            Method::Post,
            "/evolve?corpus=seed99-scale0.5-eclat",
            br#"{"cuisine":"ITA","model":"NM"}"#,
        );
        assert_eq!(response.status, 404);
    }

    #[test]
    fn admin_cycle_building_409_hot_swap_and_retire() {
        let state = state();
        // Defaults (seed/scale/miner) inherit from the default corpus spec.
        let first = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["ITA"]}"#);
        assert_eq!(first.status, 202, "{}", String::from_utf8_lossy(&first.body));
        let second = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["FRA"]}"#);
        assert_eq!(second.status, 202);

        // The FRA build is queued behind ITA on the single builder, so it
        // is still Building here: the error contract answers 409 with a
        // retry hint.
        let fra = "seed11-scale0.02-fpgrowth-FRA";
        let blocked = get(&state, &format!("/table1?corpus={fra}"));
        assert_eq!(blocked.status, 409, "{}", String::from_utf8_lossy(&blocked.body));
        let hint = json(&blocked)
            .as_object()
            .unwrap()
            .get("retry_after_ms")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(hint >= 100, "retry_after_ms={hint}");

        assert!(state.registry.wait_ready(fra, Duration::from_secs(300)));
        let ready = get(&state, &format!("/table1?corpus={fra}"));
        assert_eq!(ready.status, 200);
        let listed = send(&state, Method::Get, "/admin/corpora", b"");
        assert_eq!(listed.status, 200);
        assert!(String::from_utf8_lossy(&listed.body).contains(fra));

        // Cached on repeat; a hot-swap bumps the epoch, so the post-swap
        // read is a cache miss that still serves byte-identical bodies.
        let (hits_before, _) = state.metrics.cache_counts();
        let repeat = get(&state, &format!("/table1?corpus={fra}"));
        assert_eq!(repeat.body, ready.body);
        assert_eq!(state.metrics.cache_counts().0, hits_before + 1);
        let swap = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["FRA"]}"#);
        assert_eq!(swap.status, 202);
        assert!(state.registry.wait_ready(fra, Duration::from_secs(300)));
        let (_, misses_before) = state.metrics.cache_counts();
        let post_swap = get(&state, &format!("/table1?corpus={fra}"));
        assert_eq!(post_swap.status, 200);
        assert_eq!(post_swap.body, ready.body, "hot-swap must not change bytes");
        assert_eq!(state.metrics.cache_counts().1, misses_before + 1, "epoch key must miss");

        // Retire: reads 404 afterwards; the default corpus is protected.
        let retired = send(&state, Method::Delete, &format!("/admin/corpora/{fra}"), b"");
        assert_eq!(retired.status, 200);
        assert_eq!(get(&state, &format!("/table1?corpus={fra}")).status, 404);
        assert_eq!(send(&state, Method::Delete, "/admin/corpora/default", b"").status, 409);
        assert_eq!(send(&state, Method::Delete, "/admin/corpora", b"").status, 405);
    }

    /// Poll the admin listing until `key`'s row satisfies `pred` (builds
    /// run on a background pool; tests need a settle point).
    fn wait_listing(state: &AppState, key: &str, pred: impl Fn(&Map) -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(300);
        while std::time::Instant::now() < deadline {
            let listing = send(state, Method::Get, "/admin/corpora", b"");
            let doc = json(&listing);
            let rows = doc.as_object().unwrap().get("corpora").unwrap().as_array().unwrap();
            let row = rows.iter().find(|r| {
                r.as_object().and_then(|o| o.get("key")).and_then(Value::as_str) == Some(key)
            });
            if let Some(row) = row.and_then(Value::as_object) {
                if pred(row) {
                    return true;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn failed_first_build_answers_a_named_500() {
        let state = state();
        state
            .faults
            .install(cuisine_exec::FaultPlan::parse("registry.build=fail").unwrap());
        let registered = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["GRC"]}"#);
        assert_eq!(registered.status, 202);
        let key = "seed11-scale0.02-fpgrowth-GRC";
        assert!(
            wait_listing(&state, key, |row| {
                row.get("state").and_then(Value::as_str) == Some("failed")
            }),
            "build should settle in the failed state"
        );
        state.faults.clear();

        // Reads answer a deterministic 500 naming the key and the reason.
        let response = get(&state, &format!("/table1?corpus={key}"));
        assert_eq!(response.status, 500, "{}", String::from_utf8_lossy(&response.body));
        let message = json(&response)
            .as_object()
            .unwrap()
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(message.contains(key), "{message}");
        assert!(message.contains("injected fault: registry.build fail"), "{message}");

        // Re-registering the failed key answers the same named 500 (there
        // is no last-good epoch to degrade to) ...
        let again = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["GRC"]}"#);
        assert_eq!(again.status, 202, "{}", String::from_utf8_lossy(&again.body));
        assert!(state.registry.wait_ready(key, Duration::from_secs(300)));
        // ... and with the fault cleared the retry installs a real build.
        assert_eq!(get(&state, &format!("/table1?corpus={key}")).status, 200);
        let stats = state.registry.stats();
        assert!(stats.build_failures >= 1, "build_failures={}", stats.build_failures);
    }

    #[test]
    fn failed_rebuild_degrades_to_last_good_and_says_so() {
        let state = state();
        let key = "seed11-scale0.02-fpgrowth-MEX";
        let registered = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["MEX"]}"#);
        assert_eq!(registered.status, 202);
        assert!(state.registry.wait_ready(key, Duration::from_secs(300)));
        let good = get(&state, &format!("/table1?corpus={key}"));
        assert_eq!(good.status, 200);

        // A failing rebuild must keep the last-good epoch serving.
        state
            .faults
            .install(cuisine_exec::FaultPlan::parse("registry.build=panic").unwrap());
        let swap = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["MEX"]}"#);
        assert_eq!(swap.status, 202);
        assert!(
            wait_listing(&state, key, |row| {
                matches!(row.get("degraded"), Some(Value::Bool(true)))
            }),
            "row should be marked degraded after the failed rebuild"
        );
        state.faults.clear();
        let after = get(&state, &format!("/table1?corpus={key}"));
        assert_eq!(after.status, 200);
        assert_eq!(after.body, good.body, "last-good bytes must keep serving");
        let listing = json(&send(&state, Method::Get, "/admin/corpora", b""));
        let rows = listing.as_object().unwrap().get("corpora").unwrap().as_array().unwrap();
        let row = rows
            .iter()
            .find_map(|r| {
                r.as_object()
                    .filter(|o| o.get("key").and_then(Value::as_str) == Some(key))
            })
            .unwrap();
        assert_eq!(row.get("state").and_then(Value::as_str), Some("ready"));
        let error = row.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("injected fault: registry.build panic"), "{error}");
        assert!(state.registry.stats().build_failures >= 1);
    }

    #[test]
    fn admin_faults_installs_reports_and_clears() {
        let state = state();
        let empty = send(&state, Method::Get, "/admin/faults", b"");
        assert_eq!(empty.status, 200);
        assert_eq!(json(&empty).as_object().unwrap().get("spec"), Some(&Value::Null));

        let bad = send(&state, Method::Post, "/admin/faults", br#"{"spec":"bogus.point=fail"}"#);
        assert_eq!(bad.status, 422, "{}", String::from_utf8_lossy(&bad.body));

        let spec = r#"{"spec":"seed=3;evolve.compute=delay:1@1in:4"}"#;
        let installed = send(&state, Method::Post, "/admin/faults", spec.as_bytes());
        assert_eq!(installed.status, 200);
        let doc = json(&installed);
        let fields = doc.as_object().unwrap();
        assert_eq!(
            fields.get("spec").and_then(Value::as_str),
            Some("seed=3;evolve.compute=delay:1@1in:4")
        );
        assert_eq!(fields.get("seed").and_then(Value::as_u64), Some(3));
        assert!(state.faults.plan().is_some());

        let cleared = send(&state, Method::Post, "/admin/faults", br#"{"clear":true}"#);
        assert_eq!(cleared.status, 200);
        assert_eq!(json(&cleared).as_object().unwrap().get("spec"), Some(&Value::Null));
        assert!(state.faults.plan().is_none());
    }

    #[test]
    fn building_409_hint_is_clamped_to_the_deadline_budget() {
        let state = state();
        // Hold the builder so the registration stays in Building.
        state
            .faults
            .install(cuisine_exec::FaultPlan::parse("registry.build=delay:300").unwrap());
        let registered = send(&state, Method::Post, "/admin/corpora", br#"{"cuisines":["JPN"]}"#);
        assert_eq!(registered.status, 202);
        let key = "seed11-scale0.02-fpgrowth-JPN";
        let (method, path, query) =
            crate::http::parse_request_line(&format!("GET /table1?corpus={key} HTTP/1.1"))
                .unwrap();
        let request = Request {
            method,
            path,
            query,
            headers: vec![("x-deadline-ms".into(), "50".into())],
            body: vec![],
        };
        let response = route(&state, &request);
        state.faults.clear();
        if response.status == 409 {
            let hint = json(&response)
                .as_object()
                .unwrap()
                .get("retry_after_ms")
                .unwrap()
                .as_u64()
                .unwrap();
            assert!(hint <= 50, "retry_after_ms={hint} must be clamped to the 50ms budget");
        } else {
            // The build can win the race on a fast machine; Ready is fine.
            assert_eq!(response.status, 200);
        }
        assert!(state.registry.wait_ready(key, Duration::from_secs(300)));
    }

    #[test]
    fn evolve_roundtrips_and_is_deterministic() {
        let state = state();
        let body = br#"{"cuisine":"ITA","model":"NM","seed":11,"replicates":2}"#.to_vec();
        let request = Request {
            method: Method::Post,
            path: "/evolve".into(),
            query: vec![],
            headers: vec![],
            body,
        };
        let a = route(&state, &request);
        let b = route(&state, &request);
        assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
        assert_eq!(a.body, b.body);
        let bad = Request { body: b"{]".to_vec(), ..request.clone() };
        assert_eq!(route(&state, &bad).status, 400);
    }
}
