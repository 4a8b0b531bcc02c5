//! `POST /evolve` — on-demand evolution-model ensembles.
//!
//! The one endpoint that computes per request instead of serving a
//! snapshot. The request names a cuisine, a model, a master seed, and a
//! replicate count; the handler runs the same
//! [`evaluate_model_on_cuisine`] path as the batch Fig. 4 pipeline —
//! sharing the experiment's `TransactionCache` for the empirical curve —
//! and returns the aggregated curve plus its Eq. 2 distance.
//!
//! Determinism contract: ensemble replicate seeds derive only from
//! `(seed, replicate index)` ([`cuisine_evolution::replicate_seed`]), so
//! the response body for a given request body is **byte-identical** across
//! repeated requests, worker threads, and server pool sizes. Request cost
//! is bounded by [`MAX_REPLICATES`]; anything larger is rejected with
//! `422` before any work happens.
//!
//! That same determinism makes two optimizations *semantically free*, both
//! implemented here:
//!
//! * a **seeded-evolve result cache** ([`AppState::evolve_cache`]) keyed on
//!   [`EvolveRequest::canonical_key`] — a repeat of a finished request is a
//!   lookup, and the cached body is the byte-identical `Arc`-shared
//!   original;
//! * **single-flight coalescing** ([`EvolveEngine`]) — identical requests
//!   *in flight* attach to the leader's computation via a
//!   [`cuisine_exec::Flight`] instead of duplicating it, so a thundering
//!   herd of one hot request costs one ensemble run.

use std::collections::HashMap;
use std::sync::Arc;

use cuisine_core::Experiment;
use cuisine_exec::lockorder::{self, OrderedMutex};
use cuisine_exec::{panic_message, Flight, PoolFull, Waker, WorkerPool};
use cuisine_data::CuisineId;
use cuisine_evolution::{
    evaluate_model_on_cuisine, CuisineSetup, EnsembleConfig, EvaluationConfig, ModelKind,
    ModelParams,
};
use cuisine_mining::{CombinationAnalysis, ItemMode, TransactionSource};
use serde::{Map, Value};

use crate::http::{HttpError, Response};
use crate::registry::CorpusHandle;
use crate::router::AppState;

/// Upper bound on replicates per request (paper ensembles use 100 in
/// batch; serving bounds request cost instead).
pub const MAX_REPLICATES: usize = 64;

/// A validated `/evolve` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolveRequest {
    /// Cuisine to model.
    pub cuisine: CuisineId,
    /// Evolution model to run.
    pub model: ModelKind,
    /// Master ensemble seed (same seed ⇒ byte-identical response).
    pub seed: u64,
    /// Replicates to aggregate (1..=[`MAX_REPLICATES`]).
    pub replicates: usize,
    /// Combination granularity for the mined curves.
    pub mode: ItemMode,
}

fn parse_model(label: &str) -> Option<ModelKind> {
    ModelKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(label))
}

fn parse_mode(label: &str) -> Option<ItemMode> {
    match label.to_ascii_lowercase().as_str() {
        "ingredient" | "ingredients" => Some(ItemMode::Ingredients),
        "category" | "categories" => Some(ItemMode::Categories),
        _ => None,
    }
}

impl EvolveRequest {
    /// Parse and validate a JSON request body.
    ///
    /// Shape: `{"cuisine": "ITA", "model": "CM-M", "seed": 42,
    /// "replicates": 16, "mode": "ingredient"}`. `seed` defaults to the
    /// batch ensemble default, `replicates` to 8, `mode` to ingredients.
    /// Unknown fields are rejected (`422`) so typos cannot silently fall
    /// back to defaults; malformed JSON is `400`.
    pub fn from_json(body: &[u8]) -> Result<Self, HttpError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
        let value: Value = serde_json::from_str(text)
            .map_err(|e| HttpError::bad_request(format!("invalid JSON body: {e}")))?;
        let object = value
            .as_object()
            .ok_or_else(|| HttpError::bad_request("body must be a JSON object"))?;

        for (key, _) in object.iter() {
            if !matches!(key, "cuisine" | "model" | "seed" | "replicates" | "mode") {
                return Err(HttpError::new(422, format!("unknown field {key:?}")));
            }
        }

        let cuisine_label = object
            .get("cuisine")
            .and_then(Value::as_str)
            .ok_or_else(|| HttpError::new(422, "field \"cuisine\" (string) is required"))?;
        let cuisine: CuisineId = cuisine_label
            .parse()
            .map_err(|_| HttpError::new(422, format!("unknown cuisine {cuisine_label:?}")))?;

        let model_label = object
            .get("model")
            .and_then(Value::as_str)
            .ok_or_else(|| HttpError::new(422, "field \"model\" (string) is required"))?;
        let model = parse_model(model_label).ok_or_else(|| {
            HttpError::new(422, format!("unknown model {model_label:?} (CM-R/CM-C/CM-M/NM)"))
        })?;

        let seed = match object.get("seed") {
            None => EnsembleConfig::default().seed,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| HttpError::new(422, "field \"seed\" must be a non-negative integer"))?,
        };

        let replicates = match object.get("replicates") {
            None => 8,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| HttpError::new(422, "field \"replicates\" must be an integer"))?
                as usize,
        };
        if replicates == 0 || replicates > MAX_REPLICATES {
            return Err(HttpError::new(
                422,
                format!("\"replicates\" must be in 1..={MAX_REPLICATES}, got {replicates}"),
            ));
        }

        let mode = match object.get("mode") {
            None => ItemMode::Ingredients,
            Some(v) => {
                let label = v
                    .as_str()
                    .ok_or_else(|| HttpError::new(422, "field \"mode\" must be a string"))?;
                parse_mode(label).ok_or_else(|| {
                    HttpError::new(422, format!("unknown mode {label:?} (ingredient|category)"))
                })?
            }
        };

        Ok(EvolveRequest { cuisine, model, seed, replicates, mode })
    }

    /// Canonical coalescing/cache key: every field that can change the
    /// response body, in fixed order. Two requests with equal keys are
    /// guaranteed byte-identical responses by the determinism contract —
    /// that guarantee is what licenses sharing one computation between
    /// them.
    pub fn canonical_key(&self) -> String {
        let mode = match self.mode {
            ItemMode::Ingredients => "ingredient",
            ItemMode::Categories => "category",
        };
        format!(
            "{}|{}|{}|{}|{}",
            self.cuisine.code(),
            self.model.label(),
            self.seed,
            self.replicates,
            mode
        )
    }
}

/// A validated `/evolve` computation bound to the corpus (at the epoch)
/// it will run against: the router resolves the [`CorpusHandle`] once,
/// so a registry hot-swap mid-request cannot change the experiment the
/// ensemble runs on.
pub struct EvolveTask {
    /// The resolved corpus read-lease.
    pub corpus: CorpusHandle,
    /// The validated request.
    pub request: EvolveRequest,
}

impl EvolveTask {
    /// Cache/coalescing key: the corpus scope (`key@epoch`) joined with
    /// [`EvolveRequest::canonical_key`]. Including the epoch means a
    /// hot-swap retires the old cache entries by construction — and
    /// because rebuilds of one spec are byte-identical, any cross-epoch
    /// miss only costs a recompute, never a wrong body.
    pub fn cache_key(&self) -> String {
        format!("{}|{}", self.corpus.cache_scope(), self.request.canonical_key())
    }
}

/// Run the requested ensemble and render the response body.
///
/// Replicate ensembles run sequentially on the worker thread
/// (`threads: Some(1)`) — the pool already provides request-level
/// parallelism, and the determinism contract makes the thread knob
/// value-neutral anyway.
pub fn handle_evolve(request: &EvolveRequest, experiment: &Experiment) -> Result<Response, HttpError> {
    let corpus = experiment.corpus();
    let lexicon = experiment.lexicon();
    let setup = CuisineSetup::from_corpus(corpus, request.cuisine).ok_or_else(|| {
        HttpError::new(422, format!("cuisine {} has no recipes in this corpus", request.cuisine))
    })?;

    let config = EvaluationConfig {
        ensemble: EnsembleConfig {
            replicates: request.replicates,
            seed: request.seed,
            threads: Some(1),
        },
        mode: request.mode,
        // Use the same mining kernel (and kernel execution options) the
        // snapshots were built with.
        miner: experiment.config().miner,
        mining: experiment.config().mining,
        ..Default::default()
    };

    // Empirical curve through the shared transaction cache.
    let source = TransactionSource::from(experiment.transaction_cache());
    let transactions = source.cuisine(corpus, request.cuisine, request.mode, lexicon);
    let empirical =
        CombinationAnalysis::mine_opts(&transactions, config.min_support, config.miner, config.mining)
            .rank_frequency();

    let params = ModelParams::paper(request.model);
    let result =
        evaluate_model_on_cuisine(request.model, &params, &setup, &empirical, lexicon, &config);

    let mut doc = Map::new();
    doc.insert("cuisine", Value::String(request.cuisine.code().to_string()));
    doc.insert("model", Value::String(request.model.label().to_string()));
    doc.insert("seed", Value::U64(request.seed));
    doc.insert("replicates", Value::U64(request.replicates as u64));
    doc.insert(
        "mode",
        serde_json::to_value(&request.mode).map_err(|e| HttpError::new(500, e.to_string()))?,
    );
    doc.insert(
        "empirical",
        serde_json::to_value(&empirical).map_err(|e| HttpError::new(500, e.to_string()))?,
    );
    doc.insert(
        "result",
        serde_json::to_value(&result).map_err(|e| HttpError::new(500, e.to_string()))?,
    );
    let body = serde_json::to_string(&Value::Object(doc))
        .map_err(|e| HttpError::new(500, e.to_string()))?;
    Ok(Response::json(200, body))
}

/// Compute an `/evolve` response through the seeded result cache,
/// synchronously on the calling thread.
///
/// This is the blocking form used by the legacy [`crate::router::route`]
/// path and unit tests; the server's connection shards go through
/// [`EvolveEngine`] instead, which adds single-flight coalescing on top of
/// the same cache. Only `200`s are cached — errors are cheap to recompute
/// and must not mask a later success.
pub fn evolve_sync(state: &AppState, corpus: &CorpusHandle, request: &EvolveRequest) -> Response {
    let key = format!("{}|{}", corpus.cache_scope(), request.canonical_key());
    if let Some(hit) = cache_lookup(state, &key) {
        return hit;
    }
    state.metrics.record_evolve_cache(false);
    state.metrics.record_evolve_computation();
    let response = match handle_evolve(request, &corpus.experiment) {
        Ok(response) => response,
        Err(error) => Response::from(&error),
    };
    cache_publish(state, key, &response);
    response
}

/// Consult the seeded-evolve cache, recording a hit metric on success (the
/// miss metric is the caller's: a coalesced waiter is not a cache miss).
fn cache_lookup(state: &AppState, key: &str) -> Option<Response> {
    // The OrderedMutex heals (and counts) a poisoned lock instead of the
    // old `.lock().ok()` pattern, which silently turned a poisoned cache
    // into a permanent all-miss.
    let hit = state.evolve_cache.lock().get(key);
    if hit.is_some() {
        state.metrics.record_evolve_cache(true);
    }
    hit
}

/// Publish a successful response into the seeded-evolve cache.
fn cache_publish(state: &AppState, key: String, response: &Response) {
    if response.status == 200 {
        state.evolve_cache.lock().insert(key, response.clone());
    }
}

/// Outcome of [`EvolveEngine::submit`].
#[derive(Debug)]
pub enum Submitted {
    /// The response is available now (cache hit, or an immediate `503`
    /// when the queue was full).
    Ready(Response),
    /// The request is being computed (or was coalesced onto an identical
    /// in-flight computation): poll or wait on the flight.
    Wait(Arc<Flight<Response>>),
}

type InflightMap = HashMap<String, Arc<Flight<Response>>>;

struct EngineShared {
    state: Arc<AppState>,
    /// Canonical key → the flight publishing that computation's response.
    /// Point queries only (insert/get/remove) — never iterated.
    inflight: OrderedMutex<InflightMap>,
}

/// One queued computation: the leader's corpus-bound task plus the flight
/// every waiter holds.
struct EvolveJob {
    key: String,
    task: EvolveTask,
    flight: Arc<Flight<Response>>,
}

/// Single-flight `/evolve` executor: a bounded [`WorkerPool`] behind an
/// in-flight map of [`Flight`]s.
///
/// Submission order of operations (the invariant the concurrency tests
/// pin): a request first consults the result cache, then the in-flight
/// map *under its lock* — attaching to an existing flight if present,
/// re-checking the cache before leading a new one. The worker publishes
/// the finished response into the cache **before** removing the in-flight
/// entry, so at every instant an identical request finds either the cached
/// result or a flight to attach to — never a gap that would duplicate the
/// computation.
///
/// Wake-ups: a caller that polls its flight instead of blocking on it
/// passes its thread's [`Waker`] to [`EvolveEngine::submit`]. A coalescing
/// waiter registers it on the existing flight under the in-flight lock, a
/// leader on its new flight before the job is queued, so the registration
/// always precedes the completion or finds the value already published.
/// Every path that ends a flight — computed, panicked (caught as a `500`)
/// or shed (`503`) — goes through [`Flight::complete`], which rings each
/// registered waker once.
pub struct EvolveEngine {
    shared: Arc<EngineShared>,
    pool: WorkerPool<EvolveJob>,
}

impl EvolveEngine {
    /// Build an engine over `state` with `threads` pool workers and a
    /// submission queue of `queue_capacity`.
    pub fn new(state: Arc<AppState>, threads: Option<usize>, queue_capacity: usize) -> Self {
        let faults = Arc::clone(&state.faults);
        let shared = Arc::new(EngineShared {
            state,
            inflight: OrderedMutex::new(lockorder::EVOLVE_INFLIGHT, HashMap::new()),
        });
        let worker_shared = Arc::clone(&shared);
        let pool = WorkerPool::with_faults(
            threads,
            queue_capacity,
            Some(faults),
            move |job: EvolveJob| {
                run_job(&worker_shared, job);
            },
        );
        EvolveEngine { shared, pool }
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Handler panics contained by the pool (including injected
    /// `pool.dispatch` faults, which drop the job before `run_job` can
    /// complete its flight — deadline expiry turns those into `504`s).
    pub fn worker_panics(&self) -> u64 {
        self.pool.worker_panics()
    }

    /// Jobs submitted but not yet finished.
    pub fn depth(&self) -> usize {
        self.pool.depth()
    }

    /// Submit a validated, corpus-bound task; see the type docs for the
    /// protocol. On [`Submitted::Wait`], `waker` is rung once the flight
    /// completes — or the flight was already complete, and its
    /// [`Flight::try_get`] has the value.
    pub fn submit(&self, task: EvolveTask, waker: &Waker) -> Submitted {
        let state = &self.shared.state;
        let key = task.cache_key();
        if let Some(hit) = cache_lookup(state, &key) {
            return Submitted::Ready(hit);
        }
        let flight = {
            let mut inflight = self.shared.inflight.lock();
            if let Some(existing) = inflight.get(&key) {
                state.metrics.record_coalesced_waiter();
                existing.wake_on_complete(waker);
                return Submitted::Wait(Arc::clone(existing));
            }
            // A finished leader publishes to the cache before clearing its
            // in-flight entry, so this re-check under the lock closes the
            // window between our cache miss and its removal.
            if let Some(hit) = cache_lookup(state, &key) {
                return Submitted::Ready(hit);
            }
            state.metrics.record_evolve_cache(false);
            let flight = Arc::new(Flight::new());
            flight.wake_on_complete(waker);
            inflight.insert(key.clone(), Arc::clone(&flight));
            flight
        };
        let job = EvolveJob { key, task, flight: Arc::clone(&flight) };
        match self.pool.try_execute(job) {
            Ok(()) => Submitted::Wait(flight),
            Err(PoolFull(job)) => {
                // Shed: clear the entry so later arrivals are not parked on
                // a computation that will never run, and fail the waiters
                // that already attached.
                self.shared.inflight.lock().remove(&job.key);
                state.metrics.record_shed();
                let response = Response::error(503, "evolve queue is full");
                job.flight.complete(response.clone());
                Submitted::Ready(response)
            }
        }
    }
}

fn run_job(shared: &EngineShared, job: EvolveJob) {
    let state = &shared.state;
    state.metrics.record_evolve_computation();
    // The pool's worker loop swallows job panics to keep the worker alive;
    // if the handler panicked through it the flight would never complete
    // and every coalesced waiter would hang. Catch here and answer 500.
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(action) = state.faults.fire("evolve.compute") {
            // Delay stretches the computation in place; fail/short-write
            // become a contract 500; panic unwinds into the catch below.
            action
                .apply("evolve.compute")
                .map_err(|reason| HttpError::new(500, reason))?;
        }
        handle_evolve(&job.task.request, &job.task.corpus.experiment)
    }));
    let response = match computed {
        Ok(Ok(response)) => response,
        Ok(Err(error)) => Response::from(&error),
        Err(payload) => Response::error(
            500,
            &format!("evolve computation panicked: {}", panic_message(payload.as_ref())),
        ),
    };
    // Publish to the cache *before* clearing the in-flight entry (see the
    // engine docs for why this order is load-bearing).
    cache_publish(state, job.key.clone(), &response);
    shared.inflight.lock().remove(&job.key);
    job.flight.complete(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fresh_shared_state, fresh_state};
    use std::time::Duration;

    fn request(seed: u64) -> EvolveRequest {
        EvolveRequest::from_json(
            format!(r#"{{"cuisine":"ITA","model":"NM","seed":{seed},"replicates":2}}"#).as_bytes(),
        )
        .unwrap()
    }

    fn default_corpus(state: &AppState) -> CorpusHandle {
        state.registry.resolve(None).unwrap()
    }

    #[test]
    fn canonical_key_is_field_order_stable() {
        let a = EvolveRequest::from_json(
            br#"{"cuisine":"ITA","model":"NM","seed":7,"replicates":2,"mode":"ingredient"}"#,
        )
        .unwrap();
        let b = EvolveRequest::from_json(
            br#"{"mode":"ingredients","replicates":2,"seed":7,"model":"nm","cuisine":"Italy"}"#,
        )
        .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), request(8).canonical_key());
    }

    #[test]
    fn evolve_sync_caches_successful_responses() {
        let state = fresh_state();
        let corpus = default_corpus(&state);
        let first = evolve_sync(&state, &corpus, &request(11));
        let second = evolve_sync(&state, &corpus, &request(11));
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body);
        let (hits, misses, computations) = state.metrics.evolve_counts();
        assert_eq!((hits, misses, computations), (1, 1, 1));
    }

    #[test]
    fn engine_serves_cache_hits_and_computes_misses() {
        let state = fresh_shared_state();
        let engine = EvolveEngine::new(Arc::clone(&state), Some(1), 8);
        let task = || EvolveTask { corpus: default_corpus(&state), request: request(11) };
        let waker = Waker::new().unwrap();
        let first = match engine.submit(task(), &waker) {
            Submitted::Wait(flight) => {
                flight.wait_timeout(Duration::from_secs(60)).expect("leader completes")
            }
            Submitted::Ready(r) => r,
        };
        assert_eq!(first.status, 200);
        // Identical request again: the worker published to the cache, so
        // this must be a Ready cache hit with the byte-identical body.
        match engine.submit(task(), &waker) {
            Submitted::Ready(hit) => assert_eq!(hit.body, first.body),
            Submitted::Wait(_) => panic!("finished request must be a cache hit"),
        }
        let (hits, _, computations) = state.metrics.evolve_counts();
        assert_eq!(hits, 1);
        assert_eq!(computations, 1);
        // A sync recompute with the cache bypassed matches the engine's
        // bytes — the cached path is not a separate serialization.
        let baseline = match handle_evolve(&request(11), &state.experiment) {
            Ok(r) => r,
            Err(e) => panic!("baseline failed: {e}"),
        };
        assert_eq!(baseline.body, first.body);
    }

    #[test]
    fn engine_rings_the_waker_of_leader_and_coalesced_waiters() {
        use cuisine_exec::readiness::wait;
        let state = fresh_shared_state();
        let engine = EvolveEngine::new(Arc::clone(&state), Some(1), 8);
        let task = || EvolveTask { corpus: default_corpus(&state), request: request(21) };
        let (leader, coalesced) = (Waker::new().unwrap(), Waker::new().unwrap());
        let Submitted::Wait(first) = engine.submit(task(), &leader) else {
            panic!("uncached request must wait");
        };
        let second = engine.submit(task(), &coalesced);
        let mut set = [leader.poll_fd()];
        assert_eq!(wait(&mut set, Some(Duration::from_secs(60))).unwrap(), 1);
        let body = first.try_get().expect("rung only after completion").body;
        match second {
            Submitted::Wait(flight) => {
                let mut set = [coalesced.poll_fd()];
                assert_eq!(wait(&mut set, Some(Duration::from_secs(5))).unwrap(), 1);
                assert_eq!(flight.try_get().map(|r| r.body), Some(body));
            }
            // The leader finished before the second submit: a cache hit.
            Submitted::Ready(hit) => assert_eq!(hit.body, body),
        }
    }

    #[test]
    fn parses_a_full_request() {
        let req = EvolveRequest::from_json(
            br#"{"cuisine":"ITA","model":"cm-m","seed":9,"replicates":4,"mode":"categories"}"#,
        )
        .unwrap();
        assert_eq!(req.cuisine.code(), "ITA");
        assert_eq!(req.model, ModelKind::CmM);
        assert_eq!(req.seed, 9);
        assert_eq!(req.replicates, 4);
        assert_eq!(req.mode, ItemMode::Categories);
    }

    #[test]
    fn defaults_are_applied() {
        let req = EvolveRequest::from_json(br#"{"cuisine":"Italy","model":"NM"}"#).unwrap();
        assert_eq!(req.seed, EnsembleConfig::default().seed);
        assert_eq!(req.replicates, 8);
        assert_eq!(req.mode, ItemMode::Ingredients);
    }

    #[test]
    fn rejects_bad_requests_with_the_right_status() {
        assert_eq!(EvolveRequest::from_json(b"not json").unwrap_err().status, 400);
        assert_eq!(EvolveRequest::from_json(b"[1,2]").unwrap_err().status, 400);
        let cases: &[&[u8]] = &[
            br#"{"model":"NM"}"#,                                     // missing cuisine
            br#"{"cuisine":"ITA"}"#,                                  // missing model
            br#"{"cuisine":"Atlantis","model":"NM"}"#,                // unknown cuisine
            br#"{"cuisine":"ITA","model":"GPT"}"#,                    // unknown model
            br#"{"cuisine":"ITA","model":"NM","replicates":0}"#,      // zero replicates
            br#"{"cuisine":"ITA","model":"NM","replicates":1000}"#,   // over budget
            br#"{"cuisine":"ITA","model":"NM","seed":-4}"#,           // negative seed
            br#"{"cuisine":"ITA","model":"NM","mode":"vibes"}"#,      // unknown mode
            br#"{"cuisine":"ITA","model":"NM","surprise":1}"#,        // unknown field
        ];
        for body in cases {
            let err = EvolveRequest::from_json(body).unwrap_err();
            assert_eq!(err.status, 422, "body={:?} err={err}", String::from_utf8_lossy(body));
        }
    }
}
