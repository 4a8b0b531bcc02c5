//! Closed-loop load against a running server: GET reads, `/evolve`
//! compute, and hot-swap churn.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cuisine_core::{Experiment, PipelineConfig};
use cuisine_serve::evolve::{handle_evolve, EvolveRequest};
use cuisine_serve::lru::Lru;

use crate::build;
use crate::client::{Conn, Reply};
use crate::host;
use crate::server::{admin_rows, Launch};
use crate::stats::{Outcome, Tally};
use crate::stream::{EvolveCall, ReadStream};

/// Connections of every serve workload (one per core of the 2-core host).
pub const CONNECTIONS: usize = 2;

/// Keep every n-th `/evolve` 200 body for the offline re-check.
const EVOLVE_SAMPLE_EVERY: u64 = 16;

/// At most this many `/evolve` bodies are re-checked offline.
const EVOLVE_SAMPLES: usize = 8;

/// Transport errors kept per loop for the run's notes.
const MAX_ERRORS: usize = 4;

/// Longest wait for one hot swap to land.
const SWAP_TIMEOUT: Duration = Duration::from_secs(60);

/// Rest after each hot swap, as a multiple of the time that swap took
/// to land. Back-to-back swaps would make every read compete with a build;
/// a fixed schedule would let the share of reads that compete grow and
/// shrink with the build time, and the read tail with it. Resting three
/// times the last swap's duration keeps a build beside about a quarter of
/// the reads whether builds get faster or slower.
const SWAP_REST: u32 = 3;

/// Width of `churn`'s summary windows, in seconds: about one swap and its
/// rest each.
pub const CHURN_WINDOW_S: f64 = 3.0;

/// Width of `read`'s summary windows, in seconds: about 1500 GETs each.
pub const READ_WINDOW_S: f64 = 1.0;

/// Width of `evolve`'s summary windows, in seconds: about 500 requests
/// each, so every window's p90 has fifty samples beyond it.
pub const EVOLVE_WINDOW_S: f64 = 3.0;

/// Pause between epoch polls while a swap builds: frequent enough to
/// time a swap of about 0.6 s to within 2%, rare enough that the polls
/// add little work beside the reads.
const SWAP_POLL: Duration = Duration::from_millis(10);

/// Every GET key of a read workload: one URL per snapshot path per
/// corpus, with the bytes `SnapshotStore::get` holds for it.
pub struct ReadSet {
    /// Request target per key.
    pub urls: Vec<String>,
    /// Snapshot path per key.
    pub paths: Vec<String>,
    /// `?corpus=` value per key (`None` for the default corpus).
    pub corpus: Vec<Option<String>>,
    /// Reference body per key.
    pub expected: Vec<Arc<Vec<u8>>>,
    /// Artifact digest per corpus, default corpus first.
    pub digests: Vec<String>,
}

impl ReadSet {
    /// Build every corpus of `launch` in process and collect its bodies.
    /// The default corpus is addressed without `?corpus=`, the others by
    /// key.
    pub fn build(launch: &Launch) -> ReadSet {
        let mut set = ReadSet {
            urls: Vec::new(),
            paths: Vec::new(),
            corpus: Vec::new(),
            expected: Vec::new(),
            digests: Vec::new(),
        };
        let seeds = std::iter::once(launch.seed).chain(launch.extra_seeds.iter().copied());
        for (i, seed) in seeds.enumerate() {
            let corpus = build::synth(seed, launch.scale);
            let (store, _) = build::build_store(corpus, seed, launch.scale, launch.replicates);
            let bodies = build::bodies(&store);
            set.digests.push(build::digest(&bodies));
            let key = (i > 0).then(|| launch.corpus_key(seed));
            for (path, body) in bodies {
                set.urls.push(match &key {
                    None => path.clone(),
                    Some(key) => format!("{path}?corpus={key}"),
                });
                set.paths.push(path);
                set.corpus.push(key.clone());
                set.expected.push(body);
            }
        }
        set
    }
}

/// Hit share of an LRU of `capacity` entries, the server's own
/// `cuisine_serve::lru::Lru`, over the first `gets` requests of `stream`
/// keyed by URL (between hot swaps one-to-one with the server's key of
/// corpus, epoch and canonical request). Lets the hit share be compared
/// across popularity skews without running the server.
pub fn lru_hit_share(urls: &[String], stream: &ReadStream, capacity: usize, gets: u64) -> f64 {
    let mut lru = Lru::new(capacity);
    let mut hits = 0u64;
    for i in 0..gets {
        let url = &urls[stream.key(i)];
        if lru.get(url).is_some() {
            hits += 1;
        } else {
            lru.insert(url.clone(), ());
        }
    }
    hits as f64 / gets.max(1) as f64
}

/// What one closed loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Every attempted request as (completion offset from the start of the
    /// phase in s, latency in ms); a failed request has an infinite
    /// latency, so it misses every latency limit.
    pub samples: Vec<(f64, f64)>,
    /// Requests that completed with the expected status and bytes.
    pub completed: u64,
    /// Accounting of every attempted request.
    pub tally: Tally,
    /// Wall time of the loop.
    pub wall_s: f64,
    /// Width of the phase's summary windows, in seconds.
    pub width_s: f64,
    /// Host steal share of each summary window.
    pub steal: Vec<f64>,
    /// The first transport errors, as (completion offset in s, error).
    pub errors: Vec<(f64, String)>,
}

impl LoopResult {
    fn merge(&mut self, other: LoopResult) {
        self.samples.extend(other.samples);
        self.completed += other.completed;
        self.tally.merge(&other.tally);
        self.errors.extend(other.errors);
    }

    /// Completed requests per second.
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// Latencies in ms, failed requests at +∞.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, ms)| ms).collect()
    }
}

/// One request as the load loop saw it: when it went out, when its reply
/// was in, and the check of the reply. Only `sent..answered` is latency;
/// the check runs after it.
pub struct Exchange {
    sent: Instant,
    answered: Instant,
    outcome: Outcome,
    error: Option<String>,
}

impl Exchange {
    /// Time `request`, then classify its reply with `check`.
    pub fn timed(request: impl FnOnce() -> Reply, check: impl FnOnce(&Reply) -> Outcome) -> Self {
        let sent = Instant::now();
        let reply = request();
        let answered = Instant::now();
        Exchange {
            sent,
            answered,
            outcome: check(&reply),
            error: reply.as_ref().err().map(ToString::to_string),
        }
    }
}

/// One connection's closed loop: take the next request index, exchange,
/// repeat until the deadline.
fn closed_loop(
    addr: SocketAddr,
    cursor: &AtomicU64,
    phase: Instant,
    deadline: Instant,
    mut exchange: impl FnMut(&mut Conn, u64) -> Exchange,
) -> LoopResult {
    let mut out = LoopResult::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(_) => {
            out.tally.record(Outcome::Transport);
            out.samples
                .push((phase.elapsed().as_secs_f64(), f64::INFINITY));
            return out;
        }
    };
    while Instant::now() < deadline {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Exchange {
            sent,
            answered,
            outcome,
            error,
        } = exchange(&mut conn, index);
        let ms = (answered - sent).as_secs_f64() * 1e3;
        let end_s = (answered - phase).as_secs_f64();
        out.tally.record(outcome);
        if let Some(error) = error.filter(|_| out.errors.len() < MAX_ERRORS) {
            out.errors
                .push((end_s, format!("{error} after {ms:.1} ms")));
        }
        if outcome == Outcome::Ok {
            out.completed += 1;
            out.samples.push((end_s, ms));
        } else {
            out.samples.push((end_s, f64::INFINITY));
            if outcome == Outcome::Transport && conn.reconnect().is_err() {
                break;
            }
        }
    }
    out
}

/// Run `connections` closed loops for `seconds`, recording the host steal
/// of every summary window of about `window_s` seconds beside them.
fn run_loops(
    connections: usize,
    seconds: f64,
    window_s: f64,
    body: impl Fn(Instant, Instant) -> LoopResult + Sync,
) -> LoopResult {
    let (windows, width) = host::windows(seconds, window_s);
    let started = Instant::now();
    let deadline = started + width * windows as u32;
    let mut total = LoopResult::default();
    std::thread::scope(|scope| {
        let steal = scope.spawn(|| host::steal_by_window(started, width, windows));
        let handles: Vec<_> = (0..connections)
            .map(|_| scope.spawn(|| body(started, deadline)))
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("load thread panicked"));
        }
        total.steal = steal.join().expect("steal thread panicked");
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total.width_s = width.as_secs_f64();
    total
}

/// GETs from `stream`, each body checked against its reference.
pub fn read_loop(
    addr: SocketAddr,
    set: &ReadSet,
    stream: &ReadStream,
    cursor: &AtomicU64,
    phase: Instant,
    deadline: Instant,
) -> LoopResult {
    closed_loop(addr, cursor, phase, deadline, |conn, index| {
        let key = stream.key(index);
        Exchange::timed(
            || conn.get(&set.urls[key]),
            |reply| Outcome::of(reply, 200, Some(&set.expected[key])),
        )
    })
}

/// The `read` workload's timed phase.
pub fn read(addr: SocketAddr, set: &ReadSet, stream: &ReadStream, seconds: f64) -> LoopResult {
    let cursor = AtomicU64::new(0);
    run_loops(CONNECTIONS, seconds, READ_WINDOW_S, |phase, deadline| {
        read_loop(addr, set, stream, &cursor, phase, deadline)
    })
}

/// What the `/evolve` phase measured beyond the loop itself.
#[derive(Debug, Default)]
pub struct EvolveRun {
    /// The closed loops.
    pub load: LoopResult,
    /// Requests sent (stream prefix consumed).
    pub sent: u64,
    /// Sent requests whose key had been sent before in this run.
    pub repeated: u64,
    /// Sampled 200 bodies for the offline re-check.
    pub samples: Vec<(EvolveCall, Vec<u8>)>,
}

/// The `evolve` workload's timed phase.
pub fn evolve(addr: SocketAddr, calls: &[EvolveCall], seconds: f64) -> EvolveRun {
    let bodies: Vec<String> = calls.iter().map(EvolveCall::body).collect();
    let cursor = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let load = run_loops(CONNECTIONS, seconds, EVOLVE_WINDOW_S, |phase, deadline| {
        closed_loop(addr, &cursor, phase, deadline, |conn, index| {
            let i = (index % calls.len() as u64) as usize;
            Exchange::timed(
                || conn.post("/evolve", &bodies[i]),
                |reply| {
                    let outcome = Outcome::of(reply, 200, None);
                    if let (Outcome::Ok, Ok((_, body))) = (outcome, reply) {
                        if index % EVOLVE_SAMPLE_EVERY == 0 {
                            let mut kept = samples.lock().expect("sample lock poisoned");
                            if kept.len() < EVOLVE_SAMPLES {
                                kept.push((calls[i].clone(), body.clone()));
                            }
                        }
                    }
                    outcome
                },
            )
        })
    });
    let sent = cursor.load(Ordering::Relaxed).min(load.tally.attempted);
    let mut seen = std::collections::HashSet::new();
    let repeated = (0..sent as usize)
        .filter(|&i| !seen.insert(&bodies[i % calls.len()]))
        .count() as u64;
    EvolveRun {
        load,
        sent,
        repeated,
        samples: samples.into_inner().expect("sample lock poisoned"),
    }
}

/// Re-run sampled `/evolve` requests offline through `handle_evolve` on
/// an in-process copy of the default corpus; returns the mismatches.
pub fn recheck_evolve(launch: &Launch, samples: &[(EvolveCall, Vec<u8>)]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let experiment = Experiment::with_config(
        build::synth(launch.seed, launch.scale),
        PipelineConfig::default(),
    );
    samples
        .iter()
        .filter(|(call, served)| {
            let offline = EvolveRequest::from_json(call.body().as_bytes())
                .ok()
                .and_then(|request| handle_evolve(&request, &experiment).ok());
            offline.is_none_or(|response| {
                response.status != 200 || response.body.as_slice() != served.as_slice()
            })
        })
        .count() as u64
}

/// What the `churn` workload's swap connection measured.
#[derive(Debug, Default)]
pub struct SwapRun {
    /// Time from a swap's registration until the new epoch is Ready,
    /// per swap, in seconds.
    pub swap_s: Vec<f64>,
    /// Server-timed build of each new epoch, in ms.
    pub build_ms: Vec<f64>,
    /// Accounting of the swaps.
    pub tally: Tally,
}

/// Re-register corpus `seed` until `deadline`, waiting for each new epoch
/// and then resting [`SWAP_REST`] times as long as the swap took. A swap
/// started before the deadline runs to the end.
pub fn swap_loop(addr: SocketAddr, launch: &Launch, seed: u64, deadline: Instant) -> SwapRun {
    let key = launch.corpus_key(seed);
    let body = format!(r#"{{"seed":{seed}}}"#);
    let mut out = SwapRun::default();
    let Ok(mut conn) = Conn::open(addr) else {
        out.tally.record(Outcome::Transport);
        return out;
    };
    let epoch_of = |conn: &mut Conn| -> Option<(u64, bool, u64)> {
        let rows = admin_rows(conn).ok()?;
        let row = rows.into_iter().find(|r| r.key == key)?;
        Some((row.epoch, row.settled(), row.build_ms))
    };
    let mut next = Instant::now();
    while next < deadline {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        let Some((before, _, _)) = epoch_of(&mut conn) else {
            out.tally.record(Outcome::Transport);
            break;
        };
        let started = Instant::now();
        let registered = conn.post("/admin/corpora", &body);
        let outcome = Outcome::of(&registered, 202, None);
        if outcome != Outcome::Ok {
            out.tally.record(outcome);
            break;
        }
        let landed = loop {
            match epoch_of(&mut conn) {
                Some((epoch, true, build_ms)) if epoch > before => break Some(build_ms),
                Some(_) if started.elapsed() < SWAP_TIMEOUT => std::thread::sleep(SWAP_POLL),
                _ => break None,
            }
        };
        let Some(build_ms) = landed else {
            out.tally.record(Outcome::Status);
            break;
        };
        let took = started.elapsed();
        out.tally.record(Outcome::Ok);
        out.swap_s.push(took.as_secs_f64());
        out.build_ms.push(build_ms as f64);
        next = Instant::now() + took * SWAP_REST;
    }
    out
}

/// The `churn` workload's timed phase: reads on one connection, swaps of
/// one registered corpus on the other.
pub fn churn(
    addr: SocketAddr,
    launch: &Launch,
    set: &ReadSet,
    stream: &ReadStream,
    seconds: f64,
) -> (LoopResult, SwapRun) {
    let (windows, width) = host::windows(seconds, CHURN_WINDOW_S);
    let started = Instant::now();
    let deadline = started + width * windows as u32;
    let swapped = *launch
        .extra_seeds
        .first()
        .expect("churn needs a registered corpus");
    let cursor = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let steal = scope.spawn(|| host::steal_by_window(started, width, windows));
        let swaps = scope.spawn(|| swap_loop(addr, launch, swapped, deadline));
        let mut reads = read_loop(addr, set, stream, &cursor, started, deadline);
        reads.wall_s = started.elapsed().as_secs_f64();
        reads.width_s = width.as_secs_f64();
        reads.steal = steal.join().expect("steal thread panicked");
        (reads, swaps.join().expect("swap thread panicked"))
    })
}
