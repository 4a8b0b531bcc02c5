//! The traced run: per-layer metrics of every layer.
//!
//! Three parts, each timed from outside the program:
//! 1. a stage-by-stage build of the workload's corpus through the same
//!    public calls `SnapshotStore::build` makes (checked byte for byte
//!    against it), plus a pass that splits Fig. 4 into replicate
//!    generation and pool mining;
//! 2. the three request streams against the `serve` binary, with
//!    `/metrics` and `/admin/corpora` read before and after each, and an
//!    idle window for idle CPU;
//! 3. the read and `/evolve` streams replayed against an in-process
//!    `AppState` through `FrameReader`, `route_conn`, `CorpusRegistry::resolve`,
//!    `SnapshotStore::get`, `handle_evolve` and `Response::append_to`.
//!
//! Every part runs for every workload, so every per-layer metric has a
//! value in every traced run; the workload's own stream gets the full
//! `--seconds`, the other two a short probe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cuisine_core::evolution::ModelKind;
use cuisine_core::mining::Miner;
use cuisine_core::{Experiment, PipelineConfig};
use cuisine_serve::evolve::handle_evolve;
use cuisine_serve::router::route_conn;
use cuisine_serve::{
    AppState, BuildOptions, CorpusSpec, Frame, FrameReader, RegistryConfig, Response, Routed,
    SnapshotStore,
};

use crate::build::{self, TracedBuild};
use crate::load::{self, ReadSet};
use crate::server::{Deltas, Launch, ServeProcess};
use crate::stats::{median, Outcome, Tally};
use crate::stream::{evolve_stream, ReadStream, EVOLVE_STREAM_LEN};
use crate::trace::{SpanId, Tracer};
use crate::{Metric, Workload};

/// Seconds given to each stream that is not the workload's own.
const PROBE_SECONDS: f64 = 3.0;

/// Idle window for the server's idle CPU.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

/// Most GETs replayed in process.
const READ_REPLAY: usize = 20_000;

/// `/evolve` requests replayed in process.
const EVOLVE_REPLAY: usize = 8;

/// Spans written to the trace file.
const SPANS_WRITTEN: usize = 50_000;

/// The per-layer metrics, the accounting, and human-readable notes.
pub struct TracedRun {
    /// Per-layer metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

/// Run the traced pass for `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    build_launch: &Launch,
    serve_launch: &Launch,
    serve_bin: &std::path::Path,
    recorded_digest: Option<&str>,
) -> std::io::Result<TracedRun> {
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut metrics = Vec::new();

    // Part 1: the build, stage by stage.
    let main = if workload == Workload::Build {
        build_launch
    } else {
        serve_launch
    };
    let tb = build::traced_build(&mut tracer, main.seed, main.scale, main.replicates);
    let digest = build::digest(&tb.bodies);
    tally.record(if tb.identical {
        Outcome::Ok
    } else {
        Outcome::Mismatch
    });
    if let Some(recorded) = recorded_digest {
        tally.record(if recorded == digest {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        });
    }
    notes.push(format!(
        "traced build: scale {} seed {}: digest {digest} (recorded {}), byte-identical to SnapshotStore::build: {}",
        main.scale,
        main.seed,
        recorded_digest.unwrap_or("none for this corpus"),
        tb.identical
    ));
    notes.extend(stage_table(&tracer, &tb));
    metrics.extend(build_metrics(&tracer, &tb));

    // Part 2: the three streams against the serve binary.
    let set = ReadSet::build(serve_launch);
    let stream = ReadStream::new(seed, set.urls.len());
    let calls = evolve_stream(seed, EVOLVE_STREAM_LEN);
    let phase = |own: Workload| {
        if own == workload {
            seconds
        } else {
            seconds.min(PROBE_SECONDS)
        }
    };
    let server = ServeProcess::spawn(serve_bin, serve_launch)?;
    server.register_and_settle(serve_launch)?;

    let before = server.metrics()?;
    let reads = load::read(server.addr, &set, &stream, phase(Workload::Read));
    let after = server.metrics()?;
    let d = Deltas::between(&before, &after);
    let client_p50 = median(&reads.latencies_ms()).unwrap_or(0.0);
    let service_us = crate::server::field(&after, "latency/p50_us");
    tally.merge(&reads.tally);
    notes.push(format!(
        "read stream: {} GETs at {:.0}/s, client p50 {client_p50:.4} ms, server p50 {service_us} us (histogram bucket bound)",
        reads.completed,
        reads.rps()
    ));

    let before = server.metrics()?;
    let evolve = load::evolve(server.addr, &calls, phase(Workload::Evolve));
    let after = server.metrics()?;
    let e = Deltas::between(&before, &after);
    tally.merge(&evolve.load.tally);
    for _ in 0..load::recheck_evolve(serve_launch, &evolve.samples) {
        tally.add_failure(Outcome::Mismatch);
    }
    notes.push(format!(
        "evolve stream: {} requests, {} repeated keys, {} offline re-checks",
        evolve.sent,
        evolve.repeated,
        evolve.samples.len()
    ));

    let before = server.metrics()?;
    let (churn_reads, swaps) = load::churn(
        server.addr,
        serve_launch,
        &set,
        &stream,
        phase(Workload::Churn),
    );
    let after = server.metrics()?;
    let c = Deltas::between(&before, &after);
    tally.merge(&churn_reads.tally);
    tally.merge(&swaps.tally);

    let cpu_before = server.cpu_seconds()?;
    std::thread::sleep(IDLE_WINDOW);
    let idle_cpu_pct = (server.cpu_seconds()? - cpu_before) / IDLE_WINDOW.as_secs_f64() * 100.0;
    server.stop();

    // Part 3: the in-process replay.
    let replay = replay(
        &mut tracer,
        serve_launch,
        &set,
        &stream,
        &calls,
        reads.completed as usize,
    )?;
    tally.merge(&replay.tally);
    notes.push(format!(
        "in-process replay: {} GETs traced in {:.1} ms, untraced in {:.1} ms",
        replay.gets, replay.traced_ms, replay.untraced_ms
    ));

    let path =
        std::path::PathBuf::from(format!(".bench_trace/{}-seed{seed}.jsonl", workload.name()));
    tracer.write_jsonl(&path, SPANS_WRITTEN)?;
    notes.push(format!(
        "spans written to {} (first {SPANS_WRITTEN})",
        path.display()
    ));

    metrics.extend([
        Metric::new(
            "evolve.compute_ms",
            tracer.median_us("evolve.compute") / 1e3,
            "ms",
        ),
        Metric::new(
            "evolve.cache_hit_ratio",
            e.ratio("evolve_cache_hits", "evolve_cache_misses"),
            "ratio",
        ),
        Metric::new("evolve.coalesced", e.get("coalesced_waiters"), "count"),
        Metric::new("evolve.computations", e.get("evolve_computations"), "count"),
        Metric::new("snapshot.get_us", tracer.median_us("snapshot.get"), "us"),
        Metric::new("http.frame_us", tracer.median_us("http.frame"), "us"),
        Metric::new("http.encode_us", tracer.median_us("http.encode"), "us"),
        Metric::new("router.route_us", tracer.median_us("router.route"), "us"),
        Metric::new(
            "lru.hit_ratio",
            d.ratio("response_cache/hits", "response_cache/misses"),
            "ratio",
        ),
        Metric::new("lru.misses", d.get("response_cache/misses"), "count"),
        Metric::new(
            "registry.resolve_us",
            tracer.median_us("registry.resolve"),
            "us",
        ),
        Metric::new(
            "registry.build_ms",
            median(&swaps.build_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("registry.swaps", c.get("registry_swaps"), "count"),
        Metric::new(
            "registry.swap_ms",
            median(&swaps.swap_s).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        Metric::new("server.service_us", service_us, "us"),
        Metric::new("server.wait_ms", client_p50 - service_us / 1e3, "ms"),
        Metric::new(
            "server.keepalive_reuses",
            d.get("keepalive_reuses"),
            "count",
        ),
        Metric::new("server.idle_cpu_pct", idle_cpu_pct, "%"),
        Metric::new("exec.shed", e.get("requests_shed"), "count"),
        Metric::new("exec.deadline_expired", e.get("deadline_expired"), "count"),
        Metric::new("exec.worker_panics", e.get("worker_panics"), "count"),
        Metric::new(
            "trace.build_overhead_ms",
            tb.traced_ms - tb.untraced_ms,
            "ms",
        ),
        Metric::new(
            "trace.replay_overhead_us",
            (replay.traced_ms - replay.untraced_ms) * 1e3 / replay.gets.max(1) as f64,
            "us",
        ),
    ]);
    Ok(TracedRun {
        metrics,
        tally,
        notes,
    })
}

fn build_metrics(tracer: &Tracer, tb: &TracedBuild) -> Vec<Metric> {
    vec![
        Metric::new("synth.generate_ms", tracer.total_ms("synth.generate"), "ms"),
        Metric::new("synth.recipes", tb.recipes as f64, "count"),
        Metric::new("mining.encode_ms", tracer.total_ms("mining.encode"), "ms"),
        Metric::new(
            "mining.fig3_ingredient_ms",
            tracer.total_ms("mining.fig3_ingredient"),
            "ms",
        ),
        Metric::new(
            "mining.fig3_category_ms",
            tracer.total_ms("mining.fig3_category"),
            "ms",
        ),
        Metric::new("mining.itemsets", tb.itemsets as f64, "count"),
        Metric::new(
            "analytics.table1_ms",
            tracer.total_ms("analytics.table1"),
            "ms",
        ),
        Metric::new("analytics.fig1_ms", tracer.total_ms("analytics.fig1"), "ms"),
        Metric::new("analytics.fig2_ms", tracer.total_ms("analytics.fig2"), "ms"),
        Metric::new(
            "analytics.similarity_ms",
            tracer.total_ms("analytics.similarity"),
            "ms",
        ),
        Metric::new("evolution.fig4_ms", tracer.total_ms("evolution.fig4"), "ms"),
        Metric::new("evolution.generate_ms", tb.generate_ms, "ms"),
        Metric::new("evolution.pool_mine_ms", tb.pool_mine_ms, "ms"),
        Metric::new("evolution.recipes", tb.evolved_recipes as f64, "count"),
        Metric::new(
            "snapshot.encode_ms",
            tracer.total_ms("snapshot.encode"),
            "ms",
        ),
        Metric::new(
            "snapshot.bytes",
            tb.bodies.values().map(|b| b.len()).sum::<usize>() as f64,
            "bytes",
        ),
    ]
}

/// Where the build's wall time goes, stage by stage.
fn stage_table(tracer: &Tracer, tb: &TracedBuild) -> Vec<String> {
    let stages = [
        "mining.encode",
        "analytics.table1",
        "analytics.fig1",
        "analytics.fig2",
        "mining.fig3_ingredient",
        "mining.fig3_category",
        "analytics.similarity",
        "evolution.fig4",
        "snapshot.encode",
    ];
    let mut lines = vec![format!(
        "build stages (traced {:.1} ms, SnapshotStore::build {:.1} ms; synth {:.1} ms before it):",
        tb.traced_ms,
        tb.untraced_ms,
        tracer.total_ms("synth.generate")
    )];
    for stage in stages {
        let ms = tracer.total_ms(stage);
        lines.push(format!(
            "  {stage:<24} {ms:>9.1} ms  {:>5.1}%",
            100.0 * ms / tb.traced_ms.max(1e-9)
        ));
    }
    if let Some(root) = tracer.spans().iter().position(|s| s.name == "build") {
        lines.push(format!(
            "  {:<24} {:>9.1} ms",
            "(between stages)",
            tracer.self_ns()[root] as f64 / 1e6
        ));
    }
    lines.push(format!(
        "  fig4 split (summed over workers): generate {:.1} ms, pool mining {:.1} ms, {} recipes",
        tb.generate_ms, tb.pool_mine_ms, tb.evolved_recipes
    ));
    lines
}

struct Replay {
    tally: Tally,
    gets: usize,
    traced_ms: f64,
    untraced_ms: f64,
}

/// An in-process `AppState` holding the same corpora as the server.
fn app_state(launch: &Launch) -> AppState {
    let experiment = Experiment::with_config(
        build::synth(launch.seed, launch.scale),
        PipelineConfig::default(),
    );
    let store = SnapshotStore::build(
        &experiment,
        build::version(launch.seed, launch.scale, launch.replicates),
        &ModelKind::ALL,
        &build::fig4_config(launch.replicates),
    );
    let spec = |seed| CorpusSpec {
        seed,
        scale: launch.scale,
        miner: Miner::default(),
        cuisines: None,
    };
    let config = RegistryConfig {
        default_spec: Some(spec(launch.seed)),
        build: BuildOptions {
            models: ModelKind::ALL.to_vec(),
            fig4: build::fig4_config(launch.replicates),
        },
        ..Default::default()
    };
    let state = AppState::with_registry(Arc::new(experiment), Arc::new(store), 128, config);
    for &seed in &launch.extra_seeds {
        state.registry.register(spec(seed));
        state
            .registry
            .wait_ready(&launch.corpus_key(seed), Duration::from_secs(120));
    }
    state
}

fn frame(reader: &mut FrameReader, raw: &[u8]) -> Option<cuisine_serve::Request> {
    reader.feed(raw);
    match reader.next_frame() {
        Frame::Request(framed) => Some(framed.request),
        _ => None,
    }
}

fn replay(
    tracer: &mut Tracer,
    launch: &Launch,
    set: &ReadSet,
    stream: &ReadStream,
    calls: &[crate::stream::EvolveCall],
    served: usize,
) -> std::io::Result<Replay> {
    let state = app_state(launch);
    let gets = served.clamp(1, READ_REPLAY);
    let raw: Vec<(usize, Vec<u8>)> = (0..gets as u64)
        .map(|i| {
            let key = stream.key(i);
            (
                key,
                format!("GET {} HTTP/1.1\r\nhost: bench\r\n\r\n", set.urls[key]).into_bytes(),
            )
        })
        .collect();
    // The same calls without spans, twice: the first pass warms the LRU,
    // the second is the untraced time the traced pass is compared with.
    let mut tally = Tally::default();
    replay_gets(&state, set, &raw, None, &mut Tally::default());
    let untraced_ms = replay_gets(&state, set, &raw, None, &mut Tally::default());
    let traced_ms = replay_gets(&state, set, &raw, Some(tracer), &mut tally);

    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    for (i, call) in calls.iter().take(EVOLVE_REPLAY).enumerate() {
        let id = (gets + i) as u64;
        let body = call.body();
        let raw = format!(
            "POST /evolve HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let root = tracer.open("request", id, None);
        let request = tracer.span("http.frame", id, Some(root), || {
            frame(&mut reader, raw.as_bytes())
        });
        let routed = request
            .as_ref()
            .map(|r| tracer.span("router.route", id, Some(root), || route_conn(&state, r)));
        let outcome = match routed {
            Some(Routed::Evolve(task)) => {
                let computed = tracer.span("evolve.compute", id, Some(root), || {
                    handle_evolve(&task.request, &task.corpus.experiment)
                });
                match computed {
                    Ok(response) => {
                        out.clear();
                        response.append_to(&mut out, true);
                        checked(&response, None)
                    }
                    Err(_) => Outcome::Status,
                }
            }
            _ => Outcome::Status,
        };
        tally.record(outcome);
        tracer.close(root);
    }
    Ok(Replay {
        tally,
        gets,
        traced_ms,
        untraced_ms,
    })
}

/// Run `f`, inside a span when there is a tracer.
fn within<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, id, parent, f),
        None => f(),
    }
}

/// One pass of GETs through the connection path and, separately, through
/// `CorpusRegistry::resolve` and `SnapshotStore::get`. Traced and untraced
/// passes make the same calls and the same checks. Returns the wall time
/// in ms.
fn replay_gets(
    state: &AppState,
    set: &ReadSet,
    raw: &[(usize, Vec<u8>)],
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> f64 {
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    let started = Instant::now();
    for (i, (key, bytes)) in raw.iter().enumerate() {
        let id = i as u64;
        let expected = &set.expected[*key];
        let root = tracer.as_deref_mut().map(|t| t.open("request", id, None));
        let request = within(&mut tracer, "http.frame", id, root, || {
            frame(&mut reader, bytes)
        });
        let routed = request.as_ref().map(|r| {
            within(&mut tracer, "router.route", id, root, || {
                route_conn(state, r)
            })
        });
        let mut outcome = match routed {
            Some(Routed::Ready(response)) => {
                within(&mut tracer, "http.encode", id, root, || {
                    out.clear();
                    response.append_to(&mut out, true);
                });
                checked(&response, Some(expected))
            }
            _ => Outcome::Status,
        };
        let handle = within(&mut tracer, "registry.resolve", id, root, || {
            state.registry.resolve(set.corpus[*key].as_deref())
        });
        let body = handle.ok().and_then(|h| {
            within(&mut tracer, "snapshot.get", id, root, || {
                h.snapshots.get(&set.paths[*key])
            })
        });
        if outcome == Outcome::Ok && body.as_deref() != Some(expected) {
            outcome = Outcome::Mismatch;
        }
        tally.record(outcome);
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.close(root);
        }
    }
    started.elapsed().as_secs_f64() * 1e3
}

fn checked(response: &Response, expected: Option<&Arc<Vec<u8>>>) -> Outcome {
    if response.status != 200 {
        Outcome::Status
    } else if expected.is_some_and(|e| **e != *response.body) {
        Outcome::Mismatch
    } else {
        Outcome::Ok
    }
}
