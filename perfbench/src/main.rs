//! `perfbench` — the repository's benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload build|read|evolve|churn \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit, checks every output
//! against an in-process reference, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any operation failed or any output differed, 2 on a usage
//! error. See `perfbench/README.md` for the workloads and metrics.

mod build;
mod client;
mod host;
mod load;
mod server;
mod stats;
mod stream;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Map, Value};

use crate::host::Ticks;
use crate::load::ReadSet;
use crate::server::{Deltas, Launch, ServeProcess};
use crate::stats::{median, Outcome, Tally};
use crate::stream::{
    corpus_seed, evolve_stream, ReadStream, ALT_ZIPF_EXPONENT, EVOLVE_STREAM_LEN, ZIPF_EXPONENT,
};

/// Corpus scale of the `build` workload: the paper's full corpus.
const BUILD_SCALE: f64 = 1.0;

/// Corpus scale of the serve workloads (the server default).
const SERVE_SCALE: f64 = 0.1;

/// Fig. 4 replicates per model and cuisine in every build.
const REPLICATES: usize = 2;

/// Synthesis seeds of the serve workloads' corpora: the default corpus
/// (the `serve` default seed) and three registered beside it (`evolve`
/// sends its requests to the default corpus only). They are fixed, not
/// drawn from the workload seed: artifact sizes differ by up to a quarter
/// between synthesised corpora, which would move transfer-bound latency
/// and server memory between seeds by more than the bounds. The workload
/// seed drives the request streams.
const SERVE_CORPUS_SEEDS: [u64; 4] = [42, 43, 44, 45];

/// Server set-ups of a serve-workload run before its timed phase (the
/// last one's server runs the phase) and after it. `setup_s` and `build_s`
/// come from the half of them during which the host took the least CPU
/// time. The host's CPU speed drifts over tens of seconds, so set-ups at
/// both ends of the run sample more of it than set-ups at one.
const SETUPS: (usize, usize) = (2, 2);

/// Corpus syntheses (each about 0.1 s) of a `build` run before and after
/// its timed phase; `setup_s` is the median of all of them.
const SYNTHS: (usize, usize) = (5, 4);

/// The server's default GET LRU capacity (`serve --lru`), which the
/// benchmark leaves at its default.
const LRU_CAPACITY: usize = 128;

/// GETs replayed through an in-process LRU per exponent for the
/// `lru_hit_share_replayed` property.
const LRU_REPLAY: u64 = 100_000;

/// Recorded baseline, digests included, relative to the repository root.
const BASELINE: &str = "perfbench/baseline.json";

const USAGE: &str = "perfbench --workload build|read|evolve|churn [--seed N] [--seconds S] \
[--trace 0|1] [--serve-bin PATH]";

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process scale-1.0 artifact build.
    Build,
    /// Skewed GETs over four corpora.
    Read,
    /// `/evolve` compute on the default corpus.
    Evolve,
    /// Reads beside duty-cycled hot swaps.
    Churn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "build" => Some(Workload::Build),
            "read" => Some(Workload::Read),
            "evolve" => Some(Workload::Evolve),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::Read => "read",
            Workload::Evolve => "evolve",
            Workload::Churn => "churn",
        }
    }
}

/// A named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 45.0f64;
    let mut trace = false;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut serve_bin = Path::new(&target).join("release").join("serve");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        let bad = || -> ! { usage_error(&format!("{flag} has an invalid value {value:?}")) };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| bad())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--serve-bin" => serve_bin = PathBuf::from(value),
            _ => usage_error(&format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin,
    }
}

/// FNV-1a 64 over the repository's sources, as hex: the revision when the
/// checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for &b in file
            .to_string_lossy()
            .as_bytes()
            .iter()
            .chain(&std::fs::read(&file).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".into(), |s| s.trim().to_string())
}

/// The artifact digest recorded in the baseline for a corpus, if any.
/// Digests are keyed `seed{seed}-scale{scale}`: the determinism contract
/// makes the bytes independent of miner, threads and caches.
fn recorded_digest(launch: &Launch) -> std::io::Result<Option<String>> {
    let text = std::fs::read_to_string(BASELINE)?;
    let doc = server::parse_json(text.as_bytes())?;
    let key = format!("seed{}-scale{}", launch.seed, launch.scale);
    Ok(doc
        .as_object()
        .and_then(|d| d.get("digests"))
        .and_then(Value::as_object)
        .and_then(|d| d.get(&key))
        .and_then(Value::as_str)
        .map(str::to_string))
}

fn main() {
    let args = parse_args();
    let build_launch = Launch {
        seed: corpus_seed(args.seed, 0),
        scale: BUILD_SCALE,
        replicates: REPLICATES,
        extra_seeds: Vec::new(),
    };
    let serve_launch = Launch {
        seed: SERVE_CORPUS_SEEDS[0],
        scale: SERVE_SCALE,
        replicates: REPLICATES,
        extra_seeds: SERVE_CORPUS_SEEDS[1..].to_vec(),
    };
    let main_launch = if args.workload == Workload::Build {
        &build_launch
    } else {
        &serve_launch
    };

    let mut provenance = Map::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    provenance.insert("host_cores", Value::U64(cores as u64));
    provenance.insert("git_rev", Value::String(git_rev()));
    provenance.insert("source_digest", Value::String(source_digest()));
    provenance.insert("workload", Value::String(args.workload.name().into()));
    provenance.insert("workload_seed", Value::U64(args.seed));
    provenance.insert("seconds", Value::F64(args.seconds));
    provenance.insert("trace", Value::Bool(args.trace));
    provenance.insert("scale", Value::F64(main_launch.scale));
    let seeds = std::iter::once(main_launch.seed).chain(main_launch.extra_seeds.iter().copied());
    provenance.insert(
        "corpus_seeds",
        Value::Array(seeds.map(Value::U64).collect()),
    );
    provenance.insert("fig4_replicates", Value::U64(REPLICATES as u64));
    provenance.insert(
        "default_miner",
        Value::String(cuisine_core::mining::Miner::default().label().into()),
    );
    println!(
        "provenance {}",
        serde_json::to_string(&Value::Object(provenance)).unwrap_or_default()
    );

    let result = recorded_digest(main_launch).and_then(|recorded| {
        if args.trace {
            traced::run(
                args.workload,
                args.seed,
                args.seconds,
                &build_launch,
                &serve_launch,
                &args.serve_bin,
                recorded.as_deref(),
            )
            .map(|run| (run.metrics, run.tally, run.notes))
        } else {
            match args.workload {
                Workload::Build => Ok(build_workload(
                    &build_launch,
                    args.seconds,
                    recorded.as_deref(),
                )),
                w => serve_workload(
                    w,
                    args.seed,
                    args.seconds,
                    &serve_launch,
                    &args.serve_bin,
                    recorded.as_deref(),
                ),
            }
        }
    });
    let (metrics, tally, notes) = match result {
        Ok(done) => done,
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload.name());
            std::process::exit(1);
        }
    };

    for note in &notes {
        println!("{note}");
    }
    for metric in &metrics {
        println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "failed_frac = {} ({} of {} attempted: {} transport, {} status, {} mismatch)",
        tally.failed_frac(),
        tally.failed(),
        tally.attempted,
        tally.transport,
        tally.status,
        tally.mismatch
    );
    let correct = tally.failed() == 0;
    let mut doc = Map::new();
    doc.insert("correct", Value::Bool(correct));
    doc.insert("attempted", Value::U64(tally.attempted));
    doc.insert("failed", Value::U64(tally.failed()));
    let mut values = Map::new();
    for metric in &metrics {
        let mut entry = Map::new();
        entry.insert("value", Value::F64(metric.value));
        entry.insert("unit", Value::String(metric.unit.into()));
        values.insert(metric.name, Value::Object(entry));
    }
    doc.insert("metrics", Value::Object(values));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(doc)).unwrap_or_default()
    );
    if !correct {
        std::process::exit(1);
    }
}

type Run = (Vec<Metric>, Tally, Vec<String>);

/// A note with the share of CPU time the hypervisor took from this
/// machine during a timed phase: outside load that slows every timing.
fn steal_note(share: f64, by_window: &[f64]) -> String {
    let mut note = format!(
        "host steal during the timed phase: {:.2}% of CPU time",
        share * 100.0
    );
    if !by_window.is_empty() {
        let windows: Vec<String> = by_window
            .iter()
            .map(|w| format!("{:.1}", w * 100.0))
            .collect();
        note.push_str(&format!(" (by window, %: [{}])", windows.join(", ")));
    }
    note
}

fn own_peak_rss_mb() -> f64 {
    server::peak_rss_mb("/proc/self/status").unwrap_or(0.0)
}

/// The six end-to-end metrics, named and computed the same way on every
/// workload. `samples` are the timed phase's operations as (completion
/// offset in s, latency in ms), summarised over windows of `width_s`
/// seconds with the host steal shares `steal` (see [`stats::summarize`]).
fn loop_metrics(
    setup_s: &[f64],
    build_s: &[f64],
    samples: &[(f64, f64)],
    (width_s, steal): (f64, &[f64]),
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut sorted: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    sorted.sort_by(f64::total_cmp);
    let summary = stats::summarize(samples, width_s, steal);
    if let Some(s) = &summary {
        let tails: Vec<String> = s.tails.iter().map(|t| format!("{:.4}", t.value)).collect();
        let label = s.tails.first().map_or(String::new(), stats::Tail::label);
        notes.push(format!(
            "rps, p50_ms, p90_ms and p99_ms are medians over windows {:?} of {} ({width_s:.2} s each, the least-steal half); \
             window tails (first: {label}): [{}]",
            s.kept,
            s.windows,
            tails.join(", ")
        ));
    }
    if let Some(highest) = stats::tail(&sorted, 100.0) {
        notes.push(format!(
            "pooled tail: highest supported {} = {} ms",
            highest.label(),
            highest.value
        ));
    }
    let deciles: Vec<String> = (1..10)
        .filter_map(|d| stats::nearest_rank(&sorted, f64::from(d) * 10.0))
        .map(|v| format!("{v:.3}"))
        .collect();
    notes.push(format!(
        "latency deciles p10..p90 (ms): {}",
        deciles.join(" ")
    ));
    notes.push(format!("build_s samples {build_s:?}"));
    let (rps, p50, p90, p99) =
        summary.map_or((0.0, 0.0, 0.0, 0.0), |s| (s.rps, s.p50, s.p90, s.p99));
    // Printed with the sample counts above but not a listed metric: on a
    // 2-vCPU virtual machine the p99 of GETs follows the CPU time the
    // hypervisor takes, and moved by more than any allowed bound between
    // runs of the same code; p90 did not.
    notes.push(format!("metric p99_ms = {p99} ms (reported, not gated)"));
    vec![
        Metric::new("setup_s", median(setup_s).unwrap_or(0.0), "s"),
        Metric::new("build_s", median(build_s).unwrap_or(0.0), "s"),
        Metric::new("rps", rps, "1/s"),
        Metric::new("p50_ms", p50, "ms"),
        Metric::new("p90_ms", p90, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// `build`: synthesise the scale-1.0 corpus (set-up), then run
/// `SnapshotStore::build` on fresh experiments back to back. `peak_rss_mb`
/// is the peak of the first build, measured from a reset just before it
/// (see [`host::reset_own_peak_rss`]): later builds run on a heap
/// fragmented by the earlier ones, and their peaks drift upward by a
/// varying amount.
fn build_workload(launch: &Launch, seconds: f64, recorded: Option<&str>) -> Run {
    let mut setup_s = Vec::new();
    let mut synth = || {
        let started = Instant::now();
        let corpus = build::synth(launch.seed, launch.scale);
        setup_s.push(started.elapsed().as_secs_f64());
        corpus
    };
    for _ in 1..SYNTHS.0 {
        drop(synth());
    }
    let corpus = synth();

    let mut tally = Tally::default();
    let mut build_s = Vec::new();
    let mut samples = Vec::new();
    let mut peak_rss_mb = None;
    let mut first_digest: Option<String> = None;
    host::reset_own_peak_rss();
    let ticks = Ticks::now();
    let started = Instant::now();
    while build_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (store, took) =
            build::build_store(corpus.clone(), launch.seed, launch.scale, launch.replicates);
        peak_rss_mb.get_or_insert_with(own_peak_rss_mb);
        build_s.push(took.as_secs_f64());
        samples.push((started.elapsed().as_secs_f64(), took.as_secs_f64() * 1e3));
        let digest = build::digest(&build::bodies(&store));
        let reference = first_digest.get_or_insert_with(|| digest.clone());
        let matches = *reference == digest && recorded.is_none_or(|r| r == digest);
        tally.record(if store.len() == 34 && matches {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        });
    }
    let steal = host::steal_share(ticks, Ticks::now());
    let wall_s = started.elapsed().as_secs_f64();
    drop(corpus);
    for _ in 0..SYNTHS.1 {
        drop(synth());
    }
    let mut notes = vec![
        format!(
            "artifact digest {} (recorded {})",
            first_digest.as_deref().unwrap_or("none"),
            recorded.unwrap_or("none for this corpus")
        ),
        steal_note(steal, &[]),
        format!("setup_s samples {setup_s:?}"),
        format!(
            "peak resident memory over the process's life: {} MB",
            own_peak_rss_mb()
        ),
    ];
    let metrics = loop_metrics(
        &setup_s,
        &build_s,
        &samples,
        (wall_s, &[]),
        peak_rss_mb.unwrap_or(0.0),
        &mut notes,
    );
    (metrics, tally, notes)
}

/// `read`, `evolve` and `churn`: start the server (set-up, repeated),
/// run the workload's closed loops, check outputs, stop the server.
fn serve_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    launch: &Launch,
    serve_bin: &Path,
    recorded: Option<&str>,
) -> std::io::Result<Run> {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let set = (workload != Workload::Evolve).then(|| ReadSet::build(launch));
    if let Some(set) = &set {
        if let Some(recorded) = recorded {
            tally.record(if set.digests[0] == recorded {
                Outcome::Ok
            } else {
                Outcome::Mismatch
            });
        }
        notes.push(format!(
            "default corpus digest {} (recorded {})",
            set.digests[0],
            recorded.unwrap_or("none for this corpus")
        ));
    }

    // Each set-up's seconds, server-timed corpus builds and host steal.
    let (mut setup_s, mut build_s, mut setup_steal) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = || -> std::io::Result<ServeProcess> {
        let ticks = Ticks::now();
        let started = Instant::now();
        let server = ServeProcess::spawn(serve_bin, launch)?;
        let rows = server.register_and_settle(launch)?;
        setup_s.push(started.elapsed().as_secs_f64());
        build_s.push(
            rows.iter()
                .map(|row| row.build_ms as f64 / 1e3)
                .collect::<Vec<_>>(),
        );
        setup_steal.push(host::steal_share(ticks, Ticks::now()) * 100.0);
        Ok(server)
    };
    for _ in 1..SETUPS.0 {
        set_up()?.stop();
    }
    let server = set_up()?;

    let before = server.metrics()?;
    let mut properties = Map::new();
    let load = match workload {
        Workload::Read | Workload::Churn => {
            let set = set
                .as_ref()
                .expect("read workloads build their reference bodies");
            let stream = ReadStream::new(seed, set.urls.len());
            properties.insert("keys", Value::U64(set.urls.len() as u64));
            properties.insert("lru_capacity", Value::U64(LRU_CAPACITY as u64));
            properties.insert(
                "keys_over_capacity",
                Value::F64(set.urls.len() as f64 / LRU_CAPACITY as f64),
            );
            let mut replayed = Map::new();
            for exponent in [ZIPF_EXPONENT, ALT_ZIPF_EXPONENT] {
                let at = ReadStream::with_exponent(seed, set.urls.len(), exponent);
                let share = load::lru_hit_share(&set.urls, &at, LRU_CAPACITY, LRU_REPLAY);
                replayed.insert(format!("zipf_{exponent}"), Value::F64(share));
            }
            properties.insert("lru_hit_share_replayed", Value::Object(replayed));
            if workload == Workload::Read {
                load::read(server.addr, set, &stream, seconds)
            } else {
                let (reads, swaps) = load::churn(server.addr, launch, set, &stream, seconds);
                tally.merge(&swaps.tally);
                properties.insert("swaps", Value::U64(swaps.swap_s.len() as u64));
                properties.insert("swap_s", Value::F64(median(&swaps.swap_s).unwrap_or(0.0)));
                properties.insert(
                    "swap_build_ms",
                    Value::F64(median(&swaps.build_ms).unwrap_or(0.0)),
                );
                reads
            }
        }
        Workload::Evolve => {
            let calls = evolve_stream(seed, EVOLVE_STREAM_LEN);
            let run = load::evolve(server.addr, &calls, seconds);
            let sent = run.sent.max(1) as f64;
            for _ in 0..load::recheck_evolve(launch, &run.samples) {
                tally.add_failure(Outcome::Mismatch);
            }
            notes.push(format!(
                "{} /evolve bodies re-checked offline",
                run.samples.len()
            ));
            properties.insert("sent", Value::U64(run.sent));
            properties.insert("repeated_key_share", Value::F64(run.repeated as f64 / sent));
            let after = server.metrics()?;
            let d = Deltas::between(&before, &after);
            properties.insert(
                "cache_hit_share",
                Value::F64(d.get("evolve_cache_hits") / sent),
            );
            properties.insert(
                "coalesced_share",
                Value::F64(d.get("coalesced_waiters") / sent),
            );
            properties.insert("computations", Value::F64(d.get("evolve_computations")));
            run.load
        }
        Workload::Build => unreachable!("the build workload runs in process"),
    };
    let share = load.steal.iter().sum::<f64>() / load.steal.len().max(1) as f64;
    notes.push(steal_note(share, &load.steal));
    let after = server.metrics()?;
    let deltas = Deltas::between(&before, &after);
    if workload != Workload::Evolve {
        properties.insert(
            "lru_hit_share",
            Value::F64(deltas.ratio("response_cache/hits", "response_cache/misses")),
        );
    }
    for (at_s, error) in &load.errors {
        notes.push(format!("transport error at {at_s:.3} s: {error}"));
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop();
    for _ in 0..SETUPS.1 {
        set_up()?.stop();
    }
    notes.push(format!(
        "setup_s samples {setup_s:?} (host steal %: {setup_steal:.2?}; the least-steal half gives setup_s and build_s)"
    ));
    let kept_setup_s = stats::least_steal_half(&setup_s, &setup_steal);
    let kept_build_s = stats::least_steal_half(&build_s, &setup_steal).concat();
    tally.merge(&load.tally);
    notes.push(format!(
        "properties {}",
        serde_json::to_string(&Value::Object(properties)).unwrap_or_default()
    ));
    let metrics = loop_metrics(
        &kept_setup_s,
        &kept_build_s,
        &load.samples,
        (load.width_s, &load.steal),
        peak_rss_mb,
        &mut notes,
    );
    Ok((metrics, tally, notes))
}
