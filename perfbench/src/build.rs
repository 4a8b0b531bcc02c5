//! The artifact build: untraced (the `build` workload) and stage by
//! stage (the traced run).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuisine_core::analytics::{RankFrequencyAnalysis, SimilarityMatrix};
use cuisine_core::data::{Corpus, CuisineId, CUISINES};
use cuisine_core::evolution::{
    run_ensemble, CuisineSetup, EnsembleConfig, EvaluationConfig, ModelKind, ModelParams,
};
use cuisine_core::exec::par_map_range;
use cuisine_core::lexicon::Lexicon;
use cuisine_core::mining::{CombinationAnalysis, ItemMode, MineOpts, TransactionSet};
use cuisine_core::stats::ErrorMetric;
use cuisine_core::synth::{generate_corpus, SynthConfig};
use cuisine_core::{Experiment, PipelineConfig};
use cuisine_serve::SnapshotStore;
use serde::{Map, Serialize, Value};

use crate::trace::{Span, SpanId, Tracer};

/// Artifact bodies by path.
pub type Bodies = BTreeMap<String, Arc<Vec<u8>>>;

/// The Fig. 4 configuration every build uses: all four models, the given
/// replicates, everything else at the pipeline's defaults.
pub fn fig4_config(replicates: usize) -> EvaluationConfig {
    EvaluationConfig {
        ensemble: EnsembleConfig {
            replicates,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Generate a corpus.
pub fn synth(seed: u64, scale: f64) -> Corpus {
    generate_corpus(
        &SynthConfig {
            seed,
            scale,
            ..Default::default()
        },
        Lexicon::standard(),
    )
}

/// Version tag in the format the `serve` binary uses.
pub fn version(seed: u64, scale: f64, replicates: usize) -> String {
    let miner = PipelineConfig::default().miner.label();
    format!("synth-seed{seed}-scale{scale}-r{replicates}-{miner}")
}

/// `SnapshotStore::build` with the default pipeline on a fresh
/// experiment, returning the store and its wall time.
pub fn build_store(
    corpus: Corpus,
    seed: u64,
    scale: f64,
    replicates: usize,
) -> (SnapshotStore, Duration) {
    let experiment = Experiment::with_config(corpus, PipelineConfig::default());
    let started = Instant::now();
    let store = SnapshotStore::build(
        &experiment,
        version(seed, scale, replicates),
        &ModelKind::ALL,
        &fig4_config(replicates),
    );
    (store, started.elapsed())
}

/// Bodies of a store.
pub fn bodies(store: &SnapshotStore) -> Bodies {
    store
        .iter()
        .map(|(path, body)| (path.to_string(), Arc::clone(body)))
        .collect()
}

/// FNV-1a 64 over every `(path, body)` pair in path order, as hex.
pub fn digest(bodies: &Bodies) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (path, body) in bodies {
        eat(path.as_bytes());
        eat(&[0]);
        eat(&(body.len() as u64).to_le_bytes());
        eat(body);
    }
    format!("{h:016x}")
}

/// Per-layer results of one stage-by-stage build.
#[derive(Debug, Clone, Default)]
pub struct TracedBuild {
    /// The artifact bodies the traced stages produced.
    pub bodies: Bodies,
    /// Wall time of the stages that produce bodies, in ms.
    pub traced_ms: f64,
    /// Wall time of `SnapshotStore::build` on the same corpus, in ms.
    pub untraced_ms: f64,
    /// `SnapshotStore::build` bodies equal the traced ones byte for byte.
    pub identical: bool,
    /// Recipes synthesised.
    pub recipes: u64,
    /// Frequent itemsets behind both Fig. 3 analyses (curve points).
    pub itemsets: u64,
    /// Recipes generated by the Fig. 4 split pass.
    pub evolved_recipes: u64,
    /// Summed worker time of replicate generation in the split pass, ms.
    pub generate_ms: f64,
    /// Summed worker time of pool mining in the split pass, ms.
    pub pool_mine_ms: f64,
}

fn encode<T: Serialize>(value: &T) -> Arc<Vec<u8>> {
    Arc::new(
        serde_json::to_string(value)
            .expect("artifacts serialize")
            .into_bytes(),
    )
}

/// The `/cuisines` document as the snapshot store writes it.
fn cuisines_document(corpus: &Corpus) -> Vec<u8> {
    let rows: Vec<Value> = CuisineId::all()
        .filter_map(|id| {
            let info = CUISINES.get(id.index())?;
            let mut row = Map::new();
            row.insert("code", Value::String(info.code.to_string()));
            row.insert("name", Value::String(info.name.to_string()));
            row.insert("paper_recipes", Value::U64(info.recipes as u64));
            row.insert("paper_ingredients", Value::U64(info.ingredients as u64));
            row.insert("corpus_recipes", Value::U64(corpus.recipe_count(id) as u64));
            row.insert(
                "corpus_ingredients",
                Value::U64(corpus.unique_ingredient_count(id) as u64),
            );
            Some(Value::Object(row))
        })
        .collect();
    serde_json::to_string(&Value::Array(rows))
        .expect("cuisines document serializes")
        .into_bytes()
}

const MODES: [(ItemMode, &str, &str); 2] = [
    (
        ItemMode::Ingredients,
        "ingredient",
        "mining.fig3_ingredient",
    ),
    (ItemMode::Categories, "category", "mining.fig3_category"),
];

/// Synthesise a corpus, then build its artifacts stage by stage through
/// the public calls `SnapshotStore::build` makes, each inside a span, and
/// through `SnapshotStore::build` itself before and after. Then split
/// Fig. 4 into replicate generation and pool mining with a separate pass.
pub fn traced_build(tracer: &mut Tracer, seed: u64, scale: f64, replicates: usize) -> TracedBuild {
    let fig4 = fig4_config(replicates);
    let corpus = tracer.span("synth.generate", 0, None, || synth(seed, scale));
    let mut out = TracedBuild {
        recipes: corpus.len() as u64,
        ..Default::default()
    };

    // The first build of a process runs cold; it only warms up and
    // provides the reference bytes, and the untraced time comes from a
    // second build after the traced one.
    let (store, _) = build_store(corpus.clone(), seed, scale, replicates);
    let reference = bodies(&store);
    drop(store);

    let experiment = Experiment::with_config(corpus.clone(), PipelineConfig::default());
    let root = tracer.open("build", 0, None);
    stage_bodies(tracer, root, &experiment, &fig4, &mut out);
    tracer.close(root);
    out.traced_ms = tracer
        .durations_ns("build")
        .last()
        .map_or(0.0, |&ns| ns as f64 / 1e6);

    let (store, untraced) = build_store(corpus, seed, scale, replicates);
    out.untraced_ms = untraced.as_secs_f64() * 1e3;
    out.identical = out.bodies == reference && reference == bodies(&store);
    drop(store);

    fig4_split(tracer, &experiment, &fig4, &mut out);
    out
}

fn stage_bodies(
    tracer: &mut Tracer,
    root: SpanId,
    experiment: &Experiment,
    fig4: &EvaluationConfig,
    out: &mut TracedBuild,
) {
    let config = *experiment.config();
    let corpus = experiment.corpus();
    let lexicon = experiment.lexicon();
    let cache = experiment
        .transaction_cache()
        .expect("the default pipeline caches transactions");

    // Fill the transaction cache first, so the Fig. 3 spans time mining
    // alone. Jobs: every (cuisine, mode) pair plus each mode's pool.
    let populated: Vec<CuisineId> = corpus.populated_cuisines();
    tracer.span("mining.encode", 0, Some(root), || {
        let per_mode = populated.len() + 1;
        par_map_range(MODES.len() * per_mode, config.threads, |job| {
            let mode = MODES[job / per_mode].0;
            match populated.get(job % per_mode) {
                Some(&cuisine) => cache.cuisine(corpus, cuisine, mode, lexicon).len(),
                None => cache.pooled(corpus, mode, lexicon).len(),
            }
        })
    });

    let table1 = tracer.span("analytics.table1", 0, Some(root), || experiment.table1());
    let fig1 = tracer.span("analytics.fig1", 0, Some(root), || experiment.fig1());
    let fig2 = tracer.span("analytics.fig2", 0, Some(root), || experiment.fig2());
    let mut fig3 = Vec::new();
    for (mode, label, span) in MODES {
        let analysis = tracer.span(span, 0, Some(root), || {
            RankFrequencyAnalysis::measure_with(
                corpus,
                lexicon,
                mode,
                cuisine_core::mining::PAPER_MIN_SUPPORT,
                config.miner,
                config.mining,
                config.threads,
                Some(cache),
            )
        });
        let matrix = tracer.span("analytics.similarity", 0, Some(root), || {
            SimilarityMatrix::measure_with(&analysis, ErrorMetric::PaperMae, config.threads)
        });
        out.itemsets += analysis.curves.iter().map(|c| c.len() as u64).sum::<u64>()
            + analysis.aggregate.len() as u64;
        fig3.push((label, analysis, matrix));
    }
    let evaluation = tracer.span("evolution.fig4", 0, Some(root), || {
        experiment.fig4_models(&ModelKind::ALL, fig4)
    });

    out.bodies = tracer.span("snapshot.encode", 0, Some(root), || {
        let mut bodies = Bodies::new();
        bodies.insert("/table1".into(), encode(&table1));
        bodies.insert("/fig1".into(), encode(&fig1));
        bodies.insert("/fig2".into(), encode(&fig2));
        for (label, analysis, matrix) in &fig3 {
            bodies.insert(format!("/fig3/{label}"), encode(analysis));
            bodies.insert(format!("/similarity/{label}"), encode(matrix));
        }
        for cuisine in &evaluation.cuisines {
            bodies.insert(format!("/fig4/{}", cuisine.code), encode(cuisine));
        }
        bodies.insert("/fig4".into(), encode(&evaluation));
        bodies.insert("/cuisines".into(), Arc::new(cuisines_document(corpus)));
        bodies
    });
}

/// Fig. 4 split into its two halves: `run_ensemble` for every (cuisine,
/// model) pair, then `TransactionSet::from_recipes` plus
/// `CombinationAnalysis::mine_opts` on every generated pool. Jobs fan out
/// over the cores like the real stage; each half's time is summed over
/// workers.
fn fig4_split(
    tracer: &mut Tracer,
    experiment: &Experiment,
    fig4: &EvaluationConfig,
    out: &mut TracedBuild,
) {
    let corpus = experiment.corpus();
    let lexicon = experiment.lexicon();
    let config = *experiment.config();
    let jobs: Vec<(CuisineId, ModelKind)> = corpus
        .populated_cuisines()
        .into_iter()
        .flat_map(|c| ModelKind::ALL.into_iter().map(move |m| (c, m)))
        .collect();
    let split = tracer.open("evolution.fig4_split", 0, None);
    let ensemble = EnsembleConfig {
        threads: Some(1),
        ..fig4.ensemble
    };
    let mining = MineOpts {
        threads: Some(1),
        ..config.mining
    };
    let timed: Vec<Option<(Instant, Instant, Instant, u64)>> =
        par_map_range(jobs.len(), config.threads, |i| {
            let (cuisine, model) = jobs[i];
            let setup = CuisineSetup::from_corpus(corpus, cuisine)?;
            let start = Instant::now();
            let pools = run_ensemble(
                model,
                &ModelParams::paper(model),
                &setup,
                lexicon,
                &ensemble,
            );
            let generated = Instant::now();
            for pool in &pools {
                let ts = TransactionSet::from_recipes(pool.iter(), fig4.mode, lexicon);
                std::hint::black_box(CombinationAnalysis::mine_opts(
                    &ts,
                    fig4.min_support,
                    config.miner,
                    mining,
                ));
            }
            let recipes = pools.iter().map(|p| p.len() as u64).sum();
            Some((start, generated, Instant::now(), recipes))
        });
    for (start, generated, mined, recipes) in timed.into_iter().flatten() {
        let (a, b, c) = (
            tracer.ns_at(start),
            tracer.ns_at(generated),
            tracer.ns_at(mined),
        );
        tracer.push(Span {
            name: "evolution.generate",
            request: 0,
            parent: Some(split),
            start_ns: a,
            end_ns: b,
        });
        tracer.push(Span {
            name: "evolution.pool_mine",
            request: 0,
            parent: Some(split),
            start_ns: b,
            end_ns: c,
        });
        out.evolved_recipes += recipes;
    }
    tracer.close(split);
    out.generate_ms = tracer.total_ms("evolution.generate");
    out.pool_mine_ms = tracer.total_ms("evolution.pool_mine");
}
