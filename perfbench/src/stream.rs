//! Seeded inputs: corpus seeds and request streams.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed gives the same corpora and the same request sequence on every run
//! and every commit. The program under test only ever sees the generated
//! requests.

use cuisine_core::data::CUISINES;
use cuisine_core::evolution::ModelKind;

/// Zipf exponent of GET key popularity: classic Zipf, an assumption of
/// the workload, not a measurement of this API's traffic (it has no
/// recorded traffic). Web request popularity measured in proxy traces is
/// Zipf-like with exponents somewhat below 1 (Breslau et al., "Web Caching
/// and Zipf-like Distributions", INFOCOM 1999), so every run also reports
/// the LRU hit share at [`ALT_ZIPF_EXPONENT`].
pub const ZIPF_EXPONENT: f64 = 1.0;

/// The second exponent at which the LRU hit share is reported, from the
/// range of that study's traces.
pub const ALT_ZIPF_EXPONENT: f64 = 0.7;

/// Seed of the GET popularity ranking. The ranking is a fixed property of
/// the workload, the same for every workload seed, so that which bodies
/// are hot (and how large they are) does not change between seeds; the
/// workload seed drives the draws.
const RANKING_SEED: u64 = 0x0005_EED0_F2A2_4C1F;

/// Share of `/evolve` requests that repeat one of the recent keys. An
/// assumption of the workload, not a measurement: it is large enough that
/// the result cache and single-flight coalescing are exercised on every
/// run, and small enough that most requests compute. Every run reports the
/// measured shares of repeats, cache hits and coalesced waiters.
const EVOLVE_REPEAT_SHARE: f64 = 0.25;

/// How far back a repeated `/evolve` key may reach. Also an assumption: a
/// short window makes both connections ask for the same key at once often
/// enough to coalesce.
const EVOLVE_REPEAT_WINDOW: usize = 4;

/// Length of the precomputed `/evolve` stream (wraps around if a run
/// ever consumes more).
pub const EVOLVE_STREAM_LEN: usize = 1 << 16;

/// Independent sub-streams of one workload seed.
#[derive(Clone, Copy)]
#[repr(u64)]
enum Lane {
    Corpus = 1,
    KeyOrder = 2,
    ReadDraw = 3,
    Evolve = 4,
}

/// SplitMix64 finalizer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash(seed: u64, lane: Lane, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ ((lane as u64) << 56)) ^ index)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Synthesis seed of corpus `index` of a workload (0 is the default
/// corpus, 1.. the registered ones). Kept below a million so corpus keys
/// stay short.
pub fn corpus_seed(seed: u64, index: u64) -> u64 {
    1 + hash(seed, Lane::Corpus, index) % 999_999
}

/// GET keys drawn with Zipf-like popularity over a fixed ranking.
pub struct ReadStream {
    /// `ranked[r]` is the key index holding popularity rank `r`.
    ranked: Vec<usize>,
    /// Cumulative popularity by rank, ending at 1.
    cdf: Vec<f64>,
    seed: u64,
}

impl ReadStream {
    /// A stream over `keys` keys at the workload's [`ZIPF_EXPONENT`].
    pub fn new(seed: u64, keys: usize) -> Self {
        Self::with_exponent(seed, keys, ZIPF_EXPONENT)
    }

    /// A stream over `keys` keys, popularity of rank `r` proportional to
    /// `1 / (r + 1)^exponent`.
    pub fn with_exponent(seed: u64, keys: usize, exponent: f64) -> Self {
        assert!(keys > 0, "a read stream needs keys");
        let mut ranked: Vec<usize> = (0..keys).collect();
        for i in (1..keys).rev() {
            let j = (hash(RANKING_SEED, Lane::KeyOrder, i as u64) % (i as u64 + 1)) as usize;
            ranked.swap(i, j);
        }
        let weights: Vec<f64> = (0..keys)
            .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ReadStream { ranked, cdf, seed }
    }

    /// The key of request `index`.
    pub fn key(&self, index: u64) -> usize {
        let u = unit(hash(self.seed, Lane::ReadDraw, index));
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.ranked[rank]
    }
}

/// One `/evolve` request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolveCall {
    /// Region code.
    pub cuisine: &'static str,
    /// Model label.
    pub model: &'static str,
    /// Ensemble seed.
    pub seed: u64,
    /// Replicates, 2 to 4.
    pub replicates: u8,
    /// `ingredient` or `category`.
    pub mode: &'static str,
}

impl EvolveCall {
    /// The JSON request body. Equal calls give equal bodies, so the body
    /// doubles as the request key.
    pub fn body(&self) -> String {
        format!(
            r#"{{"cuisine":"{}","model":"{}","seed":{},"replicates":{},"mode":"{}"}}"#,
            self.cuisine, self.model, self.seed, self.replicates, self.mode
        )
    }
}

/// The `/evolve` request sequence of a workload seed: mostly fresh
/// ensemble seeds (cache misses that compute), and a fixed share of
/// repeats of one of the last few requests (cache hits, or coalesced
/// waiters when both connections ask at once).
pub fn evolve_stream(seed: u64, len: usize) -> Vec<EvolveCall> {
    let models = ModelKind::ALL.map(|m| m.label());
    let mut calls: Vec<EvolveCall> = Vec::with_capacity(len);
    for i in 0..len {
        let h = |field: u64| hash(seed, Lane::Evolve, (i as u64) << 3 | field);
        if i > 0 && unit(h(0)) < EVOLVE_REPEAT_SHARE {
            let back = 1 + (h(1) % EVOLVE_REPEAT_WINDOW.min(i) as u64) as usize;
            let repeated = calls[i - back].clone();
            calls.push(repeated);
            continue;
        }
        calls.push(EvolveCall {
            cuisine: CUISINES[(h(2) % CUISINES.len() as u64) as usize].code,
            model: models[(h(3) % models.len() as u64) as usize],
            seed: h(4) >> 32,
            replicates: 2 + (h(5) % 3) as u8,
            mode: if h(6) % 2 == 0 {
                "ingredient"
            } else {
                "category"
            },
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_the_same_streams() {
        let a = ReadStream::new(7, 136);
        let b = ReadStream::new(7, 136);
        let keys_a: Vec<usize> = (0..5000).map(|i| a.key(i)).collect();
        let keys_b: Vec<usize> = (0..5000).map(|i| b.key(i)).collect();
        assert_eq!(keys_a, keys_b);
        assert_eq!(evolve_stream(7, 500), evolve_stream(7, 500));
        assert_eq!(corpus_seed(7, 2), corpus_seed(7, 2));
    }

    #[test]
    fn other_seeds_give_other_streams() {
        let a = ReadStream::new(1, 136);
        let b = ReadStream::new(2, 136);
        let differ = (0..1000).filter(|&i| a.key(i) != b.key(i)).count();
        assert!(differ > 500, "only {differ} of 1000 keys differ");
        // The popularity ranking itself is the same for every seed.
        assert_eq!(a.ranked, b.ranked);
        assert_ne!(evolve_stream(1, 100), evolve_stream(2, 100));
        let seeds: HashSet<u64> = (0..4).map(|i| corpus_seed(1, i)).collect();
        assert_eq!(seeds.len(), 4, "corpus seeds of one workload are distinct");
    }

    #[test]
    fn reads_are_skewed_but_reach_most_keys() {
        let stream = ReadStream::new(3, 136);
        let mut counts = vec![0u32; 136];
        for i in 0..100_000 {
            counts[stream.key(i)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1) over 136 keys puts about 18% of the draws on the top key.
        assert!(
            counts[0] > 15_000 && counts[0] < 21_000,
            "top key {}",
            counts[0]
        );
        assert!(counts.iter().filter(|&&c| c > 0).count() >= 130);
    }

    #[test]
    fn evolve_repeats_hold_their_share() {
        let calls = evolve_stream(5, 20_000);
        let mut seen = HashSet::new();
        let repeated = calls.iter().filter(|c| !seen.insert(c.body())).count();
        let share = repeated as f64 / calls.len() as f64;
        assert!(
            (share - EVOLVE_REPEAT_SHARE).abs() < 0.02,
            "repeat share {share}"
        );
        assert!(calls.iter().all(|c| (2..=4).contains(&c.replicates)));
    }
}
