//! Summary statistics and failure accounting for benchmark runs.

/// Percentiles tried for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `p` percent of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank_index(sorted.len(), p)?;
    Some(sorted[rank])
}

fn nearest_rank_index(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Samples strictly after the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    nearest_rank_index(n, p).map_or(0, |i| n - 1 - i)
}

/// The tail a run can support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, or `None` when no percentile has
    /// [`MIN_BEYOND`] samples beyond it and the maximum is reported.
    pub percentile: Option<f64>,
    /// The reported value.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Tail {
    /// Human-readable label, e.g. `p99 of 4120` or `max of 4`.
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p} of {}", self.samples),
            None => format!(
                "max of {} (no percentile has {MIN_BEYOND} samples beyond it)",
                self.samples
            ),
        }
    }
}

/// The highest percentile of [`TAIL_LADDER`], at most `cap`, with at
/// least [`MIN_BEYOND`] samples beyond it; the maximum when none
/// qualifies. `None` when there are no samples.
pub fn tail(sorted: &[f64], cap: f64) -> Option<Tail> {
    let samples = sorted.len();
    let max = *sorted.last()?;
    for p in TAIL_LADDER.into_iter().filter(|&p| p <= cap) {
        if beyond(samples, p) >= MIN_BEYOND {
            let value = nearest_rank(sorted, p)?;
            return Some(Tail {
                percentile: Some(p),
                value,
                samples,
            });
        }
    }
    Some(Tail {
        percentile: None,
        value: max,
        samples,
    })
}

/// A timed phase summarised window by window.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Windows the phase was cut into.
    pub windows: usize,
    /// Indices of the windows the figures come from.
    pub kept: Vec<usize>,
    /// Median over kept windows of operations completed per second.
    pub rps: f64,
    /// Median over kept windows of the window's median latency.
    pub p50: f64,
    /// Median over kept windows of the window's p90 (the highest
    /// percentile at most p90 that qualifies).
    pub p90: f64,
    /// Median over kept windows of the window's tail (p99 where it
    /// qualifies).
    pub p99: f64,
    /// Each kept window's tail.
    pub tails: Vec<Tail>,
}

/// The values whose steal share is lowest: the least disturbed half,
/// rounded up, in their original order (on equal shares the earlier value
/// is kept). `steal[i]` belongs to `values[i]`; without shares every value
/// is kept.
pub fn least_steal_half<T: Clone>(values: &[T], steal: &[f64]) -> Vec<T> {
    if steal.len() != values.len() {
        return values.to_vec();
    }
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    order.truncate(values.len().div_ceil(2));
    order.sort_unstable();
    order.into_iter().map(|i| values[i].clone()).collect()
}

/// Cut a timed phase into windows of `width_s` seconds by completion time,
/// one per entry of `steal` (the host steal share during that window; one
/// window when `steal` is empty), keep the non-empty windows of
/// [`least_steal_half`], and report the median over them of each window's
/// throughput, median and tail. A window slowed from outside (by CPU time
/// the hypervisor took) then does not move the reported figures.
/// `samples` are `(completion offset in s, latency in ms)`; failed
/// operations carry an infinite latency and do not count as completed.
/// Completions after the last window count in the last window.
pub fn summarize(samples: &[(f64, f64)], width_s: f64, steal: &[f64]) -> Option<Summary> {
    if samples.is_empty() || width_s <= 0.0 {
        return None;
    }
    let windows = steal.len().max(1);
    let mut buckets = vec![Vec::new(); windows];
    for &(end_s, ms) in samples {
        let k = ((end_s.max(0.0) / width_s) as usize).min(windows - 1);
        buckets[k].push(ms);
    }
    let filled: Vec<usize> = (0..windows).filter(|&k| !buckets[k].is_empty()).collect();
    let shares: Vec<f64> = filled
        .iter()
        .filter_map(|&k| steal.get(k).copied())
        .collect();
    let kept = least_steal_half(&filled, &shares);
    let (mut rps, mut p50, mut p90, mut tails) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &k in &kept {
        let bucket = &mut buckets[k];
        bucket.sort_by(f64::total_cmp);
        rps.push(bucket.iter().filter(|v| v.is_finite()).count() as f64 / width_s);
        p50.extend(nearest_rank(bucket, 50.0));
        p90.extend(tail(bucket, 90.0).map(|t| t.value));
        tails.extend(tail(bucket, 99.0));
    }
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Summary {
        windows,
        kept,
        rps: median(&rps)?,
        p50: median(&p50)?,
        p90: median(&p90)?,
        p99: median(&tail_values)?,
        tails,
    })
}

/// Median (mean of the middle pair for even counts). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Attempted and failed operations of one run.
///
/// Every operation is attempted once; a transport error, an unexpected
/// status or a byte mismatch against the reference each count as one
/// failure.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed for a transport error.
    pub transport: u64,
    /// Operations answered with a status other than the expected one.
    pub status: u64,
    /// Operations whose output differed from the reference bytes.
    pub mismatch: u64,
}

/// The outcome of one checked operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Expected status and reference bytes.
    Ok,
    /// The request never got a response.
    Transport,
    /// A response with another status than the expected one.
    Status,
    /// The expected status, but bytes that differ from the reference.
    Mismatch,
}

impl Outcome {
    /// Classify a response against the expected status and, when given,
    /// the reference body.
    pub fn of(
        response: &std::io::Result<(u16, Vec<u8>)>,
        expected_status: u16,
        reference: Option<&[u8]>,
    ) -> Outcome {
        match response {
            Err(_) => Outcome::Transport,
            Ok((status, _)) if *status != expected_status => Outcome::Status,
            Ok((_, body)) if reference.is_some_and(|r| r != body.as_slice()) => Outcome::Mismatch,
            Ok(_) => Outcome::Ok,
        }
    }
}

impl Tally {
    /// Count one attempted operation with its outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        self.add_failure(outcome);
    }

    /// Count a failure found after the fact for an operation already
    /// attempted (an offline re-check of a response).
    pub fn add_failure(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => {}
            Outcome::Transport => self.transport += 1,
            Outcome::Status => self.status += 1,
            Outcome::Mismatch => self.mismatch += 1,
        }
    }

    /// Total failures.
    pub fn failed(&self) -> u64 {
        self.transport + self.status + self.mismatch
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.transport += other.transport;
        self.status += other.status;
        self.mismatch += other.mismatch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_reports_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 100.0).unwrap();
        assert_eq!(t.percentile, Some(99.0));
        assert_eq!(t.value, 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples leave only 9 beyond p99: fall back to p95.
        let t = tail(&ramp(999), 100.0).unwrap();
        assert_eq!(t.percentile, Some(95.0));
        assert!(beyond(999, 95.0) >= MIN_BEYOND);
    }

    #[test]
    fn tail_prefers_the_highest_percentile_up_to_the_cap() {
        let t = tail(&ramp(10_000), 100.0).unwrap();
        assert_eq!(t.percentile, Some(99.9));
        assert_eq!(t.value, 9990.0);
        // Capped at p99, the same samples report p99.
        let t = tail(&ramp(10_000), 99.0).unwrap();
        assert_eq!(t.percentile, Some(99.0));
        assert_eq!(t.value, 9900.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_for_small_runs() {
        let t = tail(&ramp(4), 99.0).unwrap();
        assert_eq!(t.percentile, None);
        assert_eq!(t.value, 4.0);
        assert!(t.label().starts_with("max of 4"));
        // Twenty samples support the median (ten beyond) and nothing higher.
        let t = tail(&ramp(20), 99.0).unwrap();
        assert_eq!(t.percentile, Some(50.0));
        assert_eq!(t.value, 10.0);
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn median_takes_the_middle_pair_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn least_steal_half_keeps_the_quietest_values_in_order() {
        let values = [10, 11, 12, 13, 14];
        let steal = [0.20, 0.01, 0.30, 0.00, 0.01];
        assert_eq!(least_steal_half(&values, &steal), vec![11, 13, 14]);
        // Equal shares keep the earlier values; an even count keeps half.
        assert_eq!(least_steal_half(&values[..4], &[0.0; 4]), vec![10, 11]);
        // Without shares, everything is kept.
        assert_eq!(least_steal_half(&values, &[]), values.to_vec());
    }

    #[test]
    fn windows_with_steal_do_not_move_the_summary() {
        // 5000 operations over 5 one-second windows: 1 ms each, except that
        // the second and fourth seconds, where the host took CPU time, are
        // slow (10 ms).
        let samples: Vec<(f64, f64)> = (0..5000)
            .map(|i| {
                let end = i as f64 / 1000.0;
                let slow = (1.0..2.0).contains(&end) || (3.0..4.0).contains(&end);
                (end, if slow { 10.0 } else { 1.0 })
            })
            .collect();
        let steal = [0.0, 0.2, 0.01, 0.3, 0.0];
        let s = summarize(&samples, 1.0, &steal).unwrap();
        assert_eq!((s.windows, s.kept.clone()), (5, vec![0, 2, 4]));
        assert_eq!((s.p50, s.p90, s.p99, s.rps), (1.0, 1.0, 1.0, 1000.0));
        assert!(s.tails.iter().all(|t| t.percentile == Some(99.0)));

        // Without steal figures: one window, the pooled figures.
        let few: Vec<(f64, f64)> = (0..4).map(|i| (i as f64, 2.0 + i as f64)).collect();
        let s = summarize(&few, 4.0, &[]).unwrap();
        assert_eq!(s.windows, 1);
        assert_eq!((s.p50, s.p90, s.p99, s.rps), (3.0, 5.0, 5.0, 1.0));
        assert_eq!(s.tails[0].percentile, None);

        // A failure completes nothing and sorts last.
        let failed = [(0.5, 1.0), (0.6, f64::INFINITY)];
        assert_eq!(summarize(&failed, 1.0, &[]).unwrap().rps, 1.0);
        assert!(summarize(&[], 1.0, &[]).is_none());
    }

    #[test]
    fn every_failure_kind_counts_against_attempted() {
        let mut tally = Tally::default();
        let ok: std::io::Result<(u16, Vec<u8>)> = Ok((200, b"abc".to_vec()));
        tally.record(Outcome::of(&ok, 200, Some(b"abc")));
        tally.record(Outcome::of(&ok, 200, Some(b"abd")));
        for status in [404, 409, 503, 504] {
            tally.record(Outcome::of(&Ok((status, Vec::new())), 200, None));
        }
        let refused = Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "reset",
        ));
        tally.record(Outcome::of(&refused, 200, None));
        assert_eq!(tally.attempted, 7);
        assert_eq!((tally.mismatch, tally.status, tally.transport), (1, 4, 1));
        assert_eq!(tally.failed(), 6);
        assert!((tally.failed_frac() - 6.0 / 7.0).abs() < 1e-12);

        // An offline re-check adds a failure without a new attempt.
        tally.add_failure(Outcome::Mismatch);
        assert_eq!((tally.attempted, tally.failed()), (7, 7));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
