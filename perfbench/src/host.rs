//! What the host does beside the benchmark: CPU time its hypervisor takes
//! (steal), and the benchmark process's own peak memory.
//!
//! The benchmark runs on virtual machines whose hypervisor takes CPU time
//! in bursts. Every timing of a run is slowed by the CPU time taken during
//! it, so the benchmark records the steal share of every window of a timed
//! phase and of every set-up, and summarises the least disturbed half (see
//! [`crate::stats::least_steal_half`]).

use std::time::{Duration, Instant};

/// Host-wide CPU ticks: (all, steal), from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticks {
    total: u64,
    steal: u64,
}

impl Ticks {
    /// The counters now; `None` where `/proc/stat` is unreadable.
    pub fn now() -> Option<Ticks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some(Ticks {
            total: fields.iter().sum(),
            steal: *fields.get(7)?,
        })
    }
}

/// Share of CPU time the hypervisor took between two readings, in [0, 1];
/// 0 when either reading is missing or no tick passed.
pub fn steal_share(before: Option<Ticks>, after: Option<Ticks>) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) if a.total > b.total => {
            a.steal.saturating_sub(b.steal) as f64 / (a.total - b.total) as f64
        }
        _ => 0.0,
    }
}

/// Steal share of each of `windows` equal windows of `width` starting at
/// `phase`: reads the counters at every window boundary, sleeping in
/// between. Returns when the last window has ended.
pub fn steal_by_window(phase: Instant, width: Duration, windows: usize) -> Vec<f64> {
    let mut previous = Ticks::now();
    (1..=windows as u32)
        .map(|k| {
            std::thread::sleep((phase + width * k).saturating_duration_since(Instant::now()));
            let now = Ticks::now();
            let share = steal_share(previous, now);
            previous = now;
            share
        })
        .collect()
}

/// `windows` equal windows covering a phase of `seconds`, each as close to
/// `window_s` wide as a whole count allows; returns (count, width).
pub fn windows(seconds: f64, window_s: f64) -> (usize, Duration) {
    let count = (seconds / window_s).round().max(1.0) as usize;
    (count, Duration::from_secs_f64(seconds / count as f64))
}

/// Hand the heap memory the allocator holds free back to the system.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free heap pages; it has no
    // preconditions and touches no memory the program holds.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Start measuring this process's peak memory afresh: trim the heap, then
/// reset `VmHWM` to the current resident size (`/proc/self/clear_refs`,
/// value 5). Without the trim, memory that earlier work freed but the
/// allocator kept would set the floor of the next operation's peak.
pub fn reset_own_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_the_stolen_part_of_the_elapsed_ticks() {
        let at = |total, steal| Some(Ticks { total, steal });
        assert_eq!(steal_share(at(100, 10), at(300, 60)), 0.25);
        assert_eq!(steal_share(at(100, 10), at(100, 10)), 0.0);
        assert_eq!(steal_share(None, at(300, 60)), 0.0);
    }

    #[test]
    fn windows_tile_the_phase() {
        let (n, w) = windows(15.0, 1.0);
        assert_eq!((n, w), (15, Duration::from_secs(1)));
        let (n, w) = windows(10.0, 3.0);
        assert_eq!(n, 3);
        assert!((w.as_secs_f64() * 3.0 - 10.0).abs() < 1e-6);
        assert_eq!(windows(0.5, 3.0).0, 1);
    }
}
