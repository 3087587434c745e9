//! The benchmark's own statistics: percentiles with a minimum-tail rule,
//! failure accounting, and the simulated-statistics digest.

use charlie::checkpoint::encode_summary;
use charlie::RunSummary;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it. At 149 samples p90 is rank 135
/// with 14 beyond it; at 48 samples it is rank 44 with only 4 beyond.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// How one attempted cell ended, from the caller's point of view.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// A summary came back.
    Completed,
    /// The cell ran and failed (`CellError` frame or a batch failure).
    CellError,
    /// Admission control refused the request (`Saturated` frame).
    Shed,
    /// Anything else: a deadline, a drain, a protocol or I/O error.
    Errored,
}

/// Attempted/failed counts; every outcome but [`Outcome::Completed`] is a
/// failure.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Completed {
            self.failed += 1;
        }
    }

    /// Failed cells over attempted cells (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a (64-bit) over each summary's journal encoding plus a newline, in
/// the order given. The journal encoding is lossless, so two digests agree
/// exactly when every simulated statistic of every cell agrees.
pub fn digest(summaries: &[RunSummary]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in summaries {
        for b in encode_summary(s).bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie::{Experiment, Lab, RunConfig, Strategy, Workload};

    fn samples(n: usize) -> Vec<f64> {
        // Reverse order so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_is_valid_at_149_samples_with_14_beyond() {
        let v = samples(149);
        assert_eq!(percentile(&v, 90.0), Some(135.0));
        assert_eq!(percentile(&v, 50.0), Some(75.0));
    }

    #[test]
    fn p90_is_invalid_at_48_samples() {
        let v = samples(48);
        assert_eq!(percentile(&v, 90.0), None);
        // p79 is the highest percentile with ten beyond it at 48 samples.
        assert_eq!(percentile(&v, 79.0), Some(38.0));
        assert_eq!(percentile(&v, 80.0), None);
    }

    #[test]
    fn p90_needs_exactly_ten_beyond() {
        assert_eq!(percentile(&samples(100), 90.0), Some(90.0));
        assert_eq!(percentile(&samples(99), 90.0), None);
    }

    #[test]
    fn sheds_and_cell_errors_count_as_failures() {
        let mut t = Tally::default();
        for o in [Outcome::Completed, Outcome::Shed, Outcome::CellError, Outcome::Completed] {
            t.record(o);
        }
        t.record(Outcome::Errored);
        assert_eq!(t, Tally { attempted: 5, failed: 3 });
        assert!((t.failed_share() - 0.6).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    fn tiny_grid_digest(seed: u64) -> String {
        let cfg = RunConfig { procs: 2, refs_per_proc: 1_000, seed, ..RunConfig::default() };
        let grid = [
            Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
            Experiment::paper(Workload::Mp3d, Strategy::Pref, 16),
            Experiment::paper(Workload::Water, Strategy::Pref, 4),
        ];
        let mut lab = Lab::new(cfg);
        assert!(lab.run_batch(&grid, 2).is_complete());
        let summaries: Vec<_> = grid.iter().map(|&e| lab.run(e).clone()).collect();
        digest(&summaries)
    }

    #[test]
    fn digest_is_stable_on_a_tiny_grid() {
        let a = tiny_grid_digest(7);
        assert_eq!(a.len(), 16);
        assert_eq!(a, tiny_grid_digest(7));
        assert_ne!(a, tiny_grid_digest(8));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let cfg = RunConfig { procs: 2, refs_per_proc: 1_000, seed: 7, ..RunConfig::default() };
        let mut lab = Lab::new(cfg);
        let a = lab.run(Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8)).clone();
        let b = lab.run(Experiment::paper(Workload::Water, Strategy::Pref, 8)).clone();
        assert_ne!(digest(&[a.clone(), b.clone()]), digest(&[b.clone(), a.clone()]));
        let mut changed = a.clone();
        changed.report.cycles += 1;
        assert_ne!(digest(&[a]), digest(&[changed]));
    }
}
