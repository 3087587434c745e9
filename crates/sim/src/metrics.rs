//! Simulation results: the paper's full miss taxonomy plus machine-level
//! counters.

use charlie_bus::BusStats;
use std::fmt;

/// CPU (demand) misses broken down by the categories of the paper's Figure 3.
///
/// * *non-sharing* — the tag did not match: first use, or the line had been
///   replaced (including replacement caused by prefetched data, and
///   prefetched lines replaced before use);
/// * *invalidation* — the tag matched but the line had been invalidated by a
///   remote write;
/// * *prefetched* — the missing line had been brought in by a prefetch and
///   disappeared before its first demand use;
/// * *prefetch-in-progress* — the prefetch was issued but had not completed;
///   the processor pays only the remaining latency.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct MissBreakdown {
    /// Non-sharing miss, line never prefetched.
    pub non_sharing_not_prefetched: u64,
    /// Non-sharing miss on a line a prefetch had brought in (it was replaced
    /// before use).
    pub non_sharing_prefetched: u64,
    /// Invalidation miss, line never prefetched.
    pub invalidation_not_prefetched: u64,
    /// Invalidation miss on a prefetched-but-unused line.
    pub invalidation_prefetched: u64,
    /// Demand access caught its own prefetch still in flight.
    pub prefetch_in_progress: u64,
}

impl MissBreakdown {
    /// All CPU misses (the paper's *CPU miss rate* numerator).
    pub fn cpu_misses(&self) -> u64 {
        self.non_sharing() + self.invalidation() + self.prefetch_in_progress
    }

    /// CPU misses excluding prefetch-in-progress (the paper's *adjusted CPU
    /// miss rate* numerator).
    pub fn adjusted_cpu_misses(&self) -> u64 {
        self.non_sharing() + self.invalidation()
    }

    /// All non-sharing misses.
    pub fn non_sharing(&self) -> u64 {
        self.non_sharing_not_prefetched + self.non_sharing_prefetched
    }

    /// All invalidation misses.
    pub fn invalidation(&self) -> u64 {
        self.invalidation_not_prefetched + self.invalidation_prefetched
    }
}

impl std::ops::Add for MissBreakdown {
    type Output = MissBreakdown;

    fn add(self, rhs: MissBreakdown) -> MissBreakdown {
        MissBreakdown {
            non_sharing_not_prefetched: self.non_sharing_not_prefetched
                + rhs.non_sharing_not_prefetched,
            non_sharing_prefetched: self.non_sharing_prefetched + rhs.non_sharing_prefetched,
            invalidation_not_prefetched: self.invalidation_not_prefetched
                + rhs.invalidation_not_prefetched,
            invalidation_prefetched: self.invalidation_prefetched + rhs.invalidation_prefetched,
            prefetch_in_progress: self.prefetch_in_progress + rhs.prefetch_in_progress,
        }
    }
}

/// Per-processor timing summary.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ProcStats {
    /// Cycles spent executing instructions and cache-hit accesses (within
    /// the measured window).
    pub busy_cycles: u64,
    /// Cycles spent stalled (memory, prefetch-buffer, lock, barrier waits).
    pub stall_cycles: u64,
    /// Simulated time at which this processor retired its last event.
    pub finish_time: u64,
    /// Demand accesses performed (trace accesses plus synchronization
    /// accesses synthesized by the lock/barrier models).
    pub accesses: u64,
    /// Time the measured window opened for this processor (0 unless
    /// statistics warm-up was configured).
    pub measured_from: u64,
}

impl ProcStats {
    /// Processor utilization over its measured runtime, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.finish_time <= self.measured_from {
            0.0
        } else {
            self.busy_cycles as f64 / (self.finish_time - self.measured_from) as f64
        }
    }
}

/// Online summary of a latency distribution (cycles), with fixed buckets.
///
/// The paper's contention argument is about exactly this number: "to each
/// CPU, this appears as an increase in the access time for CPU misses, due
/// to high memory subsystem contention". The unloaded fill latency is 100
/// cycles; everything above it is queueing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LatencyStats {
    count: u64,
    total: u64,
    min: u64,
    max: u64,
    /// Counts for `<=100, <=125, <=150, <=200, <=300, <=500, >500`.
    buckets: [u64; 7],
}

/// Upper bounds of the first six latency buckets.
pub const LATENCY_BUCKET_BOUNDS: [u64; 6] = [100, 125, 150, 200, 300, 500];

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats { count: 0, total: 0, min: u64::MAX, max: 0, buckets: [0; 7] }
    }
}

impl LatencyStats {
    /// Records one observation. The running total saturates instead of
    /// wrapping, so a pathological latency (e.g. a saturated bus model
    /// reporting `u64::MAX`) degrades the mean gracefully rather than
    /// corrupting it.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.total = self.total.saturating_add(latency);
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        let idx = LATENCY_BUCKET_BOUNDS
            .iter()
            .position(|&b| latency <= b)
            .unwrap_or(LATENCY_BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket counts for `<=100, <=125, <=150, <=200, <=300, <=500, >500`.
    pub fn histogram(&self) -> &[u64; 7] {
        &self.buckets
    }

    /// Raw `(count, total, min, max, buckets)` — full-fidelity access for
    /// checkpoint serialization (the mean alone would be lossy). `min` is
    /// `u64::MAX` when empty, matching [`LatencyStats::default`].
    pub fn to_raw(&self) -> (u64, u64, u64, u64, [u64; 7]) {
        (self.count, self.total, self.min, self.max, self.buckets)
    }

    /// Rebuilds the stats from [`LatencyStats::to_raw`] output, so a
    /// journaled report round-trips bit-identically.
    pub fn from_raw(count: u64, total: u64, min: u64, max: u64, buckets: [u64; 7]) -> Self {
        LatencyStats { count, total, min, max, buckets }
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min(), self.max()) {
            (Some(min), Some(max)) => {
                write!(f, "n={} mean={:.1} min={min} max={max}", self.count, self.mean())
            }
            _ => f.write_str("n=0"),
        }
    }
}

/// Prefetch-machinery counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PrefetchStats {
    /// Prefetch instructions executed.
    pub executed: u64,
    /// Dropped: the line was already cached in an adequate state.
    pub hits: u64,
    /// Dropped: a fetch of the line was already outstanding.
    pub duplicates: u64,
    /// Issued to the bus (the paper's *prefetch misses*).
    pub fills: u64,
    /// Prefetched lines replaced before any demand use.
    pub wasted_evicted: u64,
    /// Prefetched lines invalidated before any demand use.
    pub wasted_invalidated: u64,
    /// Processor stalls because the 16-deep prefetch buffer was full.
    pub buffer_stalls: u64,
}

/// On-line hardware-prefetcher accuracy counters (all zero unless
/// `SimConfig::hw_prefetch` enables a predictor).
///
/// Every issued prefetch is eventually classified exactly once, so at
/// report time `useful + late + useless == issued` — the invariant the
/// property suite pins. `trained` counts predictor-table updates and is
/// independent of the issue stream.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct HwPrefetchStats {
    /// Predictor training-table updates (entry created or modified).
    pub trained: u64,
    /// Prefetches issued to the bus by the hardware prefetcher.
    pub issued: u64,
    /// Issued prefetches whose line served a demand access after filling.
    pub useful: u64,
    /// Issued prefetches a demand access caught still in flight (the
    /// prefetch was correct but not timely; the access pays the residue).
    pub late: u64,
    /// Issued prefetches whose line was invalidated, replaced, or still
    /// unused when the run (or measurement window) ended.
    pub useless: u64,
}

impl HwPrefetchStats {
    /// Fraction of issued prefetches that were useful or late — i.e.
    /// predicted a line a demand access really wanted (0 when none issued).
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            (self.useful + self.late) as f64 / self.issued as f64
        }
    }

    /// Issued prefetches that covered a would-be demand miss.
    pub fn covered(&self) -> u64 {
        self.useful + self.late
    }

    /// `true` when no counter ever moved (the disabled path).
    pub fn is_empty(&self) -> bool {
        *self == HwPrefetchStats::default()
    }
}

/// Complete result of one simulation run.
///
/// # Window semantics
///
/// Every counter and rate in this report covers exactly the measurement
/// window `measured_from..cycles` — the run minus its statistics warm-up
/// (`SimConfig::warmup_accesses`; `measured_from == 0` when none). That
/// uniformity is load-bearing: bus busy and queueing cycles are clipped at
/// grant time to the window (a transfer in flight when the window opens
/// contributes only its in-window portion, and the final grant's occupancy
/// past the last retire is subtracted), access/miss counters start at the
/// boundary, and the fill-latency histogram only records fills *issued*
/// inside the window. Ratios such as
/// [`SimReport::bus_utilization`] therefore divide a numerator and a
/// denominator drawn from the same span and stay in `[0, 1]`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimReport {
    /// Total simulated cycles (time the last processor finished).
    pub cycles: u64,
    /// Time the statistics window opened (0 without warm-up). Rates and
    /// utilizations cover `measured_from..cycles`; `cycles` itself always
    /// covers the whole run so execution-time comparisons stay meaningful.
    pub measured_from: u64,
    /// Demand reads performed (including synchronization reads).
    pub reads: u64,
    /// Demand writes performed (including synchronization writes).
    pub writes: u64,
    /// CPU-miss taxonomy.
    pub miss: MissBreakdown,
    /// Invalidation misses whose invalidating write touched a word the local
    /// processor had not accessed (subset of `miss.invalidation()`).
    pub false_sharing_misses: u64,
    /// Write hits on shared lines that required an invalidating upgrade.
    pub upgrades: u64,
    /// Upgrades that aborted because the line was invalidated while the
    /// upgrade was queued (the write then retries as a miss).
    pub upgrades_aborted: u64,
    /// Demand fills re-issued because the filled line was invalidated by a
    /// remote write before the stalled access could retire. The miss is
    /// classified once; the extra fill still consumes bus bandwidth, so
    /// `bus.reads + bus.read_exclusives ==
    /// miss.adjusted_cpu_misses() + prefetch.fills + demand_refills`.
    pub demand_refills: u64,
    /// Misses that hit the optional victim buffer instead of going to
    /// memory (0 unless `victim_entries` was configured).
    pub victim_hits: u64,
    /// Distribution of demand-fill latencies (miss begin → data installed);
    /// 100 cycles unloaded, everything above is bus queueing.
    pub fill_latency: LatencyStats,
    /// Prefetch machinery counters (software and hardware prefetches alike
    /// share the buffers, so both populations land here).
    pub prefetch: PrefetchStats,
    /// On-line hardware-prefetcher accuracy counters (zero when disabled).
    pub hw_prefetch: HwPrefetchStats,
    /// Bus counters.
    pub bus: BusStats,
    /// Per-processor stats.
    pub per_proc: Vec<ProcStats>,
}

impl SimReport {
    /// Total demand accesses (the denominator of every miss rate).
    pub fn demand_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// The paper's *CPU miss rate*: misses observed by the CPU, including
    /// prefetch-in-progress misses.
    pub fn cpu_miss_rate(&self) -> f64 {
        self.rate(self.miss.cpu_misses())
    }

    /// The paper's *adjusted CPU miss rate*: CPU misses excluding
    /// prefetch-in-progress.
    pub fn adjusted_cpu_miss_rate(&self) -> f64 {
        self.rate(self.miss.adjusted_cpu_misses())
    }

    /// The paper's *total miss rate*: accesses (demand or prefetch) that
    /// cause a memory fetch — the demand at the machine's bottleneck.
    pub fn total_miss_rate(&self) -> f64 {
        self.rate(self.miss.adjusted_cpu_misses() + self.prefetch.fills)
    }

    /// Invalidation-miss rate (per demand access).
    pub fn invalidation_miss_rate(&self) -> f64 {
        self.rate(self.miss.invalidation())
    }

    /// False-sharing miss rate (per demand access).
    pub fn false_sharing_miss_rate(&self) -> f64 {
        self.rate(self.false_sharing_misses)
    }

    /// Non-sharing CPU miss rate (per demand access).
    pub fn non_sharing_miss_rate(&self) -> f64 {
        self.rate(self.miss.non_sharing())
    }

    /// Bus utilization: cycles the contended resource was busy over the
    /// measured cycles (the paper's Table 2).
    pub fn bus_utilization(&self) -> f64 {
        self.bus.utilization(self.cycles.saturating_sub(self.measured_from))
    }

    /// Mean processor utilization (each processor over its own runtime).
    pub fn avg_processor_utilization(&self) -> f64 {
        if self.per_proc.is_empty() {
            return 0.0;
        }
        self.per_proc.iter().map(ProcStats::utilization).sum::<f64>() / self.per_proc.len() as f64
    }

    fn rate(&self, n: u64) -> f64 {
        let d = self.demand_accesses();
        if d == 0 {
            0.0
        } else {
            n as f64 / d as f64
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cycles, {} accesses; miss rates: total {:.4}, cpu {:.4} (adj {:.4})",
            self.cycles,
            self.demand_accesses(),
            self.total_miss_rate(),
            self.cpu_miss_rate(),
            self.adjusted_cpu_miss_rate()
        )?;
        writeln!(
            f,
            "  inval {:.4} (false sharing {:.4}), non-sharing {:.4}, in-progress {}",
            self.invalidation_miss_rate(),
            self.false_sharing_miss_rate(),
            self.non_sharing_miss_rate(),
            self.miss.prefetch_in_progress
        )?;
        write!(
            f,
            "  bus util {:.3}, proc util {:.3}, prefetches {} (fills {}, wasted {}+{})",
            self.bus_utilization(),
            self.avg_processor_utilization(),
            self.prefetch.executed,
            self.prefetch.fills,
            self.prefetch.wasted_evicted,
            self.prefetch.wasted_invalidated
        )?;
        // The hardware-prefetcher line only exists when the subsystem ran,
        // so disabled-path output stays byte-identical to older builds.
        if !self.hw_prefetch.is_empty() {
            let h = &self.hw_prefetch;
            write!(
                f,
                "\n  hw prefetch: trained {}, issued {} (useful {}, late {}, useless {}, accuracy {:.3})",
                h.trained, h.issued, h.useful, h.late, h.useless, h.accuracy()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown() -> MissBreakdown {
        MissBreakdown {
            non_sharing_not_prefetched: 10,
            non_sharing_prefetched: 2,
            invalidation_not_prefetched: 5,
            invalidation_prefetched: 1,
            prefetch_in_progress: 4,
        }
    }

    #[test]
    fn breakdown_sums() {
        let b = breakdown();
        assert_eq!(b.non_sharing(), 12);
        assert_eq!(b.invalidation(), 6);
        assert_eq!(b.adjusted_cpu_misses(), 18);
        assert_eq!(b.cpu_misses(), 22);
    }

    #[test]
    fn breakdown_add() {
        let b = breakdown() + breakdown();
        assert_eq!(b.cpu_misses(), 44);
        assert_eq!(b.prefetch_in_progress, 8);
    }

    #[test]
    fn report_rates() {
        let mut r = SimReport {
            reads: 60,
            writes: 40,
            miss: breakdown(),
            false_sharing_misses: 3,
            ..SimReport::default()
        };
        r.prefetch.fills = 8;
        assert!((r.cpu_miss_rate() - 0.22).abs() < 1e-12);
        assert!((r.adjusted_cpu_miss_rate() - 0.18).abs() < 1e-12);
        assert!((r.total_miss_rate() - 0.26).abs() < 1e-12);
        assert!((r.false_sharing_miss_rate() - 0.03).abs() < 1e-12);
        assert!((r.invalidation_miss_rate() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let r = SimReport::default();
        assert_eq!(r.cpu_miss_rate(), 0.0);
        assert_eq!(r.bus_utilization(), 0.0);
        assert_eq!(r.avg_processor_utilization(), 0.0);
    }

    #[test]
    fn proc_utilization() {
        let p = ProcStats { busy_cycles: 80, stall_cycles: 20, finish_time: 100, accesses: 10, measured_from: 0 };
        assert!((p.utilization() - 0.8).abs() < 1e-12);
        assert_eq!(ProcStats::default().utilization(), 0.0);
    }

    #[test]
    fn latency_stats_accumulate() {
        let mut l = LatencyStats::default();
        assert_eq!(l.count(), 0);
        assert_eq!(l.mean(), 0.0);
        assert_eq!(l.min(), None);
        assert_eq!(l.max(), None);
        assert_eq!(l.to_string(), "n=0");
        for v in [100u64, 120, 450, 900] {
            l.record(v);
        }
        assert_eq!(l.count(), 4);
        assert!((l.mean() - 392.5).abs() < 1e-9);
        assert_eq!(l.min(), Some(100));
        assert_eq!(l.max(), Some(900));
        // buckets: <=100, <=125, <=150, <=200, <=300, <=500, >500
        assert_eq!(l.histogram(), &[1, 1, 0, 0, 0, 1, 1]);
        assert!(l.to_string().contains("mean=392.5"));
    }

    #[test]
    fn latency_total_saturates_instead_of_wrapping() {
        let mut l = LatencyStats::default();
        l.record(u64::MAX);
        l.record(u64::MAX);
        assert_eq!(l.count(), 2);
        // A wrapped total would make the mean tiny (or panic in debug);
        // saturation keeps it pinned at the ceiling.
        assert!((l.mean() - u64::MAX as f64 / 2.0).abs() / l.mean() < 1e-9);
        assert_eq!(l.max(), Some(u64::MAX));
        assert_eq!(l.histogram()[6], 2);
    }

    #[test]
    fn latency_raw_round_trip_is_exact() {
        let mut l = LatencyStats::default();
        for v in [100u64, 120, 450, 900] {
            l.record(v);
        }
        let (count, total, min, max, buckets) = l.to_raw();
        assert_eq!(LatencyStats::from_raw(count, total, min, max, buckets), l);
        // The empty distribution (min == u64::MAX sentinel) round-trips too.
        let empty = LatencyStats::default();
        let (c, t, mn, mx, b) = empty.to_raw();
        assert_eq!(LatencyStats::from_raw(c, t, mn, mx, b), empty);
    }

    #[test]
    fn latency_bucket_boundaries_are_inclusive() {
        let mut l = LatencyStats::default();
        for &bound in &LATENCY_BUCKET_BOUNDS {
            l.record(bound); // lands in its own bucket…
            l.record(bound + 1); // …and the next one up
        }
        assert_eq!(l.histogram(), &[1, 2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn proc_utilization_respects_measurement_window() {
        // Warm-up excluded: busy cycles are counted only against the
        // measured window, not the whole runtime.
        let p = ProcStats {
            busy_cycles: 50,
            stall_cycles: 50,
            finish_time: 300,
            accesses: 10,
            measured_from: 200,
        };
        assert!((p.utilization() - 0.5).abs() < 1e-12);
        // Degenerate window (processor finished before measurement opened,
        // e.g. warm-up longer than the run): no division by zero.
        let empty = ProcStats { finish_time: 100, measured_from: 100, ..p };
        assert_eq!(empty.utilization(), 0.0);
        let inverted = ProcStats { finish_time: 50, measured_from: 100, ..p };
        assert_eq!(inverted.utilization(), 0.0);
    }

    #[test]
    fn bus_utilization_handles_inverted_window() {
        // measured_from beyond the final cycle must not underflow.
        let r = SimReport { cycles: 10, measured_from: 50, ..SimReport::default() };
        assert_eq!(r.bus_utilization(), 0.0);
    }

    #[test]
    fn breakdown_add_identity() {
        let b = breakdown();
        assert_eq!(b + MissBreakdown::default(), b);
    }

    #[test]
    fn total_miss_rate_counts_prefetch_fills_not_in_progress() {
        let mut r = SimReport { reads: 100, miss: breakdown(), ..SimReport::default() };
        r.prefetch.fills = 10;
        // adjusted (18) + fills (10), NOT cpu_misses (22): in-progress
        // misses don't issue a second bus transaction.
        assert!((r.total_miss_rate() - 0.28).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_metrics() {
        let r = SimReport { cycles: 1000, reads: 10, ..SimReport::default() };
        let text = r.to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("bus util"));
    }
}
