//! Equivalence harness for the sharer-tracking snoop filter.
//!
//! The filter (see `charlie::sim::SharerTable`) is a pure strength
//! reduction: instead of probing all `num_procs` caches on every bus grant,
//! the engine probes only the caches its sharer table says can hold the
//! line. Skipped probes are provably no-ops, so every observable output
//! must be bit-identical with the filter on or off. These tests check that
//! contract on raw `SimReport`s across machine sizes, workloads,
//! strategies and both coherence protocols.
//!
//! `SimReport` derives `PartialEq` over every counter, histogram and
//! per-processor record, so `==` really is a full bitwise comparison.

use charlie::prefetch::apply;
use charlie::sim::{simulate, Protocol, SimConfig, SimReport};
use charlie::workloads::generate;
use charlie::{CacheGeometry, Layout, Strategy, Workload, WorkloadConfig};

/// Simulates one workload on a `procs`-processor machine with the snoop
/// filter forced on or off via `SimConfig`.
fn report(
    w: Workload,
    procs: usize,
    strategy: Strategy,
    protocol: Protocol,
    filter: bool,
) -> SimReport {
    let wcfg = WorkloadConfig {
        procs,
        refs_per_proc: 1_200,
        seed: 0xBEEF,
        layout: Layout::Interleaved,
    };
    let raw = generate(w, &wcfg);
    let prepared = apply(strategy, &raw, CacheGeometry::paper_default());
    let cfg = SimConfig { snoop_filter: filter, protocol, ..SimConfig::paper(procs, 8) };
    simulate(&cfg, &prepared).expect("simulation succeeds")
}

/// Every workload at 4, 8 and 16 processors: the filtered run must be
/// bit-identical to the brute-force broadcast scan. (Debug builds keep
/// invariant checking on, so each of these runs also cross-checks the
/// sharer mask against brute-force occupancy before every snoop.)
#[test]
fn filtered_reports_are_bit_identical_across_machine_sizes() {
    for w in Workload::ALL {
        for procs in [4usize, 8, 16] {
            let filtered = report(w, procs, Strategy::Pref, Protocol::WriteInvalidate, true);
            let broadcast = report(w, procs, Strategy::Pref, Protocol::WriteInvalidate, false);
            assert_eq!(filtered, broadcast, "{w} at {procs} procs diverged");
        }
    }
}

/// The filter has protocol-specific fast paths (write-invalidate upgrades,
/// write-update broadcasts, exclusive prefetches); exercise each.
#[test]
fn filtered_reports_are_bit_identical_across_strategies_and_protocols() {
    for strategy in [Strategy::Excl, Strategy::Lpd, Strategy::Pws] {
        for protocol in [Protocol::WriteInvalidate, Protocol::WriteUpdate] {
            let filtered = report(Workload::Mp3d, 8, strategy, protocol, true);
            let broadcast = report(Workload::Mp3d, 8, strategy, protocol, false);
            assert_eq!(filtered, broadcast, "{strategy}/{protocol} diverged");
        }
    }
}
