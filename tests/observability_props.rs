//! Property tests for the measurement window and the observability layer.
//!
//! The warm-up window bug this PR fixes (bus busy cycles granted before
//! `measured_from` leaking into the measured window, and the final grant's
//! overhang past the last retire) was invisible to every fixed-input test:
//! under saturation with uniform transfer occupancy the two errors cancel
//! exactly. Random workload configurations are what caught it, so they are
//! what guards it.

use charlie::prefetch::{apply, Strategy};
use charlie::sim::{simulate, simulate_with, Observability, SimConfig, SimOptions, SimReport};
use charlie::workloads::{generate, Layout, Workload, WorkloadConfig};
use charlie::CacheGeometry;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// A random grid cell: workload, strategy, machine shape and warm-up split.
#[derive(Clone, Debug)]
struct Cell {
    workload: Workload,
    strategy: Strategy,
    layout: Layout,
    procs: usize,
    refs_per_proc: usize,
    seed: u64,
    transfer: u64,
    /// Fraction (in eighths) of the total accesses excluded as warm-up.
    warmup_eighths: u64,
}

fn arb_cell() -> impl proptest::strategy::Strategy<Value = Cell> {
    (
        (0usize..Workload::ALL.len(), 0usize..Strategy::ALL.len(), any::<bool>()),
        (1usize..=4, 150usize..500, 0u64..0x1_0000_0000),
        (4u64..=32, 0u64..=6),
    )
        .prop_map(
            |((w, s, padded), (procs, refs_per_proc, seed), (transfer, warmup_eighths))| Cell {
                workload: Workload::ALL[w],
                strategy: Strategy::ALL[s],
                layout: if padded { Layout::Padded } else { Layout::Interleaved },
                procs,
                refs_per_proc,
                seed,
                transfer,
                warmup_eighths,
            },
        )
}

fn run_cell(cell: &Cell, warmed: bool) -> (SimConfig, charlie::trace::Trace) {
    let raw = generate(
        cell.workload,
        &WorkloadConfig {
            procs: cell.procs,
            refs_per_proc: cell.refs_per_proc,
            seed: cell.seed,
            layout: cell.layout,
        },
    );
    let prepared = apply(cell.strategy, &raw, CacheGeometry::paper_default());
    let total = prepared.total_accesses() as u64;
    let warmup_accesses = if warmed { total * cell.warmup_eighths / 8 } else { 0 };
    let cfg = SimConfig {
        warmup_accesses,
        ..SimConfig::paper(cell.procs, cell.transfer)
    };
    (cfg, prepared)
}

/// Every rate a report exposes must be a probability, windowed or not.
fn assert_rates_in_unit_interval(r: &SimReport, label: &str) {
    let rates = [
        ("total_miss_rate", r.total_miss_rate()),
        ("cpu_miss_rate", r.cpu_miss_rate()),
        ("adjusted_cpu_miss_rate", r.adjusted_cpu_miss_rate()),
        ("invalidation_miss_rate", r.invalidation_miss_rate()),
        ("false_sharing_miss_rate", r.false_sharing_miss_rate()),
        ("non_sharing_miss_rate", r.non_sharing_miss_rate()),
        ("bus_utilization", r.bus_utilization()),
        ("processor_utilization", r.avg_processor_utilization()),
    ];
    for (name, rate) in rates {
        assert!(
            (0.0..=1.0).contains(&rate),
            "{label}: {name} = {rate} outside [0, 1]"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unwarmed runs see every bus transaction, so fill traffic must
    /// balance exactly: each Read/ReadExclusive on the bus is a CPU miss
    /// that reached the bus, a prefetch fill, or a demand refill.
    #[test]
    fn bus_traffic_identity_holds_without_warmup(cell in arb_cell()) {
        let (cfg, prepared) = run_cell(&cell, false);
        let r = simulate(&cfg, &prepared).expect("valid trace");
        prop_assert_eq!(
            r.bus.reads + r.bus.read_exclusives,
            r.miss.adjusted_cpu_misses() + r.prefetch.fills + r.demand_refills,
            "fill transactions must equal fill-causing misses ({:?})", cell
        );
        assert_rates_in_unit_interval(&r, "unwarmed");
    }

    /// The headline regression: with an arbitrary warm-up split, the
    /// measured window's bus busy cycles must never exceed its length.
    /// (Pre-fix this failed at up to 107% utilization.)
    #[test]
    fn warmed_window_rates_stay_probabilities(cell in arb_cell()) {
        let (cfg, prepared) = run_cell(&cell, true);
        let r = simulate(&cfg, &prepared).expect("valid trace");
        prop_assert!(
            r.bus_utilization() <= 1.0,
            "bus utilization {} > 1.0 with warmup {} ({:?})",
            r.bus_utilization(), cfg.warmup_accesses, cell
        );
        if r.demand_accesses() > 0 {
            assert_rates_in_unit_interval(&r, "warmed");
        }
    }

    /// Sampling is read-only: the report is identical with the sampler on,
    /// and the timeline's windows tile the measured run exactly — their
    /// busy cycles and accesses sum to the final counters.
    #[test]
    fn sampling_is_invisible_and_tiles_the_run(cell in arb_cell()) {
        let (cfg, prepared) = run_cell(&cell, true);
        let plain = simulate(&cfg, &prepared).expect("valid trace");
        let opts = SimOptions { observe: Observability::sampled(256), plan: None };
        let run = simulate_with(&cfg, &prepared, opts).expect("valid trace");
        prop_assert_eq!(&plain, &run.report, "sampling must not perturb the run");
        let timeline = run.timeline.expect("sampling was enabled");
        prop_assert_eq!(timeline.total_bus_busy(), plain.bus.busy_cycles);
        prop_assert_eq!(timeline.total_accesses(), plain.demand_accesses());
        for w in &timeline.windows {
            prop_assert!(w.start < w.end, "degenerate window {:?}", w);
            // Grant-time accounting books a transfer wholly in the window
            // that granted it, so a window can exceed its span by at most
            // one in-flight occupancy (the serial bus admits no second).
            prop_assert!(
                w.bus_busy_cycles <= (w.end - w.start) + cell.transfer,
                "window busier than its span plus one transfer: {:?} ({:?})", w, cell
            );
        }
    }
}
