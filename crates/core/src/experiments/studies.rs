//! Post-paper studies registered beside the paper's exhibits: the §3.3 and
//! §4.3 ablations, the §3.3 configuration sweep, two extensions the paper
//! suggests (exclusive read-modify-write prefetching, write-update
//! coherence), a contention latency profile, a static sharing analysis and
//! the NP calibration anchors.
//!
//! Knobs that live in [`RunConfig`] (geometry, protocol, hardware
//! prefetcher) get private [`Lab`]s; knobs that live only in [`SimConfig`]
//! or in the prefetch pass (buffer depth, arbitration, victim entries,
//! prefetch distance) simulate directly, fanned out over
//! [`Render::jobs`] workers by [`parallel::map`].

use super::{cells, trace, Render, FIGURE_LATENCY};
use crate::checkpoint::KeyedJournal;
use crate::lab::{Experiment, Lab, RunConfig};
use crate::parallel;
use crate::report::Table;
use charlie_bus::BusConfig;
use charlie_cache::CacheGeometry;
use charlie_prefetch::{apply, apply_with_distance, HwPrefetchConfig, Strategy};
use charlie_sim::{simulate, Protocol, SimConfig, SimReport, LATENCY_BUCKET_BOUNDS};
use charlie_trace::{Trace, TraceStats, WordSharingMap};
use charlie_workloads::{Layout, Workload};

/// The lab's interleaved trace of `w`.
fn raw_trace(cfg: &RunConfig, w: Workload) -> Trace {
    trace(cfg, w, Layout::Interleaved)
}

/// Prefetch-buffer-depth ablation. The paper simulates "a 16-deep prefetch
/// instruction buffer, which was sufficiently large to almost always
/// prevent the processor from stalling because the buffer was full"
/// (§3.3); shallow buffers throttle the prefetching strategies.
pub fn ablation_buffer(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
    let cfg = *lab.config();
    let mut t = Table::new(
        "Prefetch-buffer-depth ablation (Mp3d, PWS, 8-cycle transfer)",
        vec!["Depth", "rel. time", "buffer stalls", "prefetch fills"],
    );
    let raw = raw_trace(&cfg, Workload::Mp3d);
    let prepared = apply(Strategy::Pws, &raw, CacheGeometry::paper_default());
    let base = SimConfig::paper(cfg.procs, 8);
    let np = simulate(&base, &raw).expect("NP simulates").cycles as f64;
    let reports = parallel::map(&DEPTHS, Lab::resolve_jobs(r.jobs), |_, &depth| {
        let sim_cfg = SimConfig { prefetch_buffer_depth: depth, ..base };
        simulate(&sim_cfg, &prepared).expect("simulates")
    });
    for (&depth, rep) in DEPTHS.iter().zip(&reports) {
        t.row(vec![
            format!("{depth}"),
            format!("{:.3}", rep.cycles as f64 / np),
            format!("{}", rep.prefetch.buffer_stalls),
            format!("{}", rep.prefetch.fills),
        ]);
    }
    r.tables([t])
}

/// Conflict-remedy ablation. §4.3: the conflicts between prefetched data
/// and the working set "would likely be reduced by a victim cache or a
/// set-associative cache". Runs Topopt with 1-, 2- and 4-way caches (one
/// private lab per geometry), then direct-mapped with 0–8 victim entries.
pub fn ablation_cache(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    const WAYS: [u32; 3] = [1, 2, 4];
    const VICTIM_ENTRIES: [usize; 4] = [0, 2, 4, 8];
    let base_cfg = *lab.config();
    let jobs = Lab::resolve_jobs(r.jobs);
    let mut t = Table::new(
        "Associativity ablation (Topopt): prefetch conflicts shrink with ways",
        vec!["Ways", "NP CPU MR", "PREF rel. time @8", "PREF rel. time @32", "wasted pf @8"],
    );
    let way_rows = parallel::map(&WAYS, jobs, |_, &ways| {
        let geometry = CacheGeometry::new(32 * 1024, 32, ways).expect("valid geometry");
        let mut lab = Lab::new(RunConfig { geometry, ..base_cfg });
        let np =
            lab.run(Experiment::paper(Workload::Topopt, Strategy::NoPrefetch, 8)).report.clone();
        let rel8 = lab.relative_time(Experiment::paper(Workload::Topopt, Strategy::Pref, 8));
        let rel32 = lab.relative_time(Experiment::paper(Workload::Topopt, Strategy::Pref, 32));
        let pf = lab.run(Experiment::paper(Workload::Topopt, Strategy::Pref, 8)).report.clone();
        (np, rel8, rel32, pf)
    });
    for (&ways, (np, rel8, rel32, pf)) in WAYS.iter().zip(&way_rows) {
        t.row(vec![
            format!("{ways}"),
            format!("{:.2}%", 100.0 * np.cpu_miss_rate()),
            format!("{rel8:.3}"),
            format!("{rel32:.3}"),
            format!("{}", pf.prefetch.wasted_evicted),
        ]);
    }
    r.table(&t);
    r.gap();

    let mut v = Table::new(
        "Victim-buffer ablation (Topopt, direct-mapped, PREF, 8-cycle transfer)",
        vec!["Victim entries", "rel. time", "victim hits", "CPU MR", "wasted pf"],
    );
    let raw = raw_trace(&base_cfg, Workload::Topopt);
    let prepared = apply(Strategy::Pref, &raw, CacheGeometry::paper_default());
    let victim_rows = parallel::map(&VICTIM_ENTRIES, jobs, |_, &entries| {
        let sim_cfg = SimConfig { victim_entries: entries, ..SimConfig::paper(base_cfg.procs, 8) };
        let np = simulate(&sim_cfg, &raw).expect("NP simulates");
        let rep = simulate(&sim_cfg, &prepared).expect("simulates");
        (np, rep)
    });
    for (&entries, (np, rep)) in VICTIM_ENTRIES.iter().zip(&victim_rows) {
        v.row(vec![
            format!("{entries}"),
            format!("{:.3}", rep.cycles as f64 / np.cycles as f64),
            format!("{}", rep.victim_hits),
            format!("{:.2}%", 100.0 * rep.cpu_miss_rate()),
            format!("{}", rep.prefetch.wasted_evicted),
        ]);
    }
    r.tables([v])
}

/// §4.3 prefetch-distance ablation: "prefetching algorithms should strive
/// to receive the prefetched data exactly on time". Short distances leave
/// prefetches in progress; long ones trade them for conflict misses.
pub fn ablation_distance(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    const DISTANCES: [u64; 6] = [25, 50, 100, 200, 400, 800];
    let cfg = *lab.config();
    let mut t = Table::new(
        "Prefetch-distance ablation (PREF discipline, 8-cycle transfer)",
        vec!["Workload", "Distance", "rel. time", "in-progress MR", "non-shr MR", "wasted pf"],
    );
    for w in [Workload::Topopt, Workload::Mp3d] {
        let raw = raw_trace(&cfg, w);
        let sim_cfg = SimConfig::paper(cfg.procs, 8);
        let np = simulate(&sim_cfg, &raw).expect("NP simulates");
        let reports = parallel::map(&DISTANCES, Lab::resolve_jobs(r.jobs), |_, &distance| {
            let prepared =
                apply_with_distance(Strategy::Pref, &raw, CacheGeometry::paper_default(), distance);
            simulate(&sim_cfg, &prepared).expect("simulates")
        });
        for (&distance, rep) in DISTANCES.iter().zip(&reports) {
            let d = rep.demand_accesses().max(1) as f64;
            t.row(vec![
                w.name().to_owned(),
                format!("{distance}"),
                format!("{:.3}", rep.cycles as f64 / np.cycles as f64),
                format!("{:.2}%", 100.0 * rep.miss.prefetch_in_progress as f64 / d),
                format!("{:.2}%", 100.0 * rep.non_sharing_miss_rate()),
                format!("{}", rep.prefetch.wasted_evicted + rep.prefetch.wasted_invalidated),
            ]);
        }
    }
    r.tables([t])
}

/// Arbitration ablation. The paper's bus "favors blocking loads over
/// prefetches" (§3.3); letting prefetches compete at demand priority shows
/// what that choice is worth near saturation.
pub fn ablation_priority(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    const LATENCIES: [u64; 3] = [8, 16, 32];
    let cfg = *lab.config();
    let mut t = Table::new(
        "Arbitration ablation (PWS discipline): demand-over-prefetch priority vs flat priority",
        vec!["Workload", "Transfer", "rel. time (paper arb)", "rel. time (flat arb)"],
    );
    for w in [Workload::Mp3d, Workload::Pverify] {
        let raw = raw_trace(&cfg, w);
        let prepared = apply(Strategy::Pws, &raw, CacheGeometry::paper_default());
        let rows = parallel::map(&LATENCIES, Lab::resolve_jobs(r.jobs), |_, &lat| {
            let base = SimConfig::paper(cfg.procs, lat);
            let np = simulate(&base, &raw).expect("NP simulates").cycles as f64;
            let paper_arb = simulate(&base, &prepared).expect("simulates").cycles as f64;
            let flat = SimConfig { prefetch_demand_priority: true, ..base };
            let flat_arb = simulate(&flat, &prepared).expect("simulates").cycles as f64;
            (paper_arb / np, flat_arb / np)
        });
        for (&lat, &(paper_rel, flat_rel)) in LATENCIES.iter().zip(&rows) {
            t.row(vec![
                w.name().to_owned(),
                format!("{lat} cycles"),
                format!("{paper_rel:.3}"),
                format!("{flat_rel:.3}"),
            ]);
        }
    }
    r.tables([t])
}

const RMW_WORKLOADS: [Workload; 3] = [Workload::Topopt, Workload::Pverify, Workload::Mp3d];
const RMW_STRATEGIES: [Strategy; 3] = [Strategy::Pref, Strategy::Excl, Strategy::ExclRmw];

/// The `rmw` cells and their NP baselines.
pub fn rmw_grid() -> Vec<Experiment> {
    let mut strategies = vec![Strategy::NoPrefetch];
    strategies.extend(RMW_STRATEGIES);
    cells(&RMW_WORKLOADS, &strategies, &[FIGURE_LATENCY])
}

/// The §4.3 suggestion the paper left unexplored: exclusive prefetching of
/// read-modify-write idioms. EXCL-RMW should save upgrade transactions
/// relative to PREF and plain EXCL on write-sharing workloads.
pub fn rmw(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    let mut t = Table::new(
        "Exclusive prefetching of read-modify-write idioms",
        vec!["Workload", "Strategy", "rel. time", "upgrades", "inval bus ops", "CPU MR"],
    );
    for w in RMW_WORKLOADS {
        for s in RMW_STRATEGIES {
            let exp = Experiment::paper(w, s, FIGURE_LATENCY);
            let rel = lab.relative_time(exp);
            let rep = &lab.run(exp).report;
            t.row(vec![
                w.name().to_owned(),
                s.name().to_owned(),
                format!("{rel:.3}"),
                format!("{}", rep.bus.upgrades),
                format!("{}", rep.bus.invalidating_ops()),
                format!("{:.2}%", 100.0 * rep.cpu_miss_rate()),
            ]);
        }
    }
    r.tables([t])
}

const WRITE_UPDATE_WORKLOADS: [Workload; 3] = [Workload::Pverify, Workload::Mp3d, Workload::Water];
const WRITE_UPDATE_LATENCIES: [u64; 2] = [4, 16];

/// The `write-update` cells the shared (write-invalidate) lab serves.
pub fn write_update_grid() -> Vec<Experiment> {
    cells(
        &WRITE_UPDATE_WORKLOADS,
        &[Strategy::NoPrefetch, Strategy::Pref],
        &WRITE_UPDATE_LATENCIES,
    )
}

/// Protocol counterfactual: the paper names invalidation misses "the
/// biggest challenge to designers and users of parallel machine memories".
/// Firefly-style write-update removes them by construction, so the
/// comparison shows what they cost each workload and what the broadcast
/// traffic costs instead. Write-update runs live in a private lab, as in
/// [`protocol_head_to_head`](super::protocol_head_to_head).
pub fn write_update(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    let mut wu_lab = Lab::new(RunConfig { protocol: Protocol::WriteUpdate, ..*lab.config() });
    let batch = wu_lab.run_batch(&write_update_grid(), r.jobs);
    if let Some(summary) = batch.failure_summary() {
        return Err(summary);
    }
    let mut t = Table::new(
        "Write-invalidate vs write-update (NP and PREF)",
        vec![
            "Workload",
            "Transfer",
            "Strategy",
            "inval MR (WI)",
            "time WU/WI",
            "bus util WI",
            "bus util WU",
        ],
    );
    for w in WRITE_UPDATE_WORKLOADS {
        for lat in WRITE_UPDATE_LATENCIES {
            for s in [Strategy::NoPrefetch, Strategy::Pref] {
                let exp = Experiment::paper(w, s, lat);
                let wi = &lab.run(exp).report;
                let wu = &wu_lab.run(exp).report;
                assert_eq!(wu.miss.invalidation(), 0, "write-update cannot invalidate");
                t.row(vec![
                    w.name().to_owned(),
                    format!("{lat} cycles"),
                    if s == Strategy::NoPrefetch { "NP" } else { "PREF" }.to_owned(),
                    format!("{:.2}%", 100.0 * wi.invalidation_miss_rate()),
                    format!("{:.3}", wu.cycles as f64 / wi.cycles as f64),
                    format!("{:.2}", wi.bus_utilization()),
                    format!("{:.2}", wu.bus_utilization()),
                ]);
            }
        }
    }
    r.tables([t])
}

const LATENCY_PROFILE_WORKLOADS: [Workload; 2] = [Workload::Mp3d, Workload::Water];
const LATENCY_PROFILE_LATENCIES: [u64; 3] = [4, 16, 32];

/// The `latency-profile` cells.
pub fn latency_profile_grid() -> Vec<Experiment> {
    cells(
        &LATENCY_PROFILE_WORKLOADS,
        &[Strategy::NoPrefetch, Strategy::Pws],
        &LATENCY_PROFILE_LATENCIES,
    )
}

/// Effective memory latency under contention, the mechanism behind
/// Figure 2. §4.2: "prefetching causes an increase in memory latency due
/// to increased contention between processors on the bus". The
/// demand-fill latency distribution (unloaded: 100 cycles) for NP and PWS
/// across transfer latencies.
pub fn latency_profile(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    let mut headers: Vec<String> =
        ["Workload", "Transfer", "Strategy", "mean"].map(str::to_owned).into();
    let mut low = 0;
    for b in LATENCY_BUCKET_BOUNDS {
        headers.push(format!("{}..{}", low + 1, b));
        low = b;
    }
    headers.push(format!(">{low}"));
    let mut t = Table::new("Demand-fill latency distribution (cycles; unloaded = 100)", headers);
    for w in LATENCY_PROFILE_WORKLOADS {
        for lat in LATENCY_PROFILE_LATENCIES {
            for s in [Strategy::NoPrefetch, Strategy::Pws] {
                let rep = &lab.run(Experiment::paper(w, s, lat)).report;
                let total = rep.fill_latency.count().max(1) as f64;
                let mut row = vec![
                    w.name().to_owned(),
                    format!("{lat}"),
                    if s == Strategy::NoPrefetch { "NP" } else { "PWS" }.to_owned(),
                    format!("{:.0}", rep.fill_latency.mean()),
                ];
                for &count in rep.fill_latency.histogram() {
                    row.push(format!("{:.0}%", 100.0 * count as f64 / total));
                }
                t.row(row);
            }
        }
    }
    r.tables([t])
}

/// Off-line word-granularity sharing analysis. The paper attributes most
/// invalidation misses to false sharing (Table 3) and fixes it by
/// restructuring (§4.4); the trace alone predicts both.
pub fn sharing(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    let cfg = *lab.config();
    let mut t = Table::new(
        "Word-granularity sharing analysis (static, no simulation)",
        vec![
            "Workload",
            "Layout",
            "write-shared lines",
            "purely false",
            "truly shared",
            "FS potential",
        ],
    );
    for w in Workload::ALL {
        for layout in [Layout::Interleaved, Layout::Padded] {
            let trace = trace(&cfg, w, layout);
            let stats = TraceStats::gather(&trace, 32);
            let words = WordSharingMap::analyze(&trace, 32);
            let (fs, ts) = words.word_class_counts();
            t.row(vec![
                w.name().to_owned(),
                format!("{layout:?}"),
                format!("{}", stats.write_shared_lines),
                format!("{fs}"),
                format!("{ts}"),
                format!("{:.0}%", 100.0 * words.false_sharing_potential()),
            ]);
        }
    }
    r.table(&t);
    r.gap();
    r.text(
        "High false-sharing potential predicts that the §4.4 restructuring\n\
         (the Padded layout) will pay off — compare Table 4's measured factors.\n",
    );
    Ok(())
}

/// Runs every `(workload, knob)` cell not already in the journal,
/// journaling each completion as it arrives; returns reports in `cells`
/// order, restored or fresh.
fn keyed_cells(
    cells: &[(Workload, u64)],
    jobs: usize,
    journal: &mut Option<KeyedJournal>,
    key: impl Fn(Workload, u64) -> String,
    run: impl Fn(Workload, u64) -> SimReport + Sync,
) -> Vec<SimReport> {
    let keys: Vec<String> = cells.iter().map(|&(w, knob)| key(w, knob)).collect();
    let mut slots: Vec<Option<SimReport>> =
        keys.iter().map(|k| journal.as_ref().and_then(|j| j.done().get(k).cloned())).collect();
    let todo: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
    let fresh = parallel::map_observed(
        &todo,
        jobs,
        |_, &i| {
            let (w, knob) = cells[i];
            run(w, knob)
        },
        |pos, report| {
            if let Some(j) = journal.as_mut() {
                j.append(&keys[todo[pos]], report);
            }
        },
    );
    for (&i, report) in todo.iter().zip(fresh) {
        slots[i] = Some(report);
    }
    slots.into_iter().map(|s| s.expect("every cell restored or run")).collect()
}

/// The §3.3 configuration-sensitivity claims: "with larger caches,
/// non-sharing misses were reduced, making invalidation miss effects much
/// more dominant; larger block sizes increased false sharing". Sweeps
/// cache size and block size (NP, 8-cycle bus), then the on-line hardware
/// prefetchers. Every cell needs its own lab, so cells fan out directly;
/// with [`Render::resume`] each is journaled under a
/// `config_sweep/p…/r…/s…[/hw=…]` [`KeyedJournal`] and skipped on re-run.
pub fn config_sweep(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    const HW_CONFIGS: [HwPrefetchConfig; 3] =
        [HwPrefetchConfig::stride(2, 4), HwPrefetchConfig::sms(2), HwPrefetchConfig::markov(2)];
    let base_cfg = *lab.config();
    let jobs = Lab::resolve_jobs(r.jobs);
    let mut journal = match &r.resume {
        None => None,
        Some(path) => {
            let config = super::campaign_key("config_sweep", &base_cfg);
            let journal = KeyedJournal::open(path, &config)
                .map_err(|e| format!("opening checkpoint {}: {e}", path.display()))?;
            if !journal.done().is_empty() {
                eprintln!("resuming: {} cells restored from checkpoint", journal.done().len());
            }
            Some(journal)
        }
    };
    let np_cell = |w: Workload, geometry: CacheGeometry| {
        let mut lab = Lab::new(RunConfig { geometry, ..base_cfg });
        lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8)).report.clone()
    };

    let cache_cells: Vec<(Workload, u64)> = [Workload::Pverify, Workload::Topopt, Workload::Mp3d]
        .into_iter()
        .flat_map(|w| [16u64, 32, 64, 128].into_iter().map(move |kb| (w, kb)))
        .collect();
    let cache_reports = keyed_cells(
        &cache_cells,
        jobs,
        &mut journal,
        |w, kb| format!("cache/{}/{kb}KB", w.name()),
        |w, kb| np_cell(w, CacheGeometry::new(kb * 1024, 32, 1).expect("valid geometry")),
    );
    let mut cache_table = Table::new(
        "Cache-size sweep (NP, 8-cycle transfer): larger caches leave invalidation misses dominant",
        vec!["Workload", "Cache", "non-shr MR", "inval MR", "inval share"],
    );
    for (&(w, kb), rep) in cache_cells.iter().zip(&cache_reports) {
        let share = if rep.cpu_miss_rate() > 0.0 {
            rep.invalidation_miss_rate() / rep.cpu_miss_rate()
        } else {
            0.0
        };
        cache_table.row(vec![
            w.name().to_owned(),
            format!("{kb} KB"),
            format!("{:.2}%", 100.0 * rep.non_sharing_miss_rate()),
            format!("{:.2}%", 100.0 * rep.invalidation_miss_rate()),
            format!("{:.0}%", 100.0 * share),
        ]);
    }
    r.table(&cache_table);
    r.gap();

    let block_cells: Vec<(Workload, u64)> = [Workload::Pverify, Workload::Topopt]
        .into_iter()
        .flat_map(|w| [16u64, 32, 64].into_iter().map(move |block| (w, block)))
        .collect();
    let block_reports = keyed_cells(
        &block_cells,
        jobs,
        &mut journal,
        |w, block| format!("block/{}/{block}B", w.name()),
        |w, block| np_cell(w, CacheGeometry::new(32 * 1024, block, 1).expect("valid geometry")),
    );
    let mut block_table = Table::new(
        "Block-size sweep (NP, 8-cycle transfer): larger blocks increase false sharing",
        vec!["Workload", "Block", "inval MR", "FS MR", "FS share"],
    );
    for (&(w, block), rep) in block_cells.iter().zip(&block_reports) {
        let share = if rep.invalidation_miss_rate() > 0.0 {
            rep.false_sharing_miss_rate() / rep.invalidation_miss_rate()
        } else {
            0.0
        };
        block_table.row(vec![
            w.name().to_owned(),
            format!("{block} B"),
            format!("{:.2}%", 100.0 * rep.invalidation_miss_rate()),
            format!("{:.2}%", 100.0 * rep.false_sharing_miss_rate()),
            format!("{:.0}%", 100.0 * share),
        ]);
    }
    r.table(&block_table);
    r.gap();

    // The prefetcher lives in `RunConfig` like geometry, so each cell gets
    // its own private lab; the knob indexes HW_CONFIGS.
    let hw_cells: Vec<(Workload, u64)> = [Workload::Mp3d, Workload::PointerChase]
        .into_iter()
        .flat_map(|w| (0..HW_CONFIGS.len() as u64).map(move |i| (w, i)))
        .collect();
    let hw_reports = keyed_cells(
        &hw_cells,
        jobs,
        &mut journal,
        |w, i| format!("hw/{}/{}", w.name(), HW_CONFIGS[i as usize]),
        |w, i| {
            let mut lab = Lab::new(RunConfig { hw_prefetch: HW_CONFIGS[i as usize], ..base_cfg });
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, 8)).report.clone()
        },
    );
    let mut hw_table = Table::new(
        "Hardware-prefetcher sweep (NP demand stream, 8-cycle transfer)",
        vec!["Workload", "Prefetcher", "Issued", "Useful", "Late", "Accuracy", "adj CPU MR"],
    );
    for (&(w, i), rep) in hw_cells.iter().zip(&hw_reports) {
        let h = rep.hw_prefetch;
        hw_table.row(vec![
            w.name().to_owned(),
            HW_CONFIGS[i as usize].to_string(),
            h.issued.to_string(),
            h.useful.to_string(),
            h.late.to_string(),
            format!("{:.0}%", 100.0 * h.accuracy()),
            format!("{:.2}%", 100.0 * rep.adjusted_cpu_miss_rate()),
        ]);
    }
    r.tables([hw_table])
}

/// The paper's published NP anchors per workload: Table 2's bus
/// utilizations at 4/8/16/32 cycles and §4.2's processor utilizations at
/// the fastest and slowest bus.
const ANCHORS: [(Workload, [f64; 4], (f64, f64)); 5] = [
    (Workload::Topopt, [0.18, 0.27, 0.45, 0.76], (0.65, 0.59)),
    (Workload::Mp3d, [0.48, 0.65, 0.90, 1.00], (0.39, 0.22)),
    (Workload::LocusRoute, [0.21, 0.33, 0.56, 0.89], (0.64, 0.54)),
    (Workload::Pverify, [0.42, 0.63, 0.92, 1.00], (0.41, 0.18)),
    (Workload::Water, [0.10, 0.14, 0.22, 0.38], (0.82, 0.81)),
];

/// The `anchors` cells: every NP baseline at the Table 2 latencies.
pub fn anchors_grid() -> Vec<Experiment> {
    cells(&Workload::ALL, &[Strategy::NoPrefetch], &BusConfig::TABLE2_SWEEP)
}

/// NP calibration: each workload's NP baseline next to the paper's
/// published anchors, for tuning the workload generators.
pub fn anchors(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    fn slash(v: &[f64]) -> String {
        v.iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>().join("/")
    }
    let pct = |x: f64| format!("{:.2}%", 100.0 * x);
    let mut t = Table::new(
        "NP calibration vs paper anchors",
        vec![
            "Workload",
            "bus util (ours)",
            "bus util (paper)",
            "proc util (ours)",
            "proc util (paper)",
            "CPU MR",
            "inval MR @8",
            "FS MR @8",
            "non-shr MR @8",
        ],
    );
    for (w, bus_paper, (pu_fast, pu_slow)) in ANCHORS {
        let np = |lab: &mut Lab, lat| {
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, lat)).report.clone()
        };
        let ours: Vec<f64> = BusConfig::TABLE2_SWEEP
            .iter()
            .map(|&lat| np(lab, lat).bus_utilization())
            .collect();
        let (fast, slow, at8) = (np(lab, 4), np(lab, 32), np(lab, FIGURE_LATENCY));
        t.row(vec![
            w.name().to_owned(),
            slash(&ours),
            slash(&bus_paper),
            slash(&[fast.avg_processor_utilization(), slow.avg_processor_utilization()]),
            slash(&[pu_fast, pu_slow]),
            pct(fast.cpu_miss_rate()),
            pct(at8.invalidation_miss_rate()),
            pct(at8.false_sharing_miss_rate()),
            pct(at8.non_sharing_miss_rate()),
        ]);
    }
    r.tables([t])
}
