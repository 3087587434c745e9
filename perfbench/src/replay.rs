//! The traced replay: each workload's cells re-run through the layer entry
//! points (`generate`, `validate`, `apply`, the simulate call, and
//! `Journal::append` on the served path), in the order and with the reuse
//! pattern of the path being replayed, with a timer around every call.
//!
//! Batch paths generate and validate each (workload, layout) trace once per
//! lab and apply each strategy once per (workload, layout, strategy) group,
//! as `Lab::run_batch` does; the served path does all of it per cell, as
//! `lab::execute_cell` does, and appends each summary to a fresh campaign
//! journal. The replay runs on one thread.

use crate::paths::{self, Kind, LabPlan};
use charlie::checkpoint::{Journal, JournalOptions};
use charlie::sim::{simulate_counted_prevalidated, SimConfig};
use charlie::workloads::generate;
use charlie::{run_sampled_on_prepared, Experiment, Layout, RunConfig, RunSummary, Workload};
use charlie::{Strategy, WorkloadConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Time and work per layer over one replay.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub generate_s: f64,
    pub generate_calls: u64,
    pub validate_s: f64,
    pub apply_s: f64,
    pub apply_calls: u64,
    pub inserted: u64,
    pub simulate_s: f64,
    pub events: u64,
    pub sampling_s: f64,
    pub sampling_events: u64,
    pub detailed_windows: u64,
    pub total_windows: u64,
    pub append_s: f64,
    pub append_bytes: u64,
    /// Per cell (grid order): generate + validate + apply + simulate
    /// seconds spent on that cell alone (served path only).
    pub cell_direct_s: Vec<f64>,
}

impl Layers {
    /// Σ time in every traced layer.
    pub fn total_s(&self) -> f64 {
        self.generate_s
            + self.validate_s
            + self.apply_s
            + self.simulate_s
            + self.sampling_s
            + self.append_s
    }
}

/// Mirrors `lab::workload_config`.
fn workload_config(cfg: &RunConfig, layout: Layout) -> WorkloadConfig {
    WorkloadConfig { procs: cfg.procs, refs_per_proc: cfg.refs_per_proc, seed: cfg.seed, layout }
}

/// Mirrors the simulator configuration `Lab` builds for a cell, watchdog
/// budget included.
fn sim_config(cfg: &RunConfig, exp: Experiment) -> SimConfig {
    let accesses = (cfg.procs as u64).saturating_mul(cfg.refs_per_proc as u64);
    SimConfig {
        geometry: cfg.geometry,
        max_events: (1u64 << 20).saturating_add(128u64.saturating_mul(accesses)),
        wall_limit_ms: cfg.wall_limit_ms,
        hw_prefetch: cfg.hw_prefetch,
        protocol: cfg.protocol,
        ..SimConfig::paper(cfg.procs, exp.transfer_cycles)
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

impl Layers {
    fn generate(
        &mut self,
        cfg: &RunConfig,
        exp: Experiment,
    ) -> Result<charlie::trace::Trace, String> {
        self.generate_calls += 1;
        let raw = timed(&mut self.generate_s, || {
            generate(exp.workload, &workload_config(cfg, exp.layout))
        });
        timed(&mut self.validate_s, || raw.validate())
            .map_err(|e| format!("{exp}: invalid trace: {e}"))?;
        Ok(raw)
    }

    fn apply(
        &mut self,
        cfg: &RunConfig,
        strategy: Strategy,
        raw: &charlie::trace::Trace,
    ) -> (charlie::trace::Trace, u64) {
        self.apply_calls += 1;
        let prepared =
            timed(&mut self.apply_s, || charlie::prefetch::apply(strategy, raw, cfg.geometry));
        let inserted = prepared.total_prefetches() as u64;
        self.inserted += inserted;
        (prepared, inserted)
    }

    fn simulate(
        &mut self,
        cfg: &RunConfig,
        exp: Experiment,
        prepared: &charlie::trace::Trace,
        inserted: u64,
    ) -> Result<RunSummary, String> {
        let sim_cfg = sim_config(cfg, exp);
        let summary = match cfg.sampling {
            Some(scfg) => {
                let (report, sampled) = timed(&mut self.sampling_s, || {
                    run_sampled_on_prepared(&sim_cfg, prepared, &scfg)
                })
                .map_err(|e| format!("{exp}: {e}"))?;
                self.sampling_events += sampled.events;
                self.detailed_windows += sampled.detailed_windows;
                self.total_windows += sampled.total_windows;
                RunSummary {
                    experiment: exp,
                    report,
                    prefetches_inserted: inserted,
                    timeline: None,
                    sampled: Some(sampled),
                }
            }
            None => {
                let (report, events) = timed(&mut self.simulate_s, || {
                    simulate_counted_prevalidated(&sim_cfg, prepared)
                })
                .map_err(|e| format!("{exp}: {e}"))?;
                self.events += events;
                RunSummary {
                    experiment: exp,
                    report,
                    prefetches_inserted: inserted,
                    timeline: None,
                    sampled: None,
                }
            }
        };
        Ok(summary)
    }
}

/// Replays one lab's batch: raw traces first, then each strategy group.
fn replay_batch(layers: &mut Layers, plan: &LabPlan) -> Result<Vec<RunSummary>, String> {
    let cfg = &plan.cfg;
    let mut raws: HashMap<(Workload, Layout), charlie::trace::Trace> = HashMap::new();
    for &exp in &plan.cells {
        if let Entry::Vacant(slot) = raws.entry((exp.workload, exp.layout)) {
            slot.insert(layers.generate(cfg, exp)?);
        }
    }
    let mut groups: Vec<Vec<(usize, Experiment)>> = Vec::new();
    let mut group_of: HashMap<(Workload, Layout, Strategy), usize> = HashMap::new();
    for (i, &exp) in plan.cells.iter().enumerate() {
        let g = *group_of.entry((exp.workload, exp.layout, exp.strategy)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push((i, exp));
    }
    let mut out: Vec<Option<RunSummary>> = plan.cells.iter().map(|_| None).collect();
    for group in &groups {
        let (_, first) = group[0];
        let (prepared, inserted) =
            layers.apply(cfg, first.strategy, &raws[&(first.workload, first.layout)]);
        for &(i, exp) in group {
            out[i] = Some(layers.simulate(cfg, exp, &prepared, inserted)?);
        }
    }
    Ok(out.into_iter().map(|s| s.expect("every cell belongs to a group")).collect())
}

/// Replays the served path: every cell prepared from scratch and its
/// summary appended to a campaign journal of its own under `journal_dir`.
fn replay_served(
    layers: &mut Layers,
    plan: &LabPlan,
    journal_dir: &Path,
) -> Result<Vec<RunSummary>, String> {
    let cfg = &plan.cfg;
    std::fs::create_dir_all(journal_dir).map_err(|e| format!("{}: {e}", journal_dir.display()))?;
    let mut out = Vec::with_capacity(plan.cells.len());
    for (i, &exp) in plan.cells.iter().enumerate() {
        let before = layers.total_s();
        let raw = layers.generate(cfg, exp)?;
        let (prepared, inserted) = layers.apply(cfg, exp.strategy, &raw);
        drop(raw);
        let summary = layers.simulate(cfg, exp, &prepared, inserted)?;
        layers.cell_direct_s.push(layers.total_s() - before);

        let path = journal_dir.join(format!("cell{i}.journal"));
        let opts = JournalOptions { config: Some(format!("perfbench/cell{i}")), sync: false };
        let (mut journal, _) =
            Journal::open_with(&path, opts).map_err(|e| format!("{}: {e}", path.display()))?;
        let header = file_len(&path);
        timed(&mut layers.append_s, || journal.append(&summary));
        drop(journal);
        layers.append_bytes += file_len(&path) - header;
        out.push(summary);
    }
    std::fs::remove_dir_all(journal_dir).map_err(|e| format!("{}: {e}", journal_dir.display()))?;
    Ok(out)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// One traced replay of `kind`, returning its per-layer work and the
/// summaries it produced in grid order.
pub fn replay(
    kind: Kind,
    base: RunConfig,
    scratch: &Path,
) -> Result<(Layers, Vec<RunSummary>), String> {
    let mut layers = Layers::default();
    let mut summaries = Vec::new();
    for plan in paths::plans(kind, base) {
        let out = if kind == Kind::ServedCells {
            replay_served(&mut layers, &plan, &scratch.join("replay-journals"))?
        } else {
            replay_batch(&mut layers, &plan)?
        };
        summaries.extend(out);
    }
    Ok((layers, summaries))
}
