//! Reproductions of every table and figure in the paper's evaluation
//! (§4), one function per exhibit, and the [`EXHIBITS`] registry that
//! names them for `charlie experiments`. Each function takes a [`Lab`] so
//! related exhibits share their underlying simulation runs, and returns a
//! renderable [`Table`] (Figure 2 returns one per workload).
//!
//! | Function | Paper exhibit |
//! |---|---|
//! | [`table1`] | Table 1 — workload characteristics |
//! | [`figure1`] | Figure 1 — total & CPU miss rates (8-cycle transfer) |
//! | [`table2`] | Table 2 — bus utilizations |
//! | [`figure2`] | Figure 2 — relative execution time vs. transfer latency |
//! | [`figure3`] | Figure 3 — sources of CPU misses |
//! | [`table3`] | Table 3 — invalidation & false-sharing miss rates |
//! | [`table4`] | Table 4 — miss rates, restructured programs |
//! | [`table5`] | Table 5 — execution times, restructured programs |
//! | [`processor_utilization`] | §4.2 — NP processor utilizations |
//!
//! The post-paper studies (§3.3/§4.3 ablations, extensions, calibration
//! anchors) live in [`studies`] and are registered alongside.

pub mod studies;

use crate::lab::{Experiment, Lab, RunConfig};
use crate::report::{format_rate, Table};
use charlie_bus::BusConfig;
use charlie_prefetch::{HwPrefetchConfig, Strategy};
use charlie_sim::Protocol;
use charlie_trace::{Trace, TraceStats};
use charlie_workloads::{generate, Layout, Workload, WorkloadConfig};
use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;

/// The transfer latency Figures 1 and 3 and Tables 3 and 4 are reported at.
pub const FIGURE_LATENCY: u64 = 8;

/// The workloads Figure 3 details.
pub const FIGURE3_WORKLOADS: [Workload; 3] = [Workload::Topopt, Workload::Pverify, Workload::Mp3d];

/// The strategies Tables 4 and 5 report for restructured programs.
pub const RESTRUCTURED_STRATEGIES: [Strategy; 3] =
    [Strategy::NoPrefetch, Strategy::Pref, Strategy::Pws];

/// The on-line hardware prefetcher configurations the head-to-head exhibit
/// compares against the oracle software strategies: each of the three
/// predictor families at degree 2 (the stride prefetcher at the paper
/// buffer's native lookahead of 4).
pub fn hw_prefetch_configs() -> [HwPrefetchConfig; 3] {
    [HwPrefetchConfig::stride(2, 4), HwPrefetchConfig::sms(2), HwPrefetchConfig::markov(2)]
}

fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Every experiment cell the paper's exhibits (Tables 1–5, Figures 1–3,
/// §4.2 utilizations) read: the full workload × strategy × transfer-latency
/// grid on the interleaved layout, plus the restructured cells of Tables 4
/// and 5 — the grid of the `all` exhibit. [`Lab::prefetch_all`] feeds this
/// list to the parallel engine so each exhibit function afterwards runs
/// entirely from the memo.
pub fn full_grid() -> Vec<Experiment> {
    let mut grid = cells(&Workload::ALL, &Strategy::ALL, &BusConfig::PAPER_SWEEP);
    grid.extend(restructured_cells(&RESTRUCTURED_STRATEGIES, &BusConfig::TABLE2_SWEEP));
    grid
}

/// Every cell of `workloads` × `strategies` × `latencies` on the
/// interleaved layout, in that nesting order.
fn cells(workloads: &[Workload], strategies: &[Strategy], latencies: &[u64]) -> Vec<Experiment> {
    let mut grid = Vec::new();
    for &w in workloads {
        for &s in strategies {
            for &lat in latencies {
                grid.push(Experiment::paper(w, s, lat));
            }
        }
    }
    grid
}

/// [`cells`] on the restructured (padded) layout of the workloads §4.4
/// restructures.
fn restructured_cells(strategies: &[Strategy], latencies: &[u64]) -> Vec<Experiment> {
    let workloads: Vec<Workload> =
        Workload::ALL.into_iter().filter(|w| w.restructurable()).collect();
    cells(&workloads, strategies, latencies).into_iter().map(Experiment::restructured).collect()
}

/// The NP and oracle PREF cells at the figure latency — what the shared
/// lab serves the head-to-head exhibits, whose other runs live in private
/// labs.
fn np_and_pref(workloads: &[Workload]) -> Vec<Experiment> {
    cells(workloads, &[Strategy::NoPrefetch, Strategy::Pref], &[FIGURE_LATENCY])
}

/// The lab's trace of `w` in `layout`, for exhibits that analyse or
/// simulate traces outside the lab's memo.
fn trace(cfg: &RunConfig, w: Workload, layout: Layout) -> Trace {
    let wcfg = WorkloadConfig {
        procs: cfg.procs,
        refs_per_proc: cfg.refs_per_proc,
        seed: cfg.seed,
        layout,
    };
    generate(w, &wcfg)
}

/// Where and how an exhibit renders: the output stream, text or CSV, and
/// the run options exhibits read besides their [`Lab`].
///
/// Tables are separated by at most one blank line ([`Render::gap`]);
/// charts and prose ([`Render::text`]) appear only in the text output of
/// an exhibit rendered on its own.
pub struct Render<'a> {
    out: &'a mut dyn Write,
    csv: bool,
    extras: bool,
    wrote: bool,
    gap: bool,
    /// Worker threads for cells an exhibit simulates outside the lab's
    /// memo (`0` = one per core).
    pub jobs: usize,
    /// Directory where `figure2` also writes one SVG panel per workload.
    pub svg_dir: Option<PathBuf>,
    /// Checkpoint journal for cells keyed outside [`Experiment`] (the
    /// `config-sweep` exhibit's geometry and prefetcher cells).
    pub resume: Option<PathBuf>,
}

impl<'a> Render<'a> {
    /// Text (or, with `csv`, CSV) output to `out` on one worker per core.
    pub fn new(out: &'a mut dyn Write, csv: bool) -> Self {
        Render {
            out,
            csv,
            extras: !csv,
            wrote: false,
            gap: false,
            jobs: 0,
            svg_dir: None,
            resume: None,
        }
    }

    fn write(&mut self, s: &str) {
        if std::mem::take(&mut self.gap) {
            let _ = self.out.write_all(b"\n");
        }
        let _ = self.out.write_all(s.as_bytes());
        self.wrote = true;
    }

    /// Emits one table: aligned text followed by a blank line, or CSV rows.
    pub fn table(&mut self, table: &Table) {
        if self.csv {
            self.write(&table.to_csv());
        } else {
            self.write(&format!("{table}\n"));
        }
    }

    /// Emits tables back to back. Never fails; the `Result` lets a
    /// renderer end with it.
    pub fn tables(&mut self, tables: impl IntoIterator<Item = Table>) -> Result<(), String> {
        for table in tables {
            self.table(&table);
        }
        Ok(())
    }

    /// Asks for a blank line before whatever is emitted next. Repeated
    /// gaps collapse into one, and a gap with nothing after it is dropped.
    pub fn gap(&mut self) {
        self.gap = self.wrote;
    }

    /// Emits a chart or prose verbatim — text output of a standalone
    /// exhibit only.
    pub fn text(&mut self, text: impl Display) {
        if self.extras {
            self.write(&text.to_string());
        }
    }
}

/// One exhibit `charlie experiments` can render.
pub struct Exhibit {
    /// The name `charlie experiments` takes.
    pub name: &'static str,
    /// One line (at most 40 columns) for the CLI help.
    pub about: &'static str,
    /// One of the paper's own exhibits, which `all` renders in registry
    /// order.
    pub in_paper: bool,
    /// Every cell of the shared lab the exhibit reads. Batching it through
    /// [`Lab::run_batch`] first turns `render` into pure memo lookups; runs
    /// in private labs (other geometries, protocols, prefetchers) and
    /// direct simulations are not part of it.
    pub grid: fn() -> Vec<Experiment>,
    /// Renders the exhibit. Errors are I/O failures of its side outputs
    /// (SVG panels, the `config-sweep` journal).
    pub render: fn(&mut Lab, &mut Render<'_>) -> Result<(), String>,
}

/// Every exhibit, paper exhibits first in the paper's order.
pub static EXHIBITS: &[Exhibit] = &[
    Exhibit {
        name: "table1",
        about: "workload characteristics",
        in_paper: true,
        grid: Vec::new,
        render: |lab, r| r.tables([table1(lab)]),
    },
    Exhibit {
        name: "figure1",
        about: "total and CPU miss rates, 8-cycle bus",
        in_paper: true,
        grid: || cells(&Workload::ALL, &Strategy::ALL, &[FIGURE_LATENCY]),
        render: |lab, r| r.tables([figure1(lab)]),
    },
    Exhibit {
        name: "table2",
        about: "bus utilizations, 4-32 cycles",
        in_paper: true,
        grid: || cells(&Workload::ALL, &Strategy::ALL, &BusConfig::TABLE2_SWEEP),
        render: |lab, r| r.tables([table2(lab)]),
    },
    Exhibit {
        name: "figure2",
        about: "time vs latency + charts (--svg-dir)",
        in_paper: true,
        grid: || cells(&Workload::ALL, &Strategy::ALL, &BusConfig::PAPER_SWEEP),
        render: render_figure2,
    },
    Exhibit {
        name: "figure3",
        about: "sources of CPU misses",
        in_paper: true,
        grid: || cells(&FIGURE3_WORKLOADS, &Strategy::ALL, &[FIGURE_LATENCY]),
        render: |lab, r| r.tables([figure3(lab)]),
    },
    Exhibit {
        name: "table3",
        about: "invalidation and false-sharing misses",
        in_paper: true,
        grid: || cells(&Workload::ALL, &[Strategy::NoPrefetch], &[FIGURE_LATENCY]),
        render: |lab, r| r.tables([table3(lab)]),
    },
    Exhibit {
        name: "table4",
        about: "miss rates, restructured programs",
        in_paper: true,
        grid: || restructured_cells(&RESTRUCTURED_STRATEGIES, &[FIGURE_LATENCY]),
        render: |lab, r| r.tables([table4(lab)]),
    },
    Exhibit {
        name: "table5",
        about: "exec times, restructured programs",
        in_paper: true,
        grid: || restructured_cells(&RESTRUCTURED_STRATEGIES, &BusConfig::TABLE2_SWEEP),
        render: |lab, r| r.tables([table5(lab)]),
    },
    Exhibit {
        name: "proc-util",
        about: "§4.2 NP processor utilizations",
        in_paper: true,
        grid: || cells(&Workload::ALL, &[Strategy::NoPrefetch], &[4, 32]),
        render: |lab, r| r.tables([processor_utilization(lab)]),
    },
    Exhibit {
        name: "all",
        about: "every exhibit above, in order",
        in_paper: false,
        grid: full_grid,
        render: write_paper_grid,
    },
    Exhibit {
        name: "hw-prefetch",
        about: "stride/SMS/Markov hardware vs oracle",
        in_paper: false,
        grid: || np_and_pref(&Workload::EXTENDED),
        render: |lab, r| r.tables(hw_prefetch_head_to_head(lab)),
    },
    Exhibit {
        name: "protocols",
        about: "Illinois/Firefly/Dragon/MOESI, NP+PREF",
        in_paper: false,
        grid: || np_and_pref(&Workload::ALL),
        render: |lab, r| r.tables(protocol_head_to_head(lab)),
    },
    Exhibit {
        name: "write-update",
        about: "write-invalidate vs write-update",
        in_paper: false,
        grid: studies::write_update_grid,
        render: studies::write_update,
    },
    Exhibit {
        name: "rmw",
        about: "exclusive prefetch of read-modify-writes",
        in_paper: false,
        grid: studies::rmw_grid,
        render: studies::rmw,
    },
    Exhibit {
        name: "latency-profile",
        about: "fill latency under bus contention",
        in_paper: false,
        grid: studies::latency_profile_grid,
        render: studies::latency_profile,
    },
    Exhibit {
        name: "sharing",
        about: "static word-level sharing analysis",
        in_paper: false,
        grid: Vec::new,
        render: studies::sharing,
    },
    Exhibit {
        name: "ablation-buffer",
        about: "§3.3 prefetch-buffer depth",
        in_paper: false,
        grid: Vec::new,
        render: studies::ablation_buffer,
    },
    Exhibit {
        name: "ablation-cache",
        about: "§4.3 associativity, victim buffers",
        in_paper: false,
        grid: Vec::new,
        render: studies::ablation_cache,
    },
    Exhibit {
        name: "ablation-distance",
        about: "§4.3 prefetch distance",
        in_paper: false,
        grid: Vec::new,
        render: studies::ablation_distance,
    },
    Exhibit {
        name: "ablation-priority",
        about: "§3.3 demand-over-prefetch priority",
        in_paper: false,
        grid: Vec::new,
        render: studies::ablation_priority,
    },
    Exhibit {
        name: "config-sweep",
        about: "§3.3 cache/block/hw-prefetcher sweeps",
        in_paper: false,
        grid: Vec::new,
        render: studies::config_sweep,
    },
    Exhibit {
        name: "anchors",
        about: "NP baselines vs the paper's anchors",
        in_paper: false,
        grid: studies::anchors_grid,
        render: studies::anchors,
    },
];

/// The registered exhibit called `name`.
pub fn exhibit(name: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// The registered exhibit names, comma-separated.
pub fn exhibit_names() -> String {
    EXHIBITS.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
}

/// The paper's exhibits in order, byte-identical to
/// `experiments_output.txt` at the lab's defaults: a header naming the lab
/// config (text only), then every `in_paper` exhibit's tables separated by
/// blank lines. Charts, prose and SVG panels are left out.
pub fn write_paper_grid(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    if !r.csv {
        let c = lab.config();
        r.write(&format!(
            "== all experiments — {} procs, {} refs/proc, seed {:#x} ==\n",
            c.procs, c.refs_per_proc, c.seed
        ));
        r.gap();
    }
    let extras = std::mem::replace(&mut r.extras, false);
    let svg_dir = r.svg_dir.take();
    let result = EXHIBITS.iter().filter(|e| e.in_paper).try_for_each(|e| {
        (e.render)(lab, r)?;
        r.gap();
        Ok(())
    });
    r.extras = extras;
    r.svg_dir = svg_dir;
    result
}

/// The campaign key a `--resume` journal is bound to:
/// `prefix/p{procs}/r{refs}/s{seed}`, plus `/hw=SPEC` only when an on-line
/// prefetcher is configured, so journals of plain paper campaigns keep
/// their historical keys. Resuming under a different config refuses
/// instead of mixing grids.
pub fn campaign_key(prefix: &str, cfg: &RunConfig) -> String {
    let hw = if cfg.hw_prefetch.is_enabled() {
        format!("/hw={}", cfg.hw_prefetch)
    } else {
        String::new()
    };
    format!("{prefix}/p{}/r{}/s{:#x}{hw}", cfg.procs, cfg.refs_per_proc, cfg.seed)
}

/// Figure 2's panels, then (text output only) one ASCII chart per
/// workload; with [`Render::svg_dir`], also one SVG panel per workload.
fn render_figure2(lab: &mut Lab, r: &mut Render<'_>) -> Result<(), String> {
    for panel in figure2(lab) {
        r.table(&panel);
        r.gap();
    }
    for w in Workload::ALL {
        r.text(format!("{}\n", figure2_chart(lab, w)));
    }
    if let Some(dir) = &r.svg_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for w in Workload::ALL {
            let path = dir.join(format!("figure2_{}.svg", w.name().to_lowercase()));
            std::fs::write(&path, figure2_chart(lab, w).to_svg())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// Table 1: the workload suite. The paper lists data-set and shared-data
/// sizes and process counts; we report the measured equivalents of our
/// synthetic traces (footprint, shared footprint, references, processes).
pub fn table1(lab: &mut Lab) -> Table {
    let cfg = *lab.config();
    let mut t = Table::new(
        "Table 1: Workload used in experiments",
        vec!["Program", "Data Set", "Shared Data", "Refs/proc", "Processes"],
    );
    for w in Workload::ALL {
        let stats = TraceStats::gather(&trace(&cfg, w, Layout::Interleaved), 32);
        let shared_kb =
            (stats.read_shared_lines + stats.write_shared_lines) as u64 * 32 / 1024;
        t.row(vec![
            w.name().to_owned(),
            format!("{} KB", stats.footprint_bytes() / 1024),
            format!("{} KB", shared_kb),
            format!("{}", cfg.refs_per_proc),
            format!("{}", cfg.procs),
        ]);
    }
    t
}

/// Figure 1: total, CPU and adjusted-CPU miss rates for the five workloads
/// under each prefetching strategy, at the 8-cycle data-transfer latency.
pub fn figure1(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 1: Total and CPU miss rates ({}-cycle data transfer)",
            FIGURE_LATENCY
        ),
        vec!["Workload", "Strategy", "Total MR", "CPU MR", "Adj CPU MR"],
    );
    for w in Workload::ALL {
        for s in Strategy::ALL {
            let r = &lab.run(Experiment::paper(w, s, FIGURE_LATENCY)).report;
            t.row(vec![
                w.name().to_owned(),
                s.name().to_owned(),
                pct(r.total_miss_rate()),
                pct(r.cpu_miss_rate()),
                pct(r.adjusted_cpu_miss_rate()),
            ]);
        }
    }
    t
}

/// Table 2: bus utilization for every workload × strategy at the
/// {4, 8, 16, 32}-cycle transfer latencies.
pub fn table2(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 2: Selected bus utilizations",
        vec!["Workload", "Strategy", "4 cycles", "8 cycles", "16 cycles", "32 cycles"],
    );
    for w in Workload::ALL {
        for s in Strategy::ALL {
            let mut cells = vec![w.name().to_owned(), s.name().to_owned()];
            for lat in BusConfig::TABLE2_SWEEP {
                let util = lab.run(Experiment::paper(w, s, lat)).report.bus_utilization();
                cells.push(format_rate(util.min(1.0)));
            }
            t.row(cells);
        }
    }
    t
}

/// Figure 2: execution time relative to NP as a function of the data-bus
/// transfer latency (4–32 cycles), one table per workload.
pub fn figure2(lab: &mut Lab) -> Vec<Table> {
    Workload::ALL.iter().map(|&w| figure2_for(lab, w)).collect()
}

/// One workload's Figure 2 panel as an ASCII chart (relative time vs.
/// transfer latency, one glyph per strategy).
pub fn figure2_chart(lab: &mut Lab, w: Workload) -> crate::AsciiChart {
    let mut chart = crate::AsciiChart::new(
        format!("{w}: execution time relative to NP vs data-transfer latency"),
        56,
        12,
    );
    for s in Strategy::PREFETCHING {
        let points: Vec<(f64, f64)> = BusConfig::PAPER_SWEEP
            .iter()
            .map(|&lat| (lat as f64, lab.relative_time(Experiment::paper(w, s, lat))))
            .collect();
        chart.series(s.name(), &points);
    }
    chart
}

/// One workload's Figure 2 panel.
pub fn figure2_for(lab: &mut Lab, w: Workload) -> Table {
    let mut t = Table::new(
        format!("Figure 2: execution time relative to NP — {w}"),
        vec!["Strategy", "4", "8", "16", "24", "32"],
    );
    for s in Strategy::PREFETCHING {
        let mut cells = vec![s.name().to_owned()];
        for lat in BusConfig::PAPER_SWEEP {
            let rel = lab.relative_time(Experiment::paper(w, s, lat));
            cells.push(format!("{rel:.3}"));
        }
        t.row(cells);
    }
    t
}

/// Figure 3: sources of CPU misses (per-category miss rates) for Topopt,
/// Pverify and Mp3d under every strategy, at the 8-cycle transfer latency.
pub fn figure3(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        format!("Figure 3: Sources of CPU misses ({}-cycle data transfer)", FIGURE_LATENCY),
        vec![
            "Workload",
            "Strategy",
            "non-shr !pf",
            "non-shr pf",
            "inval !pf",
            "inval pf",
            "pf-in-prog",
            "CPU MR",
        ],
    );
    for w in FIGURE3_WORKLOADS {
        for s in Strategy::ALL {
            let r = &lab.run(Experiment::paper(w, s, FIGURE_LATENCY)).report;
            let d = r.demand_accesses().max(1) as f64;
            let m = r.miss;
            t.row(vec![
                w.name().to_owned(),
                s.name().to_owned(),
                pct(m.non_sharing_not_prefetched as f64 / d),
                pct(m.non_sharing_prefetched as f64 / d),
                pct(m.invalidation_not_prefetched as f64 / d),
                pct(m.invalidation_prefetched as f64 / d),
                pct(m.prefetch_in_progress as f64 / d),
                pct(r.cpu_miss_rate()),
            ]);
        }
    }
    t
}

/// Table 3: total invalidation and false-sharing miss rates per workload
/// (NP baseline, 8-cycle transfer).
pub fn table3(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 3: Total Invalidation and False Sharing Miss Rates",
        vec!["Workload", "Total Inval MR", "Total FS MR", "FS share of inval"],
    );
    for w in Workload::ALL {
        let r = &lab.run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY)).report;
        let inval = r.invalidation_miss_rate();
        let fs = r.false_sharing_miss_rate();
        let share = if inval > 0.0 { fs / inval } else { 0.0 };
        t.row(vec![
            w.name().to_owned(),
            pct(inval),
            pct(fs),
            format!("{:.0}%", 100.0 * share),
        ]);
    }
    t
}

/// Table 4: miss rates for the restructured programs (Topopt and Pverify)
/// at the 8-cycle transfer latency.
pub fn table4(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 4: Miss rates for data transfer latency of 8 cycles, restructured programs",
        vec!["Workload", "Strategy", "CPU MR", "Total MR", "Total Inval MR", "Total FS MR"],
    );
    for w in Workload::ALL.into_iter().filter(|w| w.restructurable()) {
        for s in RESTRUCTURED_STRATEGIES {
            let exp = Experiment::paper(w, s, FIGURE_LATENCY).restructured();
            let r = &lab.run(exp).report;
            t.row(vec![
                format!("{w} (restr)"),
                s.name().to_owned(),
                pct(r.cpu_miss_rate()),
                pct(r.total_miss_rate()),
                pct(r.invalidation_miss_rate()),
                pct(r.false_sharing_miss_rate()),
            ]);
        }
    }
    t
}

/// Table 5: execution times of the restructured programs relative to the
/// restructured NP baseline, across transfer latencies.
pub fn table5(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 5: Relative execution times for restructured programs",
        vec!["Workload", "Strategy", "4 cycles", "8 cycles", "16 cycles", "32 cycles"],
    );
    for w in Workload::ALL.into_iter().filter(|w| w.restructurable()) {
        for s in RESTRUCTURED_STRATEGIES {
            let mut cells = vec![format!("{w} (restr)"), s.name().to_owned()];
            for lat in BusConfig::TABLE2_SWEEP {
                let rel = lab.relative_time(Experiment::paper(w, s, lat).restructured());
                cells.push(format!("{rel:.3}"));
            }
            t.row(cells);
        }
    }
    t
}

/// §4.2's processor-utilization observations: NP utilization per workload at
/// the fastest and slowest buses, plus the implied best-possible speedup
/// (1 / utilization).
pub fn processor_utilization(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Processor utilization (NP) and the prefetching headroom it implies",
        vec!["Workload", "util @4cy", "util @32cy", "max speedup @4cy", "max speedup @32cy"],
    );
    for w in Workload::ALL {
        let fast =
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, 4)).report.avg_processor_utilization();
        let slow = lab
            .run(Experiment::paper(w, Strategy::NoPrefetch, 32))
            .report
            .avg_processor_utilization();
        t.row(vec![
            w.name().to_owned(),
            format_rate(fast),
            format_rate(slow),
            format!("{:.1}", 1.0 / fast.max(1e-9)),
            format!("{:.1}", 1.0 / slow.max(1e-9)),
        ]);
    }
    t
}

/// Post-paper exhibit: the on-line hardware prefetchers (per-PC stride,
/// SMS-style spatial patterns, Markov correlation — see DESIGN.md §15)
/// head-to-head against the paper's oracle PREF strategy, on the five paper
/// workloads plus the pointer-chase stress workload.
///
/// The software strategies rewrite the trace off-line with perfect
/// knowledge; the hardware prefetchers observe the demand stream on-line and
/// must earn their fills. Returns two tables: execution time relative to the
/// NP baseline, and the hardware training/accuracy counters behind it.
///
/// Hardware runs use one private [`Lab`] per prefetcher configuration —
/// `hw_prefetch` is a lab-wide knob, not an [`Experiment`] axis, so the
/// shared lab's paper grid stays exactly the paper's.
pub fn hw_prefetch_head_to_head(lab: &mut Lab) -> Vec<Table> {
    let base = *lab.config();
    let mut hw_labs: Vec<(HwPrefetchConfig, Lab)> = hw_prefetch_configs()
        .into_iter()
        .map(|hw| (hw, Lab::new(RunConfig { hw_prefetch: hw, ..base })))
        .collect();

    let mut time = Table::new(
        format!(
            "Hardware vs oracle prefetching: time relative to NP ({FIGURE_LATENCY}-cycle transfer)"
        ),
        vec!["Workload", "PREF (oracle)", "HW-STRIDE", "HW-SMS", "HW-MARKOV"],
    );
    let mut counters = Table::new(
        "Hardware prefetcher training and accuracy",
        vec![
            "Workload", "Prefetcher", "Trained", "Issued", "Useful", "Late", "Useless", "Accuracy",
        ],
    );
    for w in Workload::EXTENDED {
        let np =
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY)).report.cycles;
        let pref = lab.run(Experiment::paper(w, Strategy::Pref, FIGURE_LATENCY)).report.cycles;
        let mut cells =
            vec![w.name().to_owned(), format!("{:.3}", pref as f64 / np.max(1) as f64)];
        for (hw, hw_lab) in &mut hw_labs {
            let r = &hw_lab.run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY)).report;
            cells.push(format!("{:.3}", r.cycles as f64 / np.max(1) as f64));
            let h = r.hw_prefetch;
            counters.row(vec![
                w.name().to_owned(),
                hw.kind.label().to_owned(),
                h.trained.to_string(),
                h.issued.to_string(),
                h.useful.to_string(),
                h.late.to_string(),
                h.useless.to_string(),
                pct(h.accuracy()),
            ]);
        }
        time.row(cells);
    }
    vec![time, counters]
}

/// Post-paper exhibit: does prefetching help or hurt differently under
/// update-based coherence? The paper's grid is all Illinois write-invalidate,
/// where invalidation misses are prefetching's fundamental limit (§4.2); this
/// reruns its NP and PREF cells under Firefly- and Dragon-style write-update
/// (no invalidation misses exist at all — the cost moves onto word-broadcast
/// bus traffic) and MOESI (dirty cache-to-cache supply without the reflective
/// write-back), across all five paper workloads.
///
/// Returns two tables: execution time relative to the Illinois NP baseline,
/// and the coherence traffic (invalidation misses, upgrades, word updates,
/// write-backs, bus utilization) behind it.
///
/// Non-Illinois runs use one private [`Lab`] per protocol — like
/// `hw_prefetch`, `protocol` is a lab-wide knob, not an [`Experiment`] axis,
/// so the shared lab's paper grid stays exactly the paper's.
pub fn protocol_head_to_head(lab: &mut Lab) -> Vec<Table> {
    let base = *lab.config();
    let mut proto_labs: Vec<(Protocol, Lab)> = Protocol::ALL
        .into_iter()
        .filter(|&p| p != Protocol::WriteInvalidate)
        .map(|p| (p, Lab::new(RunConfig { protocol: p, ..base })))
        .collect();

    let mut time = Table::new(
        format!(
            "Coherence protocols: time relative to Illinois NP ({FIGURE_LATENCY}-cycle transfer)"
        ),
        vec![
            "Workload",
            "ILLINOIS NP",
            "ILLINOIS PREF",
            "FIREFLY NP",
            "FIREFLY PREF",
            "DRAGON NP",
            "DRAGON PREF",
            "MOESI NP",
            "MOESI PREF",
        ],
    );
    let mut traffic = Table::new(
        "Coherence traffic under prefetching (PREF)",
        vec![
            "Workload", "Protocol", "Inval misses", "Upgrades", "Updates", "Writebacks", "Bus util",
        ],
    );
    for w in Workload::ALL {
        let np =
            lab.run(Experiment::paper(w, Strategy::NoPrefetch, FIGURE_LATENCY)).report.cycles;
        let np = np.max(1);
        let mut cells = vec![w.name().to_owned()];
        let mut traffic_row = |proto: Protocol, lab: &mut Lab| -> Vec<u64> {
            let mut cycles = Vec::with_capacity(2);
            for s in [Strategy::NoPrefetch, Strategy::Pref] {
                let r = &lab.run(Experiment::paper(w, s, FIGURE_LATENCY)).report;
                cycles.push(r.cycles);
                if s == Strategy::Pref {
                    let inval = r.miss.invalidation_not_prefetched + r.miss.invalidation_prefetched;
                    traffic.row(vec![
                        w.name().to_owned(),
                        proto.key_name().to_owned(),
                        inval.to_string(),
                        r.bus.upgrades.to_string(),
                        r.bus.updates.to_string(),
                        r.bus.writebacks.to_string(),
                        format_rate(r.bus_utilization().min(1.0)),
                    ]);
                }
            }
            cycles
        };
        let mut all_cycles = traffic_row(Protocol::WriteInvalidate, lab);
        for (proto, proto_lab) in &mut proto_labs {
            all_cycles.extend(traffic_row(*proto, proto_lab));
        }
        cells.extend(all_cycles.iter().map(|&c| format!("{:.3}", c as f64 / np as f64)));
        time.row(cells);
    }
    vec![time, traffic]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::RunConfig;

    fn tiny_lab() -> Lab {
        Lab::new(RunConfig { procs: 4, refs_per_proc: 1_500, seed: 3, ..RunConfig::default() })
    }

    #[test]
    fn table1_has_five_rows() {
        let t = table1(&mut tiny_lab());
        assert_eq!(t.num_rows(), 5);
        assert!(t.to_string().contains("Water"));
    }

    #[test]
    fn figure1_covers_grid() {
        let t = figure1(&mut tiny_lab());
        assert_eq!(t.num_rows(), 25); // 5 workloads × 5 strategies
    }

    #[test]
    fn table2_covers_grid() {
        let mut lab = Lab::new(RunConfig { procs: 2, refs_per_proc: 800, seed: 3, ..RunConfig::default() });
        let t = table2(&mut lab);
        assert_eq!(t.num_rows(), 25);
        // every utilization cell parses back as a rate ≤ 1
        for r in 0..t.num_rows() {
            for c in 2..6 {
                let cell = t.cell(r, c).unwrap();
                let v: f64 = format!("0{cell}").parse().unwrap();
                assert!((0.0..=1.0).contains(&v), "{cell}");
            }
        }
    }

    #[test]
    fn figure2_one_panel_per_workload() {
        let mut lab = Lab::new(RunConfig { procs: 2, refs_per_proc: 600, seed: 3, ..RunConfig::default() });
        let panels = figure2(&mut lab);
        assert_eq!(panels.len(), 5);
        assert_eq!(panels[0].num_rows(), 4); // PREF/EXCL/LPD/PWS
    }

    #[test]
    fn figure3_covers_three_workloads() {
        let t = figure3(&mut tiny_lab());
        assert_eq!(t.num_rows(), 15);
    }

    #[test]
    fn table3_reports_all_workloads() {
        let t = table3(&mut tiny_lab());
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn tables_4_and_5_cover_restructured_programs() {
        let mut lab = Lab::new(RunConfig { procs: 2, refs_per_proc: 600, seed: 3, ..RunConfig::default() });
        assert_eq!(table4(&mut lab).num_rows(), 6); // 2 workloads × 3 strategies
        assert_eq!(table5(&mut lab).num_rows(), 6);
    }

    #[test]
    fn processor_utilization_sane() {
        let t = processor_utilization(&mut tiny_lab());
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn hw_head_to_head_covers_extended_workloads() {
        let mut lab =
            Lab::new(RunConfig { procs: 2, refs_per_proc: 800, seed: 3, ..RunConfig::default() });
        let tables = hw_prefetch_head_to_head(&mut lab);
        assert_eq!(tables.len(), 2);
        let (time, counters) = (&tables[0], &tables[1]);
        assert_eq!(time.num_rows(), Workload::EXTENDED.len());
        assert_eq!(counters.num_rows(), Workload::EXTENDED.len() * 3);
        let rendered = counters.to_string();
        for label in ["HW-STRIDE", "HW-SMS", "HW-MARKOV"] {
            assert!(rendered.contains(label), "{label} missing");
        }
        assert!(time.to_string().contains("PointerChase"));
        // The hardware runs actually prefetched: some configuration issued
        // and some fills were useful somewhere in the grid.
        let mut issued = 0u64;
        let mut useful = 0u64;
        for r in 0..counters.num_rows() {
            issued += counters.cell(r, 3).unwrap().parse::<u64>().unwrap();
            useful += counters.cell(r, 4).unwrap().parse::<u64>().unwrap();
        }
        assert!(issued > 0, "no hardware prefetches issued");
        assert!(useful > 0, "no hardware prefetch was useful");
    }

    #[test]
    fn protocol_head_to_head_covers_all_workloads_and_protocols() {
        let mut lab =
            Lab::new(RunConfig { procs: 2, refs_per_proc: 800, seed: 3, ..RunConfig::default() });
        let tables = protocol_head_to_head(&mut lab);
        assert_eq!(tables.len(), 2);
        let (time, traffic) = (&tables[0], &tables[1]);
        assert_eq!(time.num_rows(), Workload::ALL.len());
        assert_eq!(traffic.num_rows(), Workload::ALL.len() * Protocol::ALL.len());
        let rendered = traffic.to_string();
        for name in ["illinois", "firefly", "dragon", "moesi"] {
            assert!(rendered.contains(name), "{name} missing from traffic table");
        }
        // The update-based protocols actually broadcast somewhere in the
        // grid, and the invalidation protocols never do.
        let mut updates_by_proto = std::collections::HashMap::new();
        for r in 0..traffic.num_rows() {
            let proto = traffic.cell(r, 1).unwrap().to_owned();
            let updates: u64 = traffic.cell(r, 4).unwrap().parse().unwrap();
            *updates_by_proto.entry(proto).or_insert(0u64) += updates;
        }
        assert!(updates_by_proto["firefly"] > 0, "Firefly never broadcast");
        assert!(updates_by_proto["dragon"] > 0, "Dragon never broadcast");
        assert_eq!(updates_by_proto["illinois"], 0);
        assert_eq!(updates_by_proto["moesi"], 0);
        assert_eq!((exhibit("protocols").unwrap().grid)().len(), Workload::ALL.len() * 2);
    }

    #[test]
    fn every_exhibit_renders_from_its_grid_alone() {
        // The promise `Exhibit::grid` makes: after batching it, rendering
        // is pure memo lookups on the shared lab.
        for e in EXHIBITS {
            let mut lab = Lab::new(RunConfig {
                procs: 2,
                refs_per_proc: 600,
                seed: 3,
                ..RunConfig::default()
            });
            let batch = lab.run_batch(&(e.grid)(), 2);
            assert!(batch.is_complete(), "{}: {:?}", e.name, batch.failure_summary());
            let misses = lab.stats().memo_misses;
            let mut out = Vec::new();
            (e.render)(&mut lab, &mut Render::new(&mut out, false)).unwrap();
            assert!(!out.is_empty(), "{} rendered nothing", e.name);
            assert_eq!(lab.stats().memo_misses, misses, "{} simulated outside its grid", e.name);
        }
    }

    #[test]
    fn registry_names_are_unique_and_paper_exhibits_come_first() {
        for (i, e) in EXHIBITS.iter().enumerate() {
            assert_eq!(EXHIBITS.iter().filter(|other| other.name == e.name).count(), 1);
            assert_eq!(exhibit(e.name).map(|found| found.about), Some(e.about));
            if e.in_paper {
                assert!(EXHIBITS[..i].iter().all(|prev| prev.in_paper), "{} out of order", e.name);
            }
        }
        let paper: Vec<Experiment> =
            EXHIBITS.iter().filter(|e| e.in_paper).flat_map(|e| (e.grid)()).collect();
        assert!(full_grid().iter().all(|cell| paper.contains(cell)));
        assert!(paper.iter().all(|cell| full_grid().contains(cell)));
    }

    #[test]
    fn render_collapses_gaps_and_drops_extras_in_csv() {
        let mut t = Table::new("T", vec!["a"]);
        t.row(vec!["1".to_owned()]);
        let mut out = Vec::new();
        let mut r = Render::new(&mut out, false);
        r.gap();
        r.table(&t);
        r.gap();
        r.gap();
        r.text("chart\n");
        r.gap();
        drop(r);
        assert_eq!(String::from_utf8(out).unwrap(), "T\na\n-\n1\n\n\nchart\n");
        let mut out = Vec::new();
        let mut r = Render::new(&mut out, true);
        r.table(&t);
        r.gap();
        r.text("chart\n");
        r.table(&t);
        drop(r);
        assert_eq!(String::from_utf8(out).unwrap(), "a\n1\n\na\n1\n");
    }

    #[test]
    fn hw_prefetch_grid_is_disjoint_from_paper_grid_cells() {
        let g = (exhibit("hw-prefetch").unwrap().grid)();
        assert_eq!(g.len(), Workload::EXTENDED.len() * 2);
        assert!((exhibit("all").unwrap().grid)() == full_grid());
        assert!(
            !full_grid().iter().any(|e| e.workload == Workload::PointerChase),
            "paper grid must stay 5 workloads"
        );
    }
}
