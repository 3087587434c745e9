//! charlie's benchmark: four workloads through the entry points users call,
//! end-to-end metrics from untraced repetitions, per-layer metrics from a
//! traced replay, and a correctness gate on every run. See `README.md`.
//!
//! ```text
//! charlie-perfbench --workload paper-grid --seed 12648430 --seconds 12 --trace 0 \
//!     --pins perfbench/pins.json --scratch .bench_run/1 [--golden experiments_output.txt]
//! ```
//!
//! The last line of stdout is the result object; the exit code is nonzero
//! when any check fails.

mod paths;
mod probe;
mod replay;
mod stats;

use charlie::wire::{self, Json};
use charlie::{experiments, Lab, RunConfig, RunSummary, Strategy, Table};
use paths::{Kind, Rep};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Repetitions every end-to-end run makes at least, so each reported value
/// is a median.
const MIN_REPS: usize = 3;

/// No repetition or replay starts after this much of a run has passed, so a
/// host several times slower than usual still ends the run well inside its
/// time limit (with fewer repetitions than [`MIN_REPS`] if need be).
const CEILING: Duration = Duration::from_secs(90);

/// The paper's default size and seed, at which `paper-grid` must reproduce
/// `experiments_output.txt` byte for byte.
const PAPER_REFS: usize = 160_000;
const PAPER_PROCS: usize = 8;
const PAPER_SEED: u64 = 0xC0FFEE;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    refs: Option<usize>,
    pins: PathBuf,
    scratch: PathBuf,
    golden: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut refs, mut pins, mut scratch, mut golden) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--refs" => refs = Some(num(&value)? as usize),
            "--pins" => pins = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--golden" => golden = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        refs: refs.filter(|&r| r > 0),
        pins: pins.ok_or("--pins is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
        golden,
    })
}

/// `pins.json`: machine size, per-workload refs/proc, the default and
/// held-out seeds, and the digests pinned for them.
struct Pins {
    doc: Json,
}

impl Pins {
    fn load(path: &Path) -> Result<Pins, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        // The wire parser reads compact JSON; no string in the file holds
        // whitespace, so dropping all of it compacts the document.
        let compact: String = text.split_whitespace().collect();
        let doc = wire::parse(&compact).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Pins { doc })
    }

    fn procs(&self) -> Result<usize, String> {
        Ok(self.doc.field("procs")?.num()? as usize)
    }

    fn refs(&self, kind: Kind) -> Result<usize, String> {
        Ok(self.doc.field("refs")?.field(kind.name())?.num()? as usize)
    }

    /// The digest pinned for `kind` at `seed` (and the pinned size), if any.
    fn digest(&self, kind: Kind, seed: u64) -> Result<Option<String>, String> {
        let Some(per_seed) = self.doc.field("digests")?.opt_field(&seed.to_string()) else {
            return Ok(None);
        };
        per_seed.opt_field(kind.name()).map(|d| d.str().map(str::to_owned)).transpose()
    }
}

/// Accumulates check failures; any one makes the run incorrect.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

fn run_rep(kind: Kind, base: RunConfig, scratch: &Path, n: usize) -> Result<Rep, String> {
    probe::reset_peak_rss().map_err(|e| format!("resetting the peak resident set: {e}"))?;
    let mut rep = match kind {
        Kind::ServedCells => paths::served_rep(base, &scratch.join(format!("serve-state-{n}")))
            .map_err(|e| format!("served repetition: {e}"))?,
        _ => paths::batch_rep(kind, base),
    };
    rep.peak_rss_mb = probe::peak_rss_mb();
    Ok(rep)
}

fn completed(rep: &Rep) -> Option<Vec<RunSummary>> {
    rep.summaries.iter().cloned().collect()
}

/// Checks that hold for every seed: no failed cell, every repetition
/// simulated the same statistics, the pinned digest where one exists, and
/// per-workload sanity on what the cells must contain.
fn check_reps(
    checks: &mut Checks,
    kind: Kind,
    base: RunConfig,
    reps: &[Rep],
    pinned: Option<&str>,
) -> Option<String> {
    for (i, rep) in reps.iter().enumerate() {
        checks.require(rep.tally.failed == 0, || {
            format!(
                "repetition {i}: {} of {} cells failed:\n  {}",
                rep.tally.failed,
                rep.tally.attempted,
                rep.failures.join("\n  ")
            )
        });
    }
    let digests: Vec<Option<String>> =
        reps.iter().map(|r| completed(r).map(|s| stats::digest(&s))).collect();
    let first = digests.first().cloned().flatten();
    // A repetition with a failed cell has no digest; the failure is
    // reported above.
    checks.require(digests.iter().all(|d| *d == first), || {
        format!("repetitions simulated different statistics: {digests:?}")
    });
    if let (Some(pin), Some(got)) = (pinned, &first) {
        checks.require(pin == got, || {
            format!("digest {got} differs from the {pin} pinned for seed {}", base.seed)
        });
    }
    let Some(summaries) = reps.first().and_then(completed) else {
        return first;
    };
    for s in &summaries {
        let exp = s.experiment;
        checks.require(s.report.cycles > 0 && s.report.demand_accesses() > 0, || {
            format!("{exp}: empty report")
        });
        checks.require(
            (s.prefetches_inserted == 0) == (exp.strategy == Strategy::NoPrefetch),
            || format!("{exp}: {} prefetches inserted", s.prefetches_inserted),
        );
        checks.require(s.sampled.is_some() == (kind == Kind::SampledGrid), || {
            format!("{exp}: sampled estimate present = {}", s.sampled.is_some())
        });
    }
    if kind == Kind::CoherenceVariants {
        // Each private lab must actually exercise its variant.
        let mut offset = 0;
        for plan in paths::plans(kind, base) {
            let cells = &summaries[offset..offset + plan.cells.len()];
            offset += plan.cells.len();
            let updates: u64 = cells.iter().map(|s| s.report.bus.updates).sum();
            let issued: u64 = cells.iter().map(|s| s.report.hw_prefetch.issued).sum();
            let proto = plan.cfg.protocol;
            checks.require(updates > 0 || !proto.is_update_based(), || {
                format!("{} lab broadcast no updates", proto.key_name())
            });
            checks.require(issued > 0 || !plan.cfg.hw_prefetch.is_enabled(), || {
                format!("{} lab issued no hardware prefetches", plan.cfg.hw_prefetch)
            });
        }
    }
    first
}

/// The exact `Lab::run_batch` summaries of `kind`'s cells: the reference
/// the served path must equal, and the exact cycles sampled estimates are
/// judged against.
fn exact_reference(base: RunConfig) -> Result<Vec<RunSummary>, String> {
    let grid = experiments::full_grid();
    let mut lab = Lab::new(RunConfig { sampling: None, ..base });
    let batch = lab.run_batch(&grid, paths::JOBS);
    if let Some(summary) = batch.failure_summary() {
        return Err(format!("exact reference: {summary}"));
    }
    Ok(grid.iter().map(|&e| lab.run(e).clone()).collect())
}

/// What `all_experiments` prints on stdout for a lab holding the full grid.
fn render_exhibits(base: RunConfig, summaries: &[RunSummary]) -> String {
    let mut lab = Lab::new(base);
    for s in summaries {
        lab.restore(s.clone());
    }
    let mut tables: Vec<Table> = vec![
        experiments::table1(&mut lab),
        experiments::figure1(&mut lab),
        experiments::table2(&mut lab),
    ];
    tables.extend(experiments::figure2(&mut lab));
    tables.push(experiments::figure3(&mut lab));
    tables.push(experiments::table3(&mut lab));
    tables.push(experiments::table4(&mut lab));
    tables.push(experiments::table5(&mut lab));
    tables.push(experiments::processor_utilization(&mut lab));
    let mut out = format!(
        "== all experiments — {} procs, {} refs/proc, seed {:#x} ==\n\n",
        base.procs, base.refs_per_proc, base.seed
    );
    let blocks: Vec<String> = tables.iter().map(|t| format!("{t}\n")).collect();
    out.push_str(&blocks.join("\n"));
    out
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let values: Vec<f64> = reps.iter().map(f).collect();
    stats::median(&values).expect("at least one repetition")
}

fn end_to_end(base: RunConfig, reps: &[Rep], latency: &[f64]) -> Result<Vec<Metric>, String> {
    let refs_per_cell = (base.procs * base.refs_per_proc) as f64;
    let p50 = stats::percentile(latency, 50.0).ok_or("too few latency samples for p50")?;
    let p90 = stats::percentile(latency, 90.0).ok_or("too few latency samples for p90")?;
    Ok(vec![
        m(
            "refs_per_s",
            median_of(reps, |r| r.tally.attempted as f64 * refs_per_cell / r.wall_s),
            "1/s",
        ),
        m("cpu_s_per_cell", median_of(reps, |r| r.cpu_s / r.tally.attempted as f64), "s"),
        m("cell_p50_ms", p50, "ms"),
        m("cell_p90_ms", p90, "ms"),
        m("setup_s", median_of(reps, |r| r.setup_s), "s"),
        m("peak_rss_mb", median_of(reps, |r| r.peak_rss_mb), "MiB"),
    ])
}

fn per_layer(
    kind: Kind,
    rep: &Rep,
    summaries: &[RunSummary],
    layers: &[replay::Layers],
    est_err_pct: f64,
    latency_samples: usize,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&replay::Layers) -> f64| {
        stats::median(&layers.iter().map(f).collect::<Vec<_>>()).expect("at least one replay")
    };
    let work = &layers[0];
    let sum = |f: &dyn Fn(&RunSummary) -> u64| summaries.iter().map(f).sum::<u64>() as f64;
    let simulate_s = med(&|l| l.simulate_s);
    let ns_per_event =
        if work.events > 0 { med(&|l| l.simulate_s * 1e9 / l.events as f64) } else { 0.0 };
    let detailed_share = if work.total_windows > 0 {
        work.detailed_windows as f64 / work.total_windows as f64
    } else {
        0.0
    };
    let overhead_ms_p50 = if kind == Kind::ServedCells {
        let served: Vec<f64> = rep.cell_ms.clone();
        let per_cell: Vec<f64> = layers
            .iter()
            .flat_map(|l| served.iter().zip(&l.cell_direct_s).map(|(s, d)| s - d * 1e3))
            .collect();
        stats::median(&per_cell).unwrap_or(0.0)
    } else {
        0.0
    };
    vec![
        m("workloads.generate_s", med(&|l| l.generate_s), "s"),
        m("workloads.generate_calls", work.generate_calls as f64, "count"),
        m("trace.validate_s", med(&|l| l.validate_s), "s"),
        m("prefetch.apply_s", med(&|l| l.apply_s), "s"),
        m("prefetch.apply_calls", work.apply_calls as f64, "count"),
        m("prefetch.inserted", work.inserted as f64, "count"),
        m("sim.simulate_s", simulate_s, "s"),
        m("sim.events", work.events as f64, "count"),
        m("sim.ns_per_event", ns_per_event, "ns"),
        m("cache.cpu_misses", sum(&|s| s.report.miss.cpu_misses()), "count"),
        m("cache.invalidation_misses", sum(&|s| s.report.miss.invalidation()), "count"),
        m("cache.prefetch_hits", sum(&|s| s.report.prefetch.hits), "count"),
        m("bus.busy_cycles", sum(&|s| s.report.bus.busy_cycles), "cycles"),
        m("bus.total_ops", sum(&|s| s.report.bus.total_ops()), "count"),
        m("bus.updates", sum(&|s| s.report.bus.updates), "count"),
        m("bus.writebacks", sum(&|s| s.report.bus.writebacks), "count"),
        m("hw.issued", sum(&|s| s.report.hw_prefetch.issued), "count"),
        m("hw.useful", sum(&|s| s.report.hw_prefetch.useful), "count"),
        m("sampling.run_s", med(&|l| l.sampling_s), "s"),
        m("sampling.events", work.sampling_events as f64, "count"),
        m("sampling.detailed_share", detailed_share, "ratio"),
        m("sampling.est_err_max_pct", est_err_pct, "%"),
        m("lab.batch_s", rep.batch_s, "s"),
        m("lab.worker_busy_share", rep.worker_busy_share(), "ratio"),
        m("checkpoint.append_s", med(&|l| l.append_s), "s"),
        m("checkpoint.bytes", work.append_bytes as f64, "bytes"),
        m("serve.overhead_ms_p50", overhead_ms_p50, "ms"),
        m("serve.journal_bytes", rep.journal_bytes as f64, "bytes"),
        m("bench.layer_coverage", med(&|l| l.total_s()) / rep.cpu_s, "ratio"),
        m("bench.latency_samples", latency_samples as f64, "count"),
    ]
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let pins = Pins::load(&args.pins)?;
    let refs = match args.refs {
        Some(r) => r,
        None => pins.refs(args.kind)?,
    };
    let base = RunConfig {
        procs: pins.procs()?,
        refs_per_proc: refs,
        seed: args.seed,
        wall_limit_ms: 0,
        ..RunConfig::default()
    };
    // Digests are pinned at the pinned size only.
    let pinned = match args.refs {
        Some(r) if r != pins.refs(args.kind)? => None,
        _ => pins.digest(args.kind, args.seed)?,
    };
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))?;

    let deadline = Duration::from_secs(args.seconds).min(CEILING);
    let started = Instant::now();
    // The exact reference runs first, inside the measured time: it bounds
    // the run's length and warms the allocator before the first repetition.
    let exact = if args.kind == Kind::ServedCells || (args.trace && args.kind == Kind::SampledGrid)
    {
        Some(exact_reference(base)?)
    } else {
        None
    };
    let mut checks = Checks::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut replays: Vec<replay::Layers> = Vec::new();
    let metrics;
    let mut info = String::new();
    if !args.trace {
        loop {
            reps.push(run_rep(args.kind, base, &args.scratch, reps.len())?);
            let samples: usize = reps.iter().map(|r| r.cell_ms.len()).sum();
            let latency: Vec<f64> = reps.iter().flat_map(|r| r.cell_ms.iter().copied()).collect();
            let elapsed = started.elapsed();
            if ((reps.len() >= MIN_REPS && elapsed >= deadline) || elapsed >= CEILING)
                && stats::percentile(&latency, 90.0).is_some()
            {
                metrics = end_to_end(base, &reps, &latency)?;
                let list = |f: fn(&Rep) -> f64| {
                    reps.iter().map(|r| format!("{:.4}", f(r))).collect::<Vec<_>>().join(", ")
                };
                let _ = write!(
                    info,
                    "\"reps\": {}, \"rep_wall_s\": [{}], \"rep_peak_rss_mb\": [{}], \
                     \"latency_samples\": {samples}",
                    reps.len(),
                    list(|r| r.wall_s),
                    list(|r| r.peak_rss_mb),
                );
                break;
            }
        }
    } else {
        reps.push(run_rep(args.kind, base, &args.scratch, 0)?);
        let untraced = reps[0].summaries.clone();
        while replays.is_empty() || started.elapsed() < deadline {
            let (layers, summaries) = replay::replay(args.kind, base, &args.scratch)?;
            let same = untraced.len() == summaries.len()
                && untraced.iter().zip(&summaries).all(|(u, s)| u.as_ref() == Some(s));
            checks.require(same, || "traced replay differs from the untraced run".to_owned());
            replays.push(layers);
        }
        let _ = write!(info, "\"reps\": 1, \"replays\": {}", replays.len());
        metrics = Vec::new();
    }

    let digest = check_reps(&mut checks, args.kind, base, &reps, pinned.as_deref());
    let summaries = completed(&reps[0]).unwrap_or_default();
    let mut est_err_pct = 0.0;
    if let Some(exact) = exact {
        if args.kind == Kind::ServedCells {
            checks.require(summaries == exact, || {
                "served summaries differ from Lab::run_batch's".to_owned()
            });
        } else {
            for (s, e) in summaries.iter().zip(&exact) {
                let exact_cycles = e.report.cycles as f64;
                let err = (s.report.cycles as f64 - exact_cycles).abs() / exact_cycles * 100.0;
                est_err_pct = f64::max(est_err_pct, err);
            }
        }
    }
    let golden_size = args.kind == Kind::PaperGrid
        && base.refs_per_proc == PAPER_REFS
        && base.procs == PAPER_PROCS
        && base.seed == PAPER_SEED;
    if golden_size && !summaries.is_empty() {
        let path = args.golden.as_ref().ok_or("--golden is required at the paper's size")?;
        let golden =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rendered = render_exhibits(base, &summaries);
        checks.require(rendered == golden, || {
            format!("rendered exhibits differ from {}", path.display())
        });
        let _ = write!(info, ", \"golden\": {}", rendered == golden);
    }

    let metrics = if args.trace {
        let samples = reps[0].cell_ms.len();
        per_layer(args.kind, &reps[0], &summaries, &replays, est_err_pct, samples)
    } else {
        metrics
    };
    let attempted: u64 = reps.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.tally.failed).sum();
    checks.require(metrics.iter().all(|m| m.value.is_finite()), || {
        "a metric is not a finite number".to_owned()
    });
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = checks.failures.is_empty();
    let share = stats::Tally { attempted, failed }.failed_share();
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"procs\": {}, \"refs_per_proc\": {refs}, \
         {info}, \"failed_share\": {share}, \"digest\": \"{}\", \"pinned_digest\": {}}}}}",
        args.kind.name(),
        base.seed,
        base.procs,
        digest.unwrap_or_default(),
        pinned.map_or("null".to_owned(), |p| format!("\"{p}\"")),
    );
    std::fs::remove_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    Ok((correct, result_line(correct, attempted, failed, &metrics)))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            let _ = std::fs::remove_dir_all(&args.scratch);
            std::process::exit(1);
        }
    }
}
