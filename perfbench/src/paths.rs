//! The four workloads, run untraced through the entry points users call:
//! `Lab::run_batch` (exact, sampled, and one private lab per protocol or
//! hardware prefetcher) and an in-process `charlie_serve::Server` driven
//! by closed-loop `charlie_serve::client` callers.

use crate::probe;
use crate::stats::{Outcome, Tally};
use charlie::{experiments, Experiment, Lab, Protocol, RunConfig, RunSummary, SamplingConfig};
use charlie::{Strategy, Workload};
use charlie_serve::client::{self, Frame, Grid, SubmitRequest};
use charlie_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Simulation threads on every path, and closed-loop clients on the served
/// path.
pub const JOBS: usize = 2;

/// The benchmark's workloads.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    PaperGrid,
    ServedCells,
    SampledGrid,
    CoherenceVariants,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::PaperGrid, Kind::ServedCells, Kind::SampledGrid, Kind::CoherenceVariants];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper-grid",
            Kind::ServedCells => "served-cells",
            Kind::SampledGrid => "sampled-grid",
            Kind::CoherenceVariants => "coherence-variants",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One private lab's configuration and the cells it runs, in grid order.
#[derive(Clone, Debug)]
pub struct LabPlan {
    pub cfg: RunConfig,
    pub cells: Vec<Experiment>,
}

/// The labs a workload runs, in the order their cells enter the digest.
/// `served-cells` sends the same cells as `paper-grid` to the daemon.
pub fn plans(kind: Kind, base: RunConfig) -> Vec<LabPlan> {
    let grid = experiments::full_grid;
    match kind {
        Kind::PaperGrid | Kind::ServedCells => vec![LabPlan { cfg: base, cells: grid() }],
        Kind::SampledGrid => vec![LabPlan {
            cfg: RunConfig { sampling: Some(SamplingConfig::smarts()), ..base },
            cells: grid(),
        }],
        Kind::CoherenceVariants => {
            // The non-Illinois cells of the `protocols` and `hw-prefetch`
            // exhibits, one private lab per knob as the exhibits build them.
            let lat = experiments::FIGURE_LATENCY;
            let mut plans = Vec::new();
            for protocol in Protocol::ALL.into_iter().filter(|&p| p != Protocol::WriteInvalidate) {
                let cells = Workload::ALL
                    .into_iter()
                    .flat_map(|w| {
                        [Strategy::NoPrefetch, Strategy::Pref].map(|s| Experiment::paper(w, s, lat))
                    })
                    .collect();
                plans.push(LabPlan { cfg: RunConfig { protocol, ..base }, cells });
            }
            for hw_prefetch in experiments::hw_prefetch_configs() {
                let cells = Workload::EXTENDED
                    .into_iter()
                    .map(|w| Experiment::paper(w, Strategy::NoPrefetch, lat))
                    .collect();
                plans.push(LabPlan { cfg: RunConfig { hw_prefetch, ..base }, cells });
            }
            plans
        }
    }
}

/// What one untraced repetition of a workload measured.
#[derive(Debug)]
pub struct Rep {
    /// One entry per cell in grid order; `None` where the cell failed.
    pub summaries: Vec<Option<RunSummary>>,
    pub tally: Tally,
    /// What went wrong with each failed cell, in grid order.
    pub failures: Vec<String>,
    /// Repetition start to the first cell submitted: on batch paths, to the
    /// moment a worker starts the first cell (after `run_batch` prepared the
    /// shared traces); on the served path, until the daemon answers a ping,
    /// as the median over the repetition's daemon and its idle start-ups.
    pub setup_s: f64,
    /// First cell submitted to the last result received.
    pub wall_s: f64,
    /// Process CPU seconds over the whole repetition.
    pub cpu_s: f64,
    /// Per-cell latency: the cell's execution time on batch paths
    /// (`RunMeta::wall_nanos`), request to final frame on the served path.
    pub cell_ms: Vec<f64>,
    /// Σ `BatchReport::wall_nanos` and Σ `BatchReport::sim_nanos` over the
    /// repetition's batches (0 on the served path).
    pub batch_s: f64,
    pub batch_cell_s: f64,
    /// Bytes the daemon left in its state directory (0 on batch paths).
    pub journal_bytes: u64,
    /// Peak resident set during the repetition (MiB).
    pub peak_rss_mb: f64,
}

impl Rep {
    /// Σ cell time / (jobs × batch wall): how busy the batch workers were.
    pub fn worker_busy_share(&self) -> f64 {
        if self.batch_s > 0.0 {
            self.batch_cell_s / (JOBS as f64 * self.batch_s)
        } else {
            0.0
        }
    }
}

/// One repetition through `Lab::run_batch`, a fresh lab per plan.
pub fn batch_rep(kind: Kind, base: RunConfig) -> Rep {
    let started = Instant::now();
    let cpu0 = probe::cpu_seconds();
    let plans = plans(kind, base);
    let mut labs: Vec<Lab> = plans.iter().map(|p| Lab::new(p.cfg)).collect();
    // A hook that never injects a fault marks when a worker first starts a
    // cell.
    let first_cell: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    for lab in &mut labs {
        let first_cell = Arc::clone(&first_cell);
        lab.set_fault_injector(move |_| {
            first_cell.get_or_init(Instant::now);
            None
        });
    }

    let first_submit = Instant::now();
    let mut rep = Rep {
        summaries: Vec::new(),
        tally: Tally::default(),
        failures: Vec::new(),
        setup_s: 0.0,
        wall_s: 0.0,
        cpu_s: 0.0,
        cell_ms: Vec::new(),
        batch_s: 0.0,
        batch_cell_s: 0.0,
        journal_bytes: 0,
        peak_rss_mb: 0.0,
    };
    for (plan, lab) in plans.iter().zip(&mut labs) {
        let batch = lab.run_batch(&plan.cells, JOBS);
        rep.batch_s += batch.wall_nanos as f64 / 1e9;
        rep.batch_cell_s += batch.sim_nanos as f64 / 1e9;
        for &exp in &plan.cells {
            if let Some(failure) = batch.failures.iter().find(|f| f.experiment == exp) {
                rep.tally.record(Outcome::CellError);
                rep.failures.push(failure.to_string());
                rep.summaries.push(None);
                continue;
            }
            rep.tally.record(Outcome::Completed);
            let meta = lab.meta(exp).expect("a completed batch cell has run metadata");
            rep.cell_ms.push(meta.wall_nanos as f64 / 1e6);
            rep.summaries.push(Some(lab.run(exp).clone()));
        }
    }
    rep.wall_s = first_submit.elapsed().as_secs_f64();
    rep.cpu_s = probe::cpu_seconds() - cpu0;
    let first_cell = first_cell.get().expect("a batch ran at least one cell");
    rep.setup_s = first_cell.duration_since(started).as_secs_f64();
    rep
}

/// The single-cell campaign the served path sends for `exp`.
fn cell_request(cfg: &RunConfig, exp: Experiment) -> SubmitRequest {
    SubmitRequest {
        grid: Grid::Cells(vec![exp]),
        procs: Some(cfg.procs),
        refs: Some(cfg.refs_per_proc),
        seed: Some(cfg.seed),
        ..SubmitRequest::paper()
    }
}

/// Classifies the frames one single-cell submit received: the summary on
/// success, otherwise what went wrong.
fn served_outcome(frames: &[Frame]) -> (Outcome, Result<RunSummary, String>) {
    let mut summary = None;
    for frame in frames {
        match frame {
            Frame::Cell(s) => summary = Some(s.clone()),
            Frame::CellError { error, .. } => return (Outcome::CellError, Err(error.clone())),
            Frame::Saturated { .. } => return (Outcome::Shed, Err("shed (saturated)".into())),
            Frame::Done { completed: 1, failed: 0, .. } => {
                if let Some(s) = summary.take() {
                    return (Outcome::Completed, Ok(s));
                }
            }
            _ => {}
        }
    }
    (Outcome::Errored, Err(format!("no complete reply; last frame {:?}", frames.last())))
}

/// How one served cell ended, its summary or failure, and its latency in ms.
type ServedCell = (Outcome, Result<RunSummary, String>, f64);

/// Idle daemons each served repetition starts, besides its own, to time
/// set-up.
const SETUP_PROBES: usize = 8;

/// A daemon started as the served path starts one: bound, its accept loop
/// running, and its answer to a first ping.
struct Daemon {
    server: Arc<Server>,
    accept: JoinHandle<std::io::Result<()>>,
    addr: String,
    ready: std::io::Result<()>,
}

/// Starts a daemon (`jobs = 2`) with `state_dir` as its fresh state
/// directory and waits until it answers a ping.
fn start_daemon(state_dir: &Path) -> std::io::Result<Daemon> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue: 8,
        deadline_ms: 0,
        cell_budget: 4096,
        jobs: JOBS,
        state_dir: state_dir.to_path_buf(),
    };
    std::fs::create_dir_all(state_dir)?;
    let server = Arc::new(Server::bind(cfg)?);
    let addr = server.local_addr()?.to_string();
    // The daemon is ready when it answers a ping. The probe connects before
    // the accept loop starts, so it never waits out the loop's idle poll.
    let mut probe_conn = TcpStream::connect(&addr)?;
    probe_conn.write_all(b"{\"cmd\":\"ping\"}\n")?;
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut pong = String::new();
    let ready = BufReader::new(probe_conn).read_line(&mut pong).and_then(|_| {
        if pong.contains("\"ok\":true") {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("daemon answered ping with {pong:?}")))
        }
    });
    Ok(Daemon { server, accept, addr, ready })
}

impl Daemon {
    /// Drains the daemon and waits for its accept loop to return.
    fn stop(self) -> std::io::Result<()> {
        self.server.request_drain();
        let run_result = self.accept.join().expect("accept thread panicked");
        self.ready?;
        run_result
    }
}

/// One repetition through a fresh daemon (`jobs = 2`, empty state dir and
/// memo cache) fed by [`JOBS`] closed-loop clients, each sending the next
/// cell of the grid as a single-cell campaign once its previous reply is
/// complete.
pub fn served_rep(base: RunConfig, state_dir: &Path) -> std::io::Result<Rep> {
    let cells = experiments::full_grid();
    let cpu0 = probe::cpu_seconds();
    let started = Instant::now();
    let daemon = start_daemon(state_dir)?;
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let first_submit = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<ServedCell>>> = Mutex::new(cells.iter().map(|_| None).collect());
    if daemon.ready.is_ok() {
        std::thread::scope(|scope| {
            for _ in 0..JOBS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&exp) = cells.get(i) else { break };
                    let t0 = Instant::now();
                    let reply = client::submit(&daemon.addr, &cell_request(&base, exp));
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let (outcome, summary) = match reply {
                        Ok(frames) => served_outcome(&frames),
                        Err(e) => (Outcome::Errored, Err(e.to_string())),
                    };
                    results.lock().expect("result collector poisoned")[i] =
                        Some((outcome, summary, ms));
                });
            }
        });
    }
    let wall_s = first_submit.elapsed().as_secs_f64();

    let server = Arc::clone(&daemon.server);
    daemon.stop()?;
    let cpu_s = probe::cpu_seconds() - cpu0;
    let journal_bytes = probe::dir_bytes(state_dir);
    drop(server);
    std::fs::remove_dir_all(state_dir)?;

    // One start-up takes well under a millisecond, so a single sample is
    // mostly scheduler noise. Idle daemons started the same way, after the
    // measured cells, make the reported set-up time a median.
    for _ in 0..SETUP_PROBES {
        let t0 = Instant::now();
        let idle = start_daemon(state_dir)?;
        setups.push(t0.elapsed().as_secs_f64());
        idle.stop()?;
        std::fs::remove_dir_all(state_dir)?;
    }
    let setup_s = crate::stats::median(&setups).expect("at least one start-up");

    let mut rep = Rep {
        summaries: Vec::new(),
        tally: Tally::default(),
        failures: Vec::new(),
        setup_s,
        wall_s,
        cpu_s,
        cell_ms: Vec::new(),
        batch_s: 0.0,
        batch_cell_s: 0.0,
        journal_bytes,
        peak_rss_mb: 0.0,
    };
    let served = results.into_inner().expect("result collector poisoned");
    for (result, exp) in served.into_iter().zip(&cells) {
        let (outcome, summary, ms) = result.expect("every cell was sent");
        rep.tally.record(outcome);
        match summary {
            Ok(s) => {
                rep.cell_ms.push(ms);
                rep.summaries.push(Some(s));
            }
            Err(e) => {
                rep.failures.push(format!("{exp}: {e}"));
                rep.summaries.push(None);
            }
        }
    }
    Ok(rep)
}
