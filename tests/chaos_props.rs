//! Durability properties of the chaos-injection layer, exercised through
//! the `charlie` CLI (the same surface `ci.sh` drives).
//!
//! The `charlie chaos` subcommand arms process-global fault plans, so every
//! test here serializes on one mutex: a concurrently running sweep would
//! otherwise absorb another test's injected faults.

use charlie_cli::run_cli;
use std::path::PathBuf;
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicked test poisons the lock; the shared state (disarmed plans,
    // per-test scratch dirs) is still fine for the next test.
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn run(tokens: &[&str]) -> (i32, String) {
    let mut out = Vec::new();
    let code = run_cli(tokens.iter().map(|s| s.to_string()).collect(), &mut out);
    (code, String::from_utf8(out).unwrap())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("charlie-chaos-props-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The full matrix: crash points over truncated journals, live fault plans
/// of every kind, and atomic snapshot writes — all byte-identical to the
/// uninterrupted reference. This is the acceptance test of the chaos layer;
/// `charlie chaos` exits nonzero (and keeps its scratch dir) on any
/// divergence.
#[test]
fn chaos_matrix_is_byte_identical() {
    let _guard = lock();
    let dir = scratch("matrix");
    let dir_s = dir.to_str().unwrap();
    let (code, text) = run(&[
        "chaos", "--workload", "water", "--refs", "700", "--procs", "2", "--jobs", "2",
        "--points", "4", "--dir", dir_s,
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("crash-point matrix:"), "{text}");
    assert!(text.contains("live fault plans:"), "{text}");
    assert!(text.contains("chaos: OK"), "{text}");
    assert!(!dir.exists(), "scratch dir is removed after a clean pass");
}

#[test]
fn chaos_rejects_zero_points() {
    let _guard = lock();
    let (code, text) = run(&["chaos", "--points", "0"]);
    assert_eq!(code, 2);
    assert!(text.contains("--points"), "{text}");
}

/// `experiments --resume` journals an exhibit's cells: a second run
/// restores every one, simulates nothing and prints the same bytes. Runs
/// the binary because the trace size comes from `CHARLIE_REFS`.
#[test]
fn experiments_resume_is_byte_identical_and_simulates_nothing() {
    let _guard = lock();
    let dir = scratch("experiments-resume");
    let journal = dir.join("table3.ckpt");
    let _ = std::fs::remove_file(&journal);
    let run_table3 = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_charlie"))
            .args(["experiments", "table3", "--procs", "2", "--jobs", "2", "--resume"])
            .arg(&journal)
            .env("CHARLIE_REFS", "1500")
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{stderr}");
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };
    let (first, first_err) = run_table3();
    assert!(first.starts_with("Table 3:"), "{first}");
    assert!(first_err.contains("batch: 5 simulations"), "{first_err}");
    let journaled = std::fs::read(&journal).unwrap();

    let (second, second_err) = run_table3();
    assert_eq!(first, second, "resumed output must be byte-identical");
    assert!(second_err.contains("resuming: 5 cells restored"), "{second_err}");
    assert!(second_err.contains("batch: 0 simulations"), "{second_err}");
    assert_eq!(std::fs::read(&journal).unwrap(), journaled, "a full resume appends nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiments_resume_refuses_two_exhibits() {
    let (code, text) = run(&["experiments", "table3", "table4", "--resume", "unused.ckpt"]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("exactly one exhibit"), "{text}");
    assert!(!std::path::Path::new("unused.ckpt").exists(), "refused before opening");
}

/// Satellite guarantee: a journal written by one campaign shape refuses to
/// resume another instead of silently mixing grids.
#[test]
fn sweep_resume_refuses_config_mismatch() {
    let _guard = lock();
    let dir = scratch("mismatch");
    let ckpt = dir.join("sweep.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let (code, text) = run(&[
        "sweep", "--workload", "water", "--refs", "700", "--procs", "2", "--json", "--jobs",
        "2", "--resume", ckpt_s,
    ]);
    assert_eq!(code, 0, "{text}");

    // Same journal, different refs: refuse, don't resume.
    let (code, text) = run(&[
        "sweep", "--workload", "water", "--refs", "701", "--procs", "2", "--json", "--jobs",
        "2", "--resume", ckpt_s,
    ]);
    assert_eq!(code, 2, "a mismatched campaign must not resume: {text}");
    assert!(text.contains("refusing to resume"), "{text}");
    assert!(text.contains("r700") && text.contains("r701"), "both keys named: {text}");

    // Different workload: also refused.
    let (code, text) = run(&[
        "sweep", "--workload", "mp3d", "--refs", "700", "--procs", "2", "--json", "--jobs",
        "2", "--resume", ckpt_s,
    ]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("refusing to resume"), "{text}");

    // The matching shape still resumes cleanly after the refusals.
    let (code, _) = run(&[
        "sweep", "--workload", "water", "--refs", "700", "--procs", "2", "--json", "--jobs",
        "2", "--resume", ckpt_s,
    ]);
    assert_eq!(code, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// An exported trace is written atomically: a crash fault mid-write leaves
/// the previous file intact and no temp droppings.
#[test]
fn export_trace_is_atomic_under_crash() {
    let _guard = lock();
    let dir = scratch("export");
    let path = dir.join("w.trace");
    let path_s = path.to_str().unwrap();
    let (code, _) = run(&[
        "export-trace", "--workload", "water", "--refs", "400", "--procs", "2", "--out", path_s,
    ]);
    assert_eq!(code, 0);
    let original = std::fs::read(&path).unwrap();

    let mut plan = charlie::chaos::FaultPlan::new();
    plan.push("trace", charlie::chaos::FaultKind::Crash, 128);
    charlie::chaos::arm(plan);
    let (code, text) = run(&[
        "export-trace", "--workload", "water", "--refs", "500", "--procs", "2", "--out", path_s,
    ]);
    charlie::chaos::disarm();
    assert_eq!(code, 2, "crashed export must report failure: {text}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        original,
        "failed export must leave the previous trace untouched"
    );
    let strays: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(strays.is_empty(), "temp droppings: {strays:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace-out` JSONL event traces flow through the faultable writer, and
/// the emitter is deliberately best-effort: faults on the trace sink bound
/// the damage to the trace file — the run itself completes with output
/// byte-identical to an untraced one.
#[test]
fn trace_out_faults_do_not_perturb_the_run() {
    let _guard = lock();
    let dir = scratch("traceout");
    let path = dir.join("events.jsonl");
    let path_s = path.to_str().unwrap();
    let base = ["run", "--workload", "mp3d", "--refs", "800", "--procs", "2", "--json"];
    let (code, reference) = run(&base);
    assert_eq!(code, 0, "{reference}");

    let mut plan = charlie::chaos::FaultPlan::new();
    plan.push("trace", charlie::chaos::FaultKind::Enospc, 256);
    charlie::chaos::arm(plan);
    let mut traced_args = base.to_vec();
    traced_args.extend(["--trace-out", path_s]);
    let (code, traced) = run(&traced_args);
    charlie::chaos::disarm();
    assert_eq!(code, 0, "a faulted trace sink must not abort the run: {traced}");
    assert_eq!(traced, reference, "trace-sink faults must not leak into run output");
    std::fs::remove_dir_all(&dir).ok();
}
