//! Robustness properties of the `charlie serve` daemon, exercised over
//! real sockets: crash-and-restart byte-identity, duplicate coalescing,
//! hostile-bytes resilience, deadline degradation, and admission shedding.
//!
//! The kill/restart test drives the installed binary as a subprocess
//! (SIGKILL has to hit a real process); everything else runs in-process
//! servers on port 0, so the tests parallelize without port collisions.

use charlie_cli::run_cli;
use charlie_serve::{client, ServeConfig, Server};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use charlie::prefetch::Strategy;
use charlie::workloads::Workload;
use charlie::Experiment;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("charlie-serve-props-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(tokens: &[&str]) -> (i32, String) {
    let mut out = Vec::new();
    let code = run_cli(tokens.iter().map(|s| s.to_string()).collect(), &mut out);
    (code, String::from_utf8(out).unwrap())
}

/// Spawns the real daemon binary and reads back its resolved address.
fn spawn_daemon(state_dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_charlie"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2", "--state-dir"])
        .arg(state_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning daemon");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
        .to_owned();
    (child, addr)
}

/// An in-process server plus the thread running its accept loop.
fn start_server(cfg: ServeConfig) -> (Arc<Server>, String, std::thread::JoinHandle<()>) {
    let server = Arc::new(Server::bind(cfg).unwrap());
    let addr = server.local_addr().unwrap().to_string();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().unwrap())
    };
    (server, addr, runner)
}

fn server_config(state_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue: 8,
        deadline_ms: 0,
        cell_budget: 4096,
        jobs: 2,
        state_dir,
    }
}

fn stats_num(stats_json: &str, section: &str, field: &str) -> u64 {
    let v = charlie::wire::parse(stats_json).unwrap();
    v.field(section).unwrap().field(field).unwrap().num().unwrap()
}

/// SIGKILL mid-campaign, restart on the same state dir, resubmit: the
/// resumed campaign's stdout is byte-identical to an uninterrupted run,
/// with the already-journaled cells restored instead of re-simulated.
#[test]
fn sigkill_and_restart_is_byte_identical() {
    let reference_state = scratch("kill-reference");
    let (mut ref_daemon, ref_addr) = spawn_daemon(&reference_state, &[]);
    let submit_tokens = |addr: &str| {
        vec![
            "submit".to_owned(),
            "--addr".to_owned(),
            addr.to_owned(),
            "--workload".to_owned(),
            "water".to_owned(),
            "--refs".to_owned(),
            "4000".to_owned(),
            "--procs".to_owned(),
            "2".to_owned(),
        ]
    };
    let run_owned = |tokens: Vec<String>| {
        let mut out = Vec::new();
        let code = run_cli(tokens, &mut out);
        (code, String::from_utf8(out).unwrap())
    };
    let (code, reference) = run_owned(submit_tokens(&ref_addr));
    assert_eq!(code, 0, "uninterrupted reference submit failed: {reference}");
    let _ = ref_daemon.kill();
    let _ = ref_daemon.wait();

    // Fresh state dir; kill the daemon once its journal holds >= 2 cells.
    let victim_state = scratch("kill-victim");
    let (mut victim, victim_addr) = spawn_daemon(&victim_state, &[]);
    let background = {
        let tokens = submit_tokens(&victim_addr);
        std::thread::spawn(move || run_owned(tokens))
    };
    let journaled_enough = |dir: &Path| -> bool {
        std::fs::read_dir(dir).ok().into_iter().flatten().flatten().any(|entry| {
            entry.path().extension().is_some_and(|e| e == "ckpt")
                && std::fs::read_to_string(entry.path())
                    .map_or(false, |s| s.lines().count() >= 3)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while !journaled_enough(&victim_state) {
        assert!(Instant::now() < deadline, "daemon never journaled a cell");
        std::thread::sleep(Duration::from_millis(20));
    }
    victim.kill().expect("SIGKILL");
    let _ = victim.wait();
    let (code, partial) = background.join().unwrap();
    assert_ne!(code, 0, "a killed campaign must not report success: {partial}");

    // Restart on the same state dir: the resumed campaign must replay the
    // journaled cells and produce reference-identical bytes.
    let (mut resumed_daemon, resumed_addr) = spawn_daemon(&victim_state, &[]);
    let (code, resumed) = run_owned(submit_tokens(&resumed_addr));
    assert_eq!(code, 0, "resumed submit failed: {resumed}");
    assert_eq!(resumed, reference, "resumed campaign diverged from uninterrupted run");

    let stats = client::stats(&resumed_addr).unwrap();
    assert!(
        stats_num(&stats, "cells", "restored") >= 2,
        "restart must restore journaled cells: {stats}"
    );
    let _ = client::shutdown(&resumed_addr);
    let _ = resumed_daemon.wait();
}

/// Concurrent identical submissions coalesce: each distinct cell simulates
/// exactly once, and both campaigns stream identical summaries.
#[test]
fn concurrent_duplicate_submits_coalesce() {
    let (_server, addr, runner) = start_server(server_config(scratch("coalesce")));
    let cells = vec![
        Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
        Experiment::paper(Workload::Water, Strategy::Pref, 8),
    ];
    let request = client::SubmitRequest {
        grid: client::Grid::Cells(cells.clone()),
        procs: Some(2),
        refs: Some(6000),
        seed: None,
        deadline_ms: None,
        hw_prefetch: None,
        protocol: None,
        sampling: None,
    };
    let submit = |req: client::SubmitRequest, addr: String| {
        std::thread::spawn(move || client::submit(&addr, &req).unwrap())
    };
    let a = submit(request.clone(), addr.clone());
    let b = submit(request.clone(), addr.clone());
    let (fa, fb) = (a.join().unwrap(), b.join().unwrap());

    let summaries = |frames: &[client::Frame]| -> Vec<String> {
        frames
            .iter()
            .filter_map(|f| match f {
                client::Frame::Cell(sum) => Some(charlie::checkpoint::encode_summary(sum)),
                _ => None,
            })
            .collect()
    };
    assert_eq!(summaries(&fa), summaries(&fb), "duplicate campaigns must agree");
    assert_eq!(summaries(&fa).len(), cells.len());

    let stats = client::stats(&addr).unwrap();
    assert_eq!(
        stats_num(&stats, "cache", "misses"),
        cells.len() as u64,
        "each distinct cell simulates exactly once: {stats}"
    );
    assert_eq!(
        stats_num(&stats, "cache", "hits") + stats_num(&stats, "cache", "coalesced"),
        cells.len() as u64,
        "the duplicate campaign is served from cache/in-flight claims: {stats}"
    );
    assert_eq!(stats_num(&stats, "cells", "executed"), cells.len() as u64, "{stats}");

    client::shutdown(&addr).unwrap();
    runner.join().unwrap();
}

/// A deadline-bound campaign degrades with `WallClockExceeded` progress
/// counters; a second deadline-free client on the same grid is unaffected
/// (the interrupted cells finished into the shared cache). The server is
/// held while the impatient client waits, so its deadline fires before any
/// cell completes however fast the cells are.
#[test]
fn deadline_exceeded_reports_progress_and_spares_others() {
    let (server, addr, runner) = start_server(server_config(scratch("deadline")));
    let cells = vec![
        Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
        Experiment::paper(Workload::Water, Strategy::Pref, 8),
        Experiment::paper(Workload::Water, Strategy::Pws, 8),
    ];
    let impatient = client::SubmitRequest {
        grid: client::Grid::Cells(cells.clone()),
        procs: Some(2),
        refs: Some(2_000),
        seed: None,
        deadline_ms: Some(1),
        hw_prefetch: None,
        protocol: None,
        sampling: None,
    };
    let hold = server.hold();
    let frames = client::submit(&addr, &impatient).unwrap();
    let exceeded = frames
        .iter()
        .find_map(|f| match f {
            client::Frame::DeadlineExceeded { limit_ms, completed, remaining } => {
                Some((*limit_ms, *completed, *remaining))
            }
            _ => None,
        })
        .expect("a 1ms deadline over fresh cells must fire");
    assert_eq!(exceeded, (1, 0, cells.len() as u64), "no cell can finish while held");
    drop(hold);

    // Same grid, no deadline: completes fully — the impatient client's
    // abandoned cells landed in the cache rather than poisoning it.
    let patient = client::SubmitRequest { deadline_ms: None, ..impatient };
    let frames = client::submit(&addr, &patient).unwrap();
    match frames.last().expect("frames") {
        client::Frame::Done { completed, failed, .. } => {
            assert_eq!(*completed as usize, cells.len());
            assert_eq!(*failed, 0);
        }
        other => panic!("patient client must complete, got {other:?}"),
    }
    let stats = client::stats(&addr).unwrap();
    assert_eq!(stats_num(&stats, "campaigns", "deadline_exceeded"), 1, "{stats}");
    assert_eq!(stats_num(&stats, "cells", "executed"), cells.len() as u64, "{stats}");

    client::shutdown(&addr).unwrap();
    runner.join().unwrap();
}

/// A saturated daemon sheds with a structured retryable reply instead of
/// queueing unboundedly, and recovers once the queue drains. The server is
/// held while the probe arrives, so the occupant still holds the only queue
/// slot however fast its cells are.
#[test]
fn saturated_daemon_sheds_with_retry_hint() {
    let mut cfg = server_config(scratch("shed"));
    cfg.queue = 1;
    cfg.jobs = 1;
    let (server, addr, runner) = start_server(cfg);
    let request = client::SubmitRequest {
        grid: client::Grid::Cells(vec![
            Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
            Experiment::paper(Workload::Water, Strategy::Pref, 8),
        ]),
        procs: Some(2),
        refs: Some(2_000),
        seed: None,
        deadline_ms: None,
        hw_prefetch: None,
        protocol: None,
        sampling: None,
    };
    let hold = server.hold();
    let occupant = {
        let (request, addr) = (request.clone(), addr.clone());
        std::thread::spawn(move || client::submit(&addr, &request).unwrap())
    };
    // Wait until the occupant holds the only queue slot.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client::stats(&addr).unwrap();
        if stats_num(&stats, "queue", "active") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "occupant never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let shed = client::submit(&addr, &request).unwrap();
    match shed.first().expect("a reply frame") {
        client::Frame::Saturated { retry_after_ms } => {
            // The hint is jittered per client (seeded from the peer address)
            // to spread retry storms: base 1000ms scaled into [0.75, 1.25).
            assert!(
                (750..1250).contains(retry_after_ms),
                "retry hint must be jittered around the base: {retry_after_ms}"
            );
        }
        other => panic!("expected saturated shed, got {other:?}"),
    }
    drop(hold);
    let frames = occupant.join().unwrap();
    assert!(frames.iter().any(|f| matches!(f, client::Frame::Done { .. })));
    let stats = client::stats(&addr).unwrap();
    assert_eq!(stats_num(&stats, "admission", "shed"), 1, "{stats}");

    client::shutdown(&addr).unwrap();
    runner.join().unwrap();
}

/// The HTTP shim speaks enough HTTP/1.1 for curl: stats over GET, campaign
/// submission over POST, 404 elsewhere.
#[test]
fn http_shim_answers_stats_and_404() {
    let (_server, addr, runner) = start_server(server_config(scratch("http")));
    let http = |request: &str| -> String {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    };
    let stats = http("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(stats.starts_with("HTTP/1.1 200 OK"), "{stats}");
    assert!(stats.contains("\"admission\""), "{stats}");

    let missing = http("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    let body = "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"Water\",\"strategy\":\"NP\",\
                \"transfer\":8,\"layout\":\"interleaved\"}],\"procs\":2,\"refs\":600}";
    let submitted = http(&format!(
        "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert!(submitted.starts_with("HTTP/1.1 200 OK"), "{submitted}");
    assert!(submitted.contains("\"done\":true"), "{submitted}");

    client::shutdown(&addr).unwrap();
    runner.join().unwrap();
}

/// Writes one hostile payload line and reads back whatever single-line
/// reply (if any) the daemon produces.
fn poke(addr: &str, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = stream.write_all(payload);
    let _ = stream.write_all(b"\n");
    let mut reply = String::new();
    let _ = BufReader::new(stream).read_line(&mut reply);
    reply
}

/// One shared always-on server for the hostile-bytes probes; the runner
/// thread is deliberately leaked (the test process exit reaps it).
fn garbage_server_addr() -> &'static str {
    static ADDR: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    ADDR.get_or_init(|| {
        let server = Arc::new(Server::bind(server_config(scratch("garbage-shared"))).unwrap());
        let addr = server.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = server.run();
        });
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random binary garbage never panics the daemon: after every probe it
    /// still answers a liveness ping.
    #[test]
    fn random_garbage_never_panics_the_daemon(bytes in collection::vec(0u8..=255u8, 0..256)) {
        let addr = garbage_server_addr();
        let _ = poke(addr, &bytes);
        let pong = client::ping(addr).unwrap();
        prop_assert!(pong.contains("pong"), "daemon unresponsive after garbage: {pong}");
    }

    /// Deeply nested request bodies never panic (or abort!) the daemon:
    /// the parser's depth cap answers `bad_request` long before the
    /// recursion could overflow the connection thread's stack — a stack
    /// overflow is not catchable and would kill every in-flight campaign.
    #[test]
    fn deep_nesting_never_panics_the_daemon(
        depth in 1usize..30_000,
        obj in any::<bool>(),
    ) {
        let addr = garbage_server_addr();
        let mut payload = Vec::new();
        for _ in 0..depth {
            payload.extend_from_slice(if obj { b"{\"k\":" } else { b"[" });
        }
        payload.push(b'0');
        for _ in 0..depth {
            payload.push(if obj { b'}' } else { b']' });
        }
        let reply = poke(addr, &payload);
        if depth > 64 {
            prop_assert!(reply.contains("bad_request"), "expected bad_request: {reply}");
        }
        let pong = client::ping(addr).unwrap();
        prop_assert!(pong.contains("pong"), "daemon unresponsive after deep nesting: {pong}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random worker-kill schedules never break exactly-once publication.
    /// Each killed worker dies — heartbeats and all — immediately after a
    /// claim lands (the adversarial boundary), stranding a durable lease
    /// that only a generation-fenced reclaim can recover. A rescuer then
    /// finishes the grid. The merged journal must hold exactly one summary
    /// per cell, monotone generations per cell, and summaries byte-equal
    /// to a serial reference run of the same cells.
    #[test]
    fn worker_kill_schedules_preserve_exactly_once(
        kills in collection::vec(1u64..=3, 0..=2),
    ) {
        use charlie::checkpoint::{encode_summary, scan_shared};
        use charlie_serve::worker::{self, WorkerConfig};
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = scratch(&format!("kill-schedule-{case}"));

        let cells = vec![
            Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
            Experiment::paper(Workload::Water, Strategy::Pref, 8),
            Experiment::paper(Workload::Water, Strategy::Lpd, 8),
            Experiment::paper(Workload::Water, Strategy::Pws, 8),
        ];
        let request = client::SubmitRequest {
            grid: client::Grid::Cells(cells.clone()),
            procs: Some(2),
            refs: Some(500),
            seed: None,
            deadline_ms: None,
            hw_prefetch: None,
            protocol: None,
            sampling: None,
        };
        let m = worker::write_manifest(&dir, &request.encode()).unwrap();

        let base = |id: &str| {
            let mut cfg = WorkerConfig::new(&dir);
            cfg.id = id.to_owned();
            cfg.lease_ms = 50;
            cfg.poll_ms = 5;
            cfg.exit_when_idle = true;
            cfg
        };
        // The doomed workers run first, each dying mid-claim and leaving
        // an unexpired lease the next worker must wait out.
        for (i, claims) in kills.iter().enumerate() {
            let mut cfg = base(&format!("k{i}"));
            cfg.die_after_claims = Some(*claims);
            worker::run_worker(&cfg).unwrap();
        }
        let report = worker::run_worker(&base("rescue")).unwrap();
        prop_assert!(!report.drained);

        let scan = scan_shared(&m.journal, Some(&m.key)).unwrap();
        prop_assert_eq!(scan.duplicate_summaries, 0, "every cell publishes exactly once");
        prop_assert_eq!(scan.corrupt_lines, 0);
        let mut last_gen = std::collections::HashMap::new();
        for lease in &scan.leases {
            let floor = last_gen.entry(lease.cell).or_insert(0u64);
            prop_assert!(
                lease.gen >= *floor,
                "generations regress for cell {}: {} after {}", lease.cell, lease.gen, *floor
            );
            *floor = lease.gen;
        }
        // The first doomed worker always dies holding a fresh grid's lease,
        // so any nonempty schedule forces at least one reclaim somewhere.
        if !kills.is_empty() {
            prop_assert!(
                scan.leases.iter().any(|l| l.gen >= 2),
                "a stranded lease must be reclaimed under a higher generation"
            );
        }

        let collected = worker::collect(&m).unwrap();
        for (exp, got) in cells.iter().zip(&collected) {
            let got = got.as_ref().expect("every cell published");
            let reference = charlie::execute_cell(&m.cell_cfg, *exp).unwrap();
            prop_assert_eq!(encode_summary(got), encode_summary(&reference));
        }
        worker::finalize(&m).unwrap();
        let compacted = worker::collect(&m).unwrap();
        prop_assert!(
            compacted.iter().all(|s| s.is_some()),
            "compaction must preserve every summary"
        );
    }
}

/// Malformed, oversized, or wrong-shape requests never panic the daemon:
/// every probe gets (at most) an error frame, and the daemon stays fully
/// serviceable afterwards.
#[test]
fn malformed_requests_never_panic_the_daemon() {
    let (_server, addr, runner) = start_server(server_config(scratch("garbage")));

    // Directed probes for every validation edge.
    let reply = poke(&addr, &vec![b'x'; charlie_serve::MAX_REQUEST_BYTES + 64]);
    assert!(reply.contains("oversized"), "cap must answer oversized: {reply}");
    for bad in [
        &b""[..],
        b"not json at all",
        b"42",
        b"{\"nocmd\":1}",
        b"{\"cmd\":\"frobnicate\"}",
        b"{\"cmd\":\"submit\"}",
        b"{\"cmd\":\"submit\",\"grid\":\"bogus\"}",
        b"{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"Nope\",\"strategy\":\"NP\",\
          \"transfer\":8,\"layout\":\"interleaved\"}]}",
        b"{\"cmd\":\"submit\",\"grid\":\"paper\",\"procs\":0}",
        b"\xff\xfe\x00\x01\x02",
        b"GET \r\n",
        b"POST /submit HTTP/1.1",
    ] {
        let _ = poke(&addr, bad);
    }

    // Still alive, still serving real work.
    let pong = client::ping(&addr).unwrap();
    assert!(pong.contains("pong"), "{pong}");
    let request = client::SubmitRequest {
        grid: client::Grid::Cells(vec![Experiment::paper(
            Workload::Water,
            Strategy::NoPrefetch,
            8,
        )]),
        procs: Some(2),
        refs: Some(600),
        seed: None,
        deadline_ms: None,
        hw_prefetch: None,
        protocol: None,
        sampling: None,
    };
    let frames = client::submit(&addr, &request).unwrap();
    assert!(frames.iter().any(|f| matches!(f, client::Frame::Done { .. })));

    client::shutdown(&addr).unwrap();
    runner.join().unwrap();
}

/// Satellite 6 regression: filesystem failures in the durability commands
/// carry the path and the operation, never a bare `os error`.
#[test]
fn io_errors_are_contextual() {
    let dir = scratch("io-context");
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"file, not dir").unwrap();

    // chaos --dir pointing *through* a file cannot create its scratch dir.
    let inner = blocker.join("scratch");
    let (code, text) = run(&["chaos", "--dir", inner.to_str().unwrap(), "--points", "1"]);
    assert_eq!(code, 2);
    assert!(
        text.contains("creating scratch dir") && text.contains("not-a-dir"),
        "chaos must name the dir and the operation: {text}"
    );

    // bench --out through a file: atomic writer reports path + operation.
    let out_path = blocker.join("bench.json");
    let (code, text) =
        run(&["bench", "--quick", "--refs", "300", "--procs", "2", "--out", out_path.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(
        text.contains("writing") && text.contains("bench.json"),
        "bench --out must name the path and the operation: {text}"
    );

    // bench --baseline against a missing file: read context.
    let missing = dir.join("no-such-baseline.json");
    let (code, text) = run(&[
        "bench", "--quick", "--refs", "300", "--procs", "2", "--baseline",
        missing.to_str().unwrap(),
    ]);
    assert_eq!(code, 2);
    assert!(
        text.contains("reading") && text.contains("no-such-baseline.json"),
        "bench --baseline must name the path and the operation: {text}"
    );
}
