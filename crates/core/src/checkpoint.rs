//! Checkpoint journal: JSON-lines persistence of completed runs.
//!
//! A [`Journal`] is an append-only file with one completed [`RunSummary`]
//! per line. [`Lab::run_batch_checkpointed`](crate::Lab::run_batch_checkpointed)
//! appends (and flushes) each cell the moment it finishes, so a batch
//! killed mid-flight loses at most the cells still in progress; reopening
//! the journal returns everything completed so far, and
//! [`Lab::restore`](crate::Lab::restore) replays it into the memo.
//!
//! Two properties make resume *exact* rather than approximate:
//!
//! * every field of a [`SimReport`] is an integer (latency distributions
//!   expose raw counters via `to_raw`/`from_raw`), so the round-trip through
//!   text is lossless — a resumed campaign renders byte-identical output;
//! * damage is classified, not guessed at. Every line carries a CRC32
//!   frame (`crc32-hex SP json NL`) and the first line is a header naming
//!   the journal version and the campaign config key, so [`Journal::open`]
//!   can tell *torn* (a final line without a newline — a process killed
//!   mid-write; dropped and truncated) from *corrupt* (a complete line
//!   whose checksum fails — bit rot or a torn write grafted inside a line;
//!   dropped with a warning and compacted away via temp-file + rename).
//!   Either way the damaged cell simply re-runs. What never recovers
//!   silently: a version or config-key mismatch (refused — resuming a
//!   foreign journal would replay the wrong cells), and a CRC-valid line
//!   that fails to decode (that is a writer bug, not wire damage).
//!
//! Durability policy: `append` writes and flushes each line, so a process
//! crash immediately after loses nothing; against *machine* crashes (power
//! loss before kernel writeback) an opt-in sync mode
//! ([`JournalOptions::sync`] or `CHARLIE_JOURNAL_SYNC=1`) fsyncs after
//! every append. All journal bytes pass through
//! [`chaos::ChaosWriter`], which is how
//! `tests/chaos_props.rs` and `charlie chaos` prove these recovery paths
//! at every injected fault offset.
//!
//! The format is hand-rolled (no serde in the dependency tree): a tiny
//! recursive-descent JSON reader over a byte cursor, ~150 lines, checked by
//! round-trip tests here and end-to-end in `tests/fault_tolerance.rs`.

use crate::chaos::{self, ChaosWriter};
use crate::lab::RunSummary;
use crate::wire::{self, push_str_field, Json};
use charlie_bus::BusStats;
use charlie_sim::{
    HwPrefetchStats, LatencyStats, MissBreakdown, PrefetchStats, ProcStats, SimReport, Timeline,
    WindowSample,
};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Journal format version; bumped on any encoding change so a stale journal
/// fails loudly instead of resuming garbage. Version 2 added the per-line
/// CRC32 frame and the header line.
const VERSION: u64 = 2;

/// One complete JSON line through the shared [`wire`] reader.
fn parse_line(line: &str) -> Result<Json, String> {
    wire::parse(line)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_report(report: &SimReport) -> String {
    let mut s = String::with_capacity(1024);
    let m = &report.miss;
    let (count, total, min, max, buckets) = report.fill_latency.to_raw();
    let p = &report.prefetch;
    let b = &report.bus;
    let _ = write!(
        s,
        "{{\"cycles\":{},\"measured_from\":{},\"reads\":{},\"writes\":{},\
         \"miss\":{{\"nsnp\":{},\"nsp\":{},\"invnp\":{},\"invp\":{},\"pip\":{}}},\
         \"false_sharing_misses\":{},\"upgrades\":{},\"upgrades_aborted\":{},\
         \"demand_refills\":{},\"victim_hits\":{},\
         \"fill_latency\":{{\"count\":{},\"total\":{},\"min\":{},\"max\":{},\
         \"buckets\":[{},{},{},{},{},{},{}]}},\
         \"prefetch\":{{\"executed\":{},\"hits\":{},\"duplicates\":{},\"fills\":{},\
         \"wasted_evicted\":{},\"wasted_invalidated\":{},\"buffer_stalls\":{}}},\
         \"bus\":{{\"busy_cycles\":{},\"reads\":{},\"read_exclusives\":{},\"upgrades\":{},",
        report.cycles,
        report.measured_from,
        report.reads,
        report.writes,
        m.non_sharing_not_prefetched,
        m.non_sharing_prefetched,
        m.invalidation_not_prefetched,
        m.invalidation_prefetched,
        m.prefetch_in_progress,
        report.false_sharing_misses,
        report.upgrades,
        report.upgrades_aborted,
        report.demand_refills,
        report.victim_hits,
        count,
        total,
        min,
        max,
        buckets[0],
        buckets[1],
        buckets[2],
        buckets[3],
        buckets[4],
        buckets[5],
        buckets[6],
        p.executed,
        p.hits,
        p.duplicates,
        p.fills,
        p.wasted_evicted,
        p.wasted_invalidated,
        p.buffer_stalls,
        b.busy_cycles,
        b.reads,
        b.read_exclusives,
        b.upgrades,
    );
    // Omitted when zero (write-update protocols only) so journals from
    // invalidation-protocol campaigns stay byte-identical to older formats.
    if b.updates != 0 {
        let _ = write!(s, "\"updates\":{},", b.updates);
    }
    let _ = write!(
        s,
        "\"writebacks\":{},\"prefetch_grants\":{},\"queueing_cycles\":{}}},\"per_proc\":[",
        b.writebacks, b.prefetch_grants, b.queueing_cycles,
    );
    for (i, proc) in report.per_proc.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"busy_cycles\":{},\"stall_cycles\":{},\"finish_time\":{},\
             \"accesses\":{},\"measured_from\":{}}}",
            if i == 0 { "" } else { "," },
            proc.busy_cycles,
            proc.stall_cycles,
            proc.finish_time,
            proc.accesses,
            proc.measured_from,
        );
    }
    s.push(']');
    // Omitted when the on-line hardware prefetcher is off so journals from
    // paper-grid campaigns stay byte-identical to the version-2 format.
    let h = &report.hw_prefetch;
    if !h.is_empty() {
        let _ = write!(
            s,
            ",\"hw_prefetch\":{{\"trained\":{},\"issued\":{},\"useful\":{},\
             \"late\":{},\"useless\":{}}}",
            h.trained, h.issued, h.useful, h.late, h.useless,
        );
    }
    s.push('}');
    s
}

/// Encodes one completed run as the journal's (and the serve protocol's)
/// summary object — unframed JSON; [`frame_line`] adds the CRC for disk.
pub fn encode_summary(summary: &RunSummary) -> String {
    let exp = summary.experiment;
    let mut s = String::with_capacity(1280);
    let _ = write!(s, "{{\"v\":{VERSION},");
    push_str_field(&mut s, "workload", exp.workload.name());
    push_str_field(&mut s, "strategy", exp.strategy.name());
    let _ = write!(s, "\"transfer\":{},", exp.transfer_cycles);
    push_str_field(&mut s, "layout", wire::layout_name(exp.layout));
    let _ = write!(
        s,
        "\"prefetches_inserted\":{},\"report\":{}",
        summary.prefetches_inserted,
        encode_report(&summary.report)
    );
    // Optional field: only sampled campaigns carry timelines, and journals
    // written by unsampled (or older) builds simply omit it.
    if let Some(timeline) = &summary.timeline {
        let _ = write!(s, ",\"timeline\":{}", encode_timeline(timeline));
    }
    // Optional field with the same compatibility contract: only
    // sampled-simulation runs carry an estimate.
    if let Some(sm) = &summary.sampled {
        let _ = write!(
            s,
            ",\"sampled\":{{\"mode\":\"{}\",\"total_windows\":{},\
             \"detailed_windows\":{},\"clusters\":{},\"total_accesses\":{},\
             \"est_cycles\":{},\"ci_cycles\":{},\"est_bus_busy\":{},\
             \"ci_bus_busy\":{},\"events\":{}}}",
            sm.mode,
            sm.total_windows,
            sm.detailed_windows,
            sm.clusters,
            sm.total_accesses,
            sm.est_cycles,
            sm.ci_cycles,
            sm.est_bus_busy,
            sm.ci_bus_busy,
            sm.events
        );
    }
    s.push('}');
    s
}

fn encode_timeline(timeline: &Timeline) -> String {
    let mut s = String::with_capacity(64 + 256 * timeline.windows.len());
    let _ = write!(s, "{{\"interval\":{},\"windows\":[", timeline.interval);
    for (i, w) in timeline.windows.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"start\":{},\"end\":{},\"bus_busy\":{},\"bus_ops\":{},\
             \"bus_queueing\":{},\"prefetch_grants\":{},\"proc_busy\":{},\
             \"proc_stall\":{},\"accesses\":{},\"fills\":{},\
             \"fill_buckets\":[{},{},{},{},{},{},{}],\"bus_pending\":{},\
             \"outstanding\":{},\"pf_occupancy\":{}}}",
            if i == 0 { "" } else { "," },
            w.start,
            w.end,
            w.bus_busy_cycles,
            w.bus_ops,
            w.bus_queueing_cycles,
            w.prefetch_grants,
            w.proc_busy_cycles,
            w.proc_stall_cycles,
            w.accesses,
            w.fills,
            w.fill_latency_buckets[0],
            w.fill_latency_buckets[1],
            w.fill_latency_buckets[2],
            w.fill_latency_buckets[3],
            w.fill_latency_buckets[4],
            w.fill_latency_buckets[5],
            w.fill_latency_buckets[6],
            w.bus_pending,
            w.outstanding_txns,
            w.prefetch_buffer,
        );
    }
    s.push_str("]}");
    s
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_miss(v: &Json) -> Result<MissBreakdown, String> {
    Ok(MissBreakdown {
        non_sharing_not_prefetched: v.field("nsnp")?.num()?,
        non_sharing_prefetched: v.field("nsp")?.num()?,
        invalidation_not_prefetched: v.field("invnp")?.num()?,
        invalidation_prefetched: v.field("invp")?.num()?,
        prefetch_in_progress: v.field("pip")?.num()?,
    })
}

fn decode_latency(v: &Json) -> Result<LatencyStats, String> {
    let raw = v.field("buckets")?.arr()?;
    if raw.len() != 7 {
        return Err(format!("expected 7 latency buckets, found {}", raw.len()));
    }
    let mut buckets = [0u64; 7];
    for (slot, item) in buckets.iter_mut().zip(raw) {
        *slot = item.num()?;
    }
    Ok(LatencyStats::from_raw(
        v.field("count")?.num()?,
        v.field("total")?.num()?,
        v.field("min")?.num()?,
        v.field("max")?.num()?,
        buckets,
    ))
}

fn decode_report(v: &Json) -> Result<SimReport, String> {
    let p = v.field("prefetch")?;
    let b = v.field("bus")?;
    let hw_prefetch = match v.opt_field("hw_prefetch") {
        Some(h) => HwPrefetchStats {
            trained: h.field("trained")?.num()?,
            issued: h.field("issued")?.num()?,
            useful: h.field("useful")?.num()?,
            late: h.field("late")?.num()?,
            useless: h.field("useless")?.num()?,
        },
        None => HwPrefetchStats::default(),
    };
    let mut per_proc = Vec::new();
    for proc in v.field("per_proc")?.arr()? {
        per_proc.push(ProcStats {
            busy_cycles: proc.field("busy_cycles")?.num()?,
            stall_cycles: proc.field("stall_cycles")?.num()?,
            finish_time: proc.field("finish_time")?.num()?,
            accesses: proc.field("accesses")?.num()?,
            measured_from: proc.field("measured_from")?.num()?,
        });
    }
    Ok(SimReport {
        cycles: v.field("cycles")?.num()?,
        measured_from: v.field("measured_from")?.num()?,
        reads: v.field("reads")?.num()?,
        writes: v.field("writes")?.num()?,
        miss: decode_miss(v.field("miss")?)?,
        false_sharing_misses: v.field("false_sharing_misses")?.num()?,
        upgrades: v.field("upgrades")?.num()?,
        upgrades_aborted: v.field("upgrades_aborted")?.num()?,
        demand_refills: v.field("demand_refills")?.num()?,
        victim_hits: v.field("victim_hits")?.num()?,
        fill_latency: decode_latency(v.field("fill_latency")?)?,
        prefetch: PrefetchStats {
            executed: p.field("executed")?.num()?,
            hits: p.field("hits")?.num()?,
            duplicates: p.field("duplicates")?.num()?,
            fills: p.field("fills")?.num()?,
            wasted_evicted: p.field("wasted_evicted")?.num()?,
            wasted_invalidated: p.field("wasted_invalidated")?.num()?,
            buffer_stalls: p.field("buffer_stalls")?.num()?,
        },
        hw_prefetch,
        bus: BusStats {
            busy_cycles: b.field("busy_cycles")?.num()?,
            reads: b.field("reads")?.num()?,
            read_exclusives: b.field("read_exclusives")?.num()?,
            upgrades: b.field("upgrades")?.num()?,
            // Omitted-when-zero (write-update protocols only), like
            // hw_prefetch: old journals decode with 0.
            updates: match b.opt_field("updates") {
                Some(u) => u.num()?,
                None => 0,
            },
            writebacks: b.field("writebacks")?.num()?,
            prefetch_grants: b.field("prefetch_grants")?.num()?,
            queueing_cycles: b.field("queueing_cycles")?.num()?,
        },
        per_proc,
    })
}

fn check_version(v: &Json) -> Result<(), String> {
    let version = v.field("v")?.num()?;
    if version != VERSION {
        return Err(format!("journal version {version} (this build reads {VERSION})"));
    }
    Ok(())
}

/// Decodes a summary line (unframed JSON text) — the inverse of
/// [`encode_summary`].
pub fn decode_summary(line: &str) -> Result<RunSummary, String> {
    decode_summary_value(&parse_line(line)?)
}

/// Decodes a summary from an already-parsed value — the form the serve
/// client uses after extracting the object from a stream frame.
pub fn decode_summary_value(v: &Json) -> Result<RunSummary, String> {
    check_version(v)?;
    Ok(RunSummary {
        experiment: wire::decode_experiment(v)?,
        report: decode_report(v.field("report")?)?,
        prefetches_inserted: v.field("prefetches_inserted")?.num()?,
        timeline: v.opt_field("timeline").map(decode_timeline).transpose()?,
        sampled: v.opt_field("sampled").map(decode_sampled).transpose()?,
    })
}

fn decode_sampled(v: &Json) -> Result<crate::sampling::SampledSummary, String> {
    let mode_name = v.field("mode")?.str()?;
    let mode = crate::sampling::SamplingMode::parse(mode_name)
        .ok_or_else(|| format!("unknown sampling mode {mode_name:?}"))?;
    Ok(crate::sampling::SampledSummary {
        mode,
        total_windows: v.field("total_windows")?.num()?,
        detailed_windows: v.field("detailed_windows")?.num()?,
        clusters: v.field("clusters")?.num()?,
        total_accesses: v.field("total_accesses")?.num()?,
        est_cycles: v.field("est_cycles")?.num()?,
        ci_cycles: v.field("ci_cycles")?.num()?,
        est_bus_busy: v.field("est_bus_busy")?.num()?,
        ci_bus_busy: v.field("ci_bus_busy")?.num()?,
        events: v.field("events")?.num()?,
    })
}

fn decode_timeline(v: &Json) -> Result<Timeline, String> {
    let mut windows = Vec::new();
    for w in v.field("windows")?.arr()? {
        let raw = w.field("fill_buckets")?.arr()?;
        if raw.len() != 7 {
            return Err(format!("expected 7 fill buckets, found {}", raw.len()));
        }
        let mut fill_latency_buckets = [0u64; 7];
        for (slot, item) in fill_latency_buckets.iter_mut().zip(raw) {
            *slot = item.num()?;
        }
        windows.push(WindowSample {
            start: w.field("start")?.num()?,
            end: w.field("end")?.num()?,
            bus_busy_cycles: w.field("bus_busy")?.num()?,
            bus_ops: w.field("bus_ops")?.num()?,
            bus_queueing_cycles: w.field("bus_queueing")?.num()?,
            prefetch_grants: w.field("prefetch_grants")?.num()?,
            proc_busy_cycles: w.field("proc_busy")?.num()?,
            proc_stall_cycles: w.field("proc_stall")?.num()?,
            accesses: w.field("accesses")?.num()?,
            fills: w.field("fills")?.num()?,
            fill_latency_buckets,
            bus_pending: w.field("bus_pending")?.num()? as usize,
            outstanding_txns: w.field("outstanding")?.num()? as usize,
            prefetch_buffer: w.field("pf_occupancy")?.num()? as usize,
        });
    }
    Ok(Timeline { interval: v.field("interval")?.num()?, windows })
}

/// Encodes a `(key, report)` pair as one journal line — the
/// [`KeyedJournal`] record for cells whose knobs live outside
/// [`Experiment`](crate::Experiment) (the `config-sweep` exhibit's geometry and prefetcher
/// sweeps). The key is an opaque caller-chosen cell name.
pub fn encode_keyed_report(key: &str, report: &SimReport) -> String {
    let mut s = String::with_capacity(1280);
    let _ = write!(s, "{{\"v\":{VERSION},");
    push_str_field(&mut s, "key", key);
    let _ = write!(s, "\"report\":{}}}", encode_report(report));
    s
}

/// Decodes one [`encode_keyed_report`] line.
pub fn decode_keyed_report(line: &str) -> Result<(String, SimReport), String> {
    let v = parse_line(line)?;
    check_version(&v)?;
    Ok((v.field("key")?.str()?.to_owned(), decode_report(v.field("report")?)?))
}

/// Keyed checkpoint journal for cells whose knobs live outside
/// [`Experiment`](crate::Experiment) (geometry, trace-length, and hardware
/// prefetcher sweeps): `done` maps caller-chosen cell keys to restored
/// reports, and `append` journals new completions. A [`Journal`] with a
/// different record decoder: the same line framing, the same recovery
/// policy (one loader serves both) and the same best-effort appends.
pub struct KeyedJournal {
    journal: Journal,
    done: std::collections::HashMap<String, SimReport>,
}

impl KeyedJournal {
    /// Opens (or creates) the journal for campaign key `config`, with
    /// [`Journal::open_with`]'s recovery policy: torn tails, CRC-failed
    /// lines and an unreadable header are dropped with a warning and
    /// compacted away; a version or config-key mismatch, or a CRC-valid
    /// line that fails to decode, refuses to resume.
    pub fn open(path: &Path, config: &str) -> io::Result<KeyedJournal> {
        let opts = JournalOptions { config: Some(config.to_owned()), sync: false };
        let (journal, records) =
            Journal::load(path.to_path_buf(), opts, |json| decode_keyed_report(json).map(Some))?;
        Ok(KeyedJournal { journal, done: records.into_iter().collect() })
    }

    /// Cells restored at open, by key.
    pub fn done(&self) -> &std::collections::HashMap<String, SimReport> {
        &self.done
    }

    /// What [`KeyedJournal::open`] recovered from (all-zero when clean).
    pub fn diag(&self) -> JournalDiag {
        self.journal.diag()
    }

    /// Appends one completed cell (best-effort, like [`Journal::append`]:
    /// journaling is an optimization over re-running the cell).
    pub fn append(&mut self, key: &str, report: &SimReport) {
        self.journal.append_payload(&encode_keyed_report(key, report));
    }
}

// ---------------------------------------------------------------------------
// Line framing (v2): `crc32-hex SP json NL` per line, header line first.
// ---------------------------------------------------------------------------

/// Frames one journal payload as a full line: eight lowercase hex digits of
/// [`chaos::crc32`] over the payload, one space, the payload, a newline.
/// Shared by [`Journal`] and [`KeyedJournal`].
pub fn frame_line(json: &str) -> String {
    format!("{:08x} {json}\n", chaos::crc32(json.as_bytes()))
}

/// Verifies and strips a line frame, returning the payload. The error says
/// *why* the frame failed (missing, malformed, or checksum mismatch) so
/// recovery diagnostics can quote it.
pub fn unframe_line(line: &str) -> Result<&str, String> {
    let Some((crc_text, json)) = line.split_once(' ') else {
        return Err("missing checksum frame".into());
    };
    if crc_text.len() != 8 || !crc_text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("bad checksum field {crc_text:?}"));
    }
    let stored = u32::from_str_radix(crc_text, 16).expect("validated as 8 hex digits");
    let computed = chaos::crc32(json.as_bytes());
    if stored != computed {
        return Err(format!("checksum mismatch (stored {stored:08x}, computed {computed:08x})"));
    }
    Ok(json)
}

/// Encodes the framed header line: journal version plus the campaign
/// config key the journal was created for.
pub fn encode_journal_header(config: &str) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{{\"charlie_journal\":{VERSION},");
    push_str_field(&mut s, "config", config);
    s.pop(); // push_str_field leaves a trailing comma
    s.push('}');
    frame_line(&s)
}

/// Decodes an unframed header payload into `(version, config key)`.
pub fn decode_journal_header(json: &str) -> Result<(u64, String), String> {
    let v = parse_line(json)?;
    let version = v
        .field("charlie_journal")
        .map_err(|_| "first line is not a journal header".to_string())?
        .num()?;
    Ok((version, v.field("config")?.str()?.to_owned()))
}

// ---------------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------------

/// What [`Journal::open`] had to recover from. All-zero for a clean journal.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct JournalDiag {
    /// Bytes of a torn final line (no trailing newline — killed mid-write)
    /// that were dropped and compacted away.
    pub torn_tail_bytes: u64,
    /// Complete lines whose CRC frame failed (bit rot, or a torn write
    /// grafted inside a line) — dropped with a warning; those cells re-run.
    pub corrupt_lines: u64,
    /// The header line itself was unreadable: the journal's identity is
    /// unknown, so every record was discarded and the journal restarted.
    pub header_discarded: bool,
}

impl JournalDiag {
    /// `true` when open found any damage at all.
    pub fn any(&self) -> bool {
        self.torn_tail_bytes > 0 || self.corrupt_lines > 0 || self.header_discarded
    }
}

/// Knobs for [`Journal::open_with`].
#[derive(Clone, Debug, Default)]
pub struct JournalOptions {
    /// Expected campaign config key. When set, a journal whose header names
    /// a different key is refused — resuming it would silently replay
    /// foreign cells. New journals record this key in their header.
    pub config: Option<String>,
    /// Sync mode: fsync (`sync_data`) after every append. The default
    /// (flush only) survives process crashes but can lose accepted lines to
    /// a machine crash before kernel writeback; chaos tests and paranoid
    /// campaigns turn this on (also via `CHARLIE_JOURNAL_SYNC=1`).
    pub sync: bool,
}

fn invalid_data(path: &Path, line: usize, msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{}:{}: {msg}", path.display(), line))
}

/// Append-only checkpoint journal of completed runs.
///
/// Created by [`Journal::open`]/[`Journal::open_with`], which also return
/// every summary already journaled (the resume set). Write failures degrade
/// gracefully: the journal warns on stderr once and stops persisting — the
/// batch itself keeps running, it just loses crash protection.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// `None` when even opening an append handle failed (the journal is
    /// then born broken: resume still works, persistence does not).
    file: Option<ChaosWriter<File>>,
    broken: bool,
    sync: bool,
    diag: JournalDiag,
}

impl Journal {
    /// [`Journal::open_with`] with default options (no config-key check;
    /// sync only if `CHARLIE_JOURNAL_SYNC=1`).
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Vec<RunSummary>)> {
        Self::open_with(path, JournalOptions::default())
    }

    /// Opens (creating if absent) the journal at `path`, verifies its
    /// header, and parses every intact record already present.
    ///
    /// Recoverable damage — a torn final line, CRC-failed record lines, or
    /// an unreadable header — is dropped with a stderr warning, reported in
    /// [`Journal::diag`], and compacted away on disk (temp file + atomic
    /// rename), so the damaged cells simply re-run.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file, and [`io::ErrorKind::InvalidData`]
    /// (with `path:line`) when resuming would be *wrong* rather than
    /// wasteful: a version mismatch, a config-key mismatch against
    /// [`JournalOptions::config`], or a CRC-valid line that fails to decode
    /// (a writer bug, not wire damage).
    pub fn open_with(
        path: impl AsRef<Path>,
        opts: JournalOptions,
    ) -> io::Result<(Journal, Vec<RunSummary>)> {
        Self::load(path.as_ref().to_path_buf(), opts, |json| {
            // Multi-worker lease/heartbeat records: a single-worker resume
            // ignores them (the summaries alone are the resume set) but
            // keeps them through compaction so a rejoining fleet sees its
            // fencing history.
            if is_lease_json(json) {
                Ok(None)
            } else {
                decode_summary(json).map(Some)
            }
        })
    }

    /// The one implementation of the recovery policy documented on
    /// [`Journal::open_with`], parameterized by the record decoder.
    /// `decode` maps a CRC-valid record payload to `Some(record)`, to
    /// `None` for a line to keep through compaction without returning it,
    /// or to an error, which refuses the journal as undecodable.
    fn load<R>(
        path: PathBuf,
        opts: JournalOptions,
        decode: impl Fn(&str) -> Result<Option<R>, String>,
    ) -> io::Result<(Journal, Vec<R>)> {
        let sync = opts.sync || env_sync();
        let mut content = String::new();
        let existed = match File::open(&path) {
            Ok(mut f) => {
                f.read_to_string(&mut content)
                    .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
                true
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
        };

        let complete_len = content.rfind('\n').map_or(0, |i| i + 1);
        let mut diag = JournalDiag {
            torn_tail_bytes: (content.len() - complete_len) as u64,
            ..JournalDiag::default()
        };
        if diag.torn_tail_bytes > 0 {
            eprintln!(
                "warning: {}: dropping torn final line ({} byte(s), killed mid-write); \
                 that cell re-runs",
                path.display(),
                diag.torn_tail_bytes
            );
        }
        let lines: Vec<&str> =
            content[..complete_len].lines().filter(|l| !l.trim().is_empty()).collect();

        let mut restored: Vec<R> = Vec::new();
        let mut survivors: Vec<&str> = Vec::new();
        let mut header_config: Option<String> = None;
        if let Some((&first, records)) = lines.split_first() {
            match unframe_line(first) {
                Ok(json) => {
                    let (version, config) =
                        decode_journal_header(json).map_err(|e| invalid_data(&path, 1, e))?;
                    if version != VERSION {
                        return Err(invalid_data(
                            &path,
                            1,
                            format!("journal version {version} (this build reads {VERSION})"),
                        ));
                    }
                    if let Some(expected) = &opts.config {
                        if *expected != config {
                            return Err(invalid_data(
                                &path,
                                1,
                                format!(
                                    "journal was written for config {config:?} but this \
                                     campaign is {expected:?}; refusing to resume — delete \
                                     the journal or point it elsewhere"
                                ),
                            ));
                        }
                    }
                    header_config = Some(config);
                    for (i, &line) in records.iter().enumerate() {
                        match unframe_line(line) {
                            Ok(json) => {
                                let record =
                                    decode(json).map_err(|e| invalid_data(&path, i + 2, e))?;
                                survivors.push(line);
                                restored.extend(record);
                            }
                            Err(e) => {
                                diag.corrupt_lines += 1;
                                eprintln!(
                                    "warning: {}:{}: dropping corrupt journal line ({e}); \
                                     that cell re-runs",
                                    path.display(),
                                    i + 2
                                );
                            }
                        }
                    }
                }
                Err(frame_err) => {
                    // A pre-CRC (v1) journal parses as bare JSON with a "v"
                    // field: refuse it by version, with a precise message.
                    if let Ok(v) = parse_line(first) {
                        if let Ok(found) = v.field("v").and_then(Json::num) {
                            return Err(invalid_data(
                                &path,
                                1,
                                format!(
                                    "journal version {found} (this build reads {VERSION}; \
                                     pre-CRC journals cannot be resumed)"
                                ),
                            ));
                        }
                    }
                    // Unreadable header: the journal's identity (version,
                    // config) is unknowable, so no record can be trusted to
                    // belong to this campaign. Discard everything, restart.
                    diag.header_discarded = true;
                    diag.corrupt_lines = lines.len() as u64;
                    eprintln!(
                        "warning: {}: journal header unreadable ({frame_err}); discarding \
                         {} line(s) and starting fresh",
                        path.display(),
                        lines.len()
                    );
                }
            }
        }
        if diag.header_discarded {
            restored.clear();
            survivors.clear();
            header_config = None;
        }

        // Materialize a clean file when anything was dropped (or the header
        // is missing entirely): header + surviving records, written to a
        // temp file and renamed into place so a crash mid-compaction can
        // never make things worse. Write-side failures here (and below)
        // degrade to a broken journal instead of killing the campaign: the
        // resume set is already in hand, we just lose crash protection.
        let config = opts.config.or(header_config.clone()).unwrap_or_default();
        let needs_rewrite = diag.any() || header_config.is_none() || !existed;
        let mut broken = false;
        if needs_rewrite {
            let mut out = String::with_capacity(
                64 + survivors.iter().map(|l| l.len() + 1).sum::<usize>(),
            );
            out.push_str(&encode_journal_header(&config));
            for line in &survivors {
                out.push_str(line);
                out.push('\n');
            }
            if let Err(e) = chaos::write_atomic(&path, out.as_bytes(), "journal") {
                eprintln!(
                    "warning: checkpoint journal {}: {e}; journaling disabled for this run",
                    path.display()
                );
                broken = true;
            }
        }
        let file = match OpenOptions::new().create(true).append(true).open(&path) {
            Ok(f) => Some(ChaosWriter::new(f, "journal")),
            Err(e) => {
                if !broken {
                    eprintln!(
                        "warning: checkpoint journal {}: {e}; journaling disabled for this run",
                        path.display()
                    );
                }
                broken = true;
                None
            }
        };
        Ok((Journal { path, file, broken, sync, diag }, restored))
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What [`Journal::open_with`] recovered from (all-zero when clean).
    pub fn diag(&self) -> JournalDiag {
        self.diag
    }

    /// Appends one completed summary as a CRC-framed line, then flushes
    /// (and fsyncs in sync mode) so a kill immediately after loses nothing.
    /// After the first write failure the journal goes inert: one stderr
    /// warning, then appends become no-ops.
    pub fn append(&mut self, summary: &RunSummary) {
        self.append_payload(&encode_summary(summary));
    }

    /// Frames and appends one record payload (see [`Journal::append`]).
    fn append_payload(&mut self, json: &str) {
        if self.broken {
            return;
        }
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let line = frame_line(json);
        let sync = self.sync;
        let result = file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| if sync { file.sync_data() } else { Ok(()) });
        if let Err(e) = result {
            eprintln!(
                "warning: checkpoint journal {} stopped recording: {e}",
                self.path.display()
            );
            self.broken = true;
        }
    }

    /// `true` once a write has failed and journaling has been disabled.
    pub fn is_broken(&self) -> bool {
        self.broken
    }
}

fn env_sync() -> bool {
    std::env::var("CHARLIE_JOURNAL_SYNC").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Shared (multi-worker) journals: lease records and lock-free access.
// ---------------------------------------------------------------------------
//
// A multi-worker campaign coordinates *only* through its journal file: every
// worker appends CRC-framed lease records (claim / renew / reclaim) and
// summaries with O_APPEND + fsync, and reads the whole file back to compute
// the current lease table. There are no locks and no compaction while the
// fleet is live — an atomic-rename compaction under a racing O_APPEND writer
// would strand that writer's lines in the unlinked inode. Instead:
//
// * appends are single `write(2)` calls of whole framed lines, so records
//   from different processes interleave at line granularity;
// * a worker SIGKILL'd mid-append leaves a torn tail; the next appender
//   seals it with a leading newline, isolating the fragment into one
//   corrupt (CRC-failed) line that scans simply drop;
// * duplicate summaries — possible only in the narrow window between a
//   zombie's fencing check and its append — are byte-identical re-runs of a
//   deterministic cell, and every reader keeps the first occurrence;
// * generation-dropping compaction ([`compact_shared`]) runs only once the
//   fleet is quiesced (campaign complete).

/// What a lease record announces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeaseEvent {
    /// First claim of an unowned cell: opens generation `maxgen + 1`.
    Claim,
    /// Heartbeat: the holder extends its deadline within its generation.
    Renew,
    /// Claim of a cell whose lease expired (holder SIGKILL'd, hung, or its
    /// heartbeats went stale): opens a new generation, which *fences* the
    /// old holder — a zombie's late result is refused at publish time.
    Reclaim,
}

impl LeaseEvent {
    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            LeaseEvent::Claim => "claim",
            LeaseEvent::Renew => "renew",
            LeaseEvent::Reclaim => "reclaim",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<LeaseEvent> {
        [LeaseEvent::Claim, LeaseEvent::Renew, LeaseEvent::Reclaim]
            .into_iter()
            .find(|e| e.name() == s)
    }

    /// `true` for events that open a generation (claim/reclaim); renewals
    /// only extend the deadline of a generation someone else opened.
    pub fn opens_generation(self) -> bool {
        !matches!(self, LeaseEvent::Renew)
    }
}

/// One lease line in a shared campaign journal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeaseRecord {
    /// What happened.
    pub event: LeaseEvent,
    /// Cell index into the campaign manifest's grid (the journal does not
    /// repeat the experiment; workers resolve indices through the manifest).
    pub cell: u64,
    /// The worker holding (or taking) the lease.
    pub worker: String,
    /// Fencing generation: claims and reclaims for one cell carry strictly
    /// increasing generations; a publish is valid only while its generation
    /// is still the cell's newest.
    pub gen: u64,
    /// Absolute wall-clock deadline (Unix milliseconds). Past it, any peer
    /// may reclaim the cell.
    pub deadline_ms: u64,
}

/// Encodes one lease record — unframed JSON; [`frame_line`] adds the CRC.
/// The `{"lease":` prefix is the record-type discriminator scans dispatch
/// on, so it must stay the first field.
pub fn encode_lease(l: &LeaseRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"lease\":\"{}\",\"cell\":{},", l.event.name(), l.cell);
    push_str_field(&mut s, "worker", &l.worker);
    let _ = write!(s, "\"gen\":{},\"deadline_ms\":{}}}", l.gen, l.deadline_ms);
    s
}

/// Decodes an unframed lease payload.
pub fn decode_lease(json: &str) -> Result<LeaseRecord, String> {
    let v = parse_line(json)?;
    let event_name = v.field("lease")?.str()?;
    let event = LeaseEvent::parse(event_name)
        .ok_or_else(|| format!("unknown lease event {event_name:?}"))?;
    Ok(LeaseRecord {
        event,
        cell: v.field("cell")?.num()?,
        worker: v.field("worker")?.str()?.to_owned(),
        gen: v.field("gen")?.num()?,
        deadline_ms: v.field("deadline_ms")?.num()?,
    })
}

/// `true` when a CRC-valid payload is a lease record rather than a summary.
/// A prefix test suffices because [`encode_lease`] pins `"lease"` as the
/// first field and summaries always open with `"v"`.
fn is_lease_json(json: &str) -> bool {
    json.starts_with("{\"lease\":")
}

/// Read-only parse of a shared campaign journal: everything intact, nothing
/// rewritten, no warnings — workers poll this in a loop.
#[derive(Clone, Debug, Default)]
pub struct SharedScan {
    /// First occurrence of each cell's summary, in file order (duplicates
    /// are byte-identical re-runs; see the module notes).
    pub summaries: Vec<RunSummary>,
    /// Every intact lease record, in file order — the raw material for a
    /// lease table, and for asserting generation monotonicity in tests.
    pub leases: Vec<LeaseRecord>,
    /// Summary lines dropped as duplicates of an earlier cell.
    pub duplicate_summaries: u64,
    /// Complete lines whose CRC frame failed (torn-write grafts, bit rot).
    pub corrupt_lines: u64,
    /// Bytes of an unterminated final line (a writer died mid-append).
    pub torn_tail_bytes: u64,
}

/// Scans the shared journal at `path` without modifying it. A missing file
/// is an empty scan. Damage (torn tail, CRC-failed lines) is counted and
/// skipped — the cells re-run — but a version mismatch, a config-key
/// mismatch against `expected_config`, an unreadable header, or a CRC-valid
/// line that fails to decode is a hard error: those mean the journal cannot
/// be trusted to belong to this campaign at all.
pub fn scan_shared(path: &Path, expected_config: Option<&str>) -> io::Result<SharedScan> {
    let mut content = String::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut content)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SharedScan::default()),
        Err(e) => return Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
    }
    let complete_len = content.rfind('\n').map_or(0, |i| i + 1);
    let mut scan = SharedScan {
        torn_tail_bytes: (content.len() - complete_len) as u64,
        ..SharedScan::default()
    };
    let lines: Vec<&str> =
        content[..complete_len].lines().filter(|l| !l.trim().is_empty()).collect();
    let Some((&first, records)) = lines.split_first() else {
        return Ok(scan);
    };
    let json = unframe_line(first)
        .map_err(|e| invalid_data(path, 1, format!("shared journal header unreadable: {e}")))?;
    let (version, config) = decode_journal_header(json).map_err(|e| invalid_data(path, 1, e))?;
    if version != VERSION {
        return Err(invalid_data(
            path,
            1,
            format!("journal version {version} (this build reads {VERSION})"),
        ));
    }
    if let Some(expected) = expected_config {
        if expected != config {
            return Err(invalid_data(
                path,
                1,
                format!(
                    "shared journal was written for config {config:?} but this campaign \
                     is {expected:?}; refusing to join"
                ),
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for (i, &line) in records.iter().enumerate() {
        match unframe_line(line) {
            Ok(json) if is_lease_json(json) => {
                let lease = decode_lease(json).map_err(|e| invalid_data(path, i + 2, e))?;
                scan.leases.push(lease);
            }
            Ok(json) => {
                let summary = decode_summary(json).map_err(|e| invalid_data(path, i + 2, e))?;
                if seen.insert(summary.experiment) {
                    scan.summaries.push(summary);
                } else {
                    scan.duplicate_summaries += 1;
                }
            }
            Err(_) => scan.corrupt_lines += 1,
        }
    }
    Ok(scan)
}

/// Creates the shared journal with a durable header if it does not exist
/// yet. Safe to race: exactly one creator wins `create_new`, everyone else
/// sees `AlreadyExists` and proceeds.
pub fn ensure_shared(path: &Path, config: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                io::Error::new(e.kind(), format!("creating {}: {e}", parent.display()))
            })?;
        }
    }
    match OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(f) => {
            let mut w = ChaosWriter::new(f, "journal");
            let header = encode_journal_header(config);
            w.write_all(header.as_bytes())
                .and_then(|()| w.flush())
                .and_then(|()| w.sync_data())
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
        Err(e) => Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
    }
}

/// One worker's append handle into a shared journal: O_APPEND, one
/// `write(2)` of whole framed lines per call, fsync'd before returning —
/// a lease that has not reached disk does not exist.
///
/// The handle is persistent for the worker's lifetime so chaos fault
/// offsets accumulate across appends (a `lease:torn@k` plan tears exactly
/// one record per process instead of every record crossing byte `k`).
#[derive(Debug)]
pub struct SharedAppender {
    path: PathBuf,
    file: ChaosWriter<File>,
}

impl SharedAppender {
    /// Opens an append handle; `tag` names the chaos target (`lease` for
    /// lease records, `journal` for worker-published summaries).
    pub fn open(path: &Path, tag: &str) -> io::Result<SharedAppender> {
        let f = OpenOptions::new().create(true).append(true).open(path).map_err(|e| {
            io::Error::new(e.kind(), format!("{}: {e}", path.display()))
        })?;
        Ok(SharedAppender { path: path.to_path_buf(), file: ChaosWriter::new(f, tag) })
    }

    /// Appends one or more already-framed lines (each ending in `\n`) in a
    /// single write, fsync'd. If some other process died mid-append and
    /// left the file without a trailing newline, the write leads with a
    /// sealing `\n` so the torn fragment is isolated into one corrupt line
    /// instead of swallowing this record too.
    pub fn append(&mut self, framed: &str) -> io::Result<()> {
        let sealed = tail_sealed(&self.path)?;
        let mut buf = String::with_capacity(framed.len() + 1);
        if !sealed {
            buf.push('\n');
        }
        buf.push_str(framed);
        self.file
            .write_all(buf.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", self.path.display())))
    }
}

/// `true` when the file is empty or ends with a newline.
fn tail_sealed(path: &Path) -> io::Result<bool> {
    use std::io::{Seek, SeekFrom};
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(true),
        Err(e) => return Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
    };
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    Ok(b[0] == b'\n')
}

/// Compacts a quiesced shared journal: keeps the header, the first summary
/// per cell, and — for cells not yet published — only the lease records of
/// the cell's *newest* generation. Superseded generations and the lease
/// trail of published cells are dropped; a fleet rejoining the compacted
/// journal sees exactly the state that still matters.
///
/// Must only run when no worker holds an O_APPEND handle mid-claim (the
/// campaign is complete, or a single owner remains): the atomic rename
/// would strand a racing writer's lines in the unlinked inode.
pub fn compact_shared(path: &Path, config: &str, cells: &[crate::lab::Experiment]) -> io::Result<()> {
    let scan = scan_shared(path, Some(config))?;
    let published: std::collections::HashSet<u64> = cells
        .iter()
        .enumerate()
        .filter(|(_, exp)| scan.summaries.iter().any(|s| s.experiment == **exp))
        .map(|(i, _)| i as u64)
        .collect();
    let mut newest_gen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for lease in &scan.leases {
        let slot = newest_gen.entry(lease.cell).or_insert(0);
        *slot = (*slot).max(lease.gen);
    }
    let mut out = String::with_capacity(4096);
    out.push_str(&encode_journal_header(config));
    for summary in &scan.summaries {
        out.push_str(&frame_line(&encode_summary(summary)));
    }
    for lease in &scan.leases {
        if !published.contains(&lease.cell) && Some(&lease.gen) == newest_gen.get(&lease.cell) {
            out.push_str(&frame_line(&encode_lease(lease)));
        }
    }
    chaos::write_atomic(path, out.as_bytes(), "journal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::{Experiment, Lab, ObserveSpec, RunConfig};
    use charlie_prefetch::Strategy;
    use charlie_workloads::Workload;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("charlie-checkpoint-{}-{name}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_summary() -> RunSummary {
        let mut lab = Lab::new(RunConfig {
            procs: 2,
            refs_per_proc: 500,
            seed: 11,
            ..RunConfig::default()
        });
        lab.run(Experiment::paper(Workload::Mp3d, Strategy::Pws, 16)).clone()
    }

    #[test]
    fn summary_round_trips_exactly() {
        let summary = sample_summary();
        let line = encode_summary(&summary);
        assert!(!line.contains('\n'), "journal lines are single lines");
        let back = decode_summary(&line).expect("round trip");
        assert_eq!(back, summary);
    }

    #[test]
    fn summary_with_timeline_round_trips_exactly() {
        let mut lab = Lab::new(RunConfig {
            procs: 2,
            refs_per_proc: 500,
            seed: 11,
            ..RunConfig::default()
        });
        lab.set_observe(ObserveSpec {
            sample_interval: Some(2_000),
            ..ObserveSpec::default()
        });
        let summary = lab.run(Experiment::paper(Workload::Mp3d, Strategy::Pws, 16)).clone();
        let timeline = summary.timeline.as_ref().expect("sampled run records a timeline");
        assert!(!timeline.windows.is_empty());
        let back = decode_summary(&encode_summary(&summary)).expect("round trip");
        assert_eq!(back, summary);
    }

    #[test]
    fn keyed_report_round_trips_exactly() {
        let summary = sample_summary();
        let line = encode_keyed_report("cache/Mp3d/16KB", &summary.report);
        let (key, report) = decode_keyed_report(&line).expect("round trip");
        assert_eq!(key, "cache/Mp3d/16KB");
        assert_eq!(report, summary.report);
    }

    #[test]
    fn empty_latency_distribution_round_trips() {
        // NP runs on hit-heavy traces can produce an empty fill-latency
        // distribution; its min is the u64::MAX sentinel.
        let mut summary = sample_summary();
        summary.report.fill_latency = LatencyStats::default();
        let back = decode_summary(&encode_summary(&summary)).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn hw_prefetch_stats_round_trip_and_stay_invisible_when_empty() {
        // Off runs must serialize exactly as the version-2 format did.
        let summary = sample_summary();
        assert!(summary.report.hw_prefetch.is_empty());
        assert!(!encode_summary(&summary).contains("hw_prefetch"));

        let mut with_hw = summary.clone();
        with_hw.report.hw_prefetch =
            HwPrefetchStats { trained: 7, issued: 41, useful: 23, late: 5, useless: 13 };
        let line = encode_summary(&with_hw);
        assert!(line.contains("\"hw_prefetch\""));
        let back = decode_summary(&line).expect("round trip");
        assert_eq!(back, with_hw);
    }

    #[test]
    fn update_broadcasts_round_trip_and_stay_invisible_when_zero() {
        // Write-invalidate runs must serialize exactly as before the
        // `updates` counter existed.
        let summary = sample_summary();
        assert_eq!(summary.report.bus.updates, 0);
        assert!(!encode_summary(&summary).contains("\"updates\""));

        // An update-protocol run carries the counter and round-trips it.
        let mut lab = Lab::new(RunConfig {
            procs: 2,
            refs_per_proc: 500,
            seed: 11,
            protocol: charlie_sim::Protocol::Dragon,
            ..RunConfig::default()
        });
        let dragon = lab.run(Experiment::paper(Workload::Mp3d, Strategy::Pref, 16)).clone();
        assert!(dragon.report.bus.updates > 0, "shared stores broadcast under Dragon");
        let line = encode_summary(&dragon);
        assert!(line.contains("\"updates\""));
        let back = decode_summary(&line).expect("round trip");
        assert_eq!(back, dragon);
    }

    #[test]
    fn pointer_chase_summaries_round_trip() {
        let mut lab = Lab::new(RunConfig {
            procs: 2,
            refs_per_proc: 500,
            seed: 11,
            ..RunConfig::default()
        });
        let summary =
            lab.run(Experiment::paper(Workload::PointerChase, Strategy::NoPrefetch, 16)).clone();
        let back = decode_summary(&encode_summary(&summary)).expect("round trip");
        assert_eq!(back, summary);
    }

    #[test]
    fn journal_persists_and_restores() {
        let path = temp_path("persist");
        let summary = sample_summary();
        {
            let (mut journal, restored) = Journal::open(&path).unwrap();
            assert!(restored.is_empty());
            journal.append(&summary);
        }
        let (_journal, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored, vec![summary]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_partial_line_is_dropped() {
        let path = temp_path("partial");
        let summary = sample_summary();
        let mut content = encode_journal_header("");
        content.push_str(&frame_line(&encode_summary(&summary)));
        content.push_str("0000dead {\"v\":2,\"workload\":\"Wat"); // killed mid-write
        std::fs::write(&path, &content).unwrap();
        let (journal, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 1, "complete line kept, partial dropped");
        assert!(journal.diag().torn_tail_bytes > 0);
        assert_eq!(journal.diag().corrupt_lines, 0, "torn is not corrupt");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_after_torn_tail_yields_parseable_journal() {
        let path = temp_path("torn-append");
        let summary = sample_summary();
        let mut content = encode_journal_header("");
        content.push_str(&frame_line(&encode_summary(&summary)));
        content.push_str("0000dead {\"v\":2,\"workload\":\"Wat"); // killed mid-write
        std::fs::write(&path, &content).unwrap();
        // Opening must compact the torn bytes away so this append starts on
        // a fresh line instead of grafting onto them.
        let (mut journal, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 1);
        journal.append(&summary);
        drop(journal);
        let (journal, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 2, "torn tail replaced by a clean record");
        assert_eq!(restored[0], restored[1]);
        assert!(!journal.diag().any(), "compaction left a clean journal");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_complete_line_is_dropped_and_compacted() {
        let path = temp_path("bitrot");
        let summary = sample_summary();
        let good = frame_line(&encode_summary(&summary));
        let mut content = encode_journal_header("");
        content.push_str(&good);
        // Same record again, with one payload bit flipped: a *complete*
        // line whose CRC no longer matches.
        let mut rotted = good.clone().into_bytes();
        let target = good.len() / 2;
        rotted[target] ^= 0x01;
        content.extend(String::from_utf8(rotted).unwrap().chars());
        content.push_str(&good);
        std::fs::write(&path, &content).unwrap();

        let (journal, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 2, "intact records survive around the rot");
        assert_eq!(journal.diag().corrupt_lines, 1);
        assert_eq!(journal.diag().torn_tail_bytes, 0, "corrupt is not torn");
        drop(journal);
        // The compaction rewrote the file: reopening finds it clean.
        let (journal, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 2);
        assert!(!journal.diag().any());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc_valid_but_undecodable_line_is_an_error() {
        // A line that passes its checksum but fails to decode was *written*
        // wrong — that is a bug, not wire damage, and must not be skipped.
        let path = temp_path("writer-bug");
        let mut content = encode_journal_header("");
        content.push_str(&frame_line("{\"v\":2,\"workload\":\"NoSuch\"}"));
        std::fs::write(&path, &content).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_corruption_discards_records_but_recovers() {
        let path = temp_path("bad-header");
        let summary = sample_summary();
        let mut content = encode_journal_header("");
        content.push_str(&frame_line(&encode_summary(&summary)));
        let mut bytes = content.into_bytes();
        bytes[3] ^= 0x10; // rot inside the header's CRC field
        std::fs::write(&path, &bytes).unwrap();

        let (mut journal, restored) = Journal::open(&path).unwrap();
        assert!(restored.is_empty(), "untrusted header discards every record");
        assert!(journal.diag().header_discarded);
        journal.append(&summary);
        drop(journal);
        let (journal, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 1, "journal restarted cleanly");
        assert!(!journal.diag().any());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_is_an_error() {
        let path = temp_path("version");
        std::fs::write(&path, frame_line("{\"charlie_journal\":99,\"config\":\"\"}")).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pre_crc_v1_journal_is_refused_by_version() {
        let path = temp_path("v1");
        std::fs::write(&path, "{\"v\":1,\"workload\":\"water\"}\n").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_key_mismatch_is_refused() {
        let path = temp_path("config-key");
        let opts = |key: &str| JournalOptions { config: Some(key.to_string()), sync: false };
        {
            let (mut journal, _) = Journal::open_with(&path, opts("sweep/water/p2")).unwrap();
            journal.append(&sample_summary());
        }
        let err = Journal::open_with(&path, opts("sweep/mp3d/p8")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let text = err.to_string();
        assert!(text.contains("sweep/water/p2") && text.contains("sweep/mp3d/p8"), "{text}");
        assert!(text.contains("refusing to resume"), "{text}");
        // The matching key still resumes, and an un-keyed open stays
        // compatible with any journal.
        let (_, restored) = Journal::open_with(&path, opts("sweep/water/p2")).unwrap();
        assert_eq!(restored.len(), 1);
        let (_, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_mode_appends_are_readable_back() {
        let path = temp_path("sync");
        let summary = sample_summary();
        {
            let (mut journal, _) = Journal::open_with(
                &path,
                JournalOptions { config: None, sync: true },
            )
            .unwrap();
            journal.append(&summary);
            assert!(!journal.is_broken());
        }
        let (_, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored, vec![summary]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frame_round_trips_and_rejects_damage() {
        let line = frame_line("{\"k\":1}");
        assert!(line.ends_with('\n'));
        assert_eq!(unframe_line(line.trim_end()).unwrap(), "{\"k\":1}");
        assert!(unframe_line("{\"k\":1}").is_err(), "unframed line rejected");
        assert!(unframe_line("deadbeef {\"k\":1}").unwrap_err().contains("mismatch"));
        assert!(unframe_line("xyz {\"k\":1}").is_err(), "short checksum rejected");
    }

    #[test]
    fn keys_with_quotes_and_backslashes_survive() {
        let report = SimReport::default();
        let line = encode_keyed_report("odd \"key\" with \\ slash", &report);
        let (key, _) = decode_keyed_report(&line).unwrap();
        assert_eq!(key, "odd \"key\" with \\ slash");
    }

    /// A keyed journal for campaign `cfg` holding `keys`, written through
    /// [`KeyedJournal::append`]; returns the file's bytes.
    fn keyed_journal(path: &Path, cfg: &str, keys: &[&str]) -> Vec<u8> {
        let report = sample_summary().report;
        let mut journal = KeyedJournal::open(path, cfg).unwrap();
        for key in keys {
            journal.append(key, &report);
        }
        drop(journal);
        std::fs::read(path).unwrap()
    }

    #[test]
    fn keyed_lines_keep_their_format() {
        let path = temp_path("keyed-format");
        let report = sample_summary().report;
        let bytes = keyed_journal(&path, "config_sweep/p2", &["cache/Mp3d/16KB"]);
        let mut expected = encode_journal_header("config_sweep/p2");
        expected.push_str(&frame_line(&encode_keyed_report("cache/Mp3d/16KB", &report)));
        assert_eq!(String::from_utf8(bytes).unwrap(), expected);
        let journal = KeyedJournal::open(&path, "config_sweep/p2").unwrap();
        assert_eq!(journal.done()["cache/Mp3d/16KB"], report);
        assert!(!journal.diag().any());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_torn_tail_is_dropped_and_compacted() {
        let path = temp_path("keyed-torn");
        let mut bytes = keyed_journal(&path, "k", &["a", "b"]);
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();
        let journal = KeyedJournal::open(&path, "k").unwrap();
        assert_eq!(journal.done().keys().collect::<Vec<_>>(), ["a"]);
        assert!(journal.diag().torn_tail_bytes > 0);
        drop(journal);
        let journal = KeyedJournal::open(&path, "k").unwrap();
        assert_eq!(journal.done().len(), 1);
        assert!(!journal.diag().any(), "the torn tail was compacted away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_crc_corrupt_line_is_dropped() {
        let path = temp_path("keyed-crc");
        let bytes = keyed_journal(&path, "k", &["a", "b"]);
        let text = String::from_utf8(bytes).unwrap();
        let second = text.match_indices('\n').nth(1).unwrap().0 + 1;
        let mut bytes = text.into_bytes();
        bytes[second + 20] ^= 0x01; // inside "b"'s payload
        std::fs::write(&path, &bytes).unwrap();
        let journal = KeyedJournal::open(&path, "k").unwrap();
        assert_eq!(journal.done().keys().collect::<Vec<_>>(), ["a"]);
        assert_eq!(journal.diag().corrupt_lines, 1);
        assert_eq!(journal.diag().torn_tail_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_config_mismatch_is_refused() {
        let path = temp_path("keyed-config");
        keyed_journal(&path, "config_sweep/p2/r900", &["a"]);
        let err = KeyedJournal::open(&path, "config_sweep/p2/r1000").err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("refusing to resume"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_crc_valid_undecodable_line_is_an_error() {
        let path = temp_path("keyed-undecodable");
        let mut content = encode_journal_header("k");
        content.push_str(&frame_line("{\"v\":2,\"key\":\"a\"}"));
        std::fs::write(&path, &content).unwrap();
        let err = KeyedJournal::open(&path, "k").err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "names the line: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_unreadable_header_restarts_fresh() {
        let path = temp_path("keyed-header");
        let mut bytes = keyed_journal(&path, "k", &["a"]);
        bytes[3] ^= 0x10; // rot inside the header's CRC field
        std::fs::write(&path, &bytes).unwrap();
        let mut journal = KeyedJournal::open(&path, "k").unwrap();
        assert!(journal.done().is_empty(), "untrusted header discards every record");
        assert!(journal.diag().header_discarded);
        journal.append("b", &SimReport::default());
        drop(journal);
        let journal = KeyedJournal::open(&path, "k").unwrap();
        assert_eq!(journal.done().keys().collect::<Vec<_>>(), ["b"]);
        assert!(!journal.diag().any());
        let _ = std::fs::remove_file(&path);
    }

    fn lease(event: LeaseEvent, cell: u64, worker: &str, gen: u64, deadline_ms: u64) -> LeaseRecord {
        LeaseRecord { event, cell, worker: worker.to_owned(), gen, deadline_ms }
    }

    #[test]
    fn lease_records_round_trip_and_are_recognized() {
        for event in [LeaseEvent::Claim, LeaseEvent::Renew, LeaseEvent::Reclaim] {
            let rec = lease(event, 42, "w-\"quoted\"-7", 3, 1_754_555_555_000);
            let json = encode_lease(&rec);
            assert!(is_lease_json(&json), "{json} must carry the lease discriminator");
            assert!(!is_lease_json(&encode_summary(&sample_summary())));
            assert_eq!(decode_lease(&json).unwrap(), rec);
            assert_eq!(LeaseEvent::parse(event.name()), Some(event));
        }
        assert!(LeaseEvent::Claim.opens_generation());
        assert!(LeaseEvent::Reclaim.opens_generation());
        assert!(!LeaseEvent::Renew.opens_generation());
        assert!(decode_lease("{\"lease\":\"vanish\",\"cell\":1}").is_err());
    }

    /// A single-worker resume ignores lease records but keeps them through
    /// compaction, so a fleet rejoining the journal still sees its history.
    #[test]
    fn open_with_skips_and_preserves_lease_lines() {
        let path = temp_path("lease-skip");
        let summary = sample_summary();
        ensure_shared(&path, "cfg").unwrap();
        let mut app = SharedAppender::open(&path, "lease").unwrap();
        app.append(&frame_line(&encode_lease(&lease(LeaseEvent::Claim, 0, "w1", 1, 500)))).unwrap();
        app.append(&frame_line(&encode_summary(&summary))).unwrap();
        // Torn tail: force a rewrite so compaction provably keeps the lease.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"deadbeef {\"torn").unwrap();
        }
        let opts = JournalOptions { config: Some("cfg".to_owned()), sync: false };
        let (journal, restored) = Journal::open_with(&path, opts).unwrap();
        drop(journal);
        assert_eq!(restored, vec![summary.clone()]);
        let scan = scan_shared(&path, Some("cfg")).unwrap();
        assert_eq!(scan.leases.len(), 1, "compaction preserved the lease record");
        assert_eq!(scan.summaries, vec![summary]);
        let _ = std::fs::remove_file(&path);
    }

    /// Compaction keeps only the newest generation of unpublished cells and
    /// drops the whole lease trail of published ones.
    #[test]
    fn compact_shared_drops_superseded_generations() {
        let path = temp_path("lease-compact");
        let summary = sample_summary();
        let cells = [summary.experiment, Experiment::paper(Workload::Water, Strategy::NoPrefetch, 16)];
        ensure_shared(&path, "cfg").unwrap();
        let mut app = SharedAppender::open(&path, "lease").unwrap();
        // Cell 0 gets published; cell 1 is claimed, dies, and is reclaimed.
        app.append(&frame_line(&encode_lease(&lease(LeaseEvent::Claim, 0, "w1", 1, 100)))).unwrap();
        app.append(&frame_line(&encode_lease(&lease(LeaseEvent::Claim, 1, "w2", 1, 100)))).unwrap();
        app.append(&frame_line(&encode_lease(&lease(LeaseEvent::Renew, 1, "w2", 1, 200)))).unwrap();
        app.append(&frame_line(&encode_summary(&summary))).unwrap();
        app.append(&frame_line(&encode_lease(&lease(LeaseEvent::Reclaim, 1, "w3", 2, 900)))).unwrap();
        compact_shared(&path, "cfg", &cells).unwrap();
        let scan = scan_shared(&path, Some("cfg")).unwrap();
        assert_eq!(scan.summaries, vec![summary]);
        assert_eq!(scan.leases, vec![lease(LeaseEvent::Reclaim, 1, "w3", 2, 900)]);
        // Compacting again is a no-op fixed point.
        compact_shared(&path, "cfg", &cells).unwrap();
        let again = scan_shared(&path, Some("cfg")).unwrap();
        assert_eq!(again.leases, scan.leases);
        assert_eq!(again.summaries, scan.summaries);
        let _ = std::fs::remove_file(&path);
    }

    /// A worker SIGKILL'd mid-append leaves a torn tail; the next appender
    /// seals it so exactly one corrupt line is lost and its own record
    /// survives, and duplicate summaries keep the first occurrence.
    #[test]
    fn shared_appends_seal_torn_tails_and_dedupe_summaries() {
        let path = temp_path("lease-seal");
        let summary = sample_summary();
        ensure_shared(&path, "cfg").unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"0bad0bad {\"lease\":\"claim\",\"cell\":9").unwrap();
        }
        let mut app = SharedAppender::open(&path, "lease").unwrap();
        app.append(&frame_line(&encode_lease(&lease(LeaseEvent::Claim, 3, "w1", 1, 50)))).unwrap();
        app.append(&frame_line(&encode_summary(&summary))).unwrap();
        app.append(&frame_line(&encode_summary(&summary))).unwrap();
        let scan = scan_shared(&path, Some("cfg")).unwrap();
        assert_eq!(scan.corrupt_lines, 1, "the torn fragment became one corrupt line");
        assert_eq!(scan.torn_tail_bytes, 0);
        assert_eq!(scan.leases, vec![lease(LeaseEvent::Claim, 3, "w1", 1, 50)]);
        assert_eq!(scan.summaries.len(), 1);
        assert_eq!(scan.duplicate_summaries, 1, "re-published cells keep the first copy");
        let _ = std::fs::remove_file(&path);
    }

    /// Joining a journal written for a different campaign config is refused
    /// outright; a missing journal scans as empty.
    #[test]
    fn scan_shared_rejects_foreign_configs() {
        let path = temp_path("lease-foreign");
        assert!(scan_shared(&path, Some("cfg")).unwrap().summaries.is_empty());
        ensure_shared(&path, "cfg-a").unwrap();
        ensure_shared(&path, "cfg-b").unwrap(); // second create is a no-op...
        assert!(scan_shared(&path, Some("cfg-a")).is_ok());
        let err = scan_shared(&path, Some("cfg-b")).unwrap_err();
        assert!(err.to_string().contains("refusing to join"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
