//! Simulator configuration.

use charlie_bus::BusConfig;
use charlie_cache::CacheGeometry;
use charlie_prefetch::HwPrefetchConfig;
use charlie_trace::{Addr, BarrierId, LockId};
use std::fmt;

/// Coherence policy of the simulated machine. The state machines live in
/// [`charlie_cache::protocol`]; re-exported here because the simulator's
/// configuration is where users select one.
pub use charlie_cache::Protocol;

/// Base of the address region the simulator maps lock variables into. One
/// cache line per lock, so locks never falsely share. Workload generators
/// must keep data out of `0xF000_0000..=0xFFFF_FFFF`.
pub const LOCK_REGION_BASE: u64 = 0xF000_0000;

/// Base of the region holding the barrier counter and flag lines.
pub const BARRIER_REGION_BASE: u64 = 0xF800_0000;

/// Full configuration of one simulation run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SimConfig {
    /// Number of processors; must match the trace.
    pub num_procs: usize,
    /// Per-processor data-cache geometry (the paper: 32 KB direct-mapped,
    /// 32-byte blocks).
    pub geometry: CacheGeometry,
    /// Memory-subsystem timing.
    pub bus: BusConfig,
    /// Depth of the lockup-free prefetch instruction buffer (the paper: 16,
    /// "sufficiently large to almost always prevent the processor from
    /// stalling").
    pub prefetch_buffer_depth: usize,
    /// Arbitrate prefetch fills at *demand* priority instead of the paper's
    /// "round-robin arbitration scheme that favors blocking loads over
    /// prefetches". Off by default; the `ablation_priority` binary measures
    /// what that design choice is worth.
    pub prefetch_demand_priority: bool,
    /// Retire this many demand accesses machine-wide before statistics start
    /// counting (caches warm up; execution continues unchanged). The paper's
    /// 2M-reference traces made warm-up negligible; short runs benefit from
    /// excluding the cold-start transient. 0 disables.
    pub warmup_accesses: u64,
    /// Entries in a per-processor fully-associative victim buffer (Jouppi),
    /// the remedy the paper's §4.3 suggests for prefetch-induced conflicts.
    /// 0 (the default and the paper's configuration) disables it.
    pub victim_entries: usize,
    /// Coherence policy (the paper's machine is write-invalidate).
    pub protocol: Protocol,
    /// On-line hardware prefetcher attached to each processor (see
    /// `charlie_prefetch::hw`). [`HwPrefetchConfig::OFF`] — the default and
    /// the paper's machine — takes the zero-cost path: behaviour and
    /// reports are bit-identical to a build without the hooks.
    pub hw_prefetch: HwPrefetchConfig,
    /// Watchdog: abort the run with [`SimError::BudgetExceeded`] once the
    /// scheduler has processed this many events. 0 (the default) disables
    /// the budget. The count is deterministic, so a budgeted re-run of the
    /// same trace trips at exactly the same point.
    ///
    /// [`SimError::BudgetExceeded`]: crate::SimError::BudgetExceeded
    pub max_events: u64,
    /// Wall-clock watchdog: abort the run with
    /// [`SimError::WallClockExceeded`] once it has been executing longer
    /// than this many milliseconds. 0 (the default) disables it. This
    /// complements [`max_events`](SimConfig::max_events): the event budget
    /// is deterministic but cannot catch a run that is wedged *cheaply*
    /// (few events, each pathologically slow — a paging host, a spinning
    /// I/O layer), while the wall clock catches exactly those. The check
    /// runs every 4096 events, so failure timing is approximate — and
    /// inherently nondeterministic, which is why campaigns that require
    /// bit-reproducible *failures* leave it off.
    ///
    /// [`SimError::WallClockExceeded`]: crate::SimError::WallClockExceeded
    pub wall_limit_ms: u64,
    /// Apply snoops only to the caches the engine's sharer table says can
    /// hold the line, instead of probing all `num_procs` caches on every
    /// bus grant. Pure strength reduction — results are bit-identical
    /// either way (the skipped probes are provably no-ops, and the table is
    /// cross-checked against brute-force occupancy whenever invariant
    /// checking is on). On by default; turn off to time or test the
    /// broadcast scan.
    pub snoop_filter: bool,
    /// Run the [`crate::check`] coherence invariant checker after every bus
    /// transaction (and once at end of run), failing the simulation with
    /// [`SimError::InvariantViolation`] on the first illegal protocol state.
    /// Always on in debug builds (and therefore under `cargo test`);
    /// this flag additionally enables it in release builds (`--check`).
    ///
    /// [`SimError::InvariantViolation`]: crate::SimError::InvariantViolation
    pub check_invariants: bool,
}

impl SimConfig {
    /// The paper's configuration at a given data-transfer latency.
    pub fn paper(num_procs: usize, transfer_cycles: u64) -> Self {
        SimConfig {
            num_procs,
            geometry: CacheGeometry::paper_default(),
            bus: BusConfig::paper(transfer_cycles),
            prefetch_buffer_depth: 16,
            prefetch_demand_priority: false,
            warmup_accesses: 0,
            victim_entries: 0,
            protocol: Protocol::WriteInvalidate,
            hw_prefetch: HwPrefetchConfig::OFF,
            snoop_filter: true,
            max_events: 0,
            wall_limit_ms: 0,
            check_invariants: false,
        }
    }

    /// Address of the line backing lock `id`.
    pub fn lock_addr(&self, id: LockId) -> Addr {
        Addr::new(LOCK_REGION_BASE + u64::from(id.0) * self.geometry.block_bytes())
    }

    /// Address of the barrier arrival counter. Barrier episodes reuse the
    /// same two lines (sense-reversing barrier), so `id` only selects
    /// nothing today but keeps the signature future-proof.
    pub fn barrier_counter_addr(&self, _id: BarrierId) -> Addr {
        Addr::new(BARRIER_REGION_BASE)
    }

    /// Address of the barrier release flag.
    pub fn barrier_flag_addr(&self, _id: BarrierId) -> Addr {
        Addr::new(BARRIER_REGION_BASE + self.geometry.block_bytes())
    }
}

impl Default for SimConfig {
    /// Eight processors on the paper's 8-cycle-transfer architecture.
    fn default() -> Self {
        SimConfig::paper(8, 8)
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} procs, {} cache, {}, {}-deep prefetch buffer",
            self.num_procs, self.geometry, self.bus, self.prefetch_buffer_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config() {
        let c = SimConfig::paper(8, 16);
        assert_eq!(c.num_procs, 8);
        assert_eq!(c.bus.transfer_cycles, 16);
        assert_eq!(c.prefetch_buffer_depth, 16);
        assert_eq!(c.geometry.size_bytes(), 32 * 1024);
    }

    #[test]
    fn default_matches_paper_8cycle() {
        assert_eq!(SimConfig::default(), SimConfig::paper(8, 8));
    }

    #[test]
    fn paper_config_has_no_budget_and_no_forced_checking() {
        let c = SimConfig::paper(8, 8);
        assert_eq!(c.max_events, 0);
        assert_eq!(c.wall_limit_ms, 0, "wall-clock watchdog off by default");
        assert!(!c.check_invariants);
        assert!(c.snoop_filter, "snoop filtering is on by default");
    }

    #[test]
    fn lock_addresses_one_line_apart() {
        let c = SimConfig::default();
        let a0 = c.lock_addr(LockId(0));
        let a1 = c.lock_addr(LockId(1));
        assert_eq!(a1.raw() - a0.raw(), 32);
        assert_ne!(a0.line(32), a1.line(32));
    }

    #[test]
    fn barrier_lines_distinct() {
        let c = SimConfig::default();
        let counter = c.barrier_counter_addr(BarrierId(0));
        let flag = c.barrier_flag_addr(BarrierId(0));
        assert_ne!(counter.line(32), flag.line(32));
    }
}
