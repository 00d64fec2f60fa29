//! Per-core state: issue pipeline, store queue, persist queue, write-back
//! buffer, and slots for whichever persist structures the design's engine
//! attaches ([`crate::engines::PersistEngine::setup_core`]).

use sw_model::isa::IsaTrace;
use sw_pmem::LineAddr;

use crate::cache::L1Cache;
use crate::config::SimConfig;
use crate::persist::FlushEngine;
use crate::ring::Ring;
use crate::stats::CoreStats;
use crate::strand_buffer::{DrainTargets, Sbu};

/// An entry in the store queue. The no-persist-queue design routes persist
/// primitives through the store queue, so they appear here too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqOp {
    /// A retiring store to `line`.
    Store(LineAddr),
    /// A CLWB flowing through the store queue (no-persist-queue design).
    Clwb(LineAddr),
    /// A persist barrier in the store queue (no-persist-queue design).
    Pb,
    /// A `NewStrand` in the store queue (no-persist-queue design).
    Ns,
}

/// An entry in the persist queue (full StrandWeaver design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqOp {
    /// A CLWB awaiting issue to the strand buffer unit.
    Clwb(LineAddr),
    /// A persist barrier.
    Pb,
    /// A `NewStrand`.
    Ns,
}

/// A memory access in flight (load issue or store retirement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingAccess {
    /// The line being accessed.
    pub line: LineAddr,
    /// Whether the access writes.
    pub write: bool,
    /// Completion cycle once known; `None` while a coherence steal is in
    /// flight.
    pub ready_at: Option<u64>,
}

/// A write-back of a dirty persistent line, gated on the strand buffer
/// unit draining past the tail indexes recorded at initiation (Section IV,
/// "Managing cache writebacks").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Line being written back.
    pub line: LineAddr,
    /// Strand-buffer drain targets recorded when the write-back began
    /// (`None` when the design has no strand buffers).
    pub targets: Option<DrainTargets>,
}

/// One core of the simulated machine.
#[derive(Debug)]
pub struct Core {
    /// The dynamic instruction trace to replay.
    pub trace: IsaTrace,
    /// Next trace index to issue.
    pub pc: usize,
    /// The core cannot issue before this cycle (compute / load latency).
    pub busy_until: u64,
    /// In-flight load (at most one; loads block the pipeline).
    pub load_pending: Option<PendingAccess>,
    /// In-flight store retirement (head of the store queue).
    pub store_pending: Option<PendingAccess>,
    /// A completion fence (SFENCE / JoinStrand / dfence) whose condition is
    /// not yet met. Memory-ordering instructions (stores, CLWBs, fences,
    /// lock operations) stall behind it; compute and loads proceed, as on
    /// an out-of-order core where these fences order only stores.
    pub pending_fence: Option<sw_model::isa::FenceKind>,
    /// Store queue (fixed capacity: `SimConfig::store_queue_entries`).
    pub sq: Ring<SqOp>,
    /// Persist queue (StrandWeaver design only; empty otherwise; fixed
    /// capacity: `SimConfig::persist_queue_entries`).
    pub pq: Ring<PqOp>,
    /// Strand buffer unit (StrandWeaver / no-persist-queue / HOPS).
    pub sbu: Option<Sbu>,
    /// Outstanding-flush engine (Intel / non-atomic).
    pub flush: Option<FlushEngine>,
    /// Write-back buffer.
    pub wb: Vec<Writeback>,
    /// Private L1 data cache.
    pub l1: L1Cache,
    /// Counters.
    pub stats: CoreStats,
    /// Set once the trace has fully issued and all queues drained.
    pub done: bool,
    /// Set while the core sits in a lock's waiter ring (a core waits on
    /// at most one lock at a time).
    pub(crate) lock_queued: bool,
    /// Set while the core is parked on a lock: queued, with an idle
    /// back-end, so no tick visits it until the lock's release wakes it.
    /// Holds the first cycle it was not visited, from which the wake
    /// charges its lock stall cycles.
    pub(crate) parked_since: Option<u64>,
}

impl Core {
    /// Creates a core for `trace` under `cfg`; the persist engines are
    /// attached by the machine according to the hardware design.
    pub fn new(cfg: &SimConfig, trace: IsaTrace) -> Self {
        Self {
            trace,
            pc: 0,
            busy_until: 0,
            load_pending: None,
            store_pending: None,
            pending_fence: None,
            sq: Ring::new(cfg.store_queue_entries, SqOp::Pb),
            pq: Ring::new(cfg.persist_queue_entries, PqOp::Pb),
            sbu: None,
            flush: None,
            wb: Vec::with_capacity(cfg.writeback_buffer_entries),
            l1: L1Cache::new(cfg.l1_sets, cfg.l1_ways),
            stats: CoreStats::default(),
            done: false,
            lock_queued: false,
            parked_since: None,
        }
    }

    /// `true` if any store in the store queue targets `line` (used to hold
    /// CLWBs until elder same-line stores retire).
    pub fn sq_has_store_to(&self, line: LineAddr) -> bool {
        self.store_pending
            .is_some_and(|p| p.write && p.line == line)
            || self
                .sq
                .iter()
                .any(|op| matches!(op, SqOp::Store(l) if *l == line))
    }

    /// `true` when every persist-side structure has drained.
    pub fn persists_drained(&self) -> bool {
        self.pq.is_empty()
            && self.sbu.as_ref().is_none_or(Sbu::is_empty)
            && self.flush.as_ref().is_none_or(FlushEngine::is_empty)
    }

    /// `true` when the store queue (including the in-flight head) is empty.
    pub fn stores_drained(&self) -> bool {
        self.sq.is_empty() && self.store_pending.is_none()
    }

    /// `true` when no back-end structure holds anything: store queue,
    /// persist structures and write-back buffer are all empty.
    pub(crate) fn backend_idle(&self) -> bool {
        self.stores_drained() && self.persists_drained() && self.wb.is_empty()
    }

    /// `true` when a tick has nothing to do on this core: it is done, or
    /// parked on a lock.
    pub(crate) fn asleep(&self) -> bool {
        self.done || self.parked_since.is_some()
    }

    /// `true` when the core has issued its whole trace and drained
    /// everything.
    pub fn fully_drained(&self) -> bool {
        self.pc >= self.trace.len()
            && self.backend_idle()
            && self.load_pending.is_none()
            && self.pending_fence.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_model::isa::IsaOp;
    use sw_pmem::Addr;

    #[test]
    fn fresh_core_is_drained_but_not_done() {
        let cfg = SimConfig::table_i();
        let core = Core::new(&cfg, vec![IsaOp::Compute(5)]);
        assert!(!core.fully_drained(), "trace not yet issued");
        assert!(core.persists_drained());
        assert!(core.stores_drained());
    }

    #[test]
    fn sq_store_lookup_sees_pending_head() {
        let cfg = SimConfig::table_i();
        let mut core = Core::new(&cfg, vec![]);
        let line = Addr(0x1000_0000).line();
        assert!(!core.sq_has_store_to(line));
        core.sq.push_back(SqOp::Store(line));
        assert!(core.sq_has_store_to(line));
        core.sq.pop_front();
        core.store_pending = Some(PendingAccess {
            line,
            write: true,
            ready_at: Some(10),
        });
        assert!(core.sq_has_store_to(line));
    }

    #[test]
    fn clwb_in_sq_does_not_count_as_store() {
        let cfg = SimConfig::table_i();
        let mut core = Core::new(&cfg, vec![]);
        let line = LineAddr(5);
        core.sq.push_back(SqOp::Clwb(line));
        assert!(!core.sq_has_store_to(line));
    }
}
