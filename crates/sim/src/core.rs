//! Per-core state: issue pipeline, store queue, persist queue, write-back
//! buffer, and slots for whichever persist structures the design's engine
//! attaches ([`crate::engines::PersistEngine::setup_core`]). The two queues
//! share one persist-op type, [`PersistOp`]: StrandWeaver's persist ops
//! wait in the persist queue, those of the design without one in the store
//! queue, and either queue's head enters the strand buffer unit through
//! the one entry, [`Machine::sbu_accept`](crate::Machine::sbu_accept).

use sw_model::isa::IsaTrace;
use sw_pmem::LineAddr;

use crate::cache::L1Cache;
use crate::config::SimConfig;
use crate::persist::FlushEngine;
use crate::ring::Ring;
use crate::stats::CoreStats;
use crate::strand_buffer::{DrainTargets, Sbu};

/// A persist primitive on its way into the strand buffer unit
/// ([`crate::Machine::sbu_accept`]): an entry of the persist queue, or of
/// the store queue on the design that has no persist queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistOp {
    /// A CLWB of `line`.
    Clwb(LineAddr),
    /// A persist barrier.
    Pb,
    /// A `NewStrand`.
    Ns,
}

/// An entry in the store queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqOp {
    /// A retiring store to `line`.
    Store(LineAddr),
    /// A persist primitive waiting in the store queue, which only
    /// StrandWeaver without its persist queue routes there.
    Persist(PersistOp),
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
    pub pq: Ring<PersistOp>,
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
    /// Set while the core sleeps: no tick visits it until its wake time or
    /// a rouse (see [`Sleep`]).
    pub(crate) sleep: Option<Sleep>,
}

/// A sleeping core's record. A core sleeps after a visit in which nothing
/// of its own changed; until it wakes, every visit would change nothing
/// again and charge the same [`TickNote`](crate::machine::TickNote), so
/// the wake charges that note once for every cycle it was not visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sleep {
    /// The first cycle the core was not visited.
    pub(crate) since: u64,
    /// The cycle it wakes at by itself: its earliest pending timer, or a
    /// PM controller timer while its back-end holds work. `None` sleeps
    /// until another core's action rouses it (a lock hand-over, a
    /// coherence steal, or a change of its persist-full stall's cause).
    pub(crate) until: Option<u64>,
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
            sq: Ring::new(cfg.store_queue_entries, SqOp::Persist(PersistOp::Pb)),
            pq: Ring::new(cfg.persist_queue_entries, PersistOp::Pb),
            sbu: None,
            flush: None,
            wb: Vec::with_capacity(cfg.writeback_buffer_entries),
            l1: L1Cache::new(cfg.l1_sets, cfg.l1_ways),
            stats: CoreStats::default(),
            done: false,
            lock_queued: false,
            sleep: None,
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

    /// Calls `f` with each cycle at which one of the core's own timers
    /// fires: the end of its compute or load latency (`busy_until`, which
    /// may lie in the past), its in-flight load and store completions, and
    /// its persist structures' earliest acknowledgement.
    pub(crate) fn timers(&self, mut f: impl FnMut(u64)) {
        f(self.busy_until);
        if let Some(t) = self.load_pending.and_then(|p| p.ready_at) {
            f(t);
        }
        if let Some(t) = self.store_pending.and_then(|p| p.ready_at) {
            f(t);
        }
        if let Some(t) = self.sbu.as_ref().and_then(Sbu::min_pending_done_at) {
            f(t);
        }
        if let Some(t) = self.flush.as_ref().and_then(|e| e.min_pending_done_at()) {
            f(t);
        }
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

/// A set of core indexes, iterated in index order: one bit per core in
/// four words, enough for the 254 cores a machine allows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CoreSet {
    bits: [u64; 4],
}

impl CoreSet {
    /// The set of cores `0..n`.
    pub(crate) fn below(n: usize) -> Self {
        let mut set = Self::default();
        for i in 0..n {
            set.insert(i);
        }
        set
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// The lowest member at or above `from`. Iterating by re-asking from
    /// one past the last member sees every change made meanwhile.
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.bits.get(w)? & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.bits.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
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
    fn core_set_iterates_members_across_words() {
        let mut set = CoreSet::below(70);
        for i in [0, 5, 63, 64, 69] {
            assert!(set.contains(i));
        }
        assert!(!set.contains(70));
        for i in [1, 2, 3, 4, 6, 62, 63, 64, 65, 68] {
            set.remove(i);
        }
        let mut seen = Vec::new();
        let mut next = set.next_from(0);
        while let Some(i) = next {
            seen.push(i);
            next = set.next_from(i + 1);
        }
        let mut expected = vec![0, 5];
        expected.extend((7..62).chain([66, 67, 69]));
        assert_eq!(seen, expected);
        assert_eq!(set.next_from(256), None);
        set.insert(255);
        assert_eq!(set.next_from(70), Some(255));
    }

    #[test]
    fn clwb_in_sq_does_not_count_as_store() {
        let cfg = SimConfig::table_i();
        let mut core = Core::new(&cfg, vec![]);
        let line = LineAddr(5);
        core.sq.push_back(SqOp::Persist(PersistOp::Clwb(line)));
        assert!(!core.sq_has_store_to(line));
    }
}
