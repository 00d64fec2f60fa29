//! Functional execution context: executes PM programs while recording both
//! the formal-model execution (for crash-state sampling) and per-thread ISA
//! traces (for the timing simulator).

use sw_model::isa::{FenceKind, IsaOp, IsaTrace, LockId};
use sw_model::{Execution, OpKind, OpRef, Program, ThreadId};
use sw_pmem::{Addr, Memory, PmLayout};

use crate::heap::HeapState;
use crate::mce::{MceError, MceUnit};

/// Per-context instruction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtxStats {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed (persistent and volatile).
    pub stores: u64,
    /// Stores to persistent addresses.
    pub pm_stores: u64,
    /// CLWB flushes issued.
    pub clwbs: u64,
    /// Fences issued, of any kind.
    pub fences: u64,
    /// Lock acquisitions.
    pub locks: u64,
}

/// A functional executor for multi-threaded PM programs.
///
/// The crash-consistency tests in this workspace are *execution-recording*:
/// a workload runs once against `FuncCtx` (single-threaded, with the driver
/// interleaving logical threads at operation granularity); the context
/// applies every access to a [`Memory`] so data-dependent control flow sees
/// real values, and records
///
/// 1. a [`Program`] + global order (the witnessed VMO) for
///    [`Pmo::compute`](sw_model::Pmo::compute), and
/// 2. one [`IsaTrace`] per thread for the timing simulator.
///
/// Program recording can be disabled ([`FuncCtx::set_record_program`]) for
/// large benchmark runs where only the ISA traces are needed.
#[derive(Debug)]
pub struct FuncCtx {
    mem: Memory,
    program: Program,
    order: Vec<OpRef>,
    traces: Vec<IsaTrace>,
    stats: CtxStats,
    record_program: bool,
    next_seq: u64,
    /// Armed poisoned lines + pending machine-check trap (see [`mce`]).
    ///
    /// [`mce`]: crate::mce
    mce: Option<Box<MceUnit>>,
    /// Volatile state of the persistent buddy allocator (see [`heap`]).
    ///
    /// [`heap`]: crate::heap
    heap: HeapState,
}

impl FuncCtx {
    /// Creates a context for `threads` logical threads over a fresh memory.
    ///
    /// The heap pools are formatted here (magic word in each pool
    /// header) through raw memory stores: the headers persist with the
    /// caller's baseline image without appearing in any trace.
    pub fn new(layout: PmLayout, threads: usize) -> Self {
        let heap = HeapState::new(&layout);
        let mut mem = Memory::new(layout.clone());
        for p in 0..layout.heap_pools() {
            mem.store(layout.pool_meta_base(p), sw_pmem::HEAP_MAGIC);
        }
        Self {
            mem,
            program: Program::new(threads),
            order: Vec::new(),
            traces: vec![Vec::new(); threads],
            stats: CtxStats::default(),
            record_program: true,
            next_seq: 1,
            mce: None,
            heap,
        }
    }

    /// The persistent allocator's volatile state.
    pub fn heap_state(&self) -> &HeapState {
        &self.heap
    }

    /// Mutable allocator state (used by [`heap`](crate::heap) and
    /// recovery, which swaps in the rebuilt state).
    pub fn heap_state_mut(&mut self) -> &mut HeapState {
        &mut self.heap
    }

    /// Arms machine-check delivery for `lines` (raw `LineAddr` values):
    /// the first load touching an armed persistent line trips a pending
    /// [`MceError`], collected via [`take_mce`]. Each line trips at most
    /// once. Calling again adds to the armed set.
    ///
    /// [`take_mce`]: FuncCtx::take_mce
    pub fn arm_mce(&mut self, lines: impl IntoIterator<Item = u64>) {
        let unit = self.mce.get_or_insert_with(Default::default);
        unit.armed.extend(lines);
    }

    /// Delivers the pending machine-check trap, if any (oldest first).
    pub fn take_mce(&mut self) -> Option<MceError> {
        self.mce.as_mut().and_then(|u| u.pending.take())
    }

    /// Enables or disables formal-model program recording (ISA traces are
    /// always recorded). Disable for long benchmark runs.
    pub fn set_record_program(&mut self, record: bool) {
        self.record_program = record;
    }

    /// Number of logical threads.
    pub fn num_threads(&self) -> usize {
        self.traces.len()
    }

    /// The memory being executed against.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory (used by test setup and recovery).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Instruction counters.
    pub fn stats(&self) -> CtxStats {
        self.stats
    }

    /// A monotonically increasing sequence number (used to timestamp log
    /// entries; a logical clock shared by all threads of the context).
    pub fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// The most recently issued sequence number (0 if none yet).
    pub fn current_seq(&self) -> u64 {
        self.next_seq - 1
    }

    fn record(&mut self, tid: usize, kind: OpKind) {
        if self.record_program {
            let index = self.program.push(tid, kind);
            self.order.push(OpRef {
                thread: ThreadId(tid),
                index,
            });
        }
    }

    /// Executes a load on thread `tid` and returns the value.
    pub fn load(&mut self, tid: usize, addr: Addr) -> u64 {
        self.stats.loads += 1;
        self.traces[tid].push(IsaOp::Load(addr));
        if let Some(unit) = self.mce.as_mut() {
            let line = addr.line().raw();
            if unit.armed.contains(&line) && self.mem.layout().is_persistent(addr) {
                let op_index = self.stats.loads;
                unit.trip(tid, line, op_index);
            }
        }
        // Loads never contribute persist-order edges (Figure 2(g,h)), so
        // they are kept out of the recorded program to bound PMO size.
        self.mem.load(addr)
    }

    /// Executes a store on thread `tid`.
    pub fn store(&mut self, tid: usize, addr: Addr, value: u64) {
        self.stats.stores += 1;
        self.traces[tid].push(IsaOp::Store(addr));
        if self.mem.layout().is_persistent(addr) {
            self.stats.pm_stores += 1;
            self.record(tid, OpKind::Store { addr, value });
        }
        self.mem.store(addr, value);
    }

    /// Issues a CLWB for the line containing `addr` on thread `tid`.
    ///
    /// Functionally a no-op (when a line actually drains is decided by the
    /// crash sampler / simulator); recorded in the ISA trace for timing.
    pub fn clwb(&mut self, tid: usize, addr: Addr) {
        self.stats.clwbs += 1;
        self.traces[tid].push(IsaOp::Clwb(addr));
    }

    /// Issues a persist-ordering fence on thread `tid`.
    pub fn fence(&mut self, tid: usize, kind: FenceKind) {
        self.stats.fences += 1;
        self.traces[tid].push(IsaOp::Fence(kind));
        self.record(tid, kind.op_kind());
    }

    /// Acquires `lock` on thread `tid`.
    ///
    /// The functional driver interleaves threads at region granularity, so
    /// acquisition always succeeds here; the timing simulator arbitrates.
    pub fn lock(&mut self, tid: usize, lock: LockId) {
        self.stats.locks += 1;
        self.traces[tid].push(IsaOp::Lock(lock));
    }

    /// Releases `lock` on thread `tid`.
    pub fn unlock(&mut self, tid: usize, lock: LockId) {
        self.traces[tid].push(IsaOp::Unlock(lock));
    }

    /// Records `cycles` of non-memory work on thread `tid`.
    pub fn compute(&mut self, tid: usize, cycles: u32) {
        self.traces[tid].push(IsaOp::Compute(cycles));
    }

    /// The witnessed execution (program + global order) recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if program recording was disabled.
    pub fn execution(&self) -> Execution {
        assert!(self.record_program, "program recording is disabled");
        Execution::new(self.program.clone(), self.order.clone())
    }

    /// The per-thread ISA traces recorded so far.
    pub fn traces(&self) -> &[IsaTrace] {
        &self.traces
    }

    /// Discards the ISA traces recorded so far (e.g. the setup phase, so a
    /// timing run measures steady state only). The formal program, memory,
    /// and statistics are unaffected.
    pub fn reset_traces(&mut self) {
        for t in &mut self.traces {
            t.clear();
        }
    }

    /// Consumes the context, returning the per-thread ISA traces.
    pub fn into_traces(self) -> Vec<IsaTrace> {
        self.traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> (FuncCtx, Addr) {
        let layout = PmLayout::default();
        let heap = layout.heap_base();
        (FuncCtx::new(layout, 2), heap)
    }

    #[test]
    fn stores_and_loads_hit_memory() {
        let (mut c, a) = ctx();
        c.store(0, a, 7);
        assert_eq!(c.load(1, a), 7);
    }

    #[test]
    fn execution_records_pm_stores_and_fences_only() {
        let (mut c, a) = ctx();
        let volatile = c.mem().layout().volatile_region().base;
        c.store(0, a, 1);
        c.store(0, volatile, 2); // volatile: not in the formal program
        c.load(0, a); // loads: not in the formal program
        c.clwb(0, a); // clwb: not in the formal program
        c.fence(0, FenceKind::PersistBarrier);
        let e = c.execution();
        assert_eq!(e.len(), 2);
        assert_eq!(e.kind_at(0), OpKind::Store { addr: a, value: 1 });
        assert_eq!(e.kind_at(1), OpKind::PersistBarrier);
    }

    #[test]
    fn traces_record_everything_per_thread() {
        let (mut c, a) = ctx();
        c.store(0, a, 1);
        c.clwb(0, a);
        c.lock(1, LockId(3));
        c.compute(1, 10);
        c.unlock(1, LockId(3));
        assert_eq!(c.traces()[0], vec![IsaOp::Store(a), IsaOp::Clwb(a)]);
        assert_eq!(
            c.traces()[1],
            vec![
                IsaOp::Lock(LockId(3)),
                IsaOp::Compute(10),
                IsaOp::Unlock(LockId(3))
            ]
        );
    }

    #[test]
    fn stats_count_instruction_classes() {
        let (mut c, a) = ctx();
        c.store(0, a, 1);
        c.clwb(0, a);
        c.fence(0, FenceKind::Sfence);
        c.load(0, a);
        c.lock(0, LockId(0));
        let s = c.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.pm_stores, 1);
        assert_eq!(s.clwbs, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.locks, 1);
    }

    #[test]
    fn seq_is_monotonic() {
        let (mut c, _) = ctx();
        let a = c.next_seq();
        let b = c.next_seq();
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "recording is disabled")]
    fn execution_unavailable_when_recording_disabled() {
        let (mut c, a) = ctx();
        c.set_record_program(false);
        c.store(0, a, 1);
        let _ = c.execution();
    }

    #[test]
    fn interleaved_execution_order_is_preserved() {
        let (mut c, a) = ctx();
        c.store(0, a, 1);
        c.store(1, a.offset_words(8), 2);
        c.store(0, a.offset_words(16), 3);
        let e = c.execution();
        assert_eq!(e.op_ref_at(0).thread, ThreadId(0));
        assert_eq!(e.op_ref_at(1).thread, ThreadId(1));
        assert_eq!(e.op_ref_at(2).thread, ThreadId(0));
    }
}
