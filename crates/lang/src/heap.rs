//! Language-level interface to the persistent buddy allocator.
//!
//! [`HeapHandle`] is the one place workloads acquire persistent memory
//! from: it replaces the old per-workload `heap_region().bump()`
//! boilerplate. Two disciplines share the pool metadata:
//!
//! * **Setup carves** ([`HeapHandle::alloc_lines`] /
//!   [`HeapHandle::alloc_words`] / [`HeapHandle::alloc_arena`]) bump
//!   the pool frontier exactly like the old `Bump`, so structure roots
//!   keep their historical addresses. Each carve appends an alloc
//!   record to the pool's PM journal through *raw* memory stores: the
//!   records persist with the baseline image but never enter the ISA
//!   traces or the recorded program, keeping the timing figures
//!   bit-identical.
//! * **Run-time churn** ([`ThreadRuntime::heap_alloc`] /
//!   [`ThreadRuntime::heap_free`]) allocates buddy blocks with the
//!   journal append routed through [`ThreadRuntime::store`], so the
//!   record is undo-logged with the region that performed it: if the
//!   region rolls back at recovery, the journal record rolls back with
//!   it and the allocator's durable history stays exactly the
//!   committed history.
//!
//! Freed blocks are quarantined until [`FuncCtx::heap_quiesce`], which
//! callers invoke at a point where every earlier region is durably
//! committed (e.g. right after a coordinated commit). Quiesce also
//! folds a near-full journal into a checkpoint table
//! ([`FuncCtx::heap_checkpoint`]): entries and count first, a persist
//! barrier, then the epoch word — the entries-then-commit-last
//! discipline of `sw_pmem::remap`.

use sw_model::isa::FenceKind;
use sw_pmem::{
    encode_checkpoint, Addr, BlockKind, Bump, PoolAlloc, Region, RegionKind, CACHE_LINE_BYTES,
    HEAP_JOURNAL_SLOTS,
};

use crate::ctx::FuncCtx;
use crate::runtime::ThreadRuntime;

/// Checkpoint when the journal reaches this many used slots.
pub const JOURNAL_HIGH_WATER: u64 = HEAP_JOURNAL_SLOTS - 64;

/// Volatile allocator state of every pool, owned by [`FuncCtx`].
#[derive(Debug, Clone, PartialEq)]
pub struct HeapState {
    pools: Vec<PoolAlloc>,
    /// Word-granular carve frontier per pool (absolute address), so
    /// `alloc_words` packs within lines exactly like the old `Bump`.
    word_next: Vec<Addr>,
    /// Pools quarantined by Salvage-policy recovery.
    quarantined: Vec<bool>,
}

impl HeapState {
    /// Fresh allocator state for `layout`'s pools.
    pub fn new(layout: &sw_pmem::PmLayout) -> Self {
        let pools = (0..layout.heap_pools())
            .map(|p| PoolAlloc::new(layout.pool_arena_lines(p)))
            .collect();
        let word_next = (0..layout.heap_pools())
            .map(|p| layout.pool_arena_base(p))
            .collect();
        Self {
            pools,
            word_next,
            quarantined: vec![false; layout.heap_pools()],
        }
    }

    /// The volatile state of pool `pool`.
    pub fn pool(&self, pool: usize) -> &PoolAlloc {
        &self.pools[pool]
    }

    /// Mutable volatile state of pool `pool`.
    pub fn pool_mut(&mut self, pool: usize) -> &mut PoolAlloc {
        &mut self.pools[pool]
    }

    /// Number of pools.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// `true` when some pool's journal has reached [`JOURNAL_HIGH_WATER`],
    /// so the next [`FuncCtx::heap_quiesce`] checkpoints it.
    pub fn journal_high_water(&self) -> bool {
        self.pools.iter().any(|p| p.next_slot >= JOURNAL_HIGH_WATER)
    }

    /// Rebuilds allocator state from a recovered image: each healthy
    /// pool's checkpoint table and journal replay to its live-block set;
    /// damaged pools come up empty and quarantined. Returns the raw
    /// per-pool recovery alongside the state.
    pub fn rebuild(
        img: &sw_pmem::PmImage,
        layout: &sw_pmem::PmLayout,
    ) -> (Self, sw_pmem::HeapRecovery) {
        let rec = sw_pmem::recover_heap(img, layout);
        let mut s = Self::new(layout);
        for (p, rebuilt) in rec.pools.iter().enumerate() {
            match rebuilt {
                Some(pa) => {
                    s.word_next[p] = layout
                        .pool_arena_base(p)
                        .offset_words(pa.frontier() * (CACHE_LINE_BYTES / 8));
                    s.pools[p] = pa.clone();
                }
                None => s.quarantined[p] = true,
            }
        }
        (s, rec)
    }

    /// Reclaims every live *dynamic* block not reachable from `roots`
    /// (leaks from crash-interrupted allocations whose publishing store
    /// never persisted). Volatile-only: the journal still records the
    /// allocation, so an interrupted reclaim simply re-runs — recovery
    /// stays idempotent. Returns `(pool, offset, lines)` per reclaimed
    /// block.
    pub fn reclaim_unreachable(
        &mut self,
        layout: &sw_pmem::PmLayout,
        roots: &[Addr],
    ) -> Vec<(usize, u64, u64)> {
        let rooted: std::collections::HashSet<u64> = roots.iter().map(|a| a.raw()).collect();
        let mut reclaimed = Vec::new();
        for pool in 0..self.pools.len() {
            if self.quarantined[pool] {
                continue;
            }
            let leaked: Vec<(u64, u64)> = self.pools[pool]
                .live_blocks()
                .filter(|&(off, _, kind)| {
                    kind == BlockKind::Dynamic
                        && !rooted.contains(&layout.pool_line_addr(pool, off).raw())
                })
                .map(|(off, lines, _)| (off, lines))
                .collect();
            for (off, lines) in leaked {
                self.pools[pool].free(off);
                reclaimed.push((pool, off, lines));
            }
            self.pools[pool].release_pending();
        }
        reclaimed
    }
}

/// A borrow of the context scoped to one heap pool: the allocation
/// interface workloads use during setup.
#[derive(Debug)]
pub struct HeapHandle<'a> {
    ctx: &'a mut FuncCtx,
    pool: usize,
}

impl FuncCtx {
    /// An allocation handle over pool 0 (whose arena starts at
    /// `layout.heap_base()`, preserving historical carve addresses).
    pub fn heap(&mut self) -> HeapHandle<'_> {
        self.heap_pool(0)
    }

    /// An allocation handle over pool `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is out of range.
    pub fn heap_pool(&mut self, pool: usize) -> HeapHandle<'_> {
        assert!(pool < self.heap_state().pool_count(), "pool out of range");
        HeapHandle { ctx: self, pool }
    }

    /// Releases quarantined frees back to the free lists and folds any
    /// near-full journal into a checkpoint. Must only be called when
    /// every region that allocated or freed so far is durably
    /// committed (a coordinated-commit boundary, or any point under an
    /// eager-commit model outside a region): a rollback after reuse
    /// would double-allocate.
    pub fn heap_quiesce(&mut self) {
        for pool in 0..self.heap_state().pool_count() {
            self.heap_state_mut().pool_mut(pool).release_pending();
            if self.heap_state().pool(pool).next_slot >= JOURNAL_HIGH_WATER {
                self.heap_checkpoint(pool);
            }
        }
    }

    /// Folds pool `pool`'s journal into its next checkpoint table and
    /// starts a fresh epoch. Uses recorded stores and persist barriers
    /// so crash sampling observes the entries-then-commit-last order;
    /// same quiesce precondition as [`FuncCtx::heap_quiesce`].
    pub fn heap_checkpoint(&mut self, pool: usize) {
        let layout = self.mem().layout().clone();
        let (epoch, blocks, used_slots) = {
            let p = self.heap_state().pool(pool);
            (
                p.epoch + 1,
                p.live_blocks().collect::<Vec<_>>(),
                p.next_slot,
            )
        };
        let table = layout.heap_table_base(pool, ((epoch - 1) % 2) as usize);
        let w = encode_checkpoint(epoch, &blocks);
        for &(off, v) in &w.pre {
            self.store(0, table.offset_words(off), v);
        }
        self.fence(0, FenceKind::PersistBarrier);
        for &(off, v) in &w.body {
            self.store(0, table.offset_words(off), v);
        }
        self.fence(0, FenceKind::PersistBarrier);
        self.store(0, table.offset_words(w.publish.0), w.publish.1);
        self.fence(0, FenceKind::PersistBarrier);
        // The new table is authoritative; recycle the journal. Appends
        // always land on all-zero slots, so a torn append can never
        // masquerade as corruption of a stale record.
        for slot in 0..used_slots {
            let base = layout.heap_journal_slot(pool, slot);
            for word in 0..8 {
                self.store(0, base.offset_words(word), 0);
            }
        }
        self.fence(0, FenceKind::PersistBarrier);
        {
            let p = self.heap_state_mut().pool_mut(pool);
            p.epoch = epoch;
            p.next_slot = 0;
            p.stats.checkpoints += 1;
        }
    }
}

impl<'a> HeapHandle<'a> {
    /// The pool this handle allocates from.
    pub fn pool(&self) -> usize {
        self.pool
    }

    fn arena_base(&self) -> Addr {
        self.ctx.mem().layout().pool_arena_base(self.pool)
    }

    /// Carves `lines` lines at the pool frontier and journals the carve
    /// through raw memory stores: the record persists with the baseline
    /// but stays out of the ISA traces and the recorded program. Returns
    /// the carve's line offset.
    fn carve(&mut self, lines: u64) -> u64 {
        let (off, slot, words) = {
            let p = self.ctx.heap_state_mut().pool_mut(self.pool);
            let off = p.carve(lines).expect("heap pool exhausted");
            let (slot, words) = p.journal(true, off, lines, BlockKind::Carve);
            (off, slot, words)
        };
        let base = self.ctx.mem().layout().heap_journal_slot(self.pool, slot);
        for (i, &v) in words.iter().enumerate() {
            self.ctx.mem_mut().store(base.offset_words(i as u64), v);
        }
        off
    }

    /// Carves `lines` whole cache lines at the pool frontier,
    /// line-aligned — a drop-in for `Bump::alloc_lines`.
    ///
    /// `alloc_lines(0)` is well-defined: it aligns the frontier to the
    /// next line boundary and returns it without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the pool arena is exhausted.
    pub fn alloc_lines(&mut self, lines: u64) -> Addr {
        let base = self.arena_base();
        let aligned = {
            let st = self.ctx.heap_state_mut();
            let next = st.word_next[self.pool];
            let aligned = Addr(next.raw().next_multiple_of(CACHE_LINE_BYTES));
            st.word_next[self.pool] = aligned;
            aligned
        };
        if lines == 0 {
            return aligned;
        }
        let off = self.carve(lines);
        let addr = Addr(base.raw() + off * CACHE_LINE_BYTES);
        debug_assert_eq!(addr, aligned, "carve frontier out of sync");
        self.ctx.heap_state_mut().word_next[self.pool] =
            Addr(addr.raw() + lines * CACHE_LINE_BYTES);
        addr
    }

    /// Carves `words` machine words at the word frontier, packing
    /// within partially-used lines — a drop-in for `Bump::alloc_words`.
    /// Whole lines are claimed from the pool lazily as the frontier
    /// crosses into them.
    ///
    /// `alloc_words(0)` is well-defined: it returns the current word
    /// frontier and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the pool arena is exhausted.
    pub fn alloc_words(&mut self, words: u64) -> Addr {
        let base = self.arena_base();
        let (addr, need) = {
            let st = self.ctx.heap_state_mut();
            let a = st.word_next[self.pool];
            let end = a.offset_words(words);
            st.word_next[self.pool] = end;
            let covered = st.pool(self.pool).frontier();
            let end_line = (end.raw() - base.raw()).div_ceil(CACHE_LINE_BYTES);
            (a, end_line.saturating_sub(covered))
        };
        if need > 0 {
            self.carve(need);
        }
        addr
    }

    /// Carves a `lines`-line arena block and returns a volatile bump
    /// allocator over it, for workloads that sub-allocate fixed-size
    /// nodes from a pre-sized region (hashmap, RB-tree). The whole
    /// block is one live carve in the allocator's books; the bump
    /// hands out the same sequential addresses the old whole-heap
    /// `Bump` did.
    pub fn alloc_arena(&mut self, lines: u64) -> Bump {
        let base = self.alloc_lines(lines);
        Region {
            base,
            bytes: lines * CACHE_LINE_BYTES,
            kind: RegionKind::Heap,
        }
        .bump()
    }
}

impl ThreadRuntime {
    /// Allocates a dynamic buddy block of at least `lines` lines from
    /// the calling thread's shard pool (`tid % pools`), journaling the
    /// allocation through the undo log of the current region: if the
    /// region rolls back, the allocation is reclaimed with it.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted or its journal is full (callers
    /// must reach a [`FuncCtx::heap_quiesce`] point often enough).
    pub fn heap_alloc(&mut self, ctx: &mut FuncCtx, lines: u64) -> Addr {
        let pool = self.tid() % ctx.heap_state().pool_count();
        let p = ctx.heap_state_mut().pool_mut(pool);
        let off = p.alloc(lines).expect("heap pool exhausted");
        let block = lines.max(1).next_power_of_two();
        self.heap_journal(ctx, pool, true, off, block);
        ctx.mem().layout().pool_line_addr(pool, off)
    }

    /// Frees the dynamic block at `addr`, journaling the free with the
    /// current region (rolled back together) and quarantining the
    /// block until the next [`FuncCtx::heap_quiesce`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the base of a live dynamic block.
    pub fn heap_free(&mut self, ctx: &mut FuncCtx, addr: Addr) {
        let layout = ctx.mem().layout();
        let pool = layout.pool_of(addr).expect("address outside heap arenas");
        let off = (addr.raw() - layout.pool_arena_base(pool).raw()) / CACHE_LINE_BYTES;
        let p = ctx.heap_state_mut().pool_mut(pool);
        let lines = p.free(off).expect("not a live dynamic block");
        self.heap_journal(ctx, pool, false, off, lines);
    }

    /// Journals a dynamic alloc or free through [`ThreadRuntime::store`],
    /// so the record is logged with the current region.
    fn heap_journal(
        &mut self,
        ctx: &mut FuncCtx,
        pool: usize,
        is_alloc: bool,
        off: u64,
        lines: u64,
    ) {
        let p = ctx.heap_state_mut().pool_mut(pool);
        let (slot, words) = p.journal(is_alloc, off, lines, BlockKind::Dynamic);
        let base = ctx.mem().layout().heap_journal_slot(pool, slot);
        for (i, &v) in words.iter().enumerate() {
            self.store(ctx, base.offset_words(i as u64), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::LangModel;
    use crate::runtime::RuntimeConfig;
    use sw_model::isa::LockId;
    use sw_model::HwDesign;
    use sw_pmem::{recover_heap, PmLayout};

    #[test]
    fn handle_carves_match_old_bump_addresses() {
        let layout = PmLayout::new(1, 64);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut old = layout.heap_region().bump();
        let mut h = ctx.heap();
        // Mixed word/line pattern exercising alignment.
        assert_eq!(h.alloc_lines(2), old.alloc_lines(2));
        assert_eq!(h.alloc_words(3), old.alloc_words(3));
        assert_eq!(h.alloc_words(1), old.alloc_words(1));
        assert_eq!(h.alloc_lines(1), old.alloc_lines(1));
        assert_eq!(h.alloc_lines(0), old.alloc_lines(0));
        assert_eq!(h.alloc_words(0), old.alloc_words(0));
    }

    #[test]
    fn setup_carves_persist_into_the_journal() {
        let layout = PmLayout::new(1, 64);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        ctx.heap().alloc_lines(4);
        ctx.heap().alloc_lines(2);
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        let rec = recover_heap(&img, &layout);
        assert!(rec.faults.is_empty());
        let p0 = rec.pools[0].as_ref().unwrap();
        let live: Vec<_> = p0.live_blocks().collect();
        assert_eq!(
            live,
            vec![
                (0, 4, sw_pmem::BlockKind::Carve),
                (4, 2, sw_pmem::BlockKind::Carve)
            ]
        );
        assert_eq!(p0.frontier(), 6);
    }

    #[test]
    fn carves_do_not_touch_isa_traces_or_program() {
        let layout = PmLayout::new(1, 64);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        ctx.heap().alloc_lines(4);
        ctx.heap().alloc_words(5);
        assert!(ctx.traces()[0].is_empty());
        assert_eq!(ctx.execution().len(), 0);
    }

    #[test]
    fn churn_allocs_are_region_atomic() {
        let layout = PmLayout::new(1, 256);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut rt = ThreadRuntime::new(
            &layout,
            0,
            RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn),
        );
        rt.region_begin(&mut ctx, &[LockId(0)]);
        let a = rt.heap_alloc(&mut ctx, 2);
        rt.store(&mut ctx, a, 77);
        rt.region_end(&mut ctx);
        // Committed: the alloc record must survive a full persist.
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        let rec = recover_heap(&img, &layout);
        let p0 = rec.pools[0].as_ref().unwrap();
        assert_eq!(p0.live_count(), 1);
        assert_eq!(p0.stats.allocs, 1);
    }

    #[test]
    fn free_quarantines_until_quiesce_then_coalesces() {
        let layout = PmLayout::new(1, 256);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut rt = ThreadRuntime::new(
            &layout,
            0,
            RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn),
        );
        rt.region_begin(&mut ctx, &[LockId(0)]);
        let a = rt.heap_alloc(&mut ctx, 4);
        rt.region_end(&mut ctx);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.heap_free(&mut ctx, a);
        rt.region_end(&mut ctx);
        let arena = layout.pool_arena_lines(0);
        assert_eq!(ctx.heap_state().pool(0).pending_blocks(), 1);
        assert_eq!(ctx.heap_state().pool(0).free_lines(), arena - 4);
        ctx.heap_quiesce();
        assert_eq!(ctx.heap_state().pool(0).pending_blocks(), 0);
        assert_eq!(ctx.heap_state().pool(0).free_lines(), arena);
    }

    #[test]
    fn checkpoint_folds_journal_and_survives_recovery() {
        let layout = PmLayout::new(1, 4096);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let root = ctx.heap().alloc_lines(2);
        assert_eq!(root, layout.heap_base());
        let mut rt = ThreadRuntime::new(
            &layout,
            0,
            RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn),
        );
        let mut blocks = Vec::new();
        for i in 0..8 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            let a = rt.heap_alloc(&mut ctx, 1);
            rt.store(&mut ctx, a, i);
            rt.region_end(&mut ctx);
            blocks.push(a);
        }
        ctx.heap_checkpoint(0);
        assert_eq!(ctx.heap_state().pool(0).epoch, 1);
        assert_eq!(ctx.heap_state().pool(0).next_slot, 0);
        // Post-checkpoint churn lands in the fresh epoch.
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.heap_free(&mut ctx, blocks[0]);
        rt.region_end(&mut ctx);
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        let rec = recover_heap(&img, &layout);
        assert!(rec.faults.is_empty(), "{:?}", rec.faults);
        let p0 = rec.pools[0].as_ref().unwrap();
        // carve + 8 allocs - 1 free = 8 live blocks.
        assert_eq!(p0.live_count(), 8);
        assert_eq!(p0.epoch, 1);
        assert!(p0.accounting_exact());
    }
}
