//! The model-agnostic region runtime: lifecycle, lock handling, and
//! store/load instrumentation, lowered onto a hardware design's ISA
//! primitives (Section V).
//!
//! [`ThreadRuntime::new`] reads the model's row (`LangModel::spec`) and
//! the log strategy once and picks one of three protocols; every region
//! operation then matches on it. The undo protocol is the instrumentation
//! of Figure 5:
//!
//! ```text
//! region begin:  lock; begin entry; lock-word store; CLWB; drain fence
//! per store:     log entry; CLWB(log); pairwise fence;
//!                in-place store; CLWB(data); after-update fence
//! region end:    end entry; CLWB; drain fence (JoinStrand);
//!                [commit];  lock-word store; CLWB; unlock
//! ```
//!
//! The redo protocol (Section VII) keeps each region on one strand and
//! defers its updates past a per-region commit record (see
//! [`LogStrategy`]); the log-free protocol keeps only the lock-word stamps
//! (legal only on designs that persist stores at visibility).
//!
//! The logged models differ in *when logs commit* (the paper's Section
//! VI-B "sensitivity to language-level persistency model"): TXN commits
//! eagerly at every region end that stored; SFR and ATLAS batch commits,
//! logging happens-before metadata at synchronization points and
//! committing only when the log fills. ATLAS additionally pays
//! heavier-weight bookkeeping per lock operation.
//!
//! Locks live in PM (`PmLayout::lock_addr`): acquire and release write the
//! lock word, so strong persist atomicity orders persists across threads
//! exactly as prescribed at the end of the paper's Section III.

use std::collections::HashSet;

use sw_model::isa::LockId;
use sw_pmem::{Addr, PmLayout};

use crate::ctx::FuncCtx;
use crate::formats::LogStrategy;
use crate::log::{EntryPayload, EntryType, UndoLog};
use crate::policies::LangModel;
use sw_model::HwDesign;

/// Configuration of a [`ThreadRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Hardware design to lower onto.
    pub design: HwDesign,
    /// Language-level persistency model.
    pub lang: LangModel,
    /// Write-ahead-logging strategy.
    pub strategy: LogStrategy,
    /// Live-entry threshold at which batched models commit (`None`: 3/4 of
    /// log capacity). Ignored by TXN, which commits every region.
    pub commit_threshold: Option<u64>,
    /// Record per-region write sets for the crash-consistency checker.
    pub record_regions: bool,
}

impl RuntimeConfig {
    /// A configuration with default thresholds and no region recording.
    ///
    /// # Panics
    ///
    /// Panics when `lang` may not run on `design` — log-free models
    /// require persist-at-visibility (eADR-class) hardware. Front ends
    /// (`swctl`) check [`LangModel::legal_on`] first and report the pair
    /// gracefully; reaching this assert means a driver skipped that check.
    pub fn new(design: HwDesign, lang: LangModel) -> Self {
        assert!(
            lang.legal_on(design),
            "language model '{lang}' requires a design that persists stores at visibility \
             (eADR-class); '{design}' does not"
        );
        Self {
            design,
            lang,
            strategy: LogStrategy::Undo,
            commit_threshold: None,
            record_regions: false,
        }
    }

    /// Switches to redo logging (the Section VII extension).
    pub fn redo(mut self) -> Self {
        self.strategy = LogStrategy::Redo;
        self
    }

    /// Enables region recording (used by crash tests).
    pub fn recording(mut self) -> Self {
        self.record_regions = true;
        self
    }
}

/// The write set of one failure-atomic region, as recorded for the
/// crash-consistency checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionRecord {
    /// Thread that executed the region.
    pub tid: usize,
    /// Sequence number of the region's begin entry.
    pub first_seq: u64,
    /// Sequence number of the region's end entry (the terminating entry;
    /// commit cuts fall on these).
    pub last_seq: u64,
    /// `(addr, old, new)` for every PM store in the region, in order.
    pub writes: Vec<(Addr, u64, u64)>,
}

/// The region protocol a thread runs, decided once in
/// [`ThreadRuntime::new`] from its model's row (`LangModel::spec`) and its
/// log strategy. The logged protocols carry the model's region-delimiting
/// entry types.
#[derive(Debug, Clone, Copy)]
enum Protocol {
    /// Log-free: lock-word stamps only; every store persists at visibility.
    LogFree,
    /// Undo logging (Figure 5): first-touch undo entries, in-place updates,
    /// a commit when the model's trigger fires.
    Undo { begin: EntryType, end: EntryType },
    /// Redo logging (Section VII): redo entries, a per-region commit
    /// record, deferred in-place updates, group commit when the log fills.
    Redo { begin: EntryType, end: EntryType },
}

/// Per-thread runtime: a write-ahead log plus the region state machine.
#[derive(Debug)]
pub struct ThreadRuntime {
    tid: usize,
    cfg: RuntimeConfig,
    protocol: Protocol,
    log: UndoLog,
    threshold: u64,
    locks_held: Vec<LockId>,
    in_region: bool,
    /// Undo: addresses already logged in the current region (first-touch
    /// logging: one entry per location per region; see `store`).
    logged: HashSet<Addr>,
    /// Whether the current region performed any PM store.
    region_had_stores: bool,
    /// Redo: the region's in-place updates, in order (applied after the
    /// commit record at region end).
    write_set: Vec<(Addr, u64)>,
    /// Redo: read-own-writes index over `write_set`.
    write_index: std::collections::HashMap<Addr, u64>,
    current: Option<RegionRecord>,
    records: Vec<RegionRecord>,
}

impl ThreadRuntime {
    /// Creates the runtime for thread `tid` using its log region from
    /// `layout`.
    pub fn new(layout: &PmLayout, tid: usize, cfg: RuntimeConfig) -> Self {
        let log = UndoLog::new(layout.log_region(tid), tid);
        let threshold = cfg
            .commit_threshold
            .unwrap_or(log.capacity() * 3 / 4)
            .min(log.capacity() - 2);
        let protocol = match (cfg.lang.spec().region_entries, cfg.strategy) {
            (None, _) => Protocol::LogFree,
            (Some((begin, end)), LogStrategy::Undo) => Protocol::Undo { begin, end },
            (Some((begin, end)), LogStrategy::Redo) => Protocol::Redo { begin, end },
        };
        Self {
            tid,
            cfg,
            protocol,
            log,
            threshold,
            locks_held: Vec::new(),
            in_region: false,
            logged: HashSet::new(),
            region_had_stores: false,
            write_set: Vec::new(),
            write_index: std::collections::HashMap::new(),
            current: None,
            records: Vec::new(),
        }
    }

    /// The configuration this runtime was created with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Recorded region write sets (empty unless `record_regions` is set).
    pub fn records(&self) -> &[RegionRecord] {
        &self.records
    }

    /// Consumes the runtime, returning its recorded regions.
    pub fn into_records(self) -> Vec<RegionRecord> {
        self.records
    }

    /// Live (uncommitted) log entries.
    pub fn live_log_entries(&self) -> u64 {
        self.log.live()
    }

    /// Begins a failure-atomic region, acquiring `locks` in order.
    ///
    /// # Panics
    ///
    /// Panics if a region is already open on this thread.
    pub fn region_begin(&mut self, ctx: &mut FuncCtx, locks: &[LockId]) {
        assert!(
            !self.in_region,
            "regions do not nest (outermost-only semantics)"
        );
        self.in_region = true;
        self.logged.clear();
        self.region_had_stores = false;
        self.write_set.clear();
        self.write_index.clear();
        let design = self.cfg.design;
        // The begin entry, and the fence after each lock-word stamp: the
        // strategy's call (undo drains across strands, redo stays on one);
        // log-free runtimes run on designs with no fences.
        let (begin, stamp_fence) = match self.protocol {
            Protocol::LogFree => (None, None),
            Protocol::Undo { begin, .. } => {
                (Some(begin), LogStrategy::Undo.lock_stamp_fence(design))
            }
            Protocol::Redo { begin, .. } => {
                // SPA chain stamp: strand-orders this region's commit
                // record after the previous region's (prefix property of
                // the cut).
                self.chain_stamp(ctx);
                self.emit(ctx, design.pairwise_fence());
                (Some(begin), LogStrategy::Redo.lock_stamp_fence(design))
            }
        };
        self.locks_held = locks.to_vec();
        let layout = ctx.mem().layout().clone();
        let mut first_seq = 0;
        for (i, &l) in locks.iter().enumerate() {
            ctx.lock(self.tid, l);
            let la = layout.lock_addr(l.0);
            let seq = match begin {
                Some(etype) => {
                    // Happens-before predecessor: the last release stamped
                    // on the lock word (ATLAS/SFR log it in the acquire
                    // entry).
                    let hb_pred = ctx.load(self.tid, la);
                    self.sync(ctx);
                    self.log.append(
                        ctx,
                        EntryPayload {
                            etype,
                            addr: la,
                            value: hb_pred,
                            aux: l.0 as u64,
                        },
                    )
                }
                // Log-free: no entry, but the stamp still needs a fresh
                // sequence number.
                None => {
                    self.sync(ctx);
                    ctx.next_seq()
                }
            };
            if i == 0 {
                first_seq = seq;
            }
            // Stamp and flush the lock word so conflicting persists across
            // threads are ordered by strong persist atomicity, then fence so
            // subsequent region persists are ordered after the stamp
            // (Section III, "Establishing inter-thread persist order").
            // The flush is required: hardware only orders *flushed*
            // persists at a JoinStrand/SFENCE, so an unflushed stamp would
            // leave the formal Eq. 2 edge unenforced.
            ctx.store(self.tid, la, seq);
            ctx.clwb(self.tid, la);
            self.emit(ctx, stamp_fence);
        }
        if locks.is_empty() {
            // Lock-free region (e.g. a single-threaded transaction): still
            // log the begin entry.
            self.sync(ctx);
            first_seq = match begin {
                Some(etype) => {
                    let seq = self.log.append(
                        ctx,
                        EntryPayload {
                            etype,
                            addr: Addr::NULL,
                            value: 0,
                            aux: 0,
                        },
                    );
                    self.emit(ctx, design.pairwise_fence());
                    seq
                }
                None => ctx.next_seq(),
            };
        }
        if self.cfg.record_regions {
            self.current = Some(RegionRecord {
                tid: self.tid,
                first_seq,
                last_seq: 0,
                writes: Vec::new(),
            });
        }
    }

    /// Performs a failure-atomic PM store, instrumented per the protocol:
    /// undo logs the old value, flushes the entry, pairwise-fences,
    /// updates in place, flushes, after-update-fences (Figure 5's
    /// `log_store` + update); redo appends the new value and defers the
    /// update; log-free runtimes store in place, durably at visibility.
    ///
    /// # Panics
    ///
    /// Panics if no region is open.
    pub fn store(&mut self, ctx: &mut FuncCtx, addr: Addr, value: u64) {
        assert!(self.in_region, "store outside a failure-atomic region");
        self.region_had_stores = true;
        let old = match self.protocol {
            // The design persists the store at visibility; no entry, no
            // flush, no fence. Regions are not failure-atomic — the
            // model's consistency contract is DurablePrefix.
            Protocol::LogFree => {
                let old = if self.cfg.record_regions {
                    ctx.load(self.tid, addr)
                } else {
                    0
                };
                ctx.store(self.tid, addr, value);
                old
            }
            Protocol::Undo { .. } => {
                let old = ctx.load(self.tid, addr);
                // First-touch logging: one undo entry per location per
                // region. Besides halving log traffic on overwrite-heavy
                // regions, this is required for correctness under strand
                // persistency: two same-region entries for one address
                // would sit on separate strands, unordered in PMO, and
                // recovery could roll back with an old value that was never
                // durable. With one entry per location, later updates are
                // ordered behind it by strong persist atomicity.
                if self.logged.insert(addr) {
                    self.log
                        .append(ctx, LogStrategy::Undo.encode_store(addr, old, value));
                    self.emit(ctx, self.cfg.design.pairwise_fence());
                }
                ctx.store(self.tid, addr, value);
                ctx.clwb(self.tid, addr);
                self.emit(ctx, self.cfg.design.after_update_fence());
                old
            }
            // Append the *new* value and defer the in-place update to
            // region end (after the commit record). Entries within the
            // region share the strand with no barrier between them, so they
            // drain concurrently.
            Protocol::Redo { .. } => {
                let old = if self.cfg.record_regions {
                    self.write_index
                        .get(&addr)
                        .copied()
                        .unwrap_or_else(|| ctx.load(self.tid, addr))
                } else {
                    0
                };
                self.log
                    .append(ctx, LogStrategy::Redo.encode_store(addr, old, value));
                self.write_set.push((addr, value));
                self.write_index.insert(addr, value);
                old
            }
        };
        if let Some(cur) = self.current.as_mut() {
            cur.writes.push((addr, old, value));
        }
    }

    /// Reads a word, honoring the current region's deferred write set under
    /// redo logging (read-own-writes). Equivalent to a plain context load
    /// under undo logging. Use this for all reads inside regions so
    /// workloads run unchanged under either strategy.
    pub fn load(&mut self, ctx: &mut FuncCtx, addr: Addr) -> u64 {
        if self.in_region && !self.write_index.is_empty() {
            if let Some(&v) = self.write_index.get(&addr) {
                return v;
            }
        }
        ctx.load(self.tid, addr)
    }

    /// Ends the current region: end entry, drain, commit (per the model's
    /// trigger), release locks.
    ///
    /// # Panics
    ///
    /// Panics if no region is open.
    pub fn region_end(&mut self, ctx: &mut FuncCtx) {
        assert!(self.in_region, "region_end without region_begin");
        let layout = ctx.mem().layout().clone();
        self.sync(ctx);
        let lock_aux = self.locks_held.first().map_or(0, |l| l.0 as u64);
        let end_entry = |etype| EntryPayload {
            etype,
            addr: Addr::NULL,
            value: 0,
            aux: lock_aux,
        };
        let last_seq = match self.protocol {
            // Nothing to log or commit: stamping and releasing the lock
            // words keeps the SPA ordering protocol.
            Protocol::LogFree => {
                let seq = ctx.next_seq();
                self.release_locks(ctx, &layout);
                seq
            }
            Protocol::Undo { end, .. } => {
                let seq = self.log.append(ctx, end_entry(end));
                // Persists of this region must not leak past the region end
                // (Figure 5: the region is enclosed in JoinStrand
                // operations), and must complete before the lock release is
                // visible.
                self.emit(ctx, self.cfg.design.drain_fence());
                if self.cfg.lang.commits_at_region_end(
                    self.region_had_stores,
                    self.log.live(),
                    self.threshold,
                ) {
                    self.log.commit_all(ctx, self.cfg.design);
                }
                self.release_locks(ctx, &layout);
                seq
            }
            Protocol::Redo { end, .. } => self.redo_region_end(ctx, end_entry(end), &layout),
        };
        self.in_region = false;
        if let Some(mut cur) = self.current.take() {
            cur.last_seq = last_seq;
            self.records.push(cur);
        }
    }

    /// Redo region end (the Section VII sketch): end entry, persist
    /// barrier, per-region commit record, persist barrier, deferred
    /// in-place updates, lock releases — all on this region's strand, with
    /// no durability drain. Group commit runs only when the log fills.
    /// Returns the region's commit cut.
    fn redo_region_end(&mut self, ctx: &mut FuncCtx, end: EntryPayload, layout: &PmLayout) -> u64 {
        let design = self.cfg.design;
        self.log.append(ctx, end);
        // All redo entries persist before the commit record...
        self.emit(ctx, design.pairwise_fence());
        let cut = self.log.last_seq();
        self.log.append(
            ctx,
            EntryPayload {
                etype: EntryType::Commit,
                addr: Addr::NULL,
                value: cut,
                aux: 0,
            },
        );
        // ...and the commit record persists before any in-place update.
        self.emit(ctx, design.pairwise_fence());
        // End-of-region chain stamp: with the begin stamp this gives the
        // commit records of a thread the prefix property
        // (commitrec_N ≤p endstamp_N ≤SPA≤ beginstamp_N+1 ≤p commitrec_N+1),
        // so a later durable cut always covers earlier regions' entries.
        self.chain_stamp(ctx);
        for (addr, value) in std::mem::take(&mut self.write_set) {
            ctx.store(self.tid, addr, value);
            ctx.clwb(self.tid, addr);
        }
        self.write_index.clear();
        self.release_locks(ctx, layout);
        self.emit(ctx, design.after_update_fence());
        if self.log.live() >= self.threshold {
            self.group_commit(ctx);
        }
        cut
    }

    /// Stores and flushes a fresh stamp on this thread's redo chain word.
    fn chain_stamp(&self, ctx: &mut FuncCtx) {
        let chain = ctx
            .mem()
            .layout()
            .lock_addr(REDO_CHAIN_LOCK_BASE + self.tid as u32);
        let stamp = ctx.next_seq();
        ctx.store(self.tid, chain, stamp);
        ctx.clwb(self.tid, chain);
    }

    /// Stamps, flushes, and releases the held locks in reverse acquisition
    /// order (shared tail of every region-end path).
    fn release_locks(&mut self, ctx: &mut FuncCtx, layout: &PmLayout) {
        for &l in self.locks_held.clone().iter().rev() {
            let la = layout.lock_addr(l.0);
            self.sync(ctx);
            let stamp = ctx.next_seq();
            ctx.store(self.tid, la, stamp);
            ctx.clwb(self.tid, la);
            ctx.unlock(self.tid, l);
        }
        self.locks_held.clear();
    }

    /// Redo group commit: merge all strands (everything durable), then
    /// truncate the log. The durable cut is published by
    /// [`UndoLog::discard_all`] before any entry disappears.
    fn group_commit(&mut self, ctx: &mut FuncCtx) {
        self.emit(ctx, self.cfg.design.drain_fence());
        self.log.discard_all(ctx, self.cfg.design);
    }

    /// Commits (undo) or group-commits (redo) any batched log entries: a
    /// clean shutdown. Log-free runtimes have nothing to commit.
    ///
    /// # Panics
    ///
    /// Panics if a region is still open.
    pub fn shutdown(&mut self, ctx: &mut FuncCtx) {
        assert!(!self.in_region, "shutdown inside a region");
        match self.protocol {
            Protocol::LogFree => {}
            Protocol::Undo { .. } => self.log.commit_all(ctx, self.cfg.design),
            Protocol::Redo { .. } => self.group_commit(ctx),
        }
    }

    /// Thread id this runtime belongs to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The model's bookkeeping work for one synchronization operation.
    fn sync(&self, ctx: &mut FuncCtx) {
        ctx.compute(self.tid, self.cfg.lang.spec().sync_cost);
    }

    /// Emits `fence` on this thread if the design defines one.
    fn emit(&self, ctx: &mut FuncCtx, fence: Option<sw_model::isa::FenceKind>) {
        if let Some(f) = fence {
            ctx.fence(self.tid, f);
        }
    }
}

/// Lock-word slot reserved for the coordinated-commit token chain.
pub const COMMIT_TOKEN_LOCK: u32 = 4095;
/// First lock-word slot used for per-thread redo commit-chain stamps.
pub const REDO_CHAIN_LOCK_BASE: u32 = 3800;
/// Lock-word slot holding the durable global commit cut.
pub const GLOBAL_CUT_LOCK: u32 = 4094;

/// Commits every thread's batched log under a globally consistent cut.
///
/// The batched SFR/ATLAS models must never leave a *committed* region that
/// conflicts with (or observed) an *uncommitted* earlier one — the
/// decoupled-SFR design the paper builds on prunes logs in global
/// happens-before order for exactly this reason. This function emulates
/// that pruner with a three-phase protocol whose ordering is carried by
/// strong persist atomicity on shared PM words:
///
/// 1. **Quiesce sweep** — every thread drains, then stores to a shared
///    token word. SPA chains the stores, so the final token persisting
///    implies every thread's data and log entries persisted.
/// 2. **Cut publication** — one store writes the coordination's cut
///    sequence number to the durable global-cut word (recovery reads it).
/// 3. **Discard sweep** — a second token chain orders each thread's log
///    invalidation *after* the cut publication, so entries only ever
///    disappear once the cut that covers them is durable.
///
/// A crash anywhere in the protocol leaves either: no visible cut and all
/// entries intact (full rollback of the batch), or a visible cut proving
/// all covered data durable (batch committed) — never a mixture.
///
/// Calling it again with no new appends is a no-op: neither the token
/// chain nor a new cut is published, so back-to-back coordinations (e.g. a
/// degenerate `coordination_threshold`) cannot double-commit.
///
/// # Panics
///
/// Panics if any runtime has an open region.
pub fn coordinated_commit(ctx: &mut FuncCtx, rts: &mut [ThreadRuntime]) {
    assert!(
        rts.iter().all(|rt| !rt.in_region),
        "coordinated commit with an open region"
    );
    if rts.iter().all(|rt| rt.live_log_entries() == 0) {
        return;
    }
    let layout = ctx.mem().layout().clone();
    let token = layout.lock_addr(COMMIT_TOKEN_LOCK);
    let cut_word = layout.lock_addr(GLOBAL_CUT_LOCK);
    let cut = ctx.current_seq();

    // Phase 1: quiesce sweep — data_t ≤p token_t ≤p token_{t+1} ≤p … .
    for rt in rts.iter_mut() {
        let tid = rt.tid();
        if let Some(f) = rt.cfg.design.drain_fence() {
            ctx.fence(tid, f);
        }
        let stamp = ctx.next_seq();
        ctx.store(tid, token, stamp);
        ctx.clwb(tid, token);
        if let Some(f) = rt.cfg.design.drain_fence() {
            ctx.fence(tid, f);
        }
    }

    // Phase 2: publish the cut (last thread in the chain).
    let publisher = rts.last().expect("non-empty").tid();
    let design = rts.last().expect("non-empty").cfg.design;
    ctx.store(publisher, cut_word, cut);
    ctx.clwb(publisher, cut_word);
    if let Some(f) = design.drain_fence() {
        ctx.fence(publisher, f);
    }

    // Phase 3: discard sweep. Each thread re-stores the cut word (strong
    // persist atomicity chains these after the publication) and drains
    // before invalidating, so entries only vanish once the covering cut is
    // durable.
    for rt in rts.iter_mut() {
        let tid = rt.tid();
        let design = rt.cfg.design;
        ctx.store(tid, cut_word, cut);
        ctx.clwb(tid, cut_word);
        if let Some(f) = design.drain_fence() {
            ctx.fence(tid, f);
        }
        rt.log.discard_all(ctx, design);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_model::isa::IsaOp;

    fn runtime(design: HwDesign, lang: LangModel) -> (FuncCtx, ThreadRuntime, Addr) {
        let layout = PmLayout::new(1, 256);
        let heap = layout.heap_base();
        let ctx = FuncCtx::new(layout.clone(), 1);
        let rt = ThreadRuntime::new(&layout, 0, RuntimeConfig::new(design, lang));
        (ctx, rt, heap)
    }

    #[test]
    fn txn_region_executes_stores() {
        let (mut ctx, mut rt, heap) = runtime(HwDesign::StrandWeaver, LangModel::Txn);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 7);
        rt.store(&mut ctx, heap.offset_words(8), 8);
        rt.region_end(&mut ctx);
        assert_eq!(ctx.mem().load(heap), 7);
        assert_eq!(ctx.mem().load(heap.offset_words(8)), 8);
    }

    #[test]
    fn txn_commits_eagerly() {
        let (mut ctx, mut rt, heap) = runtime(HwDesign::StrandWeaver, LangModel::Txn);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 7);
        rt.region_end(&mut ctx);
        assert_eq!(rt.live_log_entries(), 0);
    }

    #[test]
    fn read_only_region_leaves_sync_entries_uncommitted() {
        let (mut ctx, mut rt, _) = runtime(HwDesign::StrandWeaver, LangModel::Txn);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.region_end(&mut ctx);
        assert!(
            rt.live_log_entries() > 0,
            "sync entries await a later sweep"
        );
    }

    #[test]
    fn sfr_batches_commits() {
        let (mut ctx, mut rt, heap) = runtime(HwDesign::StrandWeaver, LangModel::Sfr);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 7);
        rt.region_end(&mut ctx);
        assert!(
            rt.live_log_entries() > 0,
            "SFR does not commit at region end"
        );
        rt.shutdown(&mut ctx);
        assert_eq!(rt.live_log_entries(), 0);
    }

    #[test]
    fn batched_commit_triggers_at_threshold() {
        let layout = PmLayout::new(1, 32);
        let heap = layout.heap_base();
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut cfg = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Sfr);
        cfg.commit_threshold = Some(8);
        let mut rt = ThreadRuntime::new(&layout, 0, cfg);
        for i in 0..6 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            rt.store(&mut ctx, heap.offset_words(i * 8), i);
            rt.region_end(&mut ctx);
        }
        assert!(
            rt.live_log_entries() < 8 + 4,
            "log must have committed at least once"
        );
    }

    #[test]
    fn lock_words_are_stamped_in_pm() {
        let (mut ctx, mut rt, heap) = runtime(HwDesign::StrandWeaver, LangModel::Atlas);
        let la = ctx.mem().layout().lock_addr(3);
        rt.region_begin(&mut ctx, &[LockId(3)]);
        let acquire_stamp = ctx.mem().load(la);
        assert!(acquire_stamp > 0);
        rt.store(&mut ctx, heap, 1);
        rt.region_end(&mut ctx);
        assert!(ctx.mem().load(la) > acquire_stamp, "release stamps again");
    }

    #[test]
    fn atlas_pays_more_sync_compute_than_sfr() {
        let cycles = |lang: LangModel| {
            let (mut ctx, mut rt, _) = runtime(HwDesign::StrandWeaver, lang);
            rt.region_begin(&mut ctx, &[LockId(0)]);
            rt.region_end(&mut ctx);
            ctx.traces()[0]
                .iter()
                .map(|op| match op {
                    IsaOp::Compute(c) => u64::from(*c),
                    _ => 0,
                })
                .sum::<u64>()
        };
        assert!(cycles(LangModel::Atlas) > cycles(LangModel::Sfr));
    }

    fn native() -> (FuncCtx, ThreadRuntime, Addr) {
        let layout = PmLayout::new(1, 256);
        let heap = layout.heap_base();
        let ctx = FuncCtx::new(layout.clone(), 1);
        let rt = ThreadRuntime::new(
            &layout,
            0,
            RuntimeConfig::new(HwDesign::Eadr, LangModel::Native).recording(),
        );
        (ctx, rt, heap)
    }

    #[test]
    fn native_region_executes_stores() {
        let (mut ctx, mut rt, heap) = native();
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 7);
        rt.store(&mut ctx, heap.offset_words(8), 8);
        rt.region_end(&mut ctx);
        assert_eq!(ctx.mem().load(heap), 7);
        assert_eq!(ctx.mem().load(heap.offset_words(8)), 8);
    }

    #[test]
    fn native_appends_no_log_entries() {
        let (mut ctx, mut rt, heap) = native();
        for round in 0..4u64 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            rt.store(&mut ctx, heap, round);
            rt.region_end(&mut ctx);
        }
        assert_eq!(rt.live_log_entries(), 0, "log-free: nothing ever appended");
        rt.shutdown(&mut ctx);
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        let region = ctx.mem().layout().log_region(0);
        assert!(
            crate::log::scan_log_detailed(&img, region)
                .entries
                .is_empty(),
            "log region stays empty on PM too"
        );
    }

    #[test]
    fn native_still_stamps_lock_words() {
        let (mut ctx, mut rt, heap) = native();
        let la = ctx.mem().layout().lock_addr(3);
        rt.region_begin(&mut ctx, &[LockId(3)]);
        let acquire_stamp = ctx.mem().load(la);
        assert!(acquire_stamp > 0, "SPA ordering stamp still published");
        rt.store(&mut ctx, heap, 1);
        rt.region_end(&mut ctx);
        assert!(ctx.mem().load(la) > acquire_stamp, "release stamps again");
    }

    #[test]
    fn native_records_regions_for_the_harness() {
        let (mut ctx, mut rt, heap) = native();
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 7);
        rt.region_end(&mut ctx);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 9);
        rt.region_end(&mut ctx);
        let recs = rt.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].writes, vec![(heap, 0, 7)]);
        assert_eq!(recs[1].writes, vec![(heap, 7, 9)]);
        assert!(recs[0].first_seq < recs[0].last_seq);
        assert!(recs[0].last_seq < recs[1].first_seq);
    }

    #[test]
    #[should_panic(expected = "persists stores at visibility")]
    fn native_is_rejected_on_non_eadr_designs() {
        let _ = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Native);
    }

    #[test]
    fn native_is_rejected_on_every_non_eadr_design() {
        for d in HwDesign::ALL {
            if d.persists_at_visibility() {
                continue;
            }
            let result = std::panic::catch_unwind(|| {
                let _ = RuntimeConfig::new(d, LangModel::Native);
            });
            assert!(result.is_err(), "{d} must reject the log-free model");
        }
    }
}
