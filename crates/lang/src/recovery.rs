//! Post-failure recovery (paper Figure 6(b)) — one pass over every log,
//! whichever strategy wrote it.
//!
//! Recovery inspects every per-thread log region in the crashed PM image:
//!
//! 1. For each thread, find the highest persisted commit cut (the paper's
//!    commit-intent marker): the max over commit-record values, the global
//!    coordinated-commit cut word, and the durable-cut header word.
//! 2. Every other decoded entry is classified by its entry type and its
//!    side of the cut ([`formats::recovery_action`]): entries covered
//!    by the cut are discarded (undo) or queued for forward *replay* in
//!    creation order (redo — their in-place updates may not have
//!    persisted); survivors are queued for *rollback* in reverse creation
//!    order (undo stores) or counted as synchronization metadata.
//! 3. Replay applies before rollback; both are global across threads
//!    (global reverse sequence order unwinds same-address overwrites by
//!    later regions correctly — Figure 6(b) step 3).
//!
//! The entry vocabulary is read in one place, `recovery_action`'s `match`:
//! adding an entry type extends that `match`, not this pass. A log-free
//! (Native) run has an empty log region, so recovery is trivially clean.
//!
//! ## Fault awareness
//!
//! The scan classifies the written or poisoned log slots
//! ([`crate::log::classify_slot`]; every other slot reads all-zero and is
//! free) and reports damage in a [`FaultCounts`] taxonomy.
//! [`recover_with_policy`] layers a [`RecoveryPolicy`] on top:
//!
//! * `Strict` — fail fast (before mutating anything) on damage that cannot
//!   occur in a natural crash state: corrupt slots and poisoned lines.
//!   Torn slots are benign (every crash image can contain them) and never
//!   fail `Strict`.
//! * `Salvage` — proceed on any damage: recover every checksum-valid
//!   entry as usual, and report each thread whose log region holds a
//!   damaged slot as *salvaged*. A salvaged region's log may be
//!   incomplete, so consistency is only guaranteed for data untouched by
//!   salvaged threads (`sw-lang::harness::check_salvage_consistency`).
//!
//! Under either policy recovery **never writes to log regions** — damaged
//! slots are reported, not repaired. This keeps recovery idempotent: a
//! crash *during* recovery persists some prefix-subset of recovery's
//! (data-region) writes, and re-running recovery recomputes the identical
//! write set from the untouched logs, converging to the same image
//! (`sw-lang::harness::recovery_reconverges`).

use sw_pmem::{recover_heap, Addr, HeapFault, HeapRecovery, PmImage, PmLayout};
use sw_trace::{NullSink, TraceEvent, TraceSink};

use crate::formats::{self, RecoveryAction};
use crate::log::{scan_log_detailed, DecodedEntry, DetailedScan, EntryType};

/// Counts of damaged log slots discovered by recovery's scan, by damage
/// class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Torn slots: checksum mismatch explainable as a partial persist.
    pub torn: usize,
    /// Corrupt slots: checksum mismatch no tear can explain.
    pub checksum_mismatch: usize,
    /// Poisoned lines (uncorrectable media errors), including log header
    /// and commit-metadata lines.
    pub poisoned: usize,
}

impl FaultCounts {
    /// Total damaged slots across all classes.
    pub fn total(&self) -> usize {
        self.torn + self.checksum_mismatch + self.poisoned
    }

    /// Damage that cannot arise in a natural crash state (corruption or
    /// media failure, as opposed to benign tears).
    pub fn fatal(&self) -> usize {
        self.checksum_mismatch + self.poisoned
    }

    /// Tallies `faults` by their [`RecoveryFault::kind`].
    pub fn of(faults: &[RecoveryFault]) -> Self {
        let mut counts = Self::default();
        for f in faults {
            match f.kind() {
                "torn" => counts.torn += 1,
                "poison" => counts.poisoned += 1,
                _ => counts.checksum_mismatch += 1,
            }
        }
        counts
    }
}

/// Summary of the allocator-metadata recovery that runs before the
/// workload-log pass (the allocator journal must be trustworthy before
/// log replay touches heap data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapSummary {
    /// Live blocks across all healthy pools after journal replay.
    pub live_blocks: u64,
    /// Torn in-flight journal records reclaimed by the scan.
    pub reclaimed_records: u64,
    /// Pools whose metadata carried fatal damage.
    pub damaged_pools: usize,
}

/// Statistics about one recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Per-thread commit cut: the highest sequence number covered by a
    /// persisted commit record (0 when the thread never committed).
    pub per_thread_cut: Vec<u64>,
    /// Valid entries discarded because a commit record covered them.
    pub discarded_committed: usize,
    /// Store entries rolled back.
    pub rolled_back_stores: usize,
    /// Committed redo entries replayed forward.
    pub replayed_redo: usize,
    /// Synchronization entries skipped during rollback.
    pub sync_entries: usize,
    /// Damaged log slots discovered by the scan, by class.
    pub detected: FaultCounts,
    /// Allocator-metadata recovery summary.
    pub heap: HeapSummary,
}

impl RecoveryReport {
    /// `true` if recovery had nothing to undo or replay (clean shutdown).
    pub fn was_clean(&self) -> bool {
        self.rolled_back_stores == 0 && self.replayed_redo == 0
    }
}

/// How [`recover_with_policy`] responds to damaged log slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Fail fast — before mutating the image — on damage that a natural
    /// crash cannot produce (corrupt slots, poisoned lines). Benign tears
    /// do not fail `Strict`.
    Strict,
    /// Recover everything checksum-valid and report threads whose log
    /// regions held damage as salvaged; their data is dropped from the
    /// consistency contract.
    Salvage,
}

/// One damaged location discovered by the recovery scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFault {
    /// A torn log slot (benign: partial persist of a fresh entry).
    TornEntry {
        /// Owning thread.
        tid: usize,
        /// Slot index within the thread's log region (line offset; slot 0
        /// is the header).
        slot: u64,
    },
    /// A corrupt log slot: checksum mismatch no tear can explain.
    ChecksumMismatch {
        /// Owning thread.
        tid: usize,
        /// Slot index within the thread's log region.
        slot: u64,
    },
    /// A poisoned line inside a thread's log region (data slot or header).
    PoisonedLine {
        /// Owning thread.
        tid: usize,
        /// Cache-line index (`LineAddr` raw value).
        line: u64,
    },
    /// The machine-wide commit-metadata line (global coordinated-commit
    /// cut) is poisoned: no thread's cut can be trusted.
    PoisonedMeta {
        /// Cache-line index (`LineAddr` raw value).
        line: u64,
    },
    /// A torn allocator-journal record (benign: the in-flight alloc or
    /// free is reclaimed).
    HeapTorn {
        /// Heap pool.
        pool: usize,
        /// Journal slot within the pool.
        slot: u64,
    },
    /// Corrupt allocator metadata: a journal record failing its checksum
    /// with no zero word.
    HeapCorrupt {
        /// Heap pool.
        pool: usize,
        /// Journal slot within the pool.
        slot: u64,
    },
    /// An allocator journal whose checksum-valid records replay
    /// inconsistently: an alloc over a live block, or a free of a block
    /// that is not live.
    HeapInconsistent {
        /// Heap pool.
        pool: usize,
        /// Journal slot of the record that failed to apply, or `u64::MAX`
        /// when the checkpoint table's own blocks overlap.
        slot: u64,
    },
    /// The pool's newest published checkpoint table fails its checksums.
    HeapCorruptTable {
        /// Heap pool.
        pool: usize,
        /// First damaged table entry, or `u64::MAX` when the table
        /// header itself is inconsistent.
        entry: u64,
    },
    /// A poisoned line inside a pool's allocator metadata.
    HeapPoisoned {
        /// Heap pool.
        pool: usize,
        /// Cache-line index (`LineAddr` raw value).
        line: u64,
    },
    /// A pool header holding neither zero nor the heap magic.
    HeapBadHeader {
        /// Heap pool.
        pool: usize,
    },
}

impl RecoveryFault {
    /// `true` for damage that fails the `Strict` policy (anything a
    /// natural crash state cannot contain).
    pub fn is_fatal(self) -> bool {
        !matches!(
            self,
            RecoveryFault::TornEntry { .. } | RecoveryFault::HeapTorn { .. }
        )
    }

    /// Owning thread, when the fault lies inside one thread's log region.
    pub fn tid(self) -> Option<usize> {
        match self {
            RecoveryFault::TornEntry { tid, .. }
            | RecoveryFault::ChecksumMismatch { tid, .. }
            | RecoveryFault::PoisonedLine { tid, .. } => Some(tid),
            _ => None,
        }
    }

    /// Owning heap pool, for allocator-metadata faults.
    pub fn pool(self) -> Option<usize> {
        match self {
            RecoveryFault::HeapTorn { pool, .. }
            | RecoveryFault::HeapCorrupt { pool, .. }
            | RecoveryFault::HeapInconsistent { pool, .. }
            | RecoveryFault::HeapCorruptTable { pool, .. }
            | RecoveryFault::HeapPoisoned { pool, .. }
            | RecoveryFault::HeapBadHeader { pool } => Some(pool),
            _ => None,
        }
    }

    /// Damage class: `"torn"`, `"checksum"` (a record or table failing its
    /// checksum, a journal that replays inconsistently, or an
    /// unrecognizable pool header) or `"poison"`. It names
    /// the [`FaultCounts`] field the fault counts toward and is the `kind`
    /// of its `CorruptionDetected` trace event.
    pub fn kind(self) -> &'static str {
        match self {
            RecoveryFault::TornEntry { .. } | RecoveryFault::HeapTorn { .. } => "torn",
            RecoveryFault::PoisonedLine { .. }
            | RecoveryFault::PoisonedMeta { .. }
            | RecoveryFault::HeapPoisoned { .. } => "poison",
            _ => "checksum",
        }
    }

    /// The damaged cache line (`LineAddr` raw value) under `layout`: the
    /// slot's line for log and journal slots, the pool's metadata header
    /// line for table and header damage (an inconsistent checkpoint table
    /// included).
    pub fn line(self, layout: &PmLayout) -> u64 {
        match self {
            RecoveryFault::TornEntry { tid, slot }
            | RecoveryFault::ChecksumMismatch { tid, slot } => {
                layout.log_region(tid).base.line().raw() + slot
            }
            RecoveryFault::PoisonedLine { line, .. }
            | RecoveryFault::PoisonedMeta { line }
            | RecoveryFault::HeapPoisoned { line, .. } => line,
            RecoveryFault::HeapInconsistent {
                pool,
                slot: u64::MAX,
            }
            | RecoveryFault::HeapCorruptTable { pool, .. }
            | RecoveryFault::HeapBadHeader { pool } => layout.pool_meta_base(pool).line().raw(),
            RecoveryFault::HeapTorn { pool, slot }
            | RecoveryFault::HeapCorrupt { pool, slot }
            | RecoveryFault::HeapInconsistent { pool, slot } => {
                layout.heap_journal_slot(pool, slot).line().raw()
            }
        }
    }
}

impl From<HeapFault> for RecoveryFault {
    fn from(f: HeapFault) -> Self {
        match f {
            HeapFault::TornRecord { pool, slot } => RecoveryFault::HeapTorn { pool, slot },
            HeapFault::CorruptRecord { pool, slot } => RecoveryFault::HeapCorrupt { pool, slot },
            HeapFault::InconsistentJournal { pool, slot } => {
                RecoveryFault::HeapInconsistent { pool, slot }
            }
            HeapFault::CorruptTable { pool, entry } => {
                RecoveryFault::HeapCorruptTable { pool, entry }
            }
            HeapFault::Poisoned { pool, line } => RecoveryFault::HeapPoisoned { pool, line },
            HeapFault::BadHeader { pool } => RecoveryFault::HeapBadHeader { pool },
        }
    }
}

impl std::fmt::Display for RecoveryFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RecoveryFault::TornEntry { tid, slot } => {
                write!(f, "torn log entry (thread {tid}, slot {slot})")
            }
            RecoveryFault::ChecksumMismatch { tid, slot } => {
                write!(f, "log checksum mismatch (thread {tid}, slot {slot})")
            }
            RecoveryFault::PoisonedLine { tid, line } => {
                write!(f, "poisoned log line {line} (thread {tid})")
            }
            RecoveryFault::PoisonedMeta { line } => {
                write!(f, "poisoned commit-metadata line {line}")
            }
            RecoveryFault::HeapTorn { pool, slot } => {
                write!(
                    f,
                    "torn allocator-journal record (pool {pool}, slot {slot})"
                )
            }
            RecoveryFault::HeapCorrupt { pool, slot } => {
                write!(f, "corrupt allocator metadata (pool {pool}, slot {slot})")
            }
            RecoveryFault::HeapInconsistent { pool, slot } => {
                write!(
                    f,
                    "inconsistent allocator journal (pool {pool}, slot {slot})"
                )
            }
            RecoveryFault::HeapCorruptTable { pool, entry } => {
                write!(f, "corrupt checkpoint table (pool {pool}, entry {entry})")
            }
            RecoveryFault::HeapPoisoned { pool, line } => {
                write!(f, "poisoned allocator-metadata line {line} (pool {pool})")
            }
            RecoveryFault::HeapBadHeader { pool } => {
                write!(f, "unrecognizable heap-pool header (pool {pool})")
            }
        }
    }
}

/// Structured failure of a `Strict`-policy recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError {
    /// The first fatal fault encountered (scan order).
    pub first: RecoveryFault,
    /// Everything the scan detected, by class.
    pub detected: FaultCounts,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "strict recovery refused a damaged image: {} \
             ({} torn, {} corrupt, {} poisoned)",
            self.first, self.detected.torn, self.detected.checksum_mismatch, self.detected.poisoned
        )
    }
}

impl std::error::Error for RecoveryError {}

/// Result of a policy-aware recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyOutcome {
    /// The usual recovery statistics.
    pub report: RecoveryReport,
    /// Every damaged location, in scan order.
    pub faults: Vec<RecoveryFault>,
    /// Threads whose log regions held damage (always empty under
    /// `Strict`, which errors instead). Sorted ascending.
    pub salvaged_threads: Vec<usize>,
    /// Heap pools whose allocator metadata held fatal damage and were
    /// quarantined (always empty under `Strict`). Sorted ascending.
    pub salvaged_pools: Vec<usize>,
    /// Recovery's data-region writes in application order (replay then
    /// rollback). Re-applying any prefix-closed subset and re-running
    /// recovery converges to the same image (see module docs).
    pub writes: Vec<(Addr, u64)>,
}

/// Runs recovery over a crashed PM image, mutating it to the recovered
/// state, and reports what was done.
///
/// This is the reference pass that [`recover_with_policy`] is checked
/// against: it reads through poisoned header and commit-metadata lines
/// instead of reporting them.
pub fn recover(img: &mut PmImage, layout: &PmLayout) -> RecoveryReport {
    let mut state = ScanState::new(layout);
    // Allocator metadata is scanned before the workload logs (read-only;
    // the legacy pass reads through damage and reports best-effort).
    let (_, mut faults, heap_summary) = scan_heap(img, layout);

    // The coordinated-commit protocol publishes a machine-wide cut in a
    // dedicated PM word; it covers every thread.
    let global_cut = img.load(layout.lock_addr(crate::runtime::GLOBAL_CUT_LOCK));
    for tid in 0..layout.threads() {
        let region = layout.log_region(tid);
        let scan = scan_log_detailed(img, region);
        faults.extend(slot_faults(tid, &scan, region.base.line().raw()));
        // Commit records carry the cut in their value field; stale records
        // from earlier batches have smaller cuts, so the max is correct.
        // The durable-cut header word covers entries truncated by a group
        // commit or coordinated commit.
        let header_cut = img.load(region.base.offset_words(1));
        fold_thread_scan(&mut state, tid, &scan, global_cut.max(header_cut));
    }
    apply_writes(img, &mut state, &mut NullSink, &mut 0);
    report_of(state, FaultCounts::of(&faults), heap_summary)
}

/// Runs fault-aware recovery under `policy`.
///
/// `Strict` returns an error — leaving `img` untouched — when the scan
/// finds fatal damage; otherwise both policies mutate `img` to the
/// recovered state and describe what happened in the [`PolicyOutcome`].
/// On an undamaged image the mutation and the embedded
/// [`RecoveryReport`] are identical to [`recover`]'s.
///
/// # Errors
///
/// [`RecoveryError`] under [`RecoveryPolicy::Strict`] when a corrupt slot
/// or poisoned line is detected. `Salvage` never errors.
pub fn recover_with_policy(
    img: &mut PmImage,
    layout: &PmLayout,
    policy: RecoveryPolicy,
) -> Result<PolicyOutcome, RecoveryError> {
    recover_with_policy_traced(img, layout, policy, &mut NullSink)
}

fn note(sink: &mut dyn TraceSink, t: &mut u64, event: TraceEvent) {
    sink.record(*t, event);
    *t += 1;
}

/// Shared scan state: per-thread cuts plus the classified work lists.
#[derive(Default)]
struct ScanState {
    cuts: Vec<u64>,
    rollback: Vec<DecodedEntry>,
    replayable: Vec<DecodedEntry>,
    discarded: usize,
    sync_entries: usize,
    scanned: u64,
}

impl ScanState {
    fn new(layout: &PmLayout) -> Self {
        let cuts = vec![0; layout.threads()];
        Self {
            cuts,
            ..Self::default()
        }
    }
}

/// The damaged slots of thread `tid`'s log scan as faults: torn, then
/// corrupt, then poisoned. `region_line` is the region's header line
/// (slot `i` lives at `region_line + i`).
fn slot_faults(
    tid: usize,
    scan: &DetailedScan,
    region_line: u64,
) -> impl Iterator<Item = RecoveryFault> + '_ {
    let torn = scan
        .torn
        .iter()
        .map(move |&slot| RecoveryFault::TornEntry { tid, slot });
    let corrupt = scan
        .corrupt
        .iter()
        .map(move |&slot| RecoveryFault::ChecksumMismatch { tid, slot });
    let poisoned = scan
        .poisoned
        .iter()
        .map(move |&slot| RecoveryFault::PoisonedLine {
            tid,
            line: region_line + slot,
        });
    torn.chain(corrupt).chain(poisoned)
}

/// Folds one thread's detailed scan into the work lists. `extra_cut` (the
/// global and durable-cut header words) participates in the cut exactly
/// as a commit record would.
fn fold_thread_scan(state: &mut ScanState, tid: usize, scan: &DetailedScan, extra_cut: u64) {
    let cut = scan
        .entries
        .iter()
        .filter(|e| e.etype == EntryType::Commit)
        .map(|e| e.value)
        .max()
        .unwrap_or(0)
        .max(extra_cut);
    state.cuts[tid] = cut;
    state.scanned += scan.entries.len() as u64;
    for e in &scan.entries {
        match formats::recovery_action(e, cut) {
            RecoveryAction::None => {}
            RecoveryAction::Discard => state.discarded += 1,
            RecoveryAction::Replay => state.replayable.push(*e),
            RecoveryAction::RollBack => state.rollback.push(*e),
            RecoveryAction::Sync => state.sync_entries += 1,
        }
    }
}

/// Orders the work lists and applies them to `img`: the `redo` phase
/// replays committed redo entries forward in creation order, then the
/// `undo` phase rolls back in reverse creation order across all threads.
/// Each phase is traced. Returns the writes in application order.
fn apply_writes(
    img: &mut PmImage,
    state: &mut ScanState,
    sink: &mut dyn TraceSink,
    t: &mut u64,
) -> Vec<(Addr, u64)> {
    state.replayable.sort_unstable_by_key(|e| e.seq);
    state
        .rollback
        .sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
    let mut writes = Vec::with_capacity(state.replayable.len() + state.rollback.len());
    for (phase, entries) in [("redo", &state.replayable), ("undo", &state.rollback)] {
        note(sink, t, TraceEvent::RecoveryBegin { phase });
        for e in entries {
            img.store(e.addr, e.value);
            writes.push((e.addr, e.value));
        }
        let items = entries.len() as u64;
        note(sink, t, TraceEvent::RecoveryEnd { phase, items });
    }
    writes
}

fn report_of(state: ScanState, detected: FaultCounts, heap: HeapSummary) -> RecoveryReport {
    RecoveryReport {
        per_thread_cut: state.cuts,
        discarded_committed: state.discarded,
        rolled_back_stores: state.rollback.len(),
        replayed_redo: state.replayable.len(),
        sync_entries: state.sync_entries,
        detected,
        heap,
    }
}

/// Scans and rebuilds the allocator metadata of every pool (read-only;
/// runs before the workload-log pass). Returns the raw recovery, the
/// faults lifted into the recovery taxonomy, and the report summary.
fn scan_heap(img: &PmImage, layout: &PmLayout) -> (HeapRecovery, Vec<RecoveryFault>, HeapSummary) {
    let rec = recover_heap(img, layout);
    let faults: Vec<RecoveryFault> = rec.faults.iter().map(|&f| f.into()).collect();
    let summary = HeapSummary {
        live_blocks: rec.live_blocks(),
        reclaimed_records: rec.reclaimed_records(),
        damaged_pools: rec.damaged_pools().len(),
    };
    (rec, faults, summary)
}

/// As [`recover_with_policy`], tracing into `sink`: `RecoveryBegin` /
/// `RecoveryEnd` around the `heap`, `scan`, `redo` and `undo` phases, one
/// `HeapRecovered` event per rebuilt pool, one `CorruptionDetected` event
/// per damaged slot, and one `PoolSalvaged` / `RegionSalvaged` event per
/// quarantined pool or thread. Timestamps are a phase-local tick counter
/// (recovery runs outside simulated time).
///
/// # Errors
///
/// As [`recover_with_policy`].
pub fn recover_with_policy_traced(
    img: &mut PmImage,
    layout: &PmLayout,
    policy: RecoveryPolicy,
    sink: &mut dyn TraceSink,
) -> Result<PolicyOutcome, RecoveryError> {
    let mut t = 0u64;
    let mut state = ScanState::new(layout);

    // The allocator metadata is scanned first: workload-log replay writes
    // into heap data, so the heap's own books must be judged before
    // anything mutates. The scan is read-only and per-pool independent.
    note(sink, &mut t, TraceEvent::RecoveryBegin { phase: "heap" });
    let (heap_rec, mut faults, heap_summary) = scan_heap(img, layout);
    let mut salvaged_pools = heap_rec.damaged_pools();
    note(
        sink,
        &mut t,
        TraceEvent::RecoveryEnd {
            phase: "heap",
            items: heap_summary.live_blocks,
        },
    );
    for (pool, rebuilt) in heap_rec.pools.iter().enumerate() {
        if let Some(p) = rebuilt {
            note(
                sink,
                &mut t,
                TraceEvent::HeapRecovered {
                    pool: pool as u32,
                    live: p.live_count(),
                    reclaimed: heap_rec.scans[pool].torn_slots(),
                },
            );
        }
    }

    // The fault-aware pass refuses to trust a poisoned metadata line: the
    // global cut reads as 0 and the damage is reported. (The legacy pass
    // reads through poison.)
    let global_cut_addr = layout.lock_addr(crate::runtime::GLOBAL_CUT_LOCK);
    let meta_poisoned = img.is_poisoned(global_cut_addr.line());
    let global_cut = if meta_poisoned {
        faults.push(RecoveryFault::PoisonedMeta {
            line: global_cut_addr.line().raw(),
        });
        0
    } else {
        img.load(global_cut_addr)
    };

    note(sink, &mut t, TraceEvent::RecoveryBegin { phase: "scan" });
    for tid in 0..layout.threads() {
        let region = layout.log_region(tid);
        let region_line = region.base.line().raw();
        let scan = scan_log_detailed(img, region);
        faults.extend(slot_faults(tid, &scan, region_line));
        // A poisoned header hides the durable-cut word; treat the cut as
        // unknown (0) and report the damage.
        let header_cut = if img.is_poisoned(region.base.line()) {
            faults.push(RecoveryFault::PoisonedLine {
                tid,
                line: region_line,
            });
            0
        } else {
            img.load(region.base.offset_words(1))
        };
        fold_thread_scan(&mut state, tid, &scan, global_cut.max(header_cut));
    }
    note(
        sink,
        &mut t,
        TraceEvent::RecoveryEnd {
            phase: "scan",
            items: state.scanned,
        },
    );

    // Surface every damage site as a trace event, whatever the policy.
    // Heap faults carry no owning thread; they report the metadata line.
    for f in &faults {
        let event = TraceEvent::CorruptionDetected {
            thread: f.tid().map_or(u32::MAX, |tid| tid as u32),
            line: f.line(layout),
            kind: f.kind(),
        };
        note(sink, &mut t, event);
    }
    let detected = FaultCounts::of(&faults);
    let owned_by = |tid: usize| faults.iter().filter(|f| f.tid() == Some(tid)).count();
    // A poisoned commit-metadata line leaves every thread's cut unknown.
    let mut salvaged: Vec<usize> = (0..layout.threads())
        .filter(|&tid| meta_poisoned || owned_by(tid) > 0)
        .collect();

    match policy {
        RecoveryPolicy::Strict => {
            if let Some(&first) = faults.iter().find(|f| f.is_fatal()) {
                // Fail before mutating: `img` still holds the crash state.
                return Err(RecoveryError { first, detected });
            }
            salvaged.clear();
            salvaged_pools.clear();
        }
        RecoveryPolicy::Salvage => {
            for &pool in &salvaged_pools {
                let n = faults.iter().filter(|f| f.pool() == Some(pool)).count() as u64;
                note(
                    sink,
                    &mut t,
                    TraceEvent::PoolSalvaged {
                        pool: pool as u32,
                        faults: n,
                    },
                );
            }
            for &tid in &salvaged {
                let dropped = owned_by(tid) as u64;
                let event = TraceEvent::RegionSalvaged {
                    thread: tid as u32,
                    dropped,
                };
                note(sink, &mut t, event);
            }
        }
    }

    let writes = apply_writes(img, &mut state, sink, &mut t);
    Ok(PolicyOutcome {
        report: report_of(state, detected, heap_summary),
        faults,
        salvaged_threads: salvaged,
        salvaged_pools,
        writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FuncCtx;
    use crate::log::{EntryPayload, EntryType, UndoLog, W_AUX, W_CHECKSUM};
    use sw_pmem::CACHE_LINE_BYTES;

    /// One thread, two uncommitted undo entries: x (5 → 9) in slot 1 and
    /// y (6 → 8) in slot 2. Returns the crashed (fully persisted) image.
    fn fixture() -> (PmImage, PmLayout, Addr, Addr) {
        let layout = PmLayout::new(1, 64);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut log = UndoLog::new(layout.log_region(0), 0);
        let x = layout.heap_base();
        let y = x.offset_words(8);
        ctx.store(0, x, 5);
        ctx.store(0, y, 6);
        log.append(
            &mut ctx,
            EntryPayload {
                etype: EntryType::Store,
                addr: x,
                value: 5,
                aux: 0,
            },
        );
        ctx.store(0, x, 9);
        log.append(
            &mut ctx,
            EntryPayload {
                etype: EntryType::Store,
                addr: y,
                value: 6,
                aux: 0,
            },
        );
        ctx.store(0, y, 8);
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        (img, layout, x, y)
    }

    fn slot_base(layout: &PmLayout, slot: u64) -> Addr {
        Addr(layout.log_region(0).base.raw() + slot * CACHE_LINE_BYTES)
    }

    #[test]
    fn strict_matches_legacy_on_clean_image() {
        let (img, layout, x, y) = fixture();
        let mut legacy = img.clone();
        let legacy_report = recover(&mut legacy, &layout);
        let mut strict = img.clone();
        let out =
            recover_with_policy(&mut strict, &layout, RecoveryPolicy::Strict).expect("clean image");
        assert_eq!(strict, legacy, "identical recovered images");
        assert_eq!(out.report, legacy_report, "identical reports");
        assert!(out.faults.is_empty());
        assert!(out.salvaged_threads.is_empty());
        assert_eq!(out.report.rolled_back_stores, 2);
        assert_eq!(out.report.detected, FaultCounts::default());
        assert_eq!(strict.load(x), 5, "uncommitted x rolled back");
        assert_eq!(strict.load(y), 6, "uncommitted y rolled back");
        assert_eq!(out.writes.len(), 2);
    }

    #[test]
    fn strict_fails_fast_on_corruption_without_mutating() {
        let (mut img, layout, _, _) = fixture();
        // Flip the zero AUX word of slot 2: every word nonzero, checksum
        // stale — corruption no tear can explain.
        img.store(slot_base(&layout, 2).offset_words(W_AUX), 0xbad);
        let mut target = img.clone();
        let err = recover_with_policy(&mut target, &layout, RecoveryPolicy::Strict)
            .expect_err("corrupt slot must fail strict recovery");
        assert_eq!(
            err.first,
            RecoveryFault::ChecksumMismatch { tid: 0, slot: 2 }
        );
        assert_eq!(err.detected.checksum_mismatch, 1);
        assert_eq!(target, img, "strict failure leaves the image untouched");
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn salvage_recovers_valid_entries_and_reports_damage() {
        let (mut img, layout, x, y) = fixture();
        img.store(slot_base(&layout, 2).offset_words(W_AUX), 0xbad);
        let out = recover_with_policy(&mut img, &layout, RecoveryPolicy::Salvage)
            .expect("salvage never errors");
        assert_eq!(out.salvaged_threads, vec![0]);
        assert_eq!(out.report.detected.checksum_mismatch, 1);
        assert_eq!(
            out.faults,
            vec![RecoveryFault::ChecksumMismatch { tid: 0, slot: 2 }]
        );
        // The intact undo entry still rolls back; the damaged one is lost.
        assert_eq!(img.load(x), 5);
        assert_eq!(img.load(y), 8, "y's undo entry was destroyed");
    }

    #[test]
    fn torn_slot_is_benign_under_strict() {
        let (mut img, layout, x, y) = fixture();
        // Tear slot 2's publication: its checksum word never persisted.
        img.store(slot_base(&layout, 2).offset_words(W_CHECKSUM), 0);
        let out = recover_with_policy(&mut img, &layout, RecoveryPolicy::Strict)
            .expect("tears occur naturally and must not fail strict");
        assert_eq!(out.report.detected.torn, 1);
        assert_eq!(
            out.faults,
            vec![RecoveryFault::TornEntry { tid: 0, slot: 2 }]
        );
        assert!(out.salvaged_threads.is_empty());
        assert_eq!(img.load(x), 5);
        assert_eq!(img.load(y), 8);
    }

    #[test]
    fn poisoned_slot_fails_strict_and_salvages() {
        let (mut img, layout, _, _) = fixture();
        let line = slot_base(&layout, 2).line();
        img.poison_line(line);
        let err = recover_with_policy(&mut img.clone(), &layout, RecoveryPolicy::Strict)
            .expect_err("poison must fail strict recovery");
        assert_eq!(
            err.first,
            RecoveryFault::PoisonedLine {
                tid: 0,
                line: line.raw()
            }
        );
        let out = recover_with_policy(&mut img, &layout, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(out.salvaged_threads, vec![0]);
        assert_eq!(out.report.detected.poisoned, 1);
    }

    #[test]
    fn poisoned_header_zeroes_cut_and_salvages() {
        let (mut img, layout, _, _) = fixture();
        img.poison_line(layout.log_region(0).base.line());
        let out = recover_with_policy(&mut img, &layout, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(out.salvaged_threads, vec![0]);
        assert_eq!(out.report.per_thread_cut, vec![0]);
        assert!(out
            .faults
            .iter()
            .any(|f| matches!(f, RecoveryFault::PoisonedLine { tid: 0, .. })));
    }

    #[test]
    fn poisoned_meta_line_salvages_every_thread() {
        let layout = PmLayout::new(2, 64);
        let ctx = FuncCtx::new(layout.clone(), 2);
        let mut img = ctx.mem().persisted_image().clone();
        let meta = layout.lock_addr(crate::runtime::GLOBAL_CUT_LOCK).line();
        img.poison_line(meta);
        let err = recover_with_policy(&mut img.clone(), &layout, RecoveryPolicy::Strict)
            .expect_err("meta poison must fail strict recovery");
        assert_eq!(err.first, RecoveryFault::PoisonedMeta { line: meta.raw() });
        let out = recover_with_policy(&mut img, &layout, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(out.salvaged_threads, vec![0, 1]);
    }

    #[test]
    fn traced_policy_recovery_emits_detection_and_salvage_events() {
        use sw_trace::RingRecorder;
        let (mut img, layout, _, _) = fixture();
        img.store(slot_base(&layout, 2).offset_words(W_AUX), 0xbad);
        let rec = RingRecorder::new(64);
        let mut sink = rec.clone();
        recover_with_policy_traced(&mut img, &layout, RecoveryPolicy::Salvage, &mut sink)
            .expect("salvage never errors");
        let events = rec.events();
        assert!(events
            .iter()
            .any(|e| e.event.kind() == "corruption_detected"));
        assert!(events.iter().any(|e| matches!(
            e.event,
            TraceEvent::RegionSalvaged {
                thread: 0,
                dropped: 1
            }
        )));
    }

    #[test]
    fn interrupted_recovery_reconverges() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let (mut img, layout, _, _) = fixture();
        let mut rng = SmallRng::seed_from_u64(7);
        crate::harness::recovery_reconverges(&img, &layout, RecoveryPolicy::Strict, &mut rng)
            .expect("strict reconvergence on a clean image");
        img.store(slot_base(&layout, 2).offset_words(W_AUX), 0xbad);
        crate::harness::recovery_reconverges(&img, &layout, RecoveryPolicy::Salvage, &mut rng)
            .expect("salvage reconvergence on a damaged image");
    }

    /// A checksum-valid checkpoint table whose blocks overlap replays
    /// inconsistently before any journal slot: the fault names no slot
    /// (`u64::MAX`) and reports the pool's metadata header line.
    #[test]
    fn overlapping_checkpoint_table_is_an_inconsistent_journal() {
        use sw_pmem::{encode_checkpoint, BlockKind, HEAP_MAGIC};
        let layout = PmLayout::new(1, 64);
        let mut img = PmImage::new();
        img.store(layout.pool_meta_base(0), HEAP_MAGIC);
        let table = layout.heap_table_base(0, 0);
        let w = encode_checkpoint(1, &[(0, 4, BlockKind::Carve), (2, 4, BlockKind::Dynamic)]);
        for &(off, v) in w.pre.iter().chain(&w.body).chain([&w.publish]) {
            img.store(table.offset_words(off), v);
        }
        let err = recover_with_policy(&mut img, &layout, RecoveryPolicy::Strict)
            .expect_err("an inconsistent table is fatal");
        let first = RecoveryFault::HeapInconsistent {
            pool: 0,
            slot: u64::MAX,
        };
        assert_eq!(err.first, first);
        assert_eq!(first.line(&layout), layout.pool_meta_base(0).line().raw());
    }
}
