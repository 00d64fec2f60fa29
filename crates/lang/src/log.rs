//! Per-thread circular undo-log buffer (paper Section V, Figures 5 and 6).
//!
//! The log is an array of 64-byte, cache-line-aligned entries in a
//! per-thread PM region. Entry slot 0 is a header line holding the
//! persistent *head* pointer (Figure 6); the *tail* pointer lives in
//! volatile memory so that entries created on different strands are not
//! serialized through it (a consequence of strong persist atomicity — paper
//! Section V, "Log structure").
//!
//! ## Entry format
//!
//! | word | field | |
//! |---|---|---|
//! | 0 | `TYPE` | entry kind; 0 = free/invalidated |
//! | 1 | `ADDR` | address of the update (store entries) |
//! | 2 | `VALUE` | old value (store) / metadata (sync) / commit cut (commit) |
//! | 3 | `SEQ`  | global logical timestamp |
//! | 4 | `AUX`  | lock id / happens-before metadata |
//! | 5 | `CHECKSUM` | covers words 0–4 |
//!
//! The checksum makes entry publication single-flush while remaining sound
//! under the word-granular persist model: a torn entry fails its checksum
//! and is ignored by recovery, and the pairwise log→update fence guarantees
//! a torn entry's in-place update never persisted. (The paper uses a
//! `Valid` bit and relies on cache-line-atomic drains; the checksum is the
//! equivalent under our stricter, word-granular crash sampler — see
//! DESIGN.md.)
//!
//! ## Commit (Figure 6)
//!
//! Commit appends a dedicated *commit record* carrying the sequence number
//! of the terminating entry (the paper's commit-intent marker), drains,
//! invalidates the committed entries (`TYPE := 0`), drains, then advances
//! and flushes the persistent head pointer. Recovery treats every valid
//! entry with `SEQ` at or below the highest persisted commit cut of its
//! thread as committed.

use sw_model::isa::FenceKind;
use sw_pmem::{record_checksum, Addr, LineAddr, PmImage, Region, CACHE_LINE_BYTES};

use crate::ctx::FuncCtx;
use sw_model::HwDesign;

/// Word offset of the `TYPE` field within a log entry.
pub const W_TYPE: u64 = 0;
/// Word offset of the `ADDR` field within a log entry.
pub const W_ADDR: u64 = 1;
/// Word offset of the `VALUE` field within a log entry.
pub const W_VALUE: u64 = 2;
/// Word offset of the `SEQ` field within a log entry.
pub const W_SEQ: u64 = 3;
/// Word offset of the `AUX` field within a log entry.
pub const W_AUX: u64 = 4;
/// Word offset of the `CHECKSUM` field within a log entry (covers words
/// 0–4).
pub const W_CHECKSUM: u64 = 5;

/// Kinds of log entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryType {
    /// Undo information for one store: address + old value.
    Store,
    /// Synchronization acquire (lock / SFR acquire); `AUX` = lock id,
    /// `VALUE` = happens-before predecessor (last release seq on the lock).
    Acquire,
    /// Synchronization release; `AUX` = lock id.
    Release,
    /// Transaction begin (TXN model).
    TxBegin,
    /// Transaction end (TXN model). The terminating entry of a region.
    TxEnd,
    /// Commit record: `VALUE` = highest committed seq (the commit cut).
    Commit,
    /// Redo information for one store: address + **new** value (the redo
    /// extension of Section VII; see [`LogStrategy`](crate::LogStrategy)).
    RedoStore,
}

impl EntryType {
    fn code(self) -> u64 {
        match self {
            EntryType::Store => 1,
            EntryType::Acquire => 2,
            EntryType::Release => 3,
            EntryType::TxBegin => 4,
            EntryType::TxEnd => 5,
            EntryType::Commit => 6,
            EntryType::RedoStore => 7,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            1 => EntryType::Store,
            2 => EntryType::Acquire,
            3 => EntryType::Release,
            4 => EntryType::TxBegin,
            5 => EntryType::TxEnd,
            6 => EntryType::Commit,
            7 => EntryType::RedoStore,
            _ => return None,
        })
    }
}

/// Payload of a log entry prior to sequencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryPayload {
    /// Entry kind.
    pub etype: EntryType,
    /// Address field (store entries; 0 otherwise).
    pub addr: Addr,
    /// Value field (old value / metadata / commit cut).
    pub value: u64,
    /// Auxiliary field (lock id, etc.).
    pub aux: u64,
}

/// A decoded, checksum-valid log entry as seen by recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedEntry {
    /// Entry kind.
    pub etype: EntryType,
    /// Address field.
    pub addr: Addr,
    /// Value field.
    pub value: u64,
    /// Sequence number.
    pub seq: u64,
    /// Auxiliary field.
    pub aux: u64,
}

/// Salt of the entry checksum ([`record_checksum`] over words 0–4).
const ENTRY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Classification of one log slot in a crashed PM image, as the
/// fault-aware recovery scan sees it.
///
/// The benign states (`Free`, `Invalidated`, `Valid`, `Torn`) all occur in
/// natural crash states; `Corrupt` and `Poisoned` cannot — see
/// [`classify_slot`] for the argument — so recovery's `Strict` policy can
/// fail fast on them with zero false positives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// All six words read zero: never used (or fully unpersisted).
    Free,
    /// `TYPE` is zero but stale words remain: invalidated by a commit.
    Invalidated,
    /// Checksum-valid entry.
    Valid(DecodedEntry),
    /// Checksum mismatch explainable as a torn publication: the checksum
    /// word reads zero, or some payload word reads zero (an unpersisted
    /// word of a fresh slot). Benign — recovery ignores the slot, exactly
    /// as the pairwise log→update fence permits.
    Torn,
    /// Checksum mismatch *not* explainable as a tear: every word is
    /// nonzero yet the checksum disagrees. Media or software corruption.
    Corrupt,
    /// The line is poisoned (uncorrectable media error).
    Poisoned,
}

impl SlotState {
    /// `true` for the damage states recovery must report (`Torn`,
    /// `Corrupt`, `Poisoned`).
    pub fn is_damaged(self) -> bool {
        matches!(
            self,
            SlotState::Torn | SlotState::Corrupt | SlotState::Poisoned
        )
    }
}

/// Classifies the log slot at `line_base`.
///
/// Soundness of the `Corrupt` verdict on natural (uninjected) crash
/// states: a slot that has never been reused holds at most one entry, each
/// of whose words either persisted (reads its true value) or did not
/// (reads zero). The checksum word is written as `record_checksum(..)`,
/// never zero — so a nonzero stored checksum that fails verification means
/// some covered word differs from what was written, and on a fresh slot a
/// differing word can only read zero. Such tears classify as `Torn`;
/// `Corrupt` (all words nonzero, checksum wrong) is therefore unreachable
/// without injected corruption. Slot *reuse* (a wrapped log) can mix stale
/// and fresh words and break this argument; the crash harness keeps logs
/// wrap-free (capacity ≫ entries per run), and DESIGN.md §"Fault model"
/// records the caveat.
pub fn classify_slot(img: &PmImage, line_base: Addr) -> SlotState {
    if img.is_poisoned(line_base.line()) {
        return SlotState::Poisoned;
    }
    let words = img.line_words(line_base.line());
    let field = |w: u64| words[w as usize];
    let (ty, addr, value) = (field(W_TYPE), field(W_ADDR), field(W_VALUE));
    let (seq, aux, checksum) = (field(W_SEQ), field(W_AUX), field(W_CHECKSUM));
    let payload = [ty, addr, value, seq, aux];
    if checksum == 0 && payload == [0; 5] {
        return SlotState::Free;
    }
    if ty == 0 {
        return SlotState::Invalidated;
    }
    if checksum == record_checksum(ENTRY_SALT, &payload) {
        return match EntryType::from_code(ty) {
            Some(etype) => SlotState::Valid(DecodedEntry {
                etype,
                addr: Addr(addr),
                value,
                seq,
                aux,
            }),
            // A checksum that verifies over an unknown type code cannot be
            // a tear (the checksum never persists as a stale match on a
            // fresh slot): crafted corruption.
            None => SlotState::Corrupt,
        };
    }
    if checksum == 0 || payload.contains(&0) {
        SlotState::Torn
    } else {
        SlotState::Corrupt
    }
}

/// Per-slot results of a fault-aware scan over one log region
/// ([`scan_log_detailed`]). `slot` indexes are line offsets within the
/// region (1 = first data slot; 0 is the header line, not scanned).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetailedScan {
    /// Checksum-valid entries, in slot order.
    pub entries: Vec<DecodedEntry>,
    /// Slots classified [`SlotState::Torn`].
    pub torn: Vec<u64>,
    /// Slots classified [`SlotState::Corrupt`].
    pub corrupt: Vec<u64>,
    /// Slots classified [`SlotState::Poisoned`].
    pub poisoned: Vec<u64>,
    /// Count of invalidated slots.
    pub invalidated: usize,
    /// Count of free slots.
    pub free: usize,
}

impl DetailedScan {
    /// `true` when the region holds any damaged slot (torn, corrupt, or
    /// poisoned).
    pub fn damaged(&self) -> bool {
        !(self.torn.is_empty() && self.corrupt.is_empty() && self.poisoned.is_empty())
    }
}

/// Scans the data slots of one thread's log region: the one log decoder
/// recovery runs. It reports *why* each undecodable slot failed, so
/// recovery can distinguish benign tears from corruption.
///
/// Only the slots whose lines are written or poisoned
/// ([`PmImage::occupied_lines`]) are classified, in slot order. Every
/// other slot reads all-zero and unpoisoned, which [`classify_slot`] calls
/// [`SlotState::Free`], so those are counted rather than visited: the
/// result equals classifying every slot.
pub fn scan_log_detailed(img: &PmImage, region: Region) -> DetailedScan {
    let header = region.base.line();
    let slots = (region.bytes / CACHE_LINE_BYTES).saturating_sub(1);
    let data = LineAddr(header.0 + 1)..LineAddr(header.0 + 1 + slots);
    let mut scan = DetailedScan::default();
    let mut visited = 0;
    for line in img.occupied_lines(data) {
        visited += 1;
        let i = line.0 - header.0;
        match classify_slot(img, line.base()) {
            SlotState::Free => scan.free += 1,
            SlotState::Invalidated => scan.invalidated += 1,
            SlotState::Valid(e) => scan.entries.push(e),
            SlotState::Torn => scan.torn.push(i),
            SlotState::Corrupt => scan.corrupt.push(i),
            SlotState::Poisoned => scan.poisoned.push(i),
        }
    }
    scan.free += (slots - visited) as usize;
    scan
}

/// The per-thread undo log runtime state.
///
/// All mutation goes through a [`FuncCtx`] so that every store, flush, and
/// fence is both executed functionally and recorded for the crash sampler
/// and the timing simulator.
///
/// The most recent commit record is kept live until the *next* commit
/// invalidates it. This guarantees that once any trace of a commit has
/// persisted, the commit cut itself is visible to recovery — without it,
/// a crash after the invalidations persisted but before the head-pointer
/// flush would leave a committed region with no durable evidence of its
/// commit.
#[derive(Debug)]
pub struct UndoLog {
    region: Region,
    tid: usize,
    /// Data-entry capacity (slot 0 is the header line).
    capacity: u64,
    /// Slot of the previous commit record (start of the live zone). Mirrors
    /// the persistent head pointer.
    head: u64,
    /// Next slot to append to (volatile, lost on crash).
    tail: u64,
    /// Entries appended since the last commit (excludes the retained
    /// previous commit record).
    uncommitted: u64,
    /// Whether a previous commit record occupies the `head` slot.
    has_committed: bool,
    /// Highest seq appended since the last commit.
    last_seq: u64,
}

impl UndoLog {
    /// Creates the runtime state for the log in `region` belonging to
    /// thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if the region holds fewer than two cache lines (header plus at
    /// least one data entry).
    pub fn new(region: Region, tid: usize) -> Self {
        let lines = region.bytes / CACHE_LINE_BYTES;
        assert!(
            lines >= 2,
            "log region must hold a header and at least one entry"
        );
        Self {
            region,
            tid,
            capacity: lines - 1,
            head: 0,
            tail: 0,
            uncommitted: 0,
            has_committed: false,
            last_seq: 0,
        }
    }

    /// Data-entry capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of entries appended since the last commit.
    pub fn live(&self) -> u64 {
        self.uncommitted
    }

    /// Highest sequence number appended to this log.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Base address of data slot `i`.
    fn slot(&self, i: u64) -> Addr {
        debug_assert!(i < self.capacity);
        Addr(self.region.base.raw() + (1 + i) * CACHE_LINE_BYTES)
    }

    /// Base address of the header line (persistent head pointer).
    fn header(&self) -> Addr {
        self.region.base
    }

    /// Appends an entry: writes the six entry words and issues a CLWB for
    /// the entry line (single-flush publication). Returns the entry's
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the log is full; callers must commit before that point
    /// (the paper allocates overflow space dynamically; we bound the region
    /// and force timely commits instead — see DESIGN.md).
    pub fn append(&mut self, ctx: &mut FuncCtx, payload: EntryPayload) -> u64 {
        let occupancy = self.uncommitted + u64::from(self.has_committed);
        assert!(
            occupancy < self.capacity,
            "undo log full: commit before appending"
        );
        let seq = ctx.next_seq();
        let base = self.slot(self.tail);
        let ty = payload.etype.code();
        ctx.store(self.tid, base.offset_words(W_TYPE), ty);
        ctx.store(self.tid, base.offset_words(W_ADDR), payload.addr.raw());
        ctx.store(self.tid, base.offset_words(W_VALUE), payload.value);
        ctx.store(self.tid, base.offset_words(W_SEQ), seq);
        ctx.store(self.tid, base.offset_words(W_AUX), payload.aux);
        ctx.store(
            self.tid,
            base.offset_words(W_CHECKSUM),
            record_checksum(
                ENTRY_SALT,
                &[ty, payload.addr.raw(), payload.value, seq, payload.aux],
            ),
        );
        ctx.clwb(self.tid, base);
        self.tail = (self.tail + 1) % self.capacity;
        self.uncommitted += 1;
        self.last_seq = seq;
        seq
    }

    /// Commits all uncommitted entries (Figure 6): drain, append a commit
    /// record carrying the current cut, drain, invalidate the committed
    /// entries (including the *previous* commit record), drain, then advance
    /// and flush the persistent head pointer.
    ///
    /// A no-op when nothing new was appended since the last commit.
    pub fn commit_all(&mut self, ctx: &mut FuncCtx, design: HwDesign) {
        if self.uncommitted == 0 {
            return;
        }
        let cut = self.last_seq;
        let committed = self.uncommitted + u64::from(self.has_committed);
        // 1. All region updates and entries become durable before the
        //    commit intent is recorded.
        self.fence(ctx, design.drain_fence());
        // 2. Commit record (the commit-intent marker of Figure 6a step 2).
        let c_slot = self.tail;
        self.append(
            ctx,
            EntryPayload {
                etype: EntryType::Commit,
                addr: Addr::NULL,
                value: cut,
                aux: 0,
            },
        );
        self.fence(ctx, design.drain_fence());
        // 3–4. Invalidate the committed entries and the previous commit
        //    record, then advance the head (Figure 6a steps 3 and 4). The
        //    fresh record at `c_slot` stays live so the cut remains durably
        //    visible.
        self.retire(ctx, design, committed, c_slot);
    }

    /// Durable-cut header word (word 1 of the header line): everything at
    /// or below this sequence number was committed and made durable before
    /// any entry was discarded.
    pub fn header_cut_addr(&self) -> Addr {
        self.header().offset_words(1)
    }

    /// Discards every entry (including a retained commit record) and
    /// advances the persistent head: used by the coordinated commit
    /// protocol and by redo group commit. Before invalidating anything it
    /// publishes the durable cut in the header (word 1), ordered by a
    /// drain, so recovery always sees durable evidence of what was
    /// committed. The caller must have made all covered data durable
    /// (a drain fence) before calling.
    pub fn discard_all(&mut self, ctx: &mut FuncCtx, design: HwDesign) {
        let count = self.uncommitted + u64::from(self.has_committed);
        if count == 0 {
            return;
        }
        // Publish the durable cut before any entry disappears.
        ctx.store(self.tid, self.header_cut_addr(), self.last_seq);
        ctx.clwb(self.tid, self.header_cut_addr());
        self.fence(ctx, design.drain_fence());
        self.retire(ctx, design, count, self.tail);
    }

    /// Retires the `count` entries from the head: invalidates each
    /// (`TYPE := 0`), drains, advances and flushes the persistent head to
    /// `new_head`, and drains. A retained commit record exists afterwards
    /// exactly when `new_head` is not the tail.
    fn retire(&mut self, ctx: &mut FuncCtx, design: HwDesign, count: u64, new_head: u64) {
        for k in 0..count {
            let base = self.slot((self.head + k) % self.capacity);
            ctx.store(self.tid, base.offset_words(W_TYPE), 0);
            ctx.clwb(self.tid, base);
        }
        self.fence(ctx, design.drain_fence());
        self.head = new_head;
        self.uncommitted = 0;
        self.has_committed = new_head != self.tail;
        ctx.store(self.tid, self.header(), self.head);
        ctx.clwb(self.tid, self.header());
        self.fence(ctx, design.drain_fence());
    }

    fn fence(&self, ctx: &mut FuncCtx, kind: Option<FenceKind>) {
        if let Some(kind) = kind {
            ctx.fence(self.tid, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_pmem::PmLayout;

    fn setup() -> (FuncCtx, UndoLog) {
        let layout = PmLayout::new(1, 64);
        let region = layout.log_region(0);
        (FuncCtx::new(layout, 1), UndoLog::new(region, 0))
    }

    fn store_payload(addr: u64, old: u64) -> EntryPayload {
        EntryPayload {
            etype: EntryType::Store,
            addr: Addr(addr),
            value: old,
            aux: 0,
        }
    }

    #[test]
    fn append_then_decode_roundtrip() {
        let (mut ctx, mut log) = setup();
        let seq = log.append(&mut ctx, store_payload(0x2000_0000, 42));
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        let entries = scan_log_detailed(&img, layout_region(&ctx)).entries;
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].etype, EntryType::Store);
        assert_eq!(entries[0].addr, Addr(0x2000_0000));
        assert_eq!(entries[0].value, 42);
        assert_eq!(entries[0].seq, seq);
    }

    fn layout_region(ctx: &FuncCtx) -> Region {
        ctx.mem().layout().log_region(0)
    }

    #[test]
    fn unpersisted_entry_is_torn_and_ignored() {
        let (mut ctx, mut log) = setup();
        log.append(&mut ctx, store_payload(0x2000_0000, 42));
        // Nothing persisted: the image shows a free slot.
        let img = ctx.mem().persisted_image().clone();
        assert!(scan_log_detailed(&img, layout_region(&ctx))
            .entries
            .is_empty());
    }

    #[test]
    fn partially_persisted_entry_fails_checksum() {
        let (mut ctx, mut log) = setup();
        log.append(&mut ctx, store_payload(0x2000_0000, 42));
        // Forge a torn persist: copy the visible line, then zero one word in
        // the persisted image.
        ctx.mem_mut().persist_all();
        let region = layout_region(&ctx);
        let entry_base = Addr(region.base.raw() + CACHE_LINE_BYTES);
        let mut img = ctx.mem().persisted_image().clone();
        img.store(entry_base.offset_words(W_VALUE), 0xdead);
        assert!(
            scan_log_detailed(&img, region).entries.is_empty(),
            "torn entry must be ignored"
        );
    }

    #[test]
    fn commit_invalidates_entries() {
        let (mut ctx, mut log) = setup();
        log.append(&mut ctx, store_payload(0x2000_0000, 1));
        log.append(&mut ctx, store_payload(0x2000_0040, 2));
        assert_eq!(log.live(), 2);
        log.commit_all(&mut ctx, HwDesign::StrandWeaver);
        assert_eq!(log.live(), 0);
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        // Only the retained commit record survives.
        let entries = scan_log_detailed(&img, layout_region(&ctx)).entries;
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].etype, EntryType::Commit);
    }

    #[test]
    fn second_commit_invalidates_previous_commit_record() {
        let (mut ctx, mut log) = setup();
        log.append(&mut ctx, store_payload(0x2000_0000, 1));
        log.commit_all(&mut ctx, HwDesign::StrandWeaver);
        log.append(&mut ctx, store_payload(0x2000_0040, 2));
        log.commit_all(&mut ctx, HwDesign::StrandWeaver);
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        let commits: Vec<_> = scan_log_detailed(&img, layout_region(&ctx))
            .entries
            .into_iter()
            .filter(|e| e.etype == EntryType::Commit)
            .collect();
        assert_eq!(
            commits.len(),
            1,
            "exactly the newest commit record survives"
        );
    }

    #[test]
    fn commit_record_carries_cut_before_invalidation() {
        let (mut ctx, mut log) = setup();
        let s1 = log.append(&mut ctx, store_payload(0x2000_0000, 1));
        let s2 = log.append(&mut ctx, store_payload(0x2000_0040, 2));
        // Simulate a crash mid-commit: persist everything up to (and
        // including) the commit record, but not the invalidations. We drive
        // this by persisting all after the commit record is appended.
        let cut = log.last_seq;
        assert_eq!(cut, s2);
        let first = log.head;
        let _ = first;
        // Manually append the commit record path: run commit but capture the
        // image right after step 2 by persisting mid-way. Here we exercise
        // the codec: craft the image as the sampler could produce it.
        ctx.mem_mut().persist_all(); // both entries durable
        let mut img = ctx.mem().persisted_image().clone();
        // Write a commit record into slot 2 of the image directly.
        let region = layout_region(&ctx);
        let rec = Addr(region.base.raw() + 3 * CACHE_LINE_BYTES);
        let ty = EntryType::Commit.code();
        img.store(rec.offset_words(W_TYPE), ty);
        img.store(rec.offset_words(W_VALUE), cut);
        img.store(rec.offset_words(W_SEQ), cut + 1);
        img.store(
            rec.offset_words(W_CHECKSUM),
            record_checksum(ENTRY_SALT, &[ty, 0, cut, cut + 1, 0]),
        );
        let entries = scan_log_detailed(&img, region).entries;
        let commits: Vec<_> = entries
            .iter()
            .filter(|e| e.etype == EntryType::Commit)
            .collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].value, s2);
        assert!(entries.iter().any(|e| e.seq == s1));
    }

    #[test]
    fn log_wraps_around() {
        let layout = PmLayout::new(1, 6); // header + 5 data slots
        let region = layout.log_region(0);
        let mut ctx = FuncCtx::new(layout, 1);
        let mut log = UndoLog::new(region, 0);
        for round in 0..5 {
            for i in 0..3 {
                log.append(&mut ctx, store_payload(0x2000_0000 + i * 64, round));
            }
            log.commit_all(&mut ctx, HwDesign::StrandWeaver);
        }
        assert_eq!(log.live(), 0);
    }

    #[test]
    #[should_panic(expected = "undo log full")]
    fn append_past_capacity_panics() {
        let layout = PmLayout::new(1, 3); // 2 data slots
        let region = layout.log_region(0);
        let mut ctx = FuncCtx::new(layout, 1);
        let mut log = UndoLog::new(region, 0);
        for i in 0..3 {
            log.append(&mut ctx, store_payload(0x2000_0000 + i * 64, 0));
        }
    }

    #[test]
    fn commit_on_empty_log_is_noop() {
        let (mut ctx, mut log) = setup();
        let fences_before = ctx.stats().fences;
        log.commit_all(&mut ctx, HwDesign::StrandWeaver);
        assert_eq!(ctx.stats().fences, fences_before);
    }

    #[test]
    fn checksum_distinguishes_free_slot() {
        // An all-zero line must never decode as a valid entry.
        let img = PmImage::new();
        assert_eq!(classify_slot(&img, Addr(0x1000_0040)), SlotState::Free);
    }

    /// Builds an image holding one persisted entry and returns (image,
    /// region, entry line base).
    fn one_entry_image() -> (PmImage, Region, Addr) {
        let (mut ctx, mut log) = setup();
        log.append(&mut ctx, store_payload(0x2000_0000, 42));
        ctx.mem_mut().persist_all();
        let region = layout_region(&ctx);
        let img = ctx.mem().persisted_image().clone();
        let base = Addr(region.base.raw() + CACHE_LINE_BYTES);
        (img, region, base)
    }

    #[test]
    fn classify_covers_benign_states() {
        let (mut img, region, base) = one_entry_image();
        assert!(matches!(classify_slot(&img, base), SlotState::Valid(_)));
        // The next slot was never written: free.
        let free = Addr(region.base.raw() + 2 * CACHE_LINE_BYTES);
        assert_eq!(classify_slot(&img, free), SlotState::Free);
        // Invalidation: TYPE := 0 with stale words remaining.
        img.store(base.offset_words(W_TYPE), 0);
        assert_eq!(classify_slot(&img, base), SlotState::Invalidated);
    }

    #[test]
    fn torn_entry_classifies_torn_not_corrupt() {
        // Checksum word unpersisted (reads zero).
        let (mut img, _, base) = one_entry_image();
        img.store(base.offset_words(W_CHECKSUM), 0);
        assert_eq!(classify_slot(&img, base), SlotState::Torn);
        // Payload word unpersisted (reads zero) with checksum persisted.
        let (mut img, _, base) = one_entry_image();
        img.store(base.offset_words(W_VALUE), 0);
        assert_eq!(classify_slot(&img, base), SlotState::Torn);
    }

    #[test]
    fn bitflip_classifies_corrupt() {
        // Flipping the (legitimately zero) AUX word of a fully-persisted
        // store entry leaves every word nonzero with a stale checksum:
        // corruption that no tear can explain.
        let (mut img, _, base) = one_entry_image();
        img.store(base.offset_words(W_AUX), 1 << 17);
        assert_eq!(classify_slot(&img, base), SlotState::Corrupt);
        // An unknown type code under a recomputed (valid) checksum is also
        // corruption.
        let (mut img, _, base) = one_entry_image();
        let addr = img.load(base.offset_words(W_ADDR));
        let value = img.load(base.offset_words(W_VALUE));
        let seq = img.load(base.offset_words(W_SEQ));
        let aux = img.load(base.offset_words(W_AUX));
        img.store(base.offset_words(W_TYPE), 99);
        img.store(
            base.offset_words(W_CHECKSUM),
            record_checksum(ENTRY_SALT, &[99, addr, value, seq, aux]),
        );
        assert_eq!(classify_slot(&img, base), SlotState::Corrupt);
    }

    #[test]
    fn bitflip_with_zero_payload_word_masquerades_as_tear() {
        // A store entry's AUX word is legitimately zero, so a flip
        // elsewhere in the entry is indistinguishable from a tear of that
        // word: the classifier must (conservatively) say Torn, never
        // Valid. Fault injectors re-check the post-injection class rather
        // than assuming a flip always yields Corrupt.
        let (mut img, _, base) = one_entry_image();
        let v = img.load(base.offset_words(W_VALUE));
        img.store(base.offset_words(W_VALUE), v ^ (1 << 17));
        assert_eq!(classify_slot(&img, base), SlotState::Torn);
    }

    #[test]
    fn poisoned_line_classifies_poisoned() {
        let (mut img, _, base) = one_entry_image();
        img.poison_line(base.line());
        assert_eq!(classify_slot(&img, base), SlotState::Poisoned);
        assert!(SlotState::Poisoned.is_damaged());
        assert!(!SlotState::Free.is_damaged());
    }

    #[test]
    fn detailed_scan_decodes_entries_and_reports_damage() {
        let (mut ctx, mut log) = setup();
        for i in 0..4 {
            log.append(&mut ctx, store_payload(0x2000_0000 + i * 64, i));
        }
        ctx.mem_mut().persist_all();
        let region = layout_region(&ctx);
        let mut img = ctx.mem().persisted_image().clone();
        let detailed = scan_log_detailed(&img, region);
        let values: Vec<_> = detailed.entries.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
        assert_eq!(detailed.free as u64, region.bytes / CACHE_LINE_BYTES - 5);
        assert!(!detailed.damaged());
        // Damage slot 2 (flip the zero AUX word so every word reads
        // nonzero → Corrupt) and poison slot 3.
        let slot2 = Addr(region.base.raw() + 2 * CACHE_LINE_BYTES);
        img.store(slot2.offset_words(W_AUX), 0xbad);
        let slot3 = Addr(region.base.raw() + 3 * CACHE_LINE_BYTES);
        img.poison_line(slot3.line());
        let detailed = scan_log_detailed(&img, region);
        assert!(detailed.damaged());
        assert_eq!(detailed.corrupt, vec![2]);
        assert_eq!(detailed.poisoned, vec![3]);
        // Slot 3 still reads as a valid entry, but poison excludes it.
        assert_eq!(detailed.entries.len(), 2);
    }
}
