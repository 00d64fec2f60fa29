//! Crash-consistent buddy allocator over the persistent heap.
//!
//! The heap is split into [`HEAP_POOLS`] independently-recoverable pools.
//! Each pool holds a power-of-two *arena* of cache lines followed by a
//! metadata block that lives in PM:
//!
//! ```text
//! pool p:  [ arena: 2^k data lines | header (1 line) | journal
//!            (HEAP_JOURNAL_SLOTS lines) | table A | table B ]
//! ```
//!
//! Allocator state is reconstructed at recovery from two PM structures:
//!
//! * a **redo journal** of alloc/free records, one 64-byte slot per
//!   record, published checksum-last exactly like the undo log of
//!   `sw-lang` (a torn record fails its checksum and is ignored — the
//!   in-flight allocation it described is thereby reclaimed);
//! * a double-buffered **checkpoint table** of live blocks written with
//!   the entries-then-commit-last discipline of `remap.rs`: entries and
//!   their count first, a fence, then the table's epoch word — so a
//!   crash mid-checkpoint leaves the previous table authoritative.
//!
//! Every journal record is tagged with the epoch of the checkpoint it
//! follows; records from older epochs are stale (already folded into a
//! table) and ignored by replay. All record payload words are biased by
//! +1 so a valid record contains no zero word: a checksum mismatch with
//! a zero word is a benign tear, a mismatch with all words non-zero is
//! corruption — the same taxonomy `sw-lang::classify_slot` uses.
//!
//! The volatile side ([`PoolAlloc`]) is a classic binary buddy: free
//! blocks of order *k* coalesce with their buddy (`off ^ 2^k`) on free.
//! Two allocation paths exist:
//!
//! * [`PoolAlloc::carve`] — setup-time, bump-like placement at the low
//!   frontier of the arena. Carves of arbitrary length are reserved as a
//!   run of maximal aligned power-of-two sub-blocks, so workload roots
//!   keep the exact addresses the old `Bump` allocator handed out.
//! * [`PoolAlloc::alloc`] / [`PoolAlloc::free`] — run-time dynamic
//!   blocks, rounded to a power of two. Freed blocks are quarantined in
//!   a pending list until [`PoolAlloc::release_pending`] so a block is
//!   never reused while the region that freed it could still roll back.
//!
//! Replay is deterministic and idempotent: rebuilding from (newest valid
//! table) + (epoch-matching journal records in sequence order) always
//! yields the same live-block set, and re-running it changes nothing.

use std::collections::{BTreeMap, BTreeSet};

use crate::addr::{Addr, LineAddr, CACHE_LINE_BYTES, WORDS_PER_LINE};
use crate::image::PmImage;
use crate::layout::PmLayout;

/// Number of independently-recoverable heap pools.
pub const HEAP_POOLS: usize = 4;
/// Journal capacity per pool, in one-line record slots.
pub const HEAP_JOURNAL_SLOTS: u64 = 256;
/// Size of one checkpoint table, in cache lines.
pub const HEAP_TABLE_LINES: u64 = 384;
/// Metadata lines per pool: header + journal + two checkpoint tables.
pub const HEAP_META_LINES: u64 = 1 + HEAP_JOURNAL_SLOTS + 2 * HEAP_TABLE_LINES;
/// Magic word identifying a formatted pool header.
pub const HEAP_MAGIC: u64 = 0x5357_4845_4150_0001;

/// Word offset of the record-kind field within a journal slot.
pub const HW_KIND: u64 = 0;
/// Word offset of the block-offset field (stored as `off + 1`).
pub const HW_OFF: u64 = 1;
/// Word offset of the block-length field (stored as `lines + 1`).
pub const HW_LEN: u64 = 2;
/// Word offset of the sequence field (stored as `seq + 1`).
pub const HW_SEQ: u64 = 3;
/// Word offset of the epoch field (stored as `epoch + 1`).
pub const HW_EPOCH: u64 = 4;
/// Word offset of the aux field (stored as `aux + 1`; aux is the
/// [`BlockKind`] code).
pub const HW_AUX: u64 = 5;
/// Word offset of the record checksum (covers words 0–5, never zero).
pub const HW_CHECKSUM: u64 = 6;

/// Word offset of a checkpoint table's epoch word (published last).
pub const TABLE_W_EPOCH: u64 = 0;
/// Word offset of a checkpoint table's entry count.
pub const TABLE_W_COUNT: u64 = 1;
/// Words per checkpoint table entry: offset, packed length, checksum.
pub const TABLE_ENTRY_WORDS: u64 = 3;
/// Maximum live blocks a checkpoint table can record.
pub const TABLE_CAPACITY: u64 =
    (HEAP_TABLE_LINES * WORDS_PER_LINE as u64 - TABLE_W_COUNT - 1) / TABLE_ENTRY_WORDS;

const KIND_ALLOC: u64 = 1;
const KIND_FREE: u64 = 2;
/// Bit of the packed-length table word that marks a carve block.
const CARVE_BIT: u64 = 1 << 63;

/// How a live block was allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Setup-time frontier carve (never freed; arbitrary length).
    Carve,
    /// Run-time buddy block (power-of-two length; freeable).
    Dynamic,
}

impl BlockKind {
    fn code(self) -> u64 {
        match self {
            BlockKind::Dynamic => 0,
            BlockKind::Carve => 1,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(BlockKind::Dynamic),
            1 => Some(BlockKind::Carve),
            _ => None,
        }
    }
}

/// A decoded, checksum-valid journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapRecord {
    /// `true` for an alloc record, `false` for a free record.
    pub is_alloc: bool,
    /// Arena line offset of the block.
    pub off: u64,
    /// Block length in lines.
    pub lines: u64,
    /// Per-pool monotonic sequence number (replay order).
    pub seq: u64,
    /// Checkpoint epoch the record belongs to.
    pub epoch: u64,
    /// Block kind.
    pub kind: BlockKind,
    /// Journal slot the record was read from.
    pub slot: u64,
}

/// Classification of one journal slot in a crashed image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapSlotState {
    /// All-zero slot: never written this epoch.
    Free,
    /// Checksum-valid record.
    Valid(HeapRecord),
    /// Checksum mismatch with at least one zero word: a partial persist
    /// of a record that was mid-publication — benign, the in-flight
    /// operation is reclaimed by ignoring it.
    Torn,
    /// Checksum mismatch with every word non-zero: cannot be a tear of
    /// a checksum-last publication — silent corruption.
    Corrupt,
    /// Uncorrectable media error on the slot's line.
    Poisoned,
}

/// Salt of the journal record checksum ([`record_checksum`] over words
/// 0–5).
const RECORD_SALT: u64 = 0x51f0_a11c_0de5_ee01;

/// Checksum of a checksum-last PM record (an undo-log entry of `sw-lang`
/// or an allocator-journal record): a cheap mix over the payload words,
/// seeded with a per-format `salt`. Its purpose is tear detection under
/// word-granular crash sampling, not adversarial integrity. Never zero,
/// so it never matches the zero word of a fresh slot.
#[inline]
pub fn record_checksum(salt: u64, words: &[u64]) -> u64 {
    let mut h = salt;
    for &w in words {
        h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        h = h.rotate_left(23);
    }
    h | 1
}

/// Encodes a journal record as the eight words of its slot line. All
/// payload words carry a +1 bias so a valid record has no zero word.
pub fn encode_heap_record(
    is_alloc: bool,
    off: u64,
    lines: u64,
    seq: u64,
    epoch: u64,
    kind: BlockKind,
) -> [u64; 8] {
    let payload = [
        if is_alloc { KIND_ALLOC } else { KIND_FREE },
        off + 1,
        lines + 1,
        seq + 1,
        epoch + 1,
        kind.code() + 1,
    ];
    let mut w = [0u64; 8];
    w[..6].copy_from_slice(&payload);
    w[HW_CHECKSUM as usize] = record_checksum(RECORD_SALT, &payload);
    w
}

/// Classifies the journal slot whose line starts at `base`.
pub fn classify_heap_slot(img: &PmImage, base: Addr) -> HeapSlotState {
    if img.is_poisoned(base.line()) {
        return HeapSlotState::Poisoned;
    }
    let w = img.line_words(base.line());
    if w == [0; WORDS_PER_LINE] {
        return HeapSlotState::Free;
    }
    let payload = [w[0], w[1], w[2], w[3], w[4], w[5]];
    let kind_ok = w[0] == KIND_ALLOC || w[0] == KIND_FREE;
    if kind_ok
        && w[HW_CHECKSUM as usize] == record_checksum(RECORD_SALT, &payload)
        && payload.iter().all(|&v| v != 0)
    {
        if let Some(kind) = BlockKind::from_code(w[HW_AUX as usize] - 1) {
            return HeapSlotState::Valid(HeapRecord {
                is_alloc: w[0] == KIND_ALLOC,
                off: w[HW_OFF as usize] - 1,
                lines: w[HW_LEN as usize] - 1,
                seq: w[HW_SEQ as usize] - 1,
                epoch: w[HW_EPOCH as usize] - 1,
                kind,
                slot: 0,
            });
        }
    }
    // A checksum-last publication can only lose a suffix of its words
    // (or whole words at random under the word-granular sampler); any
    // mismatch that still contains a zero word is explainable as a tear.
    if w[..7].contains(&0) {
        HeapSlotState::Torn
    } else {
        HeapSlotState::Corrupt
    }
}

/// Checkpoint table entry checksum (covers the entry's position and the
/// epoch it was written under, `remap.rs`-style).
pub fn heap_table_checksum(epoch: u64, index: u64, off: u64, packed_len: u64) -> u64 {
    (off ^ packed_len.rotate_left(17) ^ epoch.rotate_left(31) ^ index.rotate_left(47))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ 0x5151_5151_5151_5151
}

/// Encodes a checkpoint of `blocks` under `epoch` as word writes
/// relative to the table base.
///
/// The returned groups must be made durable in order, with a persist
/// barrier between them: `pre` (zero the stale epoch word), `body`
/// (entries, then count), and finally `publish` (the epoch word). A
/// crash before `publish` leaves the table unreadable (epoch 0 or
/// stale) and the previous table authoritative.
///
/// # Panics
///
/// Panics if `blocks` exceeds [`TABLE_CAPACITY`] or `epoch` is zero.
pub fn encode_checkpoint(epoch: u64, blocks: &[(u64, u64, BlockKind)]) -> CheckpointWrites {
    assert!(epoch > 0, "checkpoint epochs start at 1");
    assert!(
        blocks.len() as u64 <= TABLE_CAPACITY,
        "checkpoint overflow: {} live blocks > capacity {}",
        blocks.len(),
        TABLE_CAPACITY
    );
    let mut body = Vec::with_capacity(blocks.len() * 3 + 1);
    for (i, &(off, lines, kind)) in blocks.iter().enumerate() {
        let packed = match kind {
            BlockKind::Carve => lines | CARVE_BIT,
            BlockKind::Dynamic => lines,
        };
        let base = TABLE_W_COUNT + 1 + i as u64 * TABLE_ENTRY_WORDS;
        body.push((base, off));
        body.push((base + 1, packed));
        body.push((base + 2, heap_table_checksum(epoch, i as u64, off, packed)));
    }
    body.push((TABLE_W_COUNT, blocks.len() as u64));
    CheckpointWrites {
        pre: vec![(TABLE_W_EPOCH, 0)],
        body,
        publish: (TABLE_W_EPOCH, epoch),
    }
}

/// Fence-separated write groups of one checkpoint (see
/// [`encode_checkpoint`]). Offsets are words relative to the table base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointWrites {
    /// Invalidate the target table before reuse.
    pub pre: Vec<(u64, u64)>,
    /// Entries followed by the entry count.
    pub body: Vec<(u64, u64)>,
    /// The epoch word — durable last; publishing the checkpoint.
    pub publish: (u64, u64),
}

/// A checkpointed block list: `(arena line offset, lines, kind)` per block.
pub type BlockList = Vec<(u64, u64, BlockKind)>;

/// Result of decoding one checkpoint table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableDecode {
    /// Epoch word is zero: never published, or mid-checkpoint.
    Empty,
    /// A published, self-consistent table.
    Valid {
        /// Epoch the table was written under.
        epoch: u64,
        /// Live blocks at checkpoint time.
        blocks: BlockList,
    },
    /// The table is published but fails its checksums, or a table line
    /// is poisoned. `entry` is the first bad entry index (`u64::MAX`
    /// for header/poison damage).
    Damaged {
        /// First damaged entry, or `u64::MAX`.
        entry: u64,
        /// `true` when the damage is a poisoned line.
        poisoned: bool,
    },
}

/// Decodes the checkpoint table at `base`.
pub fn decode_table(img: &PmImage, base: Addr) -> TableDecode {
    for l in 0..HEAP_TABLE_LINES {
        if img.is_poisoned(Addr(base.raw() + l * CACHE_LINE_BYTES).line()) {
            return TableDecode::Damaged {
                entry: u64::MAX,
                poisoned: true,
            };
        }
    }
    let epoch = img.load(base.offset_words(TABLE_W_EPOCH));
    if epoch == 0 {
        return TableDecode::Empty;
    }
    let count = img.load(base.offset_words(TABLE_W_COUNT));
    if count > TABLE_CAPACITY {
        return TableDecode::Damaged {
            entry: u64::MAX,
            poisoned: false,
        };
    }
    // The epoch word persists after everything else (fence-ordered), so
    // under a published epoch the entries are complete: any checksum
    // mismatch here is corruption, not a tear.
    let mut blocks = Vec::with_capacity(count as usize);
    for i in 0..count {
        let e = base.offset_words(TABLE_W_COUNT + 1 + i * TABLE_ENTRY_WORDS);
        let off = img.load(e);
        let packed = img.load(e.offset_words(1));
        let sum = img.load(e.offset_words(2));
        if sum != heap_table_checksum(epoch, i, off, packed) {
            return TableDecode::Damaged {
                entry: i,
                poisoned: false,
            };
        }
        let kind = if packed & CARVE_BIT != 0 {
            BlockKind::Carve
        } else {
            BlockKind::Dynamic
        };
        blocks.push((off, packed & !CARVE_BIT, kind));
    }
    TableDecode::Valid { epoch, blocks }
}

/// Damage found in a pool's PM metadata during the recovery scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapFault {
    /// A metadata line is poisoned (header, journal slot, or table).
    Poisoned {
        /// Pool index.
        pool: usize,
        /// Poisoned line (`LineAddr` raw value).
        line: u64,
    },
    /// A journal slot fails its checksum with no zero word.
    CorruptRecord {
        /// Pool index.
        pool: usize,
        /// Journal slot index.
        slot: u64,
    },
    /// A journal slot is torn (benign: the in-flight record is
    /// reclaimed by ignoring it).
    TornRecord {
        /// Pool index.
        pool: usize,
        /// Journal slot index.
        slot: u64,
    },
    /// A published checkpoint table fails its checksums.
    CorruptTable {
        /// Pool index.
        pool: usize,
        /// First damaged entry index, or `u64::MAX`.
        entry: u64,
    },
    /// The pool header holds neither zero nor [`HEAP_MAGIC`].
    BadHeader {
        /// Pool index.
        pool: usize,
    },
    /// The journal replays to an inconsistent state (overlapping allocs
    /// or a free of a non-live block).
    InconsistentJournal {
        /// Pool index.
        pool: usize,
        /// Slot of the record that failed to apply.
        slot: u64,
    },
}

impl HeapFault {
    /// `true` when Strict-policy recovery must reject the image.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, HeapFault::TornRecord { .. })
    }

    /// The pool the fault was found in.
    pub fn pool(&self) -> usize {
        match *self {
            HeapFault::Poisoned { pool, .. }
            | HeapFault::CorruptRecord { pool, .. }
            | HeapFault::TornRecord { pool, .. }
            | HeapFault::CorruptTable { pool, .. }
            | HeapFault::BadHeader { pool }
            | HeapFault::InconsistentJournal { pool, .. } => pool,
        }
    }
}

/// Result of scanning one pool's PM metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolScan {
    /// Pool index.
    pub pool: usize,
    /// `true` when the pool header carries [`HEAP_MAGIC`].
    pub formatted: bool,
    /// Active checkpoint epoch (0 before the first checkpoint).
    pub epoch: u64,
    /// Live blocks recorded by the newest valid checkpoint table.
    pub base_blocks: BlockList,
    /// Valid journal records of the active epoch, sequence-sorted.
    pub records: Vec<HeapRecord>,
    /// Valid records from older epochs (already folded into a table).
    pub stale_records: u64,
    /// One past the highest journal slot observed in any non-free
    /// state — appends after recovery must start above every occupied
    /// or damaged slot.
    pub high_slot: u64,
    /// All damage found, benign tears included.
    pub faults: Vec<HeapFault>,
}

impl PoolScan {
    /// Journal slots holding torn (reclaimed in-flight) records.
    pub fn torn_slots(&self) -> u64 {
        self.faults
            .iter()
            .filter(|f| matches!(f, HeapFault::TornRecord { .. }))
            .count() as u64
    }

    /// `true` when the scan found damage Strict recovery must reject.
    pub fn has_fatal(&self) -> bool {
        self.faults.iter().any(HeapFault::is_fatal)
    }
}

/// Scans pool `pool`'s PM metadata: header, both checkpoint tables, and
/// the journal. Only written or poisoned journal slots are classified;
/// every other slot reads all-zero and is `Free`. Read-only; never mutates
/// the image.
pub fn scan_pool(img: &PmImage, layout: &PmLayout, pool: usize) -> PoolScan {
    let mut scan = PoolScan {
        pool,
        formatted: false,
        epoch: 0,
        base_blocks: Vec::new(),
        records: Vec::new(),
        stale_records: 0,
        high_slot: 0,
        faults: Vec::new(),
    };
    let header = layout.pool_meta_base(pool);
    if img.is_poisoned(header.line()) {
        scan.faults.push(HeapFault::Poisoned {
            pool,
            line: header.line().raw(),
        });
        return scan;
    }
    match img.load(header) {
        0 => return scan, // never formatted: nothing to recover
        HEAP_MAGIC => scan.formatted = true,
        _ => {
            scan.faults.push(HeapFault::BadHeader { pool });
            return scan;
        }
    }
    // Newest published table wins; a damaged table is fatal only if it
    // is the newest (an older damaged table is already superseded).
    let mut best: Option<(u64, BlockList)> = None;
    let mut damaged_tables = Vec::new();
    for which in 0..2 {
        match decode_table(img, layout.heap_table_base(pool, which)) {
            TableDecode::Empty => {}
            TableDecode::Valid { epoch, blocks } => {
                if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
                    best = Some((epoch, blocks));
                }
            }
            TableDecode::Damaged { entry, poisoned } => {
                if poisoned {
                    damaged_tables.push(HeapFault::Poisoned {
                        pool,
                        line: layout.heap_table_base(pool, which).line().raw(),
                    });
                } else {
                    damaged_tables.push(HeapFault::CorruptTable { pool, entry });
                }
            }
        }
    }
    scan.faults.extend(damaged_tables);
    if let Some((epoch, blocks)) = best {
        scan.epoch = epoch;
        scan.base_blocks = blocks;
    }
    let first = layout.heap_journal_slot(pool, 0).line();
    let journal = first..LineAddr(first.0 + HEAP_JOURNAL_SLOTS);
    for line in img.occupied_lines(journal) {
        let slot = line.0 - first.0;
        let state = classify_heap_slot(img, line.base());
        if state != HeapSlotState::Free {
            scan.high_slot = slot + 1;
        }
        match state {
            HeapSlotState::Free => {}
            HeapSlotState::Valid(mut r) => {
                if r.epoch == scan.epoch {
                    r.slot = slot;
                    scan.records.push(r);
                } else {
                    scan.stale_records += 1;
                }
            }
            HeapSlotState::Torn => scan.faults.push(HeapFault::TornRecord { pool, slot }),
            HeapSlotState::Corrupt => scan.faults.push(HeapFault::CorruptRecord { pool, slot }),
            HeapSlotState::Poisoned => scan.faults.push(HeapFault::Poisoned {
                pool,
                line: line.raw(),
            }),
        }
    }
    scan.records.sort_by_key(|r| r.seq);
    scan
}

/// Running statistics of one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frontier carves performed.
    pub carves: u64,
    /// Dynamic allocations performed.
    pub allocs: u64,
    /// Frees performed.
    pub frees: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

/// Volatile buddy-allocator state of one pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolAlloc {
    arena_lines: u64,
    max_order: u32,
    /// Free block offsets, indexed by order.
    free: Vec<BTreeSet<u64>>,
    /// Live blocks by offset.
    live: BTreeMap<u64, (u64, BlockKind)>,
    /// Low-water carve frontier (line offset).
    frontier: u64,
    /// Freed blocks quarantined until [`PoolAlloc::release_pending`].
    pending: Vec<(u64, u64)>,
    /// Next journal slot to append to.
    pub next_slot: u64,
    /// Next record sequence number.
    pub next_seq: u64,
    /// Current checkpoint epoch.
    pub epoch: u64,
    /// Operation counters.
    pub stats: PoolStats,
}

fn order_of(lines: u64) -> u32 {
    debug_assert!(lines.is_power_of_two());
    lines.trailing_zeros()
}

impl PoolAlloc {
    /// An empty pool over a power-of-two arena of `arena_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `arena_lines` is not a power of two.
    pub fn new(arena_lines: u64) -> Self {
        assert!(
            arena_lines.is_power_of_two(),
            "arena must be a power of two"
        );
        let max_order = order_of(arena_lines);
        let mut free = vec![BTreeSet::new(); max_order as usize + 1];
        free[max_order as usize].insert(0);
        Self {
            arena_lines,
            max_order,
            free,
            live: BTreeMap::new(),
            frontier: 0,
            pending: Vec::new(),
            next_slot: 0,
            next_seq: 0,
            epoch: 0,
            stats: PoolStats::default(),
        }
    }

    /// Arena size in lines.
    pub fn arena_lines(&self) -> u64 {
        self.arena_lines
    }

    /// Current carve frontier (line offset).
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Claims the block of `1 << order` lines at `off`, splitting larger
    /// free blocks as needed. Fails if any part of it is not free.
    fn claim(&mut self, off: u64, order: u32) -> Result<(), ()> {
        for o in order..=self.max_order {
            let sup = off & !((1u64 << o) - 1);
            if self.free[o as usize].remove(&sup) {
                // Split back down, keeping the half containing `off`.
                let mut b = sup;
                for o2 in (order..o).rev() {
                    let half = 1u64 << o2;
                    if off < b + half {
                        self.free[o2 as usize].insert(b + half);
                    } else {
                        self.free[o2 as usize].insert(b);
                        b += half;
                    }
                }
                debug_assert_eq!(b, off);
                return Ok(());
            }
        }
        Err(())
    }

    /// Returns a free block of `1 << order` lines to the free lists,
    /// coalescing with its buddy greedily.
    fn insert_free(&mut self, mut off: u64, mut order: u32) {
        while order < self.max_order {
            let buddy = off ^ (1u64 << order);
            if !self.free[order as usize].remove(&buddy) {
                break;
            }
            off = off.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(off);
    }

    /// Reserves the arbitrary-length range `[off, off + lines)` as a run
    /// of maximal aligned power-of-two sub-blocks. Fails (leaving a
    /// partial reservation) if any part is not free; callers treat that
    /// as journal inconsistency.
    fn reserve_range(&mut self, off: u64, lines: u64) -> Result<(), ()> {
        if off + lines > self.arena_lines {
            return Err(());
        }
        let mut cur = off;
        let end = off + lines;
        while cur < end {
            let align = if cur == 0 {
                self.max_order
            } else {
                cur.trailing_zeros().min(self.max_order)
            };
            let fit = 63 - (end - cur).leading_zeros();
            let order = align.min(fit);
            self.claim(cur, order)?;
            cur += 1u64 << order;
        }
        Ok(())
    }

    /// Registers `[off, off + lines)` as a live block without touching
    /// the free lists (rebuild helper).
    fn insert_live(&mut self, off: u64, lines: u64, kind: BlockKind) -> Result<(), ()> {
        if self.live.insert(off, (lines, kind)).is_some() {
            return Err(());
        }
        Ok(())
    }

    /// Setup-time frontier carve of exactly `lines` lines (any length).
    ///
    /// `carve(0)` is well-defined: it returns the current frontier and
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the range at the frontier is not free — carves must
    /// precede dynamic allocation.
    pub fn carve(&mut self, lines: u64) -> Option<u64> {
        if lines == 0 {
            return Some(self.frontier);
        }
        let off = self.frontier;
        if off + lines > self.arena_lines {
            return None;
        }
        self.reserve_range(off, lines)
            .expect("heap carve after dynamic allocation");
        self.insert_live(off, lines, BlockKind::Carve)
            .expect("fresh carve");
        self.frontier = off + lines;
        self.stats.carves += 1;
        Some(off)
    }

    /// Allocates a dynamic block of at least `lines` lines, rounded up
    /// to a power of two. Returns the block's line offset, preferring
    /// the lowest-addressed block of the smallest adequate order
    /// (deterministic).
    pub fn alloc(&mut self, lines: u64) -> Option<u64> {
        let block = lines.max(1).next_power_of_two();
        let order = order_of(block);
        if order > self.max_order {
            return None;
        }
        let (o, off) = (order..=self.max_order)
            .find_map(|o| self.free[o as usize].first().map(|&off| (o, off)))?;
        self.free[o as usize].remove(&off);
        // Split down keeping the low half: the upper half at each level
        // returns to the free lists.
        for o2 in (order..o).rev() {
            self.free[o2 as usize].insert(off + (1u64 << o2));
        }
        self.insert_live(off, block, BlockKind::Dynamic).ok()?;
        self.stats.allocs += 1;
        Some(off)
    }

    /// Frees the dynamic block at `off`, quarantining it until
    /// [`PoolAlloc::release_pending`]. Returns the block length for
    /// journaling, or `None` if `off` is not a live dynamic block.
    pub fn free(&mut self, off: u64) -> Option<u64> {
        match self.live.get(&off) {
            Some(&(lines, BlockKind::Dynamic)) => {
                self.live.remove(&off);
                self.pending.push((off, lines));
                self.stats.frees += 1;
                Some(lines)
            }
            _ => None,
        }
    }

    /// Returns quarantined freed blocks to the free lists. Callers must
    /// only do this once the regions that performed the frees are
    /// durably committed (otherwise a rollback could resurrect a block
    /// that was already reallocated).
    pub fn release_pending(&mut self) {
        for (off, lines) in std::mem::take(&mut self.pending) {
            self.insert_free(off, order_of(lines));
        }
    }

    /// Blocks freed but not yet returned to the free lists.
    pub fn pending_blocks(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Live blocks, address-ordered: `(offset, lines, kind)`.
    pub fn live_blocks(&self) -> impl Iterator<Item = (u64, u64, BlockKind)> + '_ {
        self.live
            .iter()
            .map(|(&off, &(lines, kind))| (off, lines, kind))
    }

    /// Number of live blocks.
    pub fn live_count(&self) -> u64 {
        self.live.len() as u64
    }

    /// Lines occupied by live blocks.
    pub fn live_lines(&self) -> u64 {
        self.live.values().map(|&(lines, _)| lines).sum()
    }

    /// Lines on the free lists (excludes quarantined pending frees).
    pub fn free_lines(&self) -> u64 {
        self.free
            .iter()
            .enumerate()
            .map(|(o, s)| (s.len() as u64) << o)
            .sum()
    }

    /// Largest free block, in lines (0 when the pool is full).
    pub fn largest_free_lines(&self) -> u64 {
        self.free
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| !s.is_empty())
            .map_or(0, |(o, _)| 1u64 << o)
    }

    /// External fragmentation: `1 - largest_free / total_free`, or 0.0
    /// when nothing is free.
    pub fn fragmentation(&self) -> f64 {
        let total = self.free_lines();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_lines() as f64 / total as f64
    }

    /// `true` when every arena line is accounted for exactly once across
    /// live blocks, free lists, and the pending quarantine.
    pub fn accounting_exact(&self) -> bool {
        let pending: u64 = self.pending.iter().map(|&(_, l)| l).sum();
        self.live_lines() + self.free_lines() + pending == self.arena_lines
    }

    /// Claims the next journal slot and sequence number for a record of
    /// the block `[off, off + lines)` (an alloc when `is_alloc`, else a
    /// free) and encodes it. Returns the slot and the eight words the
    /// caller writes at `PmLayout::heap_journal_slot(pool, slot)`.
    ///
    /// # Panics
    ///
    /// Panics if the journal is full: checkpoint before that point.
    pub fn journal(
        &mut self,
        is_alloc: bool,
        off: u64,
        lines: u64,
        kind: BlockKind,
    ) -> (u64, [u64; 8]) {
        assert!(
            self.next_slot < HEAP_JOURNAL_SLOTS,
            "allocator journal full: checkpoint at a quiesce point"
        );
        let slot = self.next_slot;
        let words = encode_heap_record(is_alloc, off, lines, self.next_seq, self.epoch, kind);
        self.next_slot += 1;
        self.next_seq += 1;
        (slot, words)
    }

    /// Rebuilds a pool from a recovery scan: checkpoint base blocks
    /// first, then the epoch's journal records in sequence order.
    /// Deterministic and idempotent. Fails with the offending slot if
    /// the journal is inconsistent with itself or the table.
    pub fn rebuild(scan: &PoolScan, arena_lines: u64) -> Result<Self, HeapFault> {
        let mut p = Self::new(arena_lines);
        p.epoch = scan.epoch;
        let bad = |slot| HeapFault::InconsistentJournal {
            pool: scan.pool,
            slot,
        };
        for &(off, lines, kind) in &scan.base_blocks {
            p.reserve_range(off, lines).map_err(|()| bad(u64::MAX))?;
            p.insert_live(off, lines, kind)
                .map_err(|()| bad(u64::MAX))?;
            if kind == BlockKind::Carve {
                p.frontier = p.frontier.max(off + lines);
            }
        }
        for r in &scan.records {
            if r.is_alloc {
                p.reserve_range(r.off, r.lines).map_err(|()| bad(r.slot))?;
                p.insert_live(r.off, r.lines, r.kind)
                    .map_err(|()| bad(r.slot))?;
                if r.kind == BlockKind::Carve {
                    p.frontier = p.frontier.max(r.off + r.lines);
                }
            } else {
                match p.live.get(&r.off) {
                    Some(&(lines, BlockKind::Dynamic)) if lines == r.lines => {
                        p.live.remove(&r.off);
                        p.insert_free(r.off, order_of(lines));
                    }
                    _ => return Err(bad(r.slot)),
                }
            }
        }
        p.next_seq = scan.records.last().map_or(0, |r| r.seq + 1);
        p.next_slot = scan.high_slot;
        p.stats.allocs = scan.records.iter().filter(|r| r.is_alloc).count() as u64;
        p.stats.frees = scan.records.iter().filter(|r| !r.is_alloc).count() as u64;
        Ok(p)
    }
}

/// Outcome of recovering every pool of an image.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapRecovery {
    /// Rebuilt pools; `None` for pools whose metadata is damaged
    /// (quarantined under Salvage policy).
    pub pools: Vec<Option<PoolAlloc>>,
    /// Scan results, one per pool.
    pub scans: Vec<PoolScan>,
    /// All faults across pools, pool-ordered.
    pub faults: Vec<HeapFault>,
}

impl HeapRecovery {
    /// Pools whose metadata carried fatal damage or failed replay.
    pub fn damaged_pools(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| f.is_fatal())
            .map(|f| f.pool())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Live blocks across healthy pools.
    pub fn live_blocks(&self) -> u64 {
        self.pools.iter().flatten().map(|p| p.live_count()).sum()
    }

    /// Torn in-flight journal records reclaimed by the scan.
    pub fn reclaimed_records(&self) -> u64 {
        self.scans.iter().map(|s| s.torn_slots()).sum()
    }
}

/// Scans and rebuilds every pool of `img`, one pool after another. Each
/// pool is independently recoverable and its metadata is a fixed
/// [`HEAP_META_LINES`] lines, so a scan costs less than spawning a thread
/// for it would.
pub fn recover_heap(img: &PmImage, layout: &PmLayout) -> HeapRecovery {
    let pools = layout.heap_pools();
    let mut out = HeapRecovery {
        pools: Vec::with_capacity(pools),
        scans: Vec::with_capacity(pools),
        faults: Vec::new(),
    };
    for p in 0..pools {
        let scan = scan_pool(img, layout, p);
        out.faults.extend(scan.faults.iter().copied());
        if scan.has_fatal() {
            out.pools.push(None);
        } else {
            match PoolAlloc::rebuild(&scan, layout.pool_arena_lines(p)) {
                Ok(pool) => out.pools.push(Some(pool)),
                Err(f) => {
                    out.faults.push(f);
                    out.pools.push(None);
                }
            }
        }
        out.scans.push(scan);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARENA: u64 = 1 << 12;

    #[test]
    fn carve_is_bump_compatible() {
        let mut p = PoolAlloc::new(ARENA);
        assert_eq!(p.carve(3), Some(0));
        assert_eq!(p.carve(1), Some(3));
        assert_eq!(p.carve(0), Some(4), "zero-size carve returns the frontier");
        assert_eq!(p.carve(4), Some(4));
        assert!(p.accounting_exact());
    }

    #[test]
    fn alloc_free_round_trip_coalesces() {
        let mut p = PoolAlloc::new(ARENA);
        let a = p.alloc(4).unwrap();
        let b = p.alloc(4).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.free(a), Some(4));
        assert_eq!(p.free(b), Some(4));
        assert_eq!(p.free_lines(), ARENA - 8, "pending blocks stay quarantined");
        p.release_pending();
        assert_eq!(p.free_lines(), ARENA);
        assert_eq!(p.largest_free_lines(), ARENA, "full coalescing");
        assert!(p.accounting_exact());
    }

    #[test]
    fn free_of_carve_or_unknown_is_rejected() {
        let mut p = PoolAlloc::new(ARENA);
        let c = p.carve(2).unwrap();
        assert_eq!(p.free(c), None);
        assert_eq!(p.free(999), None);
    }

    #[test]
    fn record_round_trips_and_tears_classify() {
        let mut img = PmImage::new();
        let base = Addr(0x1000);
        let w = encode_heap_record(true, 7, 4, 3, 2, BlockKind::Dynamic);
        for (i, &v) in w.iter().enumerate() {
            img.store(base.offset_words(i as u64), v);
        }
        match classify_heap_slot(&img, base) {
            HeapSlotState::Valid(r) => {
                assert!(r.is_alloc);
                assert_eq!((r.off, r.lines, r.seq, r.epoch), (7, 4, 3, 2));
                assert_eq!(r.kind, BlockKind::Dynamic);
            }
            s => panic!("expected valid, got {s:?}"),
        }
        // Every word-prefix of the publication is Free or Torn — never
        // Corrupt, never a bogus Valid.
        for cut in 0..8 {
            let mut torn = PmImage::new();
            for i in 0..cut {
                torn.store(base.offset_words(i as u64), w[i as usize]);
            }
            match classify_heap_slot(&torn, base) {
                HeapSlotState::Free | HeapSlotState::Torn => {}
                HeapSlotState::Valid(_) if cut >= 7 => {}
                s => panic!("prefix {cut}: unexpected {s:?}"),
            }
        }
        // All-words-nonzero damage classifies Corrupt.
        img.store(base.offset_words(HW_OFF), 0xdead_beef);
        assert_eq!(classify_heap_slot(&img, base), HeapSlotState::Corrupt);
    }

    #[test]
    fn checkpoint_prefixes_keep_previous_table_authoritative() {
        let layout = PmLayout::new(1, 64);
        let mut img = PmImage::new();
        let t = layout.heap_table_base(0, 0);
        // Publish epoch 1 with one block.
        let cp1 = encode_checkpoint(1, &[(0, 2, BlockKind::Carve)]);
        for &(w, v) in cp1.pre.iter().chain(&cp1.body) {
            img.store(t.offset_words(w), v);
        }
        img.store(t.offset_words(cp1.publish.0), cp1.publish.1);
        assert!(matches!(
            decode_table(&img, t),
            TableDecode::Valid { epoch: 1, .. }
        ));
        // Now overwrite with epoch 2, stopping at every write boundary:
        // the table must decode Empty (pre applied) or stay consistent —
        // never Damaged.
        let cp2 = encode_checkpoint(2, &[(0, 2, BlockKind::Carve), (8, 8, BlockKind::Dynamic)]);
        let all: Vec<(u64, u64)> = cp2
            .pre
            .iter()
            .chain(&cp2.body)
            .copied()
            .chain(std::iter::once(cp2.publish))
            .collect();
        for cut in 0..=all.len() {
            let mut i2 = img.clone();
            for &(w, v) in &all[..cut] {
                i2.store(t.offset_words(w), v);
            }
            match decode_table(&i2, t) {
                TableDecode::Empty => assert!(cut < all.len()),
                TableDecode::Valid { epoch, blocks } => {
                    if cut == 0 {
                        assert_eq!(epoch, 1);
                    } else {
                        assert_eq!(epoch, 2);
                        assert_eq!(blocks.len(), 2);
                    }
                }
                TableDecode::Damaged { .. } => panic!("cut {cut}: damaged"),
            }
        }
    }

    #[test]
    fn rebuild_replays_checkpoint_then_journal() {
        let layout = PmLayout::new(1, 64);
        let mut img = PmImage::new();
        img.store(layout.pool_meta_base(0), HEAP_MAGIC);
        // Checkpoint: carve [0,4) live at epoch 1.
        let t = layout.heap_table_base(0, 0);
        let cp = encode_checkpoint(1, &[(0, 4, BlockKind::Carve)]);
        for &(w, v) in cp.pre.iter().chain(&cp.body) {
            img.store(t.offset_words(w), v);
        }
        img.store(t.offset_words(cp.publish.0), cp.publish.1);
        // Journal: alloc 8@8 (seq 0), free it (seq 1), alloc 16@8 (seq 2),
        // plus one stale epoch-0 record that must be ignored.
        let recs = [
            encode_heap_record(true, 8, 8, 0, 1, BlockKind::Dynamic),
            encode_heap_record(false, 8, 8, 1, 1, BlockKind::Dynamic),
            encode_heap_record(true, 8, 16, 2, 1, BlockKind::Dynamic),
            encode_heap_record(true, 100, 1, 9, 0, BlockKind::Dynamic),
        ];
        for (slot, rec) in recs.iter().enumerate() {
            let base = layout.heap_journal_slot(0, slot as u64);
            for (i, &v) in rec.iter().enumerate() {
                img.store(base.offset_words(i as u64), v);
            }
        }
        let scan = scan_pool(&img, &layout, 0);
        assert!(scan.formatted);
        assert_eq!(scan.epoch, 1);
        assert_eq!(scan.stale_records, 1);
        assert!(scan.faults.is_empty());
        let p = PoolAlloc::rebuild(&scan, layout.pool_arena_lines(0)).unwrap();
        let live: Vec<_> = p.live_blocks().collect();
        assert_eq!(
            live,
            vec![(0, 4, BlockKind::Carve), (8, 16, BlockKind::Dynamic)]
        );
        assert_eq!(p.frontier(), 4);
        assert_eq!(p.next_seq, 3);
        assert_eq!(p.next_slot, 4);
        assert!(p.accounting_exact());
        // Idempotence: a second scan + rebuild is identical.
        let p2 =
            PoolAlloc::rebuild(&scan_pool(&img, &layout, 0), layout.pool_arena_lines(0)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn overlapping_journal_allocs_fail_rebuild() {
        let layout = PmLayout::new(1, 64);
        let mut img = PmImage::new();
        img.store(layout.pool_meta_base(0), HEAP_MAGIC);
        for (slot, rec) in [
            encode_heap_record(true, 0, 8, 0, 0, BlockKind::Dynamic),
            encode_heap_record(true, 4, 8, 1, 0, BlockKind::Dynamic),
        ]
        .iter()
        .enumerate()
        {
            let base = layout.heap_journal_slot(0, slot as u64);
            for (i, &v) in rec.iter().enumerate() {
                img.store(base.offset_words(i as u64), v);
            }
        }
        let scan = scan_pool(&img, &layout, 0);
        let err = PoolAlloc::rebuild(&scan, layout.pool_arena_lines(0)).unwrap_err();
        assert_eq!(err, HeapFault::InconsistentJournal { pool: 0, slot: 1 });
    }

    #[test]
    fn unformatted_pool_scans_clean() {
        let layout = PmLayout::new(1, 64);
        let img = PmImage::new();
        let scan = scan_pool(&img, &layout, 2);
        assert!(!scan.formatted);
        assert!(scan.faults.is_empty());
        assert!(scan.records.is_empty());
    }

    #[test]
    fn poisoned_header_is_a_fatal_pool_fault() {
        let layout = PmLayout::new(1, 64);
        let mut img = PmImage::new();
        img.poison_line(layout.pool_meta_base(1).line());
        let scan = scan_pool(&img, &layout, 1);
        assert!(scan.has_fatal());
        let rec = recover_heap(&img, &layout);
        assert_eq!(rec.damaged_pools(), vec![1]);
        assert!(rec.pools[1].is_none());
        assert!(rec.pools[0].is_some(), "other pools recover independently");
    }

    #[test]
    fn recover_heap_is_deterministic() {
        let layout = PmLayout::new(2, 64);
        let mut img = PmImage::new();
        for p in 0..layout.heap_pools() {
            img.store(layout.pool_meta_base(p), HEAP_MAGIC);
            let rec = encode_heap_record(true, p as u64 * 2, 2, 0, 0, BlockKind::Dynamic);
            let base = layout.heap_journal_slot(p, 0);
            for (i, &v) in rec.iter().enumerate() {
                img.store(base.offset_words(i as u64), v);
            }
        }
        let a = recover_heap(&img, &layout);
        let b = recover_heap(&img, &layout);
        assert_eq!(a, b);
        assert_eq!(a.live_blocks(), layout.heap_pools() as u64);
        assert!(a.faults.is_empty());
    }
}
