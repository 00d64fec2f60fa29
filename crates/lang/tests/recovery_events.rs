//! Byte-for-byte golden of policy recovery over damaged images: the trace
//! events `recover_with_policy_traced` emits (as JSONL) and the outcome it
//! returns, under both `Strict` and `Salvage`, for fixtures that together
//! hold every `RecoveryFault` variant.
//!
//! The golden lives in the repository's `expected/` directory beside the
//! figure and campaign goldens; regenerate it only when recovery's
//! reporting changes on purpose.

use sw_lang::log::{W_AUX, W_CHECKSUM};
use sw_lang::recovery::{recover_with_policy_traced, RecoveryPolicy};
use sw_lang::{
    classify_slot, FuncCtx, HwDesign, LangModel, RuntimeConfig, SlotState, ThreadRuntime,
    GLOBAL_CUT_LOCK,
};
use sw_model::isa::LockId;
use sw_pmem::alloc::HW_OFF;
use sw_pmem::{
    classify_heap_slot, encode_heap_record, Addr, BlockKind, HeapSlotState, PmImage, PmLayout,
    CACHE_LINE_BYTES, HW_CHECKSUM,
};
use sw_trace::{jsonl, RingRecorder};

const GOLDEN: &str = include_str!("../../../expected/recovery_events.jsonl");

/// The undamaged crash image every fixture starts from, and its layout.
///
/// * Pools 0 and 1 hold setup carves; pool 0 is then checkpointed, so it
///   has a published table (epoch 1).
/// * Thread 0 (SFR, undo) leaves two regions uncommitted: slots 1–6 of its
///   log hold acquire, store, end, acquire, store, end, and recovery rolls
///   both stores back.
/// * Thread 1 (TXN, redo) commits one region that allocates a block from
///   pool 1 and writes it; recovery replays its redo entries. The alloc
///   record sits in pool 1's journal slot 1.
fn base() -> (PmImage, PmLayout) {
    let layout = PmLayout::new(2, 64);
    let mut ctx = FuncCtx::new(layout.clone(), 2);
    let x = ctx.heap().alloc_lines(1);
    let y = ctx.heap().alloc_lines(1);
    ctx.heap_pool(1).alloc_lines(2);
    ctx.heap_checkpoint(0);
    // Nonzero old values, so a damaged store entry has no zero word.
    ctx.store(0, x, 5);
    ctx.store(0, y, 6);
    ctx.mem_mut().persist_all();

    let sfr = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Sfr);
    let mut t0 = ThreadRuntime::new(&layout, 0, sfr);
    for (addr, value) in [(x, 9), (y, 8)] {
        t0.region_begin(&mut ctx, &[LockId(1)]);
        t0.store(&mut ctx, addr, value);
        t0.region_end(&mut ctx);
    }
    let txn_redo = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn).redo();
    let mut t1 = ThreadRuntime::new(&layout, 1, txn_redo);
    t1.region_begin(&mut ctx, &[LockId(2)]);
    let block = t1.heap_alloc(&mut ctx, 1);
    t1.store(&mut ctx, block, 77);
    t1.region_end(&mut ctx);
    ctx.mem_mut().persist_all();
    (ctx.mem().persisted_image().clone(), layout)
}

/// Base address of data slot `slot` of thread `tid`'s log.
fn log_slot(layout: &PmLayout, tid: usize, slot: u64) -> Addr {
    Addr(layout.log_region(tid).base.raw() + slot * CACHE_LINE_BYTES)
}

/// One kind of damage applied to the base image.
#[derive(Clone, Copy)]
enum Damage {
    LogTorn(usize, u64),
    LogCorrupt(usize, u64),
    LogPoisoned(usize, u64),
    LogHeaderPoisoned(usize),
    MetaPoisoned,
    JournalTorn(usize, u64),
    JournalCorrupt(usize, u64),
    JournalPoisoned(usize, u64),
    JournalFreesUnallocated(usize, u64),
    TableCorrupt(usize),
    BadPoolHeader(usize),
}

impl Damage {
    fn apply(self, img: &mut PmImage, layout: &PmLayout) {
        match self {
            Damage::LogTorn(tid, slot) => {
                let base = log_slot(layout, tid, slot);
                img.store(base.offset_words(W_CHECKSUM), 0);
                assert_eq!(classify_slot(img, base), SlotState::Torn);
            }
            Damage::LogCorrupt(tid, slot) => {
                let base = log_slot(layout, tid, slot);
                img.store(base.offset_words(W_AUX), 0xbad);
                assert_eq!(classify_slot(img, base), SlotState::Corrupt);
            }
            Damage::LogPoisoned(tid, slot) => img.poison_line(log_slot(layout, tid, slot).line()),
            Damage::LogHeaderPoisoned(tid) => img.poison_line(layout.log_region(tid).base.line()),
            Damage::MetaPoisoned => img.poison_line(layout.lock_addr(GLOBAL_CUT_LOCK).line()),
            Damage::JournalTorn(pool, slot) => {
                let base = layout.heap_journal_slot(pool, slot);
                img.store(base.offset_words(HW_CHECKSUM), 0);
                assert_eq!(classify_heap_slot(img, base), HeapSlotState::Torn);
            }
            Damage::JournalCorrupt(pool, slot) => {
                let base = layout.heap_journal_slot(pool, slot);
                img.store(base.offset_words(HW_OFF), 0xbad);
                assert_eq!(classify_heap_slot(img, base), HeapSlotState::Corrupt);
            }
            Damage::JournalPoisoned(pool, slot) => {
                img.poison_line(layout.heap_journal_slot(pool, slot).line());
            }
            Damage::JournalFreesUnallocated(pool, slot) => {
                // A checksum-valid record after the previous slot's, freeing
                // the line just past that record's block, which no record
                // allocated.
                let prev = layout.heap_journal_slot(pool, slot - 1);
                let HeapSlotState::Valid(r) = classify_heap_slot(img, prev) else {
                    panic!("slot {} of pool {pool} holds no record", slot - 1);
                };
                let free = encode_heap_record(
                    false,
                    r.off + r.lines,
                    1,
                    r.seq + 1,
                    r.epoch,
                    BlockKind::Dynamic,
                );
                let base = layout.heap_journal_slot(pool, slot);
                for (i, &w) in free.iter().enumerate() {
                    img.store(base.offset_words(i as u64), w);
                }
                assert!(matches!(
                    classify_heap_slot(img, base),
                    HeapSlotState::Valid(_)
                ));
            }
            Damage::TableCorrupt(pool) => {
                // Entry 0's checksum word of the epoch-1 table.
                let entry0_sum = layout.heap_table_base(pool, 0).offset_words(4);
                img.store(entry0_sum, img.load(entry0_sum) ^ 1);
            }
            Damage::BadPoolHeader(pool) => img.store(layout.pool_meta_base(pool), 0x0bad_f00d),
        }
    }
}

fn fixtures() -> Vec<(&'static str, Vec<Damage>)> {
    use Damage::*;
    vec![
        ("clean", vec![]),
        ("log_torn", vec![LogTorn(0, 2)]),
        ("log_corrupt", vec![LogCorrupt(0, 2)]),
        ("log_poisoned", vec![LogPoisoned(0, 5)]),
        ("log_header_poisoned", vec![LogHeaderPoisoned(1)]),
        ("meta_poisoned", vec![MetaPoisoned]),
        ("journal_torn", vec![JournalTorn(1, 1)]),
        ("journal_corrupt", vec![JournalCorrupt(1, 1)]),
        ("journal_poisoned", vec![JournalPoisoned(1, 0)]),
        ("journal_inconsistent", vec![JournalFreesUnallocated(1, 2)]),
        ("table_corrupt", vec![TableCorrupt(0)]),
        ("bad_pool_header", vec![BadPoolHeader(2)]),
        (
            "combined",
            vec![
                LogTorn(0, 2),
                LogCorrupt(0, 5),
                LogHeaderPoisoned(1),
                JournalTorn(1, 1),
                BadPoolHeader(2),
            ],
        ),
    ]
}

/// Every fixture under both policies: a `#` header line, the trace events
/// as JSONL, then the outcome or the error.
fn render() -> String {
    let (clean, layout) = base();
    let mut out = String::new();
    for (name, damage) in fixtures() {
        for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
            let mut img = clean.clone();
            for d in &damage {
                d.apply(&mut img, &layout);
            }
            let rec = RingRecorder::new(256);
            let mut sink = rec.clone();
            let result = recover_with_policy_traced(&mut img, &layout, policy, &mut sink);
            out.push_str(&format!("# {name} {policy:?}\n"));
            out.push_str(&jsonl(&rec.events()));
            match result {
                Ok(o) => {
                    out.push_str(&format!("counts {:?}\n", o.report.detected));
                    out.push_str(&format!("faults {:?}\n", o.faults));
                    out.push_str(&format!(
                        "salvaged threads {:?} pools {:?}\n",
                        o.salvaged_threads, o.salvaged_pools
                    ));
                    out.push_str(&format!(
                        "cuts {:?} writes {}\n",
                        o.report.per_thread_cut,
                        o.writes.len()
                    ));
                }
                Err(e) => {
                    out.push_str(&format!("error {e}\n"));
                    out.push_str(&format!("first {:?} counts {:?}\n", e.first, e.detected));
                }
            }
        }
    }
    out
}

#[test]
fn policy_recovery_events_match_their_golden() {
    assert_eq!(render(), GOLDEN);
}
