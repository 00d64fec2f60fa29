//! The redo-logging extension (paper Section VII sketch): deferred
//! updates, read-own-writes, group commit, and replay-based recovery.

use rand::SeedableRng;
use sw_lang::{FuncCtx, HwDesign, LangModel, RegionRecord, RuntimeConfig, ThreadRuntime};
use sw_model::isa::{FenceKind, IsaOp, LockId};
use sw_model::Pmo;
use sw_pmem::{Addr, PmLayout};

fn setup(design: HwDesign) -> (FuncCtx, ThreadRuntime, Addr) {
    let layout = PmLayout::new(1, 256);
    let heap = layout.heap_base();
    let ctx = FuncCtx::new(layout.clone(), 1);
    let rt = ThreadRuntime::new(
        &layout,
        0,
        RuntimeConfig::new(design, LangModel::Txn)
            .redo()
            .recording(),
    );
    (ctx, rt, heap)
}

#[test]
fn redo_region_executes_and_defers_updates() {
    let (mut ctx, mut rt, heap) = setup(HwDesign::StrandWeaver);
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, heap, 7);
    // Deferred: not yet visible in memory, but read-own-writes sees it.
    assert_eq!(ctx.mem().load(heap), 0, "in-place update deferred");
    assert_eq!(rt.load(&mut ctx, heap), 7, "read-own-writes");
    rt.region_end(&mut ctx);
    assert_eq!(ctx.mem().load(heap), 7, "applied at region end");
}

#[test]
fn redo_overwrites_in_one_region_apply_in_order() {
    let (mut ctx, mut rt, heap) = setup(HwDesign::StrandWeaver);
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, heap, 1);
    rt.store(&mut ctx, heap, 2);
    assert_eq!(rt.load(&mut ctx, heap), 2);
    rt.region_end(&mut ctx);
    assert_eq!(ctx.mem().load(heap), 2);
}

#[test]
fn redo_emits_no_drain_at_region_end() {
    let (mut ctx, mut rt, heap) = setup(HwDesign::StrandWeaver);
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, heap, 7);
    rt.region_end(&mut ctx);
    let joins = ctx.traces()[0]
        .iter()
        .filter(|o| matches!(o, IsaOp::Fence(FenceKind::JoinStrand)))
        .count();
    assert_eq!(joins, 0, "redo defers durability to group commit");
}

#[test]
fn redo_commit_record_precedes_updates_in_trace() {
    let (mut ctx, mut rt, heap) = setup(HwDesign::StrandWeaver);
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, heap, 7);
    rt.region_end(&mut ctx);
    // The in-place store to `heap` must appear after the last persist
    // barrier (which follows the commit record).
    let trace = &ctx.traces()[0];
    let update_pos = trace
        .iter()
        .position(|o| matches!(o, IsaOp::Store(a) if *a == heap))
        .expect("in-place update present");
    let last_pb_before = trace[..update_pos]
        .iter()
        .rposition(|o| matches!(o, IsaOp::Fence(FenceKind::PersistBarrier)))
        .expect("a persist barrier precedes the update");
    assert!(last_pb_before < update_pos);
}

#[test]
fn redo_recovery_replays_committed_but_unapplied_region() {
    let (mut ctx, mut rt, heap) = setup(HwDesign::StrandWeaver);
    let base = sw_lang::harness::baseline(&mut ctx);
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, heap, 7);
    rt.region_end(&mut ctx);
    // Craft the adversarial crash: everything persisted EXCEPT the
    // in-place update. Find the update via the execution and verify the
    // formal model + recovery handle it: sample many crashes and check
    // that whenever recovery reports a replay, the value is correct.
    let pmo = Pmo::compute(&ctx.execution(), HwDesign::StrandWeaver.memory_model());
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    let mut saw_replay = false;
    for _ in 0..200 {
        let outcome = sw_lang::harness::crash_and_recover(&ctx, &base, &pmo, &mut rng);
        let v = outcome.image.load(heap);
        assert!(
            v == 0 || v == 7,
            "redo recovery must be all-or-nothing, got {v}"
        );
        if outcome.report.replayed_redo > 0 {
            assert_eq!(v, 7, "committed region must be fully applied after replay");
            saw_replay = true;
        }
    }
    assert!(
        saw_replay,
        "sampling should hit committed-but-unapplied states"
    );
}

#[test]
fn redo_group_commit_truncates_log_and_stays_recoverable() {
    let layout = PmLayout::new(1, 64);
    let heap = layout.heap_base();
    let mut ctx = FuncCtx::new(layout.clone(), 1);
    let mut cfg = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn).redo();
    cfg.commit_threshold = Some(10);
    let mut rt = ThreadRuntime::new(&layout, 0, cfg);
    for k in 0..8u64 {
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap.offset_words(k * 8), k + 1);
        rt.region_end(&mut ctx);
    }
    assert!(
        rt.live_log_entries() < 10 + 6,
        "group commit must have truncated"
    );
    // Clean shutdown and recovery: all values durable.
    rt.shutdown(&mut ctx);
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    let report = sw_lang::recovery::recover(&mut img, &layout);
    let _ = report;
    for k in 0..8u64 {
        assert_eq!(img.load(heap.offset_words(k * 8)), k + 1);
    }
}

#[test]
fn redo_crashes_are_always_consistent_across_threads() {
    let threads = 2;
    let layout = PmLayout::new(threads, 128);
    let heap = layout.heap_base();
    let mut ctx = FuncCtx::new(layout.clone(), threads);
    let base = sw_lang::harness::baseline(&mut ctx);
    let mut rts: Vec<ThreadRuntime> = (0..threads)
        .map(|t| {
            ThreadRuntime::new(
                &layout,
                t,
                RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn)
                    .redo()
                    .recording(),
            )
        })
        .collect();
    for round in 0..5usize {
        for (t, rt) in rts.iter_mut().enumerate() {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            let v = (round * threads + t + 1) as u64;
            rt.store(&mut ctx, heap, v);
            rt.store(&mut ctx, heap.offset_words(8), v);
            rt.region_end(&mut ctx);
        }
    }
    let regions: Vec<RegionRecord> = rts
        .into_iter()
        .flat_map(ThreadRuntime::into_records)
        .collect();
    let pmo = Pmo::compute(&ctx.execution(), HwDesign::StrandWeaver.memory_model());
    let mut rng = rand::rngs::SmallRng::seed_from_u64(31);
    for _ in 0..120 {
        let outcome = sw_lang::harness::crash_and_recover(&ctx, &base, &pmo, &mut rng);
        sw_lang::harness::check_replay_consistency(&outcome, &base, &regions).unwrap();
        assert_eq!(
            outcome.image.load(heap),
            outcome.image.load(heap.offset_words(8)),
            "canary pair must never tear under redo"
        );
    }
}
