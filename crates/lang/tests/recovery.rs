//! Recovery behavior across models: rollback of uncommitted regions,
//! commit-cut tracking, idempotence, and phase tracing.

use sw_lang::recovery::{recover, recover_with_policy_traced, RecoveryPolicy};
use sw_lang::{FuncCtx, HwDesign, LangModel, RuntimeConfig, ThreadRuntime};
use sw_model::isa::LockId;
use sw_pmem::PmLayout;
use sw_trace::TraceEvent;

fn run_one_region(design: HwDesign, lang: LangModel, commit: bool) -> (FuncCtx, PmLayout) {
    let layout = PmLayout::new(1, 256);
    let heap = layout.heap_base();
    let mut ctx = FuncCtx::new(layout.clone(), 1);
    let mut rt = ThreadRuntime::new(&layout, 0, RuntimeConfig::new(design, lang));
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, heap, 7);
    rt.store(&mut ctx, heap.offset_words(8), 8);
    rt.region_end(&mut ctx);
    if commit {
        rt.shutdown(&mut ctx);
    }
    (ctx, layout)
}

#[test]
fn rollback_of_uncommitted_region() {
    // SFR leaves the region uncommitted; persist everything, crash,
    // recover: the region must be undone (entries valid, no commit).
    let (mut ctx, layout) = run_one_region(HwDesign::StrandWeaver, LangModel::Sfr, false);
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    let report = recover(&mut img, &layout);
    assert_eq!(report.rolled_back_stores, 2);
    assert_eq!(
        img.load(layout.heap_base()),
        0,
        "update rolled back to old value"
    );
    assert_eq!(img.load(layout.heap_base().offset_words(8)), 0);
}

#[test]
fn committed_region_is_not_rolled_back() {
    let (mut ctx, layout) = run_one_region(HwDesign::StrandWeaver, LangModel::Txn, false);
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    let report = recover(&mut img, &layout);
    assert!(report.was_clean());
    assert_eq!(img.load(layout.heap_base()), 7);
    assert_eq!(img.load(layout.heap_base().offset_words(8)), 8);
}

#[test]
fn nothing_persisted_recovers_to_initial_state() {
    let (ctx, layout) = run_one_region(HwDesign::StrandWeaver, LangModel::Txn, false);
    let mut img = ctx.mem().persisted_image().clone(); // nothing persisted
    let report = recover(&mut img, &layout);
    assert!(report.was_clean());
    assert_eq!(img.load(layout.heap_base()), 0);
}

#[test]
fn reverse_order_rollback_unwinds_overwrites() {
    // Two uncommitted regions writing the same word: rollback must land
    // on the value before the first region.
    let layout = PmLayout::new(1, 256);
    let heap = layout.heap_base();
    let mut ctx = FuncCtx::new(layout.clone(), 1);
    let mut rt = ThreadRuntime::new(
        &layout,
        0,
        RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Sfr),
    );
    for v in [5, 9] {
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, v);
        rt.region_end(&mut ctx);
    }
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    let report = recover(&mut img, &layout);
    assert_eq!(report.rolled_back_stores, 2);
    assert_eq!(img.load(heap), 0);
}

#[test]
fn report_tracks_commit_cuts() {
    let (mut ctx, layout) = run_one_region(HwDesign::StrandWeaver, LangModel::Txn, false);
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    let report = recover(&mut img, &layout);
    assert!(report.per_thread_cut[0] > 0);
}

#[test]
fn native_runs_recover_clean() {
    // Log-free: the log region stays empty, so recovery finds nothing to
    // do regardless of where the crash landed.
    let (mut ctx, layout) = run_one_region(HwDesign::Eadr, LangModel::Native, false);
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    let report = recover(&mut img, &layout);
    assert!(report.was_clean());
    assert_eq!(report.discarded_committed, 0);
    assert_eq!(report.sync_entries, 0);
    assert_eq!(img.load(layout.heap_base()), 7, "updates stay in place");
}

#[test]
fn traced_recovery_emits_phase_events() {
    let (mut ctx, layout) = run_one_region(HwDesign::StrandWeaver, LangModel::Sfr, false);
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    let mut rec = sw_trace::RingRecorder::new(64);
    let outcome = recover_with_policy_traced(&mut img, &layout, RecoveryPolicy::Strict, &mut rec)
        .expect("an undamaged image passes strict recovery");
    assert_eq!(outcome.report.rolled_back_stores, 2);
    let events = rec.events();
    let begins = events
        .iter()
        .filter(|e| e.event.kind() == "recovery_begin")
        .count();
    let ends = events
        .iter()
        .filter(|e| e.event.kind() == "recovery_end")
        .count();
    assert_eq!(begins, 4, "heap, scan, redo, undo each open a phase");
    assert_eq!(ends, 4, "every phase closes");
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            TraceEvent::RecoveryEnd {
                phase: "undo",
                items: 2
            }
        )),
        "undo phase reports the two rolled-back stores"
    );
}

#[test]
fn recovery_is_idempotent() {
    let (mut ctx, layout) = run_one_region(HwDesign::StrandWeaver, LangModel::Sfr, false);
    ctx.mem_mut().persist_all();
    let mut img = ctx.mem().persisted_image().clone();
    recover(&mut img, &layout);
    let snapshot = img.clone();
    recover(&mut img, &layout);
    assert_eq!(img, snapshot);
}
