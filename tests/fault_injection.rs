//! Integration: fault-injection campaigns across the (workload × language
//! model × design) matrix, plus Salvage-soundness properties — the
//! `Salvage` recovery policy must never vouch for data it cannot prove.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use strandweaver::experiment::Experiment;
use strandweaver::faults::{FaultClass, FaultInjector, FaultPlan};
use strandweaver::lang::harness::{
    baseline, check_replay_consistency, check_salvage_consistency, crash_image,
    recovery_reconverges, CrashOutcome,
};
use strandweaver::lang::recovery::{recover_with_policy, RecoveryPolicy};
use strandweaver::lang::{LogStrategy, RegionRecord};
use strandweaver::model::isa::LockId;
use strandweaver::{
    BenchmarkId, FuncCtx, HwDesign, LangModel, PmLayout, Pmo, RuntimeConfig, ThreadRuntime,
};

fn campaign(bench: BenchmarkId, lang: LangModel, design: HwDesign, redo: bool) {
    let mut e = Experiment::new(bench, lang, design)
        .threads(2)
        .total_regions(12)
        .ops_per_region(2);
    if redo {
        e = e.redo();
    }
    let report = e
        .run_fault_campaign(6)
        .unwrap_or_else(|err| panic!("{bench} {lang} {design}: {err}"));
    assert!(
        report.fully_detected(),
        "{bench} {lang} {design}: {}",
        report.render()
    );
    assert_eq!(report.reconverged, report.rounds);
}

/// Every legal (language model × recoverable design) pair survives the
/// injection campaign with complete detection.
#[test]
fn fault_campaign_covers_langs_and_designs() {
    for lang in LangModel::ALL {
        for design in HwDesign::ALL.into_iter().filter(|d| d.recoverable()) {
            if lang.legal_on(design) {
                campaign(BenchmarkId::Queue, lang, design, false);
            }
        }
    }
}

/// The redo strategy's logs carry checksums too.
#[test]
fn fault_campaign_covers_redo_logging() {
    for design in [HwDesign::StrandWeaver, HwDesign::IntelX86] {
        campaign(BenchmarkId::Queue, LangModel::Txn, design, true);
    }
}

/// Structured workloads beyond the queue.
#[test]
fn fault_campaign_covers_workloads() {
    for bench in [BenchmarkId::Hashmap, BenchmarkId::ArraySwap] {
        campaign(bench, LangModel::Txn, HwDesign::StrandWeaver, false);
    }
}

/// Allocator-metadata damage across the matrix: every legal (language
/// model × recoverable design) pair fully detects journal injections,
/// Strict-rejects the fatal ones, and quarantines exactly the damaged
/// pools under Salvage. Unlike the log campaign, even the log-free
/// Native model has targets — setup carves are always journaled.
#[test]
fn heap_fault_campaign_covers_langs_and_designs() {
    for lang in LangModel::ALL {
        for design in HwDesign::ALL.into_iter().filter(|d| d.recoverable()) {
            if lang.legal_on(design) {
                let report = Experiment::new(BenchmarkId::Queue, lang, design)
                    .threads(2)
                    .total_regions(12)
                    .ops_per_region(2)
                    .run_heap_fault_campaign(6)
                    .unwrap_or_else(|err| panic!("{lang} {design}: {err}"));
                assert!(report.injected() > 0, "{lang} {design}: no targets");
                assert!(
                    report.fully_detected(),
                    "{lang} {design}: {}",
                    report.render()
                );
                assert_eq!(report.reconverged, report.rounds);
            }
        }
    }
}

/// Churning workloads put run-time alloc/free records in the journal;
/// the campaign must hold there too.
#[test]
fn heap_fault_campaign_covers_churn_workloads() {
    for bench in [BenchmarkId::Hashmap, BenchmarkId::NStoreWr] {
        let report = Experiment::new(bench, LangModel::Txn, HwDesign::StrandWeaver)
            .threads(2)
            .total_regions(12)
            .ops_per_region(2)
            .run_heap_fault_campaign(6)
            .unwrap_or_else(|err| panic!("{bench}: {err}"));
        assert!(report.fully_detected(), "{bench}: {}", report.render());
    }
}

/// One region: which thread runs it and which (word, value) writes it does.
type RegionPlan = (usize, Vec<(u64, u64)>);

fn arb_regions() -> impl Strategy<Value = Vec<RegionPlan>> {
    prop::collection::vec(
        (0usize..2, prop::collection::vec((0u64..8, 1u64..100), 1..5)),
        1..10,
    )
}

/// Runs a two-thread TXN plan to completion and returns what the crash
/// harness needs (mirrors `sw-lang`'s property-test driver).
fn run_plan(plan: &[RegionPlan]) -> (FuncCtx, strandweaver::PmImage, Vec<RegionRecord>) {
    let layout = PmLayout::new(2, 256);
    let heap = layout.heap_base();
    let mut ctx = FuncCtx::new(layout.clone(), 2);
    ctx.set_record_program(false);
    let base = baseline(&mut ctx);
    ctx.set_record_program(true);
    let mut rts: Vec<ThreadRuntime> = (0..2)
        .map(|t| {
            let mut cfg = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn).recording();
            cfg.strategy = LogStrategy::Undo;
            ThreadRuntime::new(&layout, t, cfg)
        })
        .collect();
    for (tid, writes) in plan {
        let rt = &mut rts[*tid];
        rt.region_begin(&mut ctx, &[LockId(0)]);
        for (w, v) in writes {
            rt.store(&mut ctx, heap.offset_words(w * 8), *v);
        }
        rt.region_end(&mut ctx);
    }
    let records = rts
        .into_iter()
        .flat_map(ThreadRuntime::into_records)
        .collect();
    (ctx, base, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Salvage soundness: on an arbitrarily damaged crash image, `Salvage`
    /// either quarantines every damaged thread — and the surviving
    /// regions then satisfy the replay contract — or, when it reports
    /// nothing salvaged, the *unrestricted* consistency check must pass
    /// (i.e. it never claims success on an image the plain checks would
    /// reject). Recovery must also reconverge when interrupted mid-pass.
    #[test]
    fn salvage_never_vouches_for_damaged_data(
        plan in arb_regions(),
        seed in 0u64..10_000,
        class_idx in 0usize..3,
    ) {
        let (ctx, base, records) = run_plan(&plan);
        let layout = ctx.mem().layout().clone();
        let pmo = Pmo::compute(&ctx.execution(), HwDesign::StrandWeaver.memory_model());
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut img, _) = crash_image(&pmo, &base, &mut rng);
        let class = FaultClass::ALL[class_idx];
        let injected = FaultInjector::new(FaultPlan::single(class), seed ^ 0xabcd)
            .inject(&mut img, &layout);
        let crash = img.clone();
        let outcome = recover_with_policy(&mut img, &layout, RecoveryPolicy::Salvage)
            .expect("salvage never errors");
        let r = check_salvage_consistency(&img, &outcome, &base, &records);
        prop_assert!(r.is_ok(), "{:?}: {:?}", class, r);
        if outcome.salvaged_threads.is_empty() {
            // Nothing dropped, so nothing was damaged — the injector must
            // have found no target, and the full contract must hold.
            prop_assert!(injected.is_empty(), "injected damage went unsalvaged");
            let as_crash = CrashOutcome {
                image: img.clone(),
                report: outcome.report.clone(),
                persisted_stores: 0,
            };
            let r = check_replay_consistency(&as_crash, &base, &records);
            prop_assert!(r.is_ok(), "unsalvaged inconsistency: {:?}", r);
        } else {
            for f in &injected {
                prop_assert!(
                    outcome.salvaged_threads.contains(&f.tid),
                    "thread {} damaged but not salvaged", f.tid
                );
            }
        }
        let r = recovery_reconverges(&crash, &layout, RecoveryPolicy::Salvage, &mut rng);
        prop_assert!(r.is_ok(), "{:?}", r);
    }
}
