//! Integration: crash-consistency campaigns for every workload × language
//! model on the recoverable designs, plus the non-atomic counterexample
//! and the allocator-journal crash matrix (a crash at every persist point
//! of a churning run must recover with zero leaked blocks).

use std::collections::HashSet;

use strandweaver::experiment::Experiment;
use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_lang::recovery::{recover_with_policy, RecoveryPolicy};
use sw_lang::HeapState;
use sw_model::{crash, Pmo};
use sw_pmem::{BlockKind, PmImage, PmLayout};
use sw_workloads::driver::{drive, DriverParams};
use sw_workloads::Workload;

fn campaign(bench: BenchmarkId, lang: LangModel, design: HwDesign, regions: usize, rounds: usize) {
    Experiment::new(bench, lang, design)
        .threads(2)
        .total_regions(regions)
        .ops_per_region(2)
        .run_crash_campaign(rounds)
        .unwrap_or_else(|e| panic!("{bench} {lang} {design}: {e}"));
}

#[test]
fn queue_survives_crashes_under_all_models_and_designs() {
    for lang in LangModel::ALL {
        // Every design that promises recoverability must deliver it; the
        // deliberately broken NonAtomic bound is covered separately below.
        for design in HwDesign::ALL.into_iter().filter(|d| d.recoverable()) {
            if lang.legal_on(design) {
                campaign(BenchmarkId::Queue, lang, design, 16, 8);
            }
        }
    }
}

#[test]
fn hashmap_survives_crashes() {
    for lang in LangModel::ALL {
        let design = if lang.legal_on(HwDesign::StrandWeaver) {
            HwDesign::StrandWeaver
        } else {
            HwDesign::Eadr
        };
        campaign(BenchmarkId::Hashmap, lang, design, 16, 8);
    }
    campaign(
        BenchmarkId::Hashmap,
        LangModel::Txn,
        HwDesign::IntelX86,
        16,
        8,
    );
}

#[test]
fn array_swap_survives_crashes() {
    campaign(
        BenchmarkId::ArraySwap,
        LangModel::Txn,
        HwDesign::StrandWeaver,
        16,
        8,
    );
    campaign(
        BenchmarkId::ArraySwap,
        LangModel::Sfr,
        HwDesign::StrandWeaver,
        16,
        8,
    );
}

#[test]
fn rbtree_survives_crashes() {
    campaign(
        BenchmarkId::RbTree,
        LangModel::Txn,
        HwDesign::StrandWeaver,
        20,
        10,
    );
    campaign(
        BenchmarkId::RbTree,
        LangModel::Atlas,
        HwDesign::StrandWeaver,
        20,
        6,
    );
}

#[test]
fn tpcc_survives_crashes() {
    campaign(
        BenchmarkId::Tpcc,
        LangModel::Txn,
        HwDesign::StrandWeaver,
        12,
        6,
    );
    campaign(BenchmarkId::Tpcc, LangModel::Sfr, HwDesign::Hops, 12, 6);
}

#[test]
fn nstore_survives_crashes() {
    campaign(
        BenchmarkId::NStoreWr,
        LangModel::Txn,
        HwDesign::StrandWeaver,
        16,
        8,
    );
    campaign(
        BenchmarkId::NStoreBal,
        LangModel::Sfr,
        HwDesign::StrandWeaver,
        16,
        8,
    );
}

/// Audits the allocator books of one crash image: `Strict` recovery must
/// accept it, every pool must rebuild undamaged from PM metadata, every
/// block reachable from the workload's persistent roots must be live in
/// the rebuilt allocator (no use-after-free), and reclaiming unreachable
/// dynamic blocks must leave zero leaks with exact accounting.
fn audit_heap(image: &PmImage, layout: &PmLayout, workload: &dyn Workload, what: &str) {
    let mut recovered = image.clone();
    recover_with_policy(&mut recovered, layout, RecoveryPolicy::Strict)
        .unwrap_or_else(|e| panic!("{what}: strict false positive: {e}"));
    let (mut hs, rec) = HeapState::rebuild(&recovered, layout);
    assert!(
        rec.damaged_pools().is_empty(),
        "{what}: natural crash damaged pools {:?}",
        rec.damaged_pools()
    );
    let roots = workload.heap_roots(&recovered);
    let live: HashSet<u64> = (0..hs.pool_count())
        .flat_map(|p| {
            hs.pool(p)
                .live_blocks()
                .map(|(off, _, _)| layout.pool_line_addr(p, off).raw())
                .collect::<Vec<_>>()
        })
        .collect();
    for r in &roots {
        assert!(
            live.contains(&r.raw()),
            "{what}: use-after-free, rooted block {:#x} is not live",
            r.raw()
        );
    }
    let rooted: HashSet<u64> = roots.iter().map(|a| a.raw()).collect();
    hs.reclaim_unreachable(layout, &roots);
    for p in 0..hs.pool_count() {
        let leaked = hs
            .pool(p)
            .live_blocks()
            .filter(|&(off, _, kind)| {
                kind == BlockKind::Dynamic && !rooted.contains(&layout.pool_line_addr(p, off).raw())
            })
            .count();
        assert_eq!(leaked, 0, "{what}: pool {p} leaks {leaked} blocks");
        assert!(
            hs.pool(p).accounting_exact(),
            "{what}: pool {p} accounting does not balance"
        );
    }
}

#[test]
fn allocator_journal_survives_a_crash_at_every_persist_point() {
    // Churning workloads (run-time `heap_alloc`/`heap_free`) across the
    // language models and recoverable designs. Single-threaded so the
    // execution-order prefixes below are exactly the reachable crash
    // states.
    let cells = [
        (BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver),
        (BenchmarkId::Hashmap, LangModel::Sfr, HwDesign::StrandWeaver),
        (BenchmarkId::Hashmap, LangModel::Native, HwDesign::Eadr),
        (BenchmarkId::NStoreWr, LangModel::Txn, HwDesign::IntelX86),
        (BenchmarkId::NStoreWr, LangModel::Atlas, HwDesign::Hops),
        (BenchmarkId::NStoreWr, LangModel::Native, HwDesign::Eadr),
    ];
    for (bench, lang, design) in cells {
        let mut workload = bench.instantiate_churn().expect("churn benchmarks");
        let params = DriverParams::new(design, lang)
            .threads(1)
            .total_regions(6)
            .ops_per_region(1)
            .seed(11);
        let out = drive(workload.as_mut(), &params);
        let layout = &out.layout;
        let pmo = Pmo::compute(&out.ctx.execution(), design.memory_model());
        let n = pmo.num_stores();
        assert!(
            n > 0,
            "{bench} {lang} {design}: churn run recorded no stores"
        );
        // Stepping a store-order prefix one store at a time crashes at
        // EVERY persist point — including inside each of the eight word
        // stores of every allocator-journal record (a mid-record cut must
        // classify as a benign tear, never as corruption).
        let mut in_set = vec![false; n];
        for k in 0..=n {
            if k > 0 {
                in_set[k - 1] = true;
            }
            let state = crash::materialize(&pmo, &in_set);
            let mut image = out.baseline.clone();
            for (addr, value) in state {
                image.store(addr, value);
            }
            audit_heap(
                &image,
                layout,
                workload.as_ref(),
                &format!("{bench} {lang} {design} cut {k}/{n}"),
            );
        }
    }
}

/// A batching model commits, and so quiesces the heap, only when the
/// driver coordinates; at 8×400×4 hashmap churn fills a pool's 256-slot
/// journal before any log reaches the coordination threshold, unless the
/// journal's high-water mark forces a coordination of its own.
#[test]
fn batched_churn_checkpoints_before_the_journal_fills() {
    for lang in [LangModel::Sfr, LangModel::Atlas] {
        let report = Experiment::new(BenchmarkId::Hashmap, lang, HwDesign::StrandWeaver)
            .threads(8)
            .total_regions(400)
            .ops_per_region(4)
            .run_heap_report(true)
            .unwrap_or_else(|e| panic!("hashmap {lang}: {e}"));
        assert!(report.checkpoints > 0, "hashmap {lang}: no checkpoint ran");
        assert!(report
            .pools
            .iter()
            .all(|p| p.journal_next_slot < sw_lang::JOURNAL_HIGH_WATER));
    }
}

#[test]
fn non_atomic_design_corrupts_eventually() {
    let e = Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::NonAtomic)
        .threads(2)
        .total_regions(40)
        .ops_per_region(2);
    assert!(
        e.run_crash_campaign(200).is_err(),
        "removing the pairwise log ordering must break recovery"
    );
}
