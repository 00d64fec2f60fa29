//! End-to-end integration: the paper's headline claims at test scale.

use strandweaver::experiment::{design_sweep_of, Experiment};
use strandweaver::{BenchmarkId, HwDesign, LangModel};

fn scale(bench: BenchmarkId, lang: LangModel) -> Experiment {
    Experiment::new(bench, lang, HwDesign::StrandWeaver)
        .threads(4)
        .total_regions(60)
}

/// Figure 7's qualitative content: StrandWeaver beats Intel x86 on every
/// benchmark and the non-atomic bound is never beaten by an ordered design
/// by more than noise.
#[test]
fn strandweaver_wins_across_write_heavy_benchmarks() {
    for bench in [
        BenchmarkId::Hashmap,
        BenchmarkId::NStoreWr,
        BenchmarkId::RbTree,
    ] {
        let cells = design_sweep_of(
            &HwDesign::ALL,
            bench,
            LangModel::Txn,
            &scale(bench, LangModel::Txn),
        );
        let cycles = |d: HwDesign| {
            cells
                .iter()
                .find(|(x, _)| *x == d)
                .expect("design present")
                .1
                .cycles
        };
        assert!(
            cycles(HwDesign::IntelX86) > cycles(HwDesign::StrandWeaver),
            "{bench}: intel {} <= strandweaver {}",
            cycles(HwDesign::IntelX86),
            cycles(HwDesign::StrandWeaver)
        );
        assert!(
            cycles(HwDesign::IntelX86) > cycles(HwDesign::Hops),
            "{bench}: HOPS should beat intel"
        );
        assert!(
            cycles(HwDesign::NonAtomic) <= cycles(HwDesign::IntelX86),
            "{bench}: non-atomic is the lower bound"
        );
    }
}

/// Figure 8's qualitative content: StrandWeaver's persist-ordering stalls
/// are well below Intel's.
#[test]
fn persist_stalls_drop_under_strands() {
    let bench = BenchmarkId::NStoreWr;
    let intel = {
        let mut e = scale(bench, LangModel::Sfr);
        e.design = HwDesign::IntelX86;
        e.run_timing()
    };
    let sw = scale(bench, LangModel::Sfr).run_timing();
    assert!(
        sw.persist_stall_cycles() * 2 < intel.persist_stall_cycles(),
        "sw stalls {} should be <50% of intel {}",
        sw.persist_stall_cycles(),
        intel.persist_stall_cycles()
    );
}

/// Figure 10's qualitative content: more operations per region do not
/// shrink the speedup (concurrency grows with region size).
#[test]
fn speedup_does_not_collapse_with_region_size() {
    let bench = BenchmarkId::Hashmap;
    let run = |design, ops| {
        let mut e = Experiment::new(bench, LangModel::Sfr, design)
            .threads(4)
            .total_regions(120 / ops)
            .ops_per_region(ops);
        e.seed = 7;
        e.run_timing().cycles as f64
    };
    let s2 = run(HwDesign::IntelX86, 2) / run(HwDesign::StrandWeaver, 2);
    let s16 = run(HwDesign::IntelX86, 16) / run(HwDesign::StrandWeaver, 16);
    assert!(
        s16 > s2 * 0.85,
        "speedup at 16 ops ({s16:.2}) collapsed vs 2 ops ({s2:.2})"
    );
}

/// Figure 9's qualitative content: a strand buffer unit with more entries
/// is never slower (at test scale, within noise).
#[test]
fn bigger_strand_buffer_unit_helps() {
    let bench = BenchmarkId::Hashmap;
    let run = |b, e| {
        scale(bench, LangModel::Sfr)
            .strand_buffers(b, e)
            .run_timing()
            .cycles
    };
    let small = run(2, 2);
    let big = run(4, 4);
    assert!(
        big <= small + small / 20,
        "(4,4)={big} should not lose to (2,2)={small}"
    );
}

/// The redo extension keeps its promise end to end: at least as fast as
/// undo under strands, still crash-consistent.
#[test]
fn redo_extension_end_to_end() {
    let bench = BenchmarkId::NStoreWr;
    let undo = scale(bench, LangModel::Txn).run_timing();
    let redo = scale(bench, LangModel::Txn).redo().run_timing();
    assert!(redo.cycles <= undo.cycles + undo.cycles / 20);
    scale(bench, LangModel::Txn)
        .redo()
        .total_regions(24)
        .run_crash_campaign(10)
        .expect("redo crash consistency");
}
