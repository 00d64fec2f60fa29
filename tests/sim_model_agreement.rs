//! Integration: the timing simulator's durable write order must be a
//! linear extension of the formal persist memory order.

use strandweaver::experiment::{order_extends_pmo, Experiment, ProbeOracle};
use strandweaver::pmem::LineAddr;
use strandweaver::{BenchmarkId, HwDesign, LangModel, Machine, PmLayout, SimConfig};

/// Runs the chaos campaign's single-threaded probe (a runtime-lowered
/// workload) fault-free under `design`, then checks that the PM-controller
/// acceptance order respects every *transitive* PMO edge between stores on
/// different lines — epoch models express most cross-line ordering only
/// transitively through log-line stores. A store maps one-to-one onto a
/// controller acceptance only when its line was flushed exactly once (log
/// lines are flushed again at invalidation), so only those edges count.
fn check_agreement(design: HwDesign, lang: LangModel) {
    let oracle = ProbeOracle::new(&Experiment::new(BenchmarkId::Queue, lang, design));
    let checked = order_extends_pmo(oracle.pmo(), oracle.clean_order())
        .unwrap_or_else(|e| panic!("{design:?}: {e}"));
    assert!(
        checked > 10,
        "{design:?}: too few cross-line edges checked ({checked})"
    );
}

#[test]
fn strandweaver_write_order_respects_pmo() {
    check_agreement(HwDesign::StrandWeaver, LangModel::Txn);
}

#[test]
fn no_persist_queue_write_order_respects_pmo() {
    check_agreement(HwDesign::NoPersistQueue, LangModel::Sfr);
}

#[test]
fn intel_write_order_respects_pmo() {
    check_agreement(HwDesign::IntelX86, LangModel::Txn);
}

#[test]
fn hops_write_order_respects_pmo() {
    check_agreement(HwDesign::Hops, LangModel::Atlas);
}

#[test]
fn eadr_write_order_respects_pmo() {
    // eADR's durable order is the store visibility order, which the strict
    // persistency model constrains most tightly of all: every PMO edge of
    // the formal model must show up in it.
    check_agreement(HwDesign::Eadr, LangModel::Txn);
}

#[test]
fn figure4_concurrency_is_visible_in_write_order() {
    // CLWB(A); PB; CLWB(B); NS; CLWB(C): C may drain before B (it is on a
    // fresh strand) while B waits for A. The deterministic simulator
    // accepts C before B.
    use strandweaver::model::isa::{FenceKind, IsaOp};
    let layout = PmLayout::new(1, 64);
    let heap = layout.heap_base();
    let (a, b, c) = (heap, heap.offset_words(8 * 8), heap.offset_words(16 * 8));
    let trace = vec![
        IsaOp::Store(a),
        IsaOp::Store(b),
        IsaOp::Store(c),
        IsaOp::Clwb(a),
        IsaOp::Fence(FenceKind::PersistBarrier),
        IsaOp::Clwb(b),
        IsaOp::Fence(FenceKind::NewStrand),
        IsaOp::Clwb(c),
        IsaOp::Fence(FenceKind::JoinStrand),
    ];
    let stats = Machine::new(
        SimConfig::table_i().with_cores(1),
        HwDesign::StrandWeaver,
        layout,
        vec![trace],
    )
    .run();
    let pos = |line: LineAddr| {
        stats
            .pm_write_order
            .iter()
            .position(|&l| l == line)
            .expect("line persisted")
    };
    assert!(pos(a.line()) < pos(b.line()), "PB orders A before B");
    assert!(
        pos(c.line()) < pos(b.line()),
        "C drains concurrently, ahead of the waiting B"
    );
}
