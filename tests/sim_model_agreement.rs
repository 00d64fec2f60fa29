//! Integration: the timing simulator's durable write order must be a
//! linear extension of the formal persist memory order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use strandweaver::experiment::{order_extends_pmo, Experiment, ProbeOracle};
use strandweaver::model::{Pmo, StoreId};
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

/// The transitive closure of `pmo`'s direct edges as one bitset row per
/// store: bit `j` of row `i` is set iff store `i` is ordered before store
/// `j`. Every edge points forward in execution order, so visiting stores
/// in reverse execution order finishes each successor's row first.
fn bitset_closure(pmo: &Pmo) -> Vec<Vec<u64>> {
    let n = pmo.num_stores();
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| pmo.store(StoreId(i)).exec_pos);
    for &i in order.iter().rev() {
        let mut row = vec![0u64; words];
        for &StoreId(s) in pmo.direct_successors(StoreId(i)) {
            row[s / 64] |= 1 << (s % 64);
            for (w, bits) in reach[s].iter().enumerate() {
                row[w] |= bits;
            }
        }
        reach[i] = row;
    }
    reach
}

/// The order check as an all-pairs loop over `reach`, the
/// [`bitset_closure`] of `pmo`: every transitively ordered store pair on
/// distinct lines, both accepted exactly once, must be accepted in order.
/// Returns the pairs checked, or the first violation in source-then-target
/// id order.
fn all_pairs_order_check(
    pmo: &Pmo,
    reach: &[Vec<u64>],
    order: &[LineAddr],
) -> Result<usize, String> {
    let mut count = std::collections::HashMap::new();
    let mut first_pos = std::collections::HashMap::new();
    for (pos, line) in order.iter().enumerate() {
        *count.entry(*line).or_insert(0usize) += 1;
        first_pos.entry(*line).or_insert(pos);
    }
    let pos_of = |line: LineAddr| (count.get(&line) == Some(&1)).then(|| first_pos[&line]);
    let mut checked = 0;
    for (i, row) in reach.iter().enumerate() {
        for j in 0..pmo.num_stores() {
            if i == j || row[j / 64] & (1 << (j % 64)) == 0 {
                continue;
            }
            let la = pmo.store(StoreId(i)).addr.line();
            let lb = pmo.store(StoreId(j)).addr.line();
            if la == lb {
                continue;
            }
            if let (Some(pa), Some(pb)) = (pos_of(la), pos_of(lb)) {
                if pa >= pb {
                    return Err(format!(
                        "PMO edge {la} -> {lb} violated by acceptance order ({pa} >= {pb})"
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// `order_extends_pmo` agrees with the all-pairs reference — the same
/// count, or the same first violation — on the probe of every legal
/// design × language cell, for the fault-free order and for seeded
/// perturbations of it: two lines swapped, a line moved to the end, and a
/// line accepted a second time.
#[test]
fn order_check_matches_the_all_pairs_reference() {
    let mut violations = 0;
    for design in HwDesign::ALL {
        for lang in LangModel::ALL.into_iter().filter(|l| l.legal_on(design)) {
            let oracle = ProbeOracle::new(&Experiment::new(BenchmarkId::Queue, lang, design));
            let (pmo, clean) = (oracle.pmo(), oracle.clean_order());
            let reach = bitset_closure(pmo);
            let mut rng = SmallRng::seed_from_u64(0x5eed_0bde);
            let mut orders = vec![clean.to_vec()];
            for _ in 0..3 {
                let a = rng.gen_range(0..clean.len());
                let b = rng.gen_range(0..clean.len());
                let mut swapped = clean.to_vec();
                swapped.swap(a, b);
                let mut moved = clean.to_vec();
                let line = moved.remove(a);
                moved.push(line);
                let mut twice = clean.to_vec();
                twice.insert(b, clean[a]);
                orders.extend([swapped, moved, twice]);
            }
            for order in &orders {
                let want = all_pairs_order_check(pmo, &reach, order);
                violations += usize::from(want.is_err());
                assert_eq!(order_extends_pmo(pmo, order), want, "{design} x {lang}");
            }
        }
    }
    assert!(violations > 0, "no perturbation violated the order");
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
