//! Equivalence tests for the cycle loop's skip-ahead scheduling.
//!
//! Skip-ahead must be invisible: for every design, jumping over quiescent
//! cycles may never change any [`SimStats`] relative to single-stepping
//! the same simulation — cycle-for-cycle, counter-for-counter — on
//! litmus-style scenarios and on random traces.
//!
//! [`SimStats`]: sw_sim::SimStats

use proptest::prelude::*;
use sw_model::isa::{FenceKind, IsaOp, LockId};
use sw_model::HwDesign;
use sw_pmem::{Addr, PmLayout};
use sw_sim::{Machine, SimConfig};

fn layout() -> PmLayout {
    PmLayout::new(4, 64)
}

fn heap(k: u64) -> Addr {
    Addr(layout().heap_base().raw() + k * 64)
}

/// Litmus-style scenarios exercising stores, flushes, every fence
/// vocabulary, lock contention, and cross-core steals.
fn scenarios() -> Vec<(&'static str, Vec<Vec<IsaOp>>)> {
    let log_pair =
        |a: Addr, fence: FenceKind| vec![IsaOp::Store(a), IsaOp::Clwb(a), IsaOp::Fence(fence)];
    let mut strand_heavy = Vec::new();
    for k in 0..8 {
        strand_heavy.extend(log_pair(heap(k), FenceKind::NewStrand));
    }
    strand_heavy.push(IsaOp::Fence(FenceKind::JoinStrand));

    let mut contended = Vec::new();
    for k in 0..4 {
        contended.push(IsaOp::Lock(LockId(7)));
        contended.push(IsaOp::Store(heap(20 + k)));
        contended.push(IsaOp::Clwb(heap(20 + k)));
        contended.push(IsaOp::Fence(FenceKind::PersistBarrier));
        contended.push(IsaOp::Unlock(LockId(7)));
        contended.push(IsaOp::Compute(40));
    }

    let stealing: Vec<IsaOp> = (0..6)
        .flat_map(|k| [IsaOp::Store(heap(k)), IsaOp::Load(heap((k + 1) % 6))])
        .collect();

    vec![
        ("strand_heavy", vec![strand_heavy.clone(), strand_heavy]),
        ("contended_lock", vec![contended.clone(), contended]),
        (
            "cross_core_steals",
            vec![stealing.clone(), stealing.into_iter().rev().collect()],
        ),
        (
            "mixed_fences",
            vec![
                [
                    log_pair(heap(1), FenceKind::Sfence),
                    log_pair(heap(2), FenceKind::Ofence),
                    log_pair(heap(3), FenceKind::Dfence),
                ]
                .concat(),
                [
                    log_pair(heap(3), FenceKind::PersistBarrier),
                    log_pair(heap(1), FenceKind::JoinStrand),
                ]
                .concat(),
            ],
        ),
    ]
}

#[test]
fn skip_ahead_matches_single_stepping_on_scenarios() {
    for design in HwDesign::ALL {
        for (name, traces) in scenarios() {
            let cfg = SimConfig::table_i().with_cores(2);
            let skipping = Machine::new(
                cfg.clone().with_skip_ahead(true),
                design,
                layout(),
                traces.clone(),
            )
            .run();
            let stepped = Machine::new(cfg.with_skip_ahead(false), design, layout(), traces).run();
            assert_eq!(skipping, stepped, "{design:?}/{name}: skip-ahead diverged");
            assert!(skipping.cycles > 0, "{design:?}/{name}: empty run");
        }
    }
}

fn arb_op() -> impl Strategy<Value = IsaOp> {
    let addr = (0u64..12).prop_map(heap);
    let fences = vec![
        FenceKind::PersistBarrier,
        FenceKind::NewStrand,
        FenceKind::JoinStrand,
        FenceKind::Sfence,
        FenceKind::Ofence,
        FenceKind::Dfence,
    ];
    prop_oneof![
        3 => addr.clone().prop_map(IsaOp::Store),
        3 => addr.clone().prop_map(IsaOp::Clwb),
        2 => addr.prop_map(IsaOp::Load),
        1 => (0u32..120).prop_map(IsaOp::Compute),
        2 => prop::sample::select(fences).prop_map(IsaOp::Fence),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Skip-ahead over quiescent cycles is unobservable in the statistics
    /// for arbitrary traces under every design.
    #[test]
    fn skip_ahead_matches_single_stepping_on_random_traces(
        design_idx in 0usize..HwDesign::ALL.len(),
        t0 in prop::collection::vec(arb_op(), 0..50),
        t1 in prop::collection::vec(arb_op(), 0..50),
    ) {
        let design = HwDesign::ALL[design_idx];
        let mut cfg = SimConfig::table_i().with_cores(2);
        cfg.max_cycles = 5_000_000;
        let traces = vec![t0, t1];
        let skipping = Machine::new(
            cfg.clone().with_skip_ahead(true), design, layout(), traces.clone()).run();
        let stepped = Machine::new(
            cfg.with_skip_ahead(false), design, layout(), traces).run();
        prop_assert_eq!(skipping, stepped, "{:?}: skip-ahead diverged", design);
    }
}
