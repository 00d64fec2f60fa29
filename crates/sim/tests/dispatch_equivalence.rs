//! Equivalence tests for the cycle loop's skip-ahead scheduling.
//!
//! Skip-ahead must be invisible: for every design, letting cores sleep
//! and jumping the clock over cycles at which every core sleeps may never
//! change any [`SimStats`] relative to single-stepping the same
//! simulation — cycle-for-cycle, counter-for-counter — on litmus-style
//! scenarios and on random traces, random machines included, whose
//! recorded event streams must match too.

use proptest::prelude::*;
use sw_model::isa::{FenceKind, IsaOp, LockId};
use sw_model::HwDesign;
use sw_pmem::{Addr, DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger, PmLayout};
use sw_sim::{Machine, SimConfig, SimStats};
use sw_trace::{RingRecorder, TimedEvent};

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

/// Line `j` of L1 set `k`: `heap(k)` and the lines 256, 512, … lines
/// above it share one set of the 256-set, 2-way L1, so three of them in
/// one core's cache evict a dirty line into its write-back buffer.
fn set_line(k: u64, j: u64) -> Addr {
    heap(k + 256 * j)
}

/// One of twelve consecutive heap lines, which never evict, or one of
/// the three lines of L1 set 0 ([`set_line`]), which do.
fn arb_addr() -> impl Strategy<Value = Addr> {
    prop_oneof![
        1 => (0u64..12).prop_map(heap),
        1 => (0u64..3).prop_map(|j| set_line(0, j)),
    ]
}

fn arb_op() -> impl Strategy<Value = IsaOp> {
    let fences = vec![
        FenceKind::PersistBarrier,
        FenceKind::NewStrand,
        FenceKind::JoinStrand,
        FenceKind::Sfence,
        FenceKind::Ofence,
        FenceKind::Dfence,
    ];
    prop_oneof![
        3 => arb_addr().prop_map(IsaOp::Store),
        3 => arb_addr().prop_map(IsaOp::Clwb),
        2 => arb_addr().prop_map(IsaOp::Load),
        1 => (0u32..120).prop_map(IsaOp::Compute),
        2 => prop::sample::select(fences).prop_map(IsaOp::Fence),
    ]
}

/// A trace of single operations, bursts that store to a few lines and
/// then flush them (which fill the persist structures and the write
/// queue), stores to all three lines of L1 set 0 (the third evicts a
/// dirty one), and `Lock`…`Unlock` blocks on one of two locks. Blocks
/// never nest, so two cores cannot deadlock on them.
fn arb_trace() -> impl Strategy<Value = Vec<IsaOp>> {
    let burst = prop::collection::vec(arb_addr(), 1..7).prop_map(|lines| {
        let stores = lines.iter().map(|&a| IsaOp::Store(a));
        stores
            .chain(lines.iter().map(|&a| IsaOp::Clwb(a)))
            .collect()
    });
    let block = (0u32..2, prop::collection::vec(arb_op(), 0..6)).prop_map(|(l, body)| {
        let l = LockId(l);
        [vec![IsaOp::Lock(l)], body, vec![IsaOp::Unlock(l)]].concat()
    });
    let evict = (0u64..3).prop_map(|first| {
        let lines = (first..first + 3).map(|j| set_line(0, j % 3));
        lines.map(IsaOp::Store).collect::<Vec<_>>()
    });
    let segment = prop_oneof![
        4 => arb_op().prop_map(|op| vec![op]),
        2 => burst,
        1 => block,
        2 => evict,
    ];
    prop::collection::vec(segment, 0..24).prop_map(|s| s.concat())
}

/// Up to three transient write faults, each on the n-th fresh write or
/// on the first write of a line of L1 set 0 (which may be one core's
/// write-back while the other core flushes the line), sticky or not, with
/// a spare line for each (a sticky fault escalates to a remap), so no run
/// exhausts the spare pool and deadlocks.
fn arb_faults() -> impl Strategy<Value = Option<DeviceFaultSchedule>> {
    let on_line = (0u64..3).prop_map(|j| FaultTrigger::OnLine(set_line(0, j).line().raw()));
    let trigger = prop_oneof![
        1 => (1u64..16).prop_map(FaultTrigger::NthWrite),
        2 => on_line,
    ];
    let fault = (trigger, any::<bool>()).prop_map(|(trigger, sticky)| DeviceFault {
        class: DeviceFaultClass::TransientWriteFail,
        trigger,
        sticky,
    });
    let schedule = (prop::collection::vec(fault, 1..4), 8u64..80).prop_map(|(faults, backoff)| {
        DeviceFaultSchedule {
            spare_count: faults.len() as u64,
            faults,
            backoff_base: backoff,
            ..DeviceFaultSchedule::none()
        }
    });
    prop_oneof![
        1 => Just(None),
        1 => schedule.prop_map(Some),
    ]
}

/// A two-core machine small enough that every cause of a persist-full
/// stall shows up and changes: a 1–4-entry ADR write queue draining one
/// line every 40–400 cycles, 1–4 flush slots, persist-queue entries (also
/// the non-atomic design's flush slots) and HOPS persist-buffer entries,
/// and maybe device faults that open fault-retry back-offs.
fn arb_machine() -> impl Strategy<Value = SimConfig> {
    let shape = (1usize..5, 40u64..400, 1usize..5, 1usize..5, arb_faults());
    shape.prop_map(|(queue, drain, slots, entries, faults)| {
        let mut cfg = SimConfig::table_i().with_cores(2);
        cfg.pm_write_queue = queue;
        cfg.pm_drain_interval = drain;
        cfg.intel_flush_slots = slots;
        cfg.persist_queue_entries = entries;
        cfg.hops_buffer_entries = entries;
        cfg.device_faults = faults;
        cfg.max_cycles = 5_000_000;
        cfg
    })
}

/// Runs `traces` on `design` under `cfg` with a recorder attached and
/// returns the statistics and every recorded event.
fn recorded_run(
    cfg: SimConfig,
    design: HwDesign,
    traces: Vec<Vec<IsaOp>>,
) -> (SimStats, Vec<TimedEvent>) {
    let mut m = Machine::new(cfg, design, layout(), traces);
    let rec = RingRecorder::new(1 << 20);
    m.set_trace_sink(Box::new(rec.clone()));
    let stats = m.run();
    assert_eq!(rec.dropped(), 0, "ring sized for the whole run");
    (stats, rec.events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Skip-ahead over quiescent cycles is unobservable in the statistics
    /// and the event stream for arbitrary traces under every design, on
    /// machines whose write queue, persist structures and device faults
    /// make every persist-full stall cause, and every change of it, show
    /// up.
    #[test]
    fn skip_ahead_matches_single_stepping_on_random_traces(
        design_idx in 0usize..HwDesign::ALL.len(),
        cfg in arb_machine(),
        t0 in arb_trace(),
        t1 in arb_trace(),
    ) {
        let design = HwDesign::ALL[design_idx];
        let traces = vec![t0, t1];
        let skipping = recorded_run(cfg.clone().with_skip_ahead(true), design, traces.clone());
        let stepped = recorded_run(cfg.with_skip_ahead(false), design, traces);
        prop_assert_eq!(skipping, stepped, "{:?}: skip-ahead diverged", design);
    }
}
