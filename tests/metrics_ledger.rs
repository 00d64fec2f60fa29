//! Integration: every metrics counter of a timing run agrees with the
//! simulator tally that owns the same count — the per-core `CoreStats`,
//! the run's `EventCounts`, its durable write order and the fault unit's
//! `OnlineFaultStats` — on every legal design × lang, with and without
//! online device faults, at two and eight cores (also on a two-entry ADR
//! write queue), and with skip-ahead on and off, which must report the
//! same statistics. A run that exhausts the spare pool must stop at once
//! with the deadlock named. The profiler's count of core visits in one
//! eight-core cell is pinned.

use strandweaver::experiment::Experiment;
use strandweaver::faults::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger, OnlineFaultStats,
};
use strandweaver::model::isa::{FenceKind, IsaOp};
use strandweaver::sim::CoreStats;
use strandweaver::trace::StallKind;
use strandweaver::workloads::driver::drive;
use strandweaver::{BenchmarkId, HwDesign, LangModel, Machine, PmLayout, SimConfig, SimStats};

/// A schedule holding the single fault `class` on `trigger`.
fn one_fault(class: DeviceFaultClass, trigger: FaultTrigger, sticky: bool) -> DeviceFaultSchedule {
    schedule(&[(class, trigger, sticky)])
}

/// A schedule holding each `(class, trigger, sticky)` fault of `faults`.
fn schedule(faults: &[(DeviceFaultClass, FaultTrigger, bool)]) -> DeviceFaultSchedule {
    let mut s = DeviceFaultSchedule::none();
    for &(class, trigger, sticky) in faults {
        s.faults.push(DeviceFault {
            class,
            trigger,
            sticky,
        });
    }
    s
}

/// One run configuration of every cell: its scale (threads, total
/// regions; two ops per region), the online device faults it installs
/// (class, trigger, sticky), whether it shrinks the store and persist
/// queues to 2 and 1 entries so every queue-full stall cause shows up,
/// the ADR write-queue entries it installs, if any, each draining in
/// [`SLOW_DRAIN`] cycles, the fault count that shows its faults fired,
/// and the stall causes some cell must charge.
struct Case {
    name: &'static str,
    scale: (usize, usize),
    faults: &'static [(DeviceFaultClass, FaultTrigger, bool)],
    tiny_queues: bool,
    write_queue: Option<usize>,
    fired: fn(&OnlineFaultStats) -> u64,
    stalls: &'static [StallKind],
}

/// Cycles between two writes the back-pressure cases drain from the PM
/// write queue: eight times Table I's.
const SLOW_DRAIN: u64 = 64;

/// At two cores: no faults (at Table I and at tiny queues), a transient
/// that one retry heals, a sticky transient that escalates to a remap, a
/// direct permanent error, and a poisoned read. At eight cores, where
/// lock hand-offs and coherence steals are frequent: no faults; a
/// transient plus a permanent error; and a two-entry ADR write queue
/// draining slowly, alone (write-queue back-pressure) and with a
/// transient (a retry back-off behind it).
fn cases() -> [Case; 10] {
    use DeviceFaultClass::{PermanentMediaError, ReadPoison, TransientWriteFail};
    const THIRD_WRITE: FaultTrigger = FaultTrigger::NthWrite(3);
    [
        Case {
            name: "no faults",
            scale: (2, 12),
            faults: &[],
            tiny_queues: false,
            write_queue: None,
            fired: |_| 0,
            stalls: &[],
        },
        Case {
            name: "no faults, tiny queues",
            scale: (2, 12),
            faults: &[],
            tiny_queues: true,
            write_queue: None,
            fired: |_| 0,
            stalls: &[],
        },
        Case {
            name: "transient",
            scale: (2, 12),
            faults: &[(TransientWriteFail, THIRD_WRITE, false)],
            tiny_queues: false,
            write_queue: None,
            fired: |f| f.retries_succeeded,
            stalls: &[],
        },
        Case {
            name: "sticky",
            scale: (2, 12),
            faults: &[(TransientWriteFail, THIRD_WRITE, true)],
            tiny_queues: false,
            write_queue: None,
            fired: |f| f.retries_failed.min(f.lines_remapped),
            stalls: &[],
        },
        Case {
            name: "permanent",
            scale: (2, 12),
            faults: &[(PermanentMediaError, THIRD_WRITE, true)],
            tiny_queues: false,
            write_queue: None,
            fired: |f| f.permanent_errors,
            stalls: &[],
        },
        Case {
            name: "poison",
            scale: (2, 12),
            faults: &[(ReadPoison, FaultTrigger::NthRead(1), false)],
            tiny_queues: false,
            write_queue: None,
            fired: |f| f.reads_poisoned,
            stalls: &[],
        },
        Case {
            name: "8 cores, no faults",
            scale: (8, 24),
            faults: &[],
            tiny_queues: false,
            write_queue: None,
            fired: |_| 0,
            stalls: &[],
        },
        Case {
            name: "8 cores, transient and permanent",
            scale: (8, 24),
            faults: &[
                (TransientWriteFail, THIRD_WRITE, false),
                (PermanentMediaError, FaultTrigger::NthWrite(40), true),
            ],
            tiny_queues: false,
            write_queue: None,
            fired: |f| f.retries_succeeded.min(f.permanent_errors),
            stalls: &[],
        },
        Case {
            name: "8 cores, 2-entry write queue",
            scale: (8, 24),
            faults: &[],
            tiny_queues: false,
            write_queue: Some(2),
            fired: |_| 0,
            stalls: &[StallKind::PmWriteQueueFull],
        },
        Case {
            name: "8 cores, 2-entry write queue and a transient",
            scale: (8, 24),
            faults: &[(TransientWriteFail, THIRD_WRITE, false)],
            tiny_queues: false,
            write_queue: Some(2),
            fired: |f| f.retries_succeeded,
            stalls: &[StallKind::PmWriteQueueFull, StallKind::RetryWait],
        },
    ]
}
/// Checks every counter of `stats.metrics` against the tally that owns
/// the same count.
fn assert_ledger(stats: &SimStats, design: HwDesign, cell: &str) {
    let counter = |name: &str| {
        stats
            .metrics
            .counter(name)
            .unwrap_or_else(|| panic!("{cell}: {name} is not registered"))
    };
    let total = |f: fn(&CoreStats) -> u64| stats.cores.iter().map(f).sum::<u64>();
    let ev = stats.events;
    let durable = stats.pm_write_order.len() as u64;

    assert_eq!(counter("pm.writes_accepted"), ev.pm_writes, "{cell}");
    assert_eq!(
        counter("pm.persists_visible"),
        ev.persists_visible,
        "{cell}"
    );
    if design.persists_at_visibility() {
        assert_eq!(ev.persists_visible, durable, "{cell}");
    } else {
        assert_eq!(ev.pm_writes, durable, "{cell}");
    }
    // Every enqueue is dequeued again before its core finishes.
    assert_eq!(ev.pq_events % 2, 0, "{cell}");
    assert_eq!(counter("pq.enqueues"), ev.pq_events / 2, "{cell}");
    assert_eq!(counter("sb.enqueues"), ev.sb_enqueues, "{cell}");
    assert_eq!(counter("fence.retires"), total(|c| c.fences), "{cell}");
    assert_eq!(ev.store_retires, total(|c| c.stores), "{cell}");
    for cause in StallKind::ALL {
        let cycles: u64 = stats.cores.iter().map(|c| c.stall_cycles(cause)).sum();
        let name = format!("stalls.{}", cause.label());
        assert_eq!(counter(&name), cycles, "{cell}: {name}");
    }

    let f = stats.online_faults.unwrap_or_default();
    assert_eq!(
        counter("faults.online.device_faults"),
        f.transient_failures + f.lines_remapped + f.spares_exhausted + f.reads_poisoned,
        "{cell}"
    );
    assert_eq!(
        counter("faults.online.lines_remapped"),
        f.lines_remapped,
        "{cell}"
    );
    assert_eq!(
        counter("faults.online.reads_poisoned"),
        f.reads_poisoned,
        "{cell}"
    );
    assert_eq!(
        counter("faults.online.spares_exhausted"),
        f.spares_exhausted,
        "{cell}"
    );
    // Retries that healed, plus sticky episodes that escalated to a
    // remap: no tally holds this sum, so the counter owns it.
    let retries = counter("faults.online.persist_retries");
    assert!(
        (f.retries_succeeded..=f.retries_succeeded + f.lines_remapped).contains(&retries),
        "{cell}: {retries} persist retries against {f:?}"
    );
}

/// Runs `run` with skip-ahead on and off, checks the ledger of each, and
/// requires the two runs to report the same simulated statistics: skip-ahead
/// may only jump cycles on which nothing can happen, faults or not.
fn both_skip_modes(
    design: HwDesign,
    cell: &str,
    run: impl Fn(bool) -> SimStats + Sync,
) -> SimStats {
    let (on, off) = std::thread::scope(|s| {
        let off = s.spawn(|| run(false));
        (run(true), off.join().expect("single-stepped run panicked"))
    });
    assert_ledger(&on, design, &format!("{cell} skip-ahead"));
    assert_ledger(&off, design, &format!("{cell} single-step"));
    assert_eq!(on.cycles, off.cycles, "{cell}");
    assert_eq!(on.cores, off.cores, "{cell}");
    assert_eq!(on.events, off.events, "{cell}");
    assert_eq!(on.pm_write_order, off.pm_write_order, "{cell}");
    assert_eq!(on.online_faults, off.online_faults, "{cell}");
    assert_eq!(on.metrics, off.metrics, "{cell}");
    on
}

#[test]
fn metric_counters_match_the_simulator_tallies() {
    for case in cases() {
        let mut fired = 0;
        let mut stalled = vec![0; case.stalls.len()];
        for design in HwDesign::ALL {
            for lang in LangModel::ALL.into_iter().filter(|l| l.legal_on(design)) {
                let cell = format!("{design:?} {lang:?} {}", case.name);
                let stats = both_skip_modes(design, &cell, |skip| {
                    let (threads, regions) = case.scale;
                    let mut e = Experiment::new(BenchmarkId::Queue, lang, design)
                        .threads(threads)
                        .total_regions(regions)
                        .ops_per_region(2)
                        .with_metrics();
                    e.sim.skip_ahead = skip;
                    e.sim.device_faults = (!case.faults.is_empty()).then(|| schedule(case.faults));
                    if case.tiny_queues {
                        e.sim.store_queue_entries = 2;
                        e.sim.persist_queue_entries = 1;
                    }
                    if let Some(entries) = case.write_queue {
                        e.sim.pm_write_queue = entries;
                        e.sim.pm_drain_interval = SLOW_DRAIN;
                    }
                    e.run_timing()
                });
                fired += (case.fired)(&stats.online_faults.unwrap_or_default());
                for (n, &cause) in stalled.iter_mut().zip(case.stalls) {
                    *n += stats
                        .cores
                        .iter()
                        .map(|c| c.stall_cycles(cause))
                        .sum::<u64>();
                }
            }
        }
        // The faults fired and the stalls arose somewhere, so their part
        // of the ledger is not vacuous.
        assert!(
            case.faults.is_empty() || fired > 0,
            "{} never fired",
            case.name
        );
        for (n, cause) in stalled.into_iter().zip(case.stalls) {
            assert!(n > 0, "{}: no stalls.{} cycle", case.name, cause.label());
        }
    }
}

/// Spare exhaustion parks the failed line for good, so a driven run that
/// exhausts the spare pool deadlocks (see below). On a two-core trace the
/// line can still leave the stuck core: core 1 loads it, the coherence steal moves
/// the dirty copy over, core 0's CLWB then finds its line clean, and the
/// run finishes with the exhaustion counted. Only designs without a strand
/// buffer resolve that steal at once.
#[test]
fn spare_exhaustion_is_counted_once() {
    let layout = PmLayout::new(2, 64);
    let x = layout.heap_base();
    let mut faults = one_fault(
        DeviceFaultClass::PermanentMediaError,
        FaultTrigger::OnLine(x.line().raw()),
        true,
    );
    faults.spare_count = 0;
    for design in [HwDesign::IntelX86, HwDesign::NonAtomic] {
        let drain = design.lowering().drain.unwrap_or(FenceKind::Sfence);
        let stuck = vec![IsaOp::Store(x), IsaOp::Clwb(x), IsaOp::Fence(drain)];
        let thief = vec![IsaOp::Compute(400), IsaOp::Load(x)];
        let cell = format!("{design:?} spare exhaustion");
        let stats = both_skip_modes(design, &cell, |skip| {
            let mut cfg = SimConfig::table_i()
                .with_cores(2)
                .with_device_faults(faults.clone());
            cfg.skip_ahead = skip;
            cfg.max_cycles = 1_000_000;
            let mut m = Machine::new(
                cfg,
                design,
                layout.clone(),
                vec![stuck.clone(), thief.clone()],
            );
            m.enable_metrics();
            m.run()
        });
        let f = stats.online_faults.expect("fault unit installed");
        assert_eq!(f.spares_exhausted, 1, "{cell}: {f:?}");
    }
}

/// Queue txn on StrandWeaver, 2×12×2, with no spare lines and a sticky
/// permanent error on the first write: the write that exhausts the spare
/// pool parks for good, and no other core ever takes its line away.
fn exhaust_the_spare_pool(skip_ahead: bool) -> SimStats {
    let mut faults = one_fault(
        DeviceFaultClass::PermanentMediaError,
        FaultTrigger::NthWrite(1),
        true,
    );
    faults.spare_count = 0;
    let mut e = Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
        .threads(2)
        .total_regions(12)
        .ops_per_region(2);
    e.sim.skip_ahead = skip_ahead;
    e.sim.device_faults = Some(faults);
    e.run_timing()
}

/// Once nothing is scheduled the machine names the deadlock and its
/// cause.
#[test]
#[should_panic(
    expected = "simulation deadlocked at cycle 941: spare pool exhausted, line 0x400001"
)]
fn spare_exhaustion_deadlock_is_named_with_skip_ahead() {
    exhaust_the_spare_pool(true);
}

/// Single-stepping stops at the same cycle: it must not tick on to the
/// cycle bound.
#[test]
#[should_panic(
    expected = "simulation deadlocked at cycle 941: spare pool exhausted, line 0x400001"
)]
fn spare_exhaustion_deadlock_is_named_single_stepped() {
    exhaust_the_spare_pool(false);
}

/// The profiler's call counts repeat exactly, so they pin how many core
/// visits the cycle loop makes, which host timing cannot: hashmap txn on
/// StrandWeaver at 8×96×4 executes 66,249 ticks and visits a core 70,240
/// times in them (the engine phase counts one call per visit). Keeping a
/// core awake through a persist-full stall took 75,512 visits, and
/// visiting every core that was neither done nor parked on a lock took
/// 170,135. A core woken early, or kept awake after a visit that changed
/// nothing, raises the count.
#[test]
fn core_visits_of_an_eight_core_cell_are_pinned() {
    let e = Experiment::new(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
        .threads(8)
        .total_regions(96)
        .ops_per_region(4);
    let mut workload = e.bench.instantiate();
    let out = drive(
        workload.as_mut(),
        &e.driver_params().timing_only().clean_shutdown(),
    );
    let warm: Vec<_> = out.baseline.written_lines().collect();
    let cfg = e.sim.clone().with_cores(e.threads);
    let mut m = Machine::new(cfg, e.design, out.layout.clone(), out.ctx.into_traces());
    m.preload_l2(warm);
    m.enable_profiler();
    let perf = m.run().perf.expect("profiler installed");
    let calls = |phase: &str| {
        let stat = perf.phases.iter().find(|p| p.phase == phase);
        stat.map_or(0, |p| p.calls)
    };
    assert_eq!(calls("memctrl"), 66_249, "executed ticks");
    for phase in ["engine", "store_queue", "writeback"] {
        assert_eq!(calls(phase), 70_240, "{phase} calls: core visits");
    }
}
