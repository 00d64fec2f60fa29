//! Criterion micro-benchmarks for the simulator's per-cycle hot path:
//! dirty-owner directory lookups, strand-buffer enqueue/drain, and a full
//! engine step (a small end-to-end machine run per design, on a two-core
//! hand-written trace and on an eight-core driven one).
//!
//! These guard the monomorphized, allocation-free cycle loop: the
//! directory and strand buffer are probed several times per core per
//! executed cycle, and the machine run exercises the static engine
//! dispatch plus skip-ahead scheduling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use strandweaver::experiment::Experiment;
use strandweaver::model::isa::{FenceKind, IsaOp};
use strandweaver::pmem::{LineAddr, PmLayout};
use strandweaver::sim::{Directory, Machine, Sbu, SimConfig};
use strandweaver::workloads::driver::drive;
use strandweaver::{BenchmarkId, HwDesign, LangModel};

fn bench_directory(c: &mut Criterion) {
    let layout = PmLayout::new(2, 1024);
    let base = layout.heap_base().line();
    let mut dir = Directory::for_layout(&layout);
    for k in 0..256 {
        dir.set_dirty_owner(LineAddr(base.0 + 2 * k), (k % 2) as usize);
    }
    c.bench_function("directory_lookup_512", |b| {
        b.iter(|| {
            let mut owned = 0usize;
            for k in 0..512 {
                if dir.dirty_owner(LineAddr(base.0 + k)).is_some() {
                    owned += 1;
                }
            }
            owned
        })
    });
}

fn bench_sbu_enqueue_drain(c: &mut Criterion) {
    c.bench_function("sbu_enqueue_drain_16", |b| {
        b.iter_batched(
            || Sbu::new(4, 4),
            |mut sbu| {
                // Fill four strands with CLWB/PB pairs, then issue and
                // retire everything — the steady-state Sbu cycle.
                for s in 0..4u64 {
                    for k in 0..2u64 {
                        sbu.push_clwb(LineAddr(0x40_0000 + s * 16 + k));
                        sbu.push_pb();
                    }
                    sbu.new_strand();
                }
                let mut cycle = 0u64;
                while !sbu.is_empty() {
                    let (mut bidx, mut k) = (0, 0);
                    while let Some((eb, ek, _line)) = sbu.next_issuable(bidx, k) {
                        sbu.mark_pending(eb, ek, cycle + 2);
                        (bidx, k) = (eb, ek + 1);
                    }
                    let _ = sbu.tick_retire(cycle);
                    cycle += 1;
                    assert!(cycle < 1000, "sbu drain did not converge");
                }
                cycle
            },
            BatchSize::SmallInput,
        )
    });
}

/// A two-core producer/consumer trace with stores, CLWBs, and strand
/// fences — enough to exercise every backend stage.
fn step_traces(layout: &PmLayout) -> Vec<Vec<IsaOp>> {
    let heap = layout.heap_base();
    (0..2u64)
        .map(|t| {
            let mut ops = Vec::new();
            for k in 0..32u64 {
                let a = strandweaver::pmem::Addr(heap.raw() + (t * 64 + k) * 64);
                ops.push(IsaOp::Store(a));
                ops.push(IsaOp::Clwb(a));
                if k % 4 == 3 {
                    ops.push(IsaOp::Fence(FenceKind::JoinStrand));
                } else {
                    ops.push(IsaOp::Fence(FenceKind::NewStrand));
                }
            }
            ops
        })
        .collect()
}

fn bench_engine_step(c: &mut Criterion) {
    let layout = PmLayout::new(2, 1024);
    for design in [HwDesign::StrandWeaver, HwDesign::IntelX86, HwDesign::Eadr] {
        c.bench_function(&format!("engine_step_{design:?}"), |b| {
            b.iter_batched(
                || {
                    Machine::new(
                        SimConfig::table_i().with_cores(2),
                        design,
                        layout.clone(),
                        step_traces(&layout),
                    )
                },
                |m| m.run(),
                BatchSize::SmallInput,
            )
        });
    }
}

/// The per-tick cost where the figures sweep spends it: a driven queue
/// txn run at 8 threads × 24 regions × 2 ops per design, replayed from
/// machine construction to the end of the run. Eight cores contend for
/// the queue's locks and steal each other's dirty lines, which the
/// two-core `engine_step_*` traces rarely do.
fn bench_engine_step_8core(c: &mut Criterion) {
    for design in HwDesign::ALL {
        let e = Experiment::new(BenchmarkId::Queue, LangModel::Txn, design)
            .threads(8)
            .total_regions(24)
            .ops_per_region(2);
        let mut workload = BenchmarkId::Queue.instantiate();
        let params = e.driver_params().timing_only().clean_shutdown();
        let out = drive(workload.as_mut(), &params);
        let warm: Vec<LineAddr> = out.baseline.written_lines().collect();
        let layout = out.layout.clone();
        let traces = out.ctx.into_traces();
        c.bench_function(&format!("engine_step_8core_{design:?}"), |b| {
            b.iter_batched(
                || {
                    let cfg = e.sim.clone().with_cores(8);
                    let mut m = Machine::new(cfg, design, layout.clone(), traces.clone());
                    m.preload_l2(warm.iter().copied());
                    m
                },
                |m| m.run(),
                BatchSize::SmallInput,
            )
        });
    }
}

/// The same end-to-end engine step with an armed-but-idle online fault
/// unit installed, for side-by-side comparison against
/// `engine_step_StrandWeaver`: the fault check on the PM write path must
/// not show up at this granularity.
fn bench_engine_step_idle_faults(c: &mut Criterion) {
    use strandweaver::faults::{DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger};
    let layout = PmLayout::new(2, 1024);
    let mut idle = DeviceFaultSchedule::none();
    idle.faults.push(DeviceFault {
        class: DeviceFaultClass::TransientWriteFail,
        trigger: FaultTrigger::NthWrite(u64::MAX),
        sticky: false,
    });
    c.bench_function("engine_step_StrandWeaver_idle_faults", |b| {
        b.iter_batched(
            || {
                Machine::new(
                    SimConfig::table_i()
                        .with_cores(2)
                        .with_device_faults(idle.clone()),
                    HwDesign::StrandWeaver,
                    layout.clone(),
                    step_traces(&layout),
                )
            },
            |m| m.run(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    sim_hot_path,
    bench_directory,
    bench_sbu_enqueue_drain,
    bench_engine_step,
    bench_engine_step_8core,
    bench_engine_step_idle_faults
);
criterion_main!(sim_hot_path);
