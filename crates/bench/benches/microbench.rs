//! Criterion micro-benchmarks for the reproduction's hot paths: PMO
//! computation (a small program and a campaign's driven run), crash-state
//! sampling, recovery of a campaign crash image, a whole crash leg on that
//! run, the acceptance-order check against the PMO, undo-log appends,
//! litmus evaluation, and a small end-to-end simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use strandweaver::experiment::{order_extends_pmo, Experiment, ProbeOracle};
use strandweaver::lang::harness::{crash_image, recovery_reconverges};
use strandweaver::lang::recovery::{recover_with_policy, RecoveryPolicy};
use strandweaver::lang::{FuncCtx, LangModel, RuntimeConfig, ThreadRuntime};
use strandweaver::model::isa::LockId;
use strandweaver::model::{crash, litmus, MemoryModel, OpKind, Pmo, Program};
use strandweaver::pmem::{Addr, PmLayout};
use strandweaver::{BenchmarkId, HwDesign};

/// A single-threaded program with `n` log/update pairs under strands.
fn strand_program(n: usize) -> Program {
    let mut p = Program::new(1);
    for k in 0..n as u64 {
        p.push(0, OpKind::store(Addr(0x1000_0000 + k * 128), 1));
        p.push(0, OpKind::PersistBarrier);
        p.push(0, OpKind::store(Addr(0x1000_0040 + k * 128), 1));
        p.push(0, OpKind::NewStrand);
    }
    p.push(0, OpKind::JoinStrand);
    p
}

fn bench_pmo(c: &mut Criterion) {
    let exec = strand_program(200).single_threaded_execution();
    c.bench_function("pmo_compute_400_stores", |b| {
        b.iter(|| Pmo::compute(&exec, MemoryModel::StrandWeaver))
    });
}

fn bench_crash_sampling(c: &mut Criterion) {
    let exec = strand_program(200).single_threaded_execution();
    let pmo = Pmo::compute(&exec, MemoryModel::StrandWeaver);
    let mut rng = SmallRng::seed_from_u64(1);
    c.bench_function("crash_sample_400_stores", |b| {
        b.iter(|| crash::sample_state(&pmo, &mut rng))
    });
}

/// The order check every chaos round and `serve` leg pays: the probe of
/// the nstore-bal strandweaver × txn cell, held to its fault-free order.
fn bench_order_check(c: &mut Criterion) {
    let oracle = ProbeOracle::new(&Experiment::new(
        BenchmarkId::NStoreBal,
        LangModel::Txn,
        HwDesign::StrandWeaver,
    ));
    c.bench_function("order_extends_pmo_probe", |b| {
        b.iter(|| order_extends_pmo(oracle.pmo(), oracle.clean_order()).unwrap())
    });
}

/// The per-round costs of a crash campaign, on the run the crash and
/// fault campaigns drive: one seeded queue txn × strandweaver run at 8
/// threads × 240 regions × 4 ops. `recover_campaign_image` clones one
/// crash image and runs `Strict` recovery on it; `crash_leg_driven_run`
/// is a whole crash leg as chaos and serve run it (sample a crash image,
/// then check that `Strict` and `Salvage` recovery each reconverge after
/// an interrupted pass); `pmo_compute_driven_run` computes the run's PMO.
fn bench_campaign_run(c: &mut Criterion) {
    let (_, out, pmo) = Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
        .threads(8)
        .total_regions(240)
        .ops_per_region(4)
        .seed(42)
        .drive();
    let (img, _) = crash_image(&pmo, &out.baseline, &mut SmallRng::seed_from_u64(42));
    c.bench_function("recover_campaign_image", |b| {
        b.iter(|| {
            let mut img = img.clone();
            recover_with_policy(&mut img, &out.layout, RecoveryPolicy::Strict).unwrap()
        })
    });
    let mut rng = SmallRng::seed_from_u64(42);
    c.bench_function("crash_leg_driven_run", |b| {
        b.iter(|| {
            let (crash, _) = crash_image(&pmo, &out.baseline, &mut rng);
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
                recovery_reconverges(&crash, &out.layout, policy, &mut rng).unwrap();
            }
        })
    });
    let exec = out.ctx.execution();
    c.bench_function("pmo_compute_driven_run", |b| {
        b.iter(|| Pmo::compute(&exec, MemoryModel::StrandWeaver))
    });
}

fn bench_log_append(c: &mut Criterion) {
    let layout = PmLayout::new(1, 4096);
    let heap = layout.heap_base();
    c.bench_function("undo_log_region_8_stores", |b| {
        b.iter_batched(
            || {
                let ctx = FuncCtx::new(layout.clone(), 1);
                let rt = ThreadRuntime::new(
                    &layout,
                    0,
                    RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn),
                );
                (ctx, rt)
            },
            |(mut ctx, mut rt)| {
                rt.region_begin(&mut ctx, &[LockId(0)]);
                for k in 0..8u64 {
                    rt.store(&mut ctx, heap.offset_words(k * 8), k);
                }
                rt.region_end(&mut ctx);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_litmus(c: &mut Criterion) {
    c.bench_function("litmus_fig2_suite", |b| {
        b.iter(|| {
            for l in litmus::all() {
                l.check(MemoryModel::StrandWeaver).unwrap();
            }
        })
    });
}

fn bench_small_simulation(c: &mut Criterion) {
    c.bench_function("sim_queue_txn_2x16_regions", |b| {
        b.iter(|| {
            Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
                .threads(2)
                .total_regions(16)
                .run_timing()
        })
    });
}

criterion_group!(
    benches,
    bench_pmo,
    bench_crash_sampling,
    bench_order_check,
    bench_campaign_run,
    bench_log_append,
    bench_litmus,
    bench_small_simulation
);
criterion_main!(benches);
