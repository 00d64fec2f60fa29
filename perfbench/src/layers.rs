//! The public layer calls the traced replicas are composed from. Each
//! wrapper puts one call in its span and counts its work at the same
//! boundary.

use rand::Rng;

use strandweaver::lang::recovery::{
    recover_with_policy, PolicyOutcome, RecoveryError, RecoveryPolicy,
};
use strandweaver::lang::LogStrategy;
use strandweaver::model::crash::{materialize, sample_set};
use strandweaver::model::isa::{IsaTrace, LockId};
use strandweaver::workloads::driver::{drive, DriverOutput, DriverParams};
use strandweaver::workloads::Workload;
use strandweaver::{
    BenchmarkId, FuncCtx, HwDesign, LangModel, Machine, PmImage, PmLayout, Pmo, RuntimeConfig,
    SimConfig, SimStats, ThreadRuntime,
};

use crate::span::{closure_bytes, Recorder};

/// `drive`: generates and lowers `bench` under `params`.
pub fn drive_run(
    rec: &mut Recorder,
    bench: BenchmarkId,
    params: &DriverParams,
) -> (Box<dyn Workload>, DriverOutput) {
    rec.span("drive", |rec| {
        let mut workload = bench.instantiate();
        let out = drive(workload.as_mut(), params);
        rec.counts.isa_ops += out.ctx.traces().iter().map(|t| t.len() as u64).sum::<u64>();
        (workload, out)
    })
}

/// `Machine::new` (+ `preload_l2`) inside `build`, then `Machine::run`.
pub fn simulate(rec: &mut Recorder, build: impl FnOnce() -> Machine) -> SimStats {
    let machine = rec.span("sim.build", |_| build());
    let stats = rec.span("sim.run", |_| machine.run());
    rec.counts.sim_events += stats.events.total();
    rec.counts.sim_cycles += stats.cycles;
    if let Some(online) = &stats.online_faults {
        rec.counts.online.merge(online);
    }
    stats
}

/// One timing run, as `Experiment::run_timing` composes it: a
/// timing-only drive to a clean shutdown, then the Table I machine warmed
/// with the baseline's lines.
pub fn timing_run(
    rec: &mut Recorder,
    bench: BenchmarkId,
    lang: LangModel,
    design: HwDesign,
    (threads, regions, ops): (usize, usize, usize),
    seed: u64,
) -> SimStats {
    let params = DriverParams::new(design, lang)
        .threads(threads)
        .total_regions(regions)
        .ops_per_region(ops)
        .seed(seed)
        .timing_only()
        .clean_shutdown();
    let (_, out) = drive_run(rec, bench, &params);
    simulate(rec, move || {
        let warm: Vec<_> = out.baseline.written_lines().collect();
        let layout = out.layout.clone();
        let mut machine = Machine::new(
            SimConfig::table_i().with_cores(threads),
            design,
            layout,
            out.ctx.into_traces(),
        );
        machine.preload_l2(warm);
        machine
    })
}

/// The single-threaded probe the chaos campaign and the serve legs lower
/// (six regions of four stores) and its PMO oracle.
pub fn probe(
    rec: &mut Recorder,
    design: HwDesign,
    lang: LangModel,
) -> (Pmo, Vec<IsaTrace>, PmLayout) {
    let (ctx, layout) = rec.span("drive", |rec| {
        let layout = PmLayout::new(1, 512);
        let heap = layout.heap_base();
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut cfg = RuntimeConfig::new(design, lang);
        cfg.strategy = LogStrategy::Undo;
        let mut rt = ThreadRuntime::new(&layout, 0, cfg);
        for r in 0..6u64 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            for k in 0..4u64 {
                rt.store(&mut ctx, heap.offset_words((r * 4 + k) * 8), r * 10 + k);
            }
            rt.region_end(&mut ctx);
        }
        rt.shutdown(&mut ctx);
        rec.counts.isa_ops += ctx.traces().iter().map(|t| t.len() as u64).sum::<u64>();
        (ctx, layout)
    });
    let exec = rec.new_exec();
    let pmo = pmo(rec, exec, &ctx, design);
    (pmo, ctx.into_traces(), layout)
}

/// `Pmo::compute` over `ctx`'s recorded execution (`exec` identifies it).
pub fn pmo(rec: &mut Recorder, exec: u64, ctx: &FuncCtx, design: HwDesign) -> Pmo {
    rec.span("pmo", |rec| {
        let pmo = Pmo::compute(&ctx.execution(), design.memory_model());
        let n = pmo.num_stores() as u64;
        let c = &mut rec.counts;
        c.pmo_stores += n;
        c.pmo_edges += pmo.num_edges() as u64;
        c.pmo_closure_bytes = c.pmo_closure_bytes.max(closure_bytes(n));
        c.pmo_execs.insert(exec);
        pmo
    })
}

/// `harness::crash_image`: the run's PMO, then `crash::sample_set`,
/// `materialize` and the layering onto the baseline.
pub fn crash_image<R: Rng>(
    rec: &mut Recorder,
    exec: u64,
    out: &DriverOutput,
    design: HwDesign,
    rng: &mut R,
) -> (PmImage, usize) {
    let pmo = pmo(rec, exec, &out.ctx, design);
    rec.span("crash", |rec| {
        let set = sample_set(&pmo, rng);
        let persisted = set.iter().filter(|&&b| b).count();
        let state = materialize(&pmo, &set);
        let mut img = out.baseline.clone();
        for (addr, value) in state {
            img.store(addr, value);
        }
        rec.counts.crash_persisted += persisted as u64;
        rec.counts.crash_stores += set.len() as u64;
        (img, persisted)
    })
}

/// `recover_with_policy` on a copy of `src`; returns the recovered copy.
pub fn recover(
    rec: &mut Recorder,
    src: &PmImage,
    layout: &PmLayout,
    policy: RecoveryPolicy,
) -> (PmImage, Result<PolicyOutcome, RecoveryError>) {
    rec.span("recover", |rec| {
        let mut img = src.clone();
        let outcome = recover_with_policy(&mut img, layout, policy);
        if let Ok(o) = &outcome {
            rec.counts.recover_writes += o.writes.len() as u64;
        }
        (img, outcome)
    })
}

/// A consistency check, timed as the `check` layer.
pub fn check<T>(rec: &mut Recorder, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    rec.span("check", |_| f())
}

/// `harness::recovery_reconverges`, split into its two recoveries and the
/// comparison. Draws from `rng` exactly as the harness does.
pub fn reconverges<R: Rng>(
    rec: &mut Recorder,
    crash: &PmImage,
    layout: &PmLayout,
    policy: RecoveryPolicy,
    rng: &mut R,
) -> Result<(), String> {
    let (full, outcome) = recover(rec, crash, layout, policy);
    let outcome = outcome.map_err(|e| format!("baseline recovery failed: {e}"))?;
    let mut interrupted = crash.clone();
    for &(addr, value) in &outcome.writes {
        if rng.gen_bool(0.5) {
            interrupted.store(addr, value);
        }
    }
    let (interrupted, second) = recover(rec, &interrupted, layout, policy);
    let second = second.map_err(|e| format!("re-recovery after interruption failed: {e}"))?;
    check(rec, || {
        if second.report != outcome.report || interrupted != full {
            return Err("re-recovery diverged from the uninterrupted recovery".into());
        }
        Ok(())
    })?;
    rec.counts.reconverged += 1;
    Ok(())
}
