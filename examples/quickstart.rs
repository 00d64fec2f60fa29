//! Quickstart: write a failure-atomic record under strand persistency,
//! crash at a random moment, recover, and compare hardware designs.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use strandweaver::experiment::Experiment;
use strandweaver::lang::harness;
use strandweaver::model::isa::LockId;
use strandweaver::{
    BenchmarkId, FuncCtx, HwDesign, LangModel, PmLayout, Pmo, RuntimeConfig, ThreadRuntime,
};

fn main() {
    // --- 1. Failure-atomic updates through the language-level runtime. ---
    let layout = PmLayout::new(1, 256);
    let mut ctx = FuncCtx::new(layout.clone(), 1);
    let mut rt = ThreadRuntime::new(
        &layout,
        0,
        RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn).recording(),
    );
    let base = harness::baseline(&mut ctx);

    let account_a = layout.heap_base();
    let account_b = layout.heap_base().offset_words(8);
    // Transfer 100 between two accounts, atomically.
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, account_a, 1000 - 100);
    rt.store(&mut ctx, account_b, 100);
    rt.region_end(&mut ctx);
    println!(
        "visible state: a={} b={}",
        ctx.mem().load(account_a),
        ctx.mem().load(account_b)
    );

    // --- 2. Crash at a model-allowed point and recover. ---
    // The persist memory order of the recorded updates bounds which
    // crash states are reachable; compute it once, sample it every round.
    let pmo = Pmo::compute(&ctx.execution(), HwDesign::StrandWeaver.memory_model());
    let mut rng = SmallRng::seed_from_u64(7);
    for round in 0..3 {
        let outcome = harness::crash_and_recover(&ctx, &base, &pmo, &mut rng);
        let (a, b) = (outcome.image.load(account_a), outcome.image.load(account_b));
        println!(
            "crash {round}: recovered a={a} b={b} ({}), rolled back {} stores",
            if a + b == 1000 || (a, b) == (0, 0) {
                "consistent"
            } else {
                "INCONSISTENT"
            },
            outcome.report.rolled_back_stores
        );
        assert!(a + b == 1000 || (a, b) == (0, 0));
    }

    // --- 3. Simulate the queue benchmark on two designs and compare. ---
    let scale = |d| {
        Experiment::new(BenchmarkId::Queue, LangModel::Txn, d)
            .threads(2)
            .total_regions(40)
    };
    let sw = scale(HwDesign::StrandWeaver).run_timing();
    let intel = scale(HwDesign::IntelX86).run_timing();
    println!(
        "queue benchmark: strandweaver {} cycles, intel x86 {} cycles ({:.2}x speedup)",
        sw.cycles,
        intel.cycles,
        intel.cycles as f64 / sw.cycles as f64
    );
}
