//! The Section VII extension in action: redo logging on strands removes
//! the per-region durability drain. Compare undo vs. redo on write-heavy
//! N-Store, then crash the redo variant and watch recovery *replay*
//! committed transactions forward.
//!
//! Run with: `cargo run --release --example redo_logging`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use strandweaver::experiment::Experiment;
use strandweaver::lang::harness;
use strandweaver::model::isa::LockId;
use strandweaver::{
    BenchmarkId, FuncCtx, HwDesign, LangModel, PmLayout, Pmo, RuntimeConfig, ThreadRuntime,
};

fn main() {
    // Timing: undo vs redo on StrandWeaver hardware.
    let mk = |redo: bool| {
        let e = Experiment::new(
            BenchmarkId::NStoreWr,
            LangModel::Txn,
            HwDesign::StrandWeaver,
        )
        .threads(2)
        .total_regions(60);
        if redo { e.redo() } else { e }.run_timing()
    };
    let undo = mk(false);
    let redo = mk(true);
    println!(
        "nstore-wr on strandweaver: undo {} cycles, redo {} cycles ({:.2}x)",
        undo.cycles,
        redo.cycles,
        undo.cycles as f64 / redo.cycles as f64
    );

    // Recovery direction: redo replays forward.
    let layout = PmLayout::new(1, 256);
    let mut ctx = FuncCtx::new(layout.clone(), 1);
    let base = harness::baseline(&mut ctx);
    let mut rt = ThreadRuntime::new(
        &layout,
        0,
        RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn)
            .redo()
            .recording(),
    );
    let x = layout.heap_base();
    rt.region_begin(&mut ctx, &[LockId(0)]);
    rt.store(&mut ctx, x, 42);
    rt.region_end(&mut ctx);

    let pmo = Pmo::compute(&ctx.execution(), HwDesign::StrandWeaver.memory_model());
    let mut rng = SmallRng::seed_from_u64(5);
    let mut replays = 0;
    for _ in 0..300 {
        let out = harness::crash_and_recover(&ctx, &base, &pmo, &mut rng);
        let v = out.image.load(x);
        assert!(v == 0 || v == 42, "all-or-nothing violated: {v}");
        if out.report.replayed_redo > 0 {
            assert_eq!(v, 42, "a replayed commit must be fully applied");
            replays += 1;
        }
    }
    println!("300 crashes: {replays} recoveries replayed the committed transaction forward");
}
