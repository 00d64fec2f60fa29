//! Ablation (Section VII extension): undo vs. redo logging under strand
//! persistency. Redo removes the per-region durability drain — each
//! transaction lives on its own strand with a persist-barrier-ordered
//! commit record, and durability is deferred to group commits — so it
//! should recover most of the remaining gap to the non-atomic bound.
use strandweaver::experiment::Experiment;
use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_bench::Scale;

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!("Ablation — undo vs. redo logging (speedup over Intel x86 + undo)");
    println!(
        "  {:12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "sw+undo", "sw+redo", "intel+redo", "non-atomic"
    );
    for bench in BenchmarkId::ALL {
        let mk = |design, redo| {
            let e = Experiment::new(bench, LangModel::Txn, design)
                .threads(scale.threads)
                .total_regions(scale.regions)
                .ops_per_region(scale.ops_per_region);
            let e = if redo { e.redo() } else { e };
            e.run_timing()
        };
        let intel_undo = mk(HwDesign::IntelX86, false).cycles as f64;
        let sw_undo = mk(HwDesign::StrandWeaver, false).cycles as f64;
        let sw_redo = mk(HwDesign::StrandWeaver, true).cycles as f64;
        let intel_redo = mk(HwDesign::IntelX86, true).cycles as f64;
        let na = mk(HwDesign::NonAtomic, false).cycles as f64;
        println!(
            "  {:12} {:>11.2}x {:>11.2}x {:>11.2}x {:>11.2}x",
            bench.label(),
            intel_undo / sw_undo,
            intel_undo / sw_redo,
            intel_undo / intel_redo,
            intel_undo / na,
        );
    }
}
