//! Regenerates every table and figure in one pass. Not a statistical
//! benchmark: `harness = false` is used so `cargo bench` executes the full
//! evaluation in release mode and prints the paper-style reports.
use strandweaver::{HwDesign, LangModel};
use sw_bench::*;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== StrandWeaver evaluation (threads={}, regions={}, ops/region={}) ==\n",
        scale.threads, scale.regions, scale.ops_per_region
    );
    println!("{}", table1());
    println!("{}", fig1_report());
    println!("{}", fig2_report());
    let rows = table2(scale);
    println!("{}", table2_report(&rows));
    // One sweep feeds Figures 7 and 8 and the summary.
    let cells = full_sweep_matrix(scale, &HwDesign::ALL, &LangModel::ALL);
    println!("{}", fig7_report(&cells));
    println!("{}", fig8_report(&cells));
    let (measured, lang) = (HwDesign::StrandWeaver, LangModel::Sfr);
    println!("{}", fig9_matrix(scale, measured, lang).render());
    println!("{}", fig10_matrix(scale, measured, lang).render());
    println!("{}", summary_report(&cells));
    println!("{}", lang_sensitivity_report(&cells));
    println!("{}", native_bound_report(&native_bound(scale)));
}
