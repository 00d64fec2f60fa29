//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section VI).
//!
//! The `fig*`/`table*` functions run the corresponding experiment and
//! format its report; `swctl <target>` prints one through
//! [`Target::run`] and `benches/figures.rs` regenerates everything in one
//! pass (run with `cargo bench -p sw-bench --bench figures`).
//!
//! Scale: the paper simulates 50 K operations in gem5; these runs default
//! to 240 regions × 4 operations so a full table/figure sweep completes in
//! minutes. Set `SW_BENCH_REGIONS` / `SW_BENCH_THREADS` /
//! `SW_BENCH_OPS_PER_REGION` to change the scale — relative results (who
//! wins, by what factor) are stable across scales.

#![warn(missing_docs)]

pub mod cli;
pub mod perf_report;
pub mod targets;

pub use perf_report::{compare_reports, run_bench, BenchPhase, BenchReport, BenchTargetResult};
pub use targets::{sweep_designs, Target, TargetFilters, TargetOutput};

use std::fmt::Write as _;

use strandweaver::experiment::{design_sweep_of, fan_out, Experiment};
use strandweaver::model::litmus;
use strandweaver::{BenchmarkId, HwDesign, LangModel, MemoryModel, SimConfig, SimStats};
use sw_trace::Json;

/// Run scale shared by all figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Threads (= cores).
    pub threads: usize,
    /// Total failure-atomic regions per run.
    pub regions: usize,
    /// Operations per region.
    pub ops_per_region: usize,
}

impl Scale {
    /// Reads the scale from the environment (defaults: 8 threads, 240
    /// regions, 4 ops/region).
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Self {
            threads: get("SW_BENCH_THREADS", 8),
            regions: get("SW_BENCH_REGIONS", 240),
            ops_per_region: get("SW_BENCH_OPS_PER_REGION", 4),
        }
    }

    fn experiment(&self, bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Experiment {
        Experiment::new(bench, lang, design)
            .threads(self.threads)
            .total_regions(self.regions)
            .ops_per_region(self.ops_per_region)
    }
}

/// Table I: the simulated machine configuration.
pub fn table1() -> String {
    let c = SimConfig::table_i();
    let mut s = String::new();
    let _ = writeln!(s, "Table I — Simulator specifications");
    let _ = writeln!(
        s,
        "  Core        {} cores, 2 GHz, in-order issue w/ OoO fence semantics",
        c.cores
    );
    let _ = writeln!(
        s,
        "              {}-entry store queue, {}-entry persist queue",
        c.store_queue_entries, c.persist_queue_entries
    );
    let _ = writeln!(
        s,
        "  D-Cache     32kB {}-way 64B, {} cycles hit, {} flush slots (MSHRs)",
        c.l1_ways, c.l1_hit_cycles, c.intel_flush_slots
    );
    let _ = writeln!(s, "  L2-Cache    shared, {} cycles hit", c.l2_hit_cycles);
    let _ = writeln!(
        s,
        "  Strand unit {} buffers x {} entries",
        c.strand_buffers, c.strand_buffer_entries
    );
    let _ = writeln!(
        s,
        "  PM          {}-cycle read (346ns), {}-cycle write-to-controller ack (96ns),",
        c.pm_read_cycles, c.pm_write_ack_cycles
    );
    let _ = writeln!(
        s,
        "              {}-entry ADR write queue, 1 media write / {} cycles",
        c.pm_write_queue, c.pm_drain_interval
    );
    let _ = writeln!(s, "  DRAM        {} cycles access", c.dram_cycles);
    s
}

/// One Table II row: benchmark and measured write intensity.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// CLWBs per thousand cycles on the non-atomic design.
    pub ckc: f64,
    /// The paper's reported CKC.
    pub paper_ckc: f64,
    /// Simulated cycles of the measuring run.
    pub cycles: u64,
    /// Discrete events processed by the measuring run.
    pub events_processed: u64,
}

/// The paper's Table II CKC values, in `BenchmarkId::ALL` order.
pub const PAPER_CKC: [f64; 8] = [0.78, 4.83, 4.45, 3.46, 1.58, 4.41, 8.06, 10.05];

/// Table II: benchmarks and their write intensity (CKC, measured on the
/// non-atomic design under failure-atomic transactions).
pub fn table2(scale: Scale) -> Vec<Table2Row> {
    BenchmarkId::ALL
        .iter()
        .zip(PAPER_CKC)
        .map(|(&bench, paper_ckc)| {
            let stats = scale
                .experiment(bench, LangModel::Txn, HwDesign::NonAtomic)
                .run_timing();
            Table2Row {
                bench,
                ckc: stats.ckc(),
                paper_ckc,
                cycles: stats.cycles,
                events_processed: stats.events.total(),
            }
        })
        .collect()
}

/// Formats Table II.
pub fn table2_report(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table II — Benchmarks and write intensity (CKC = CLWBs / kilocycle)"
    );
    let _ = writeln!(s, "  {:12} {:>10} {:>10}", "benchmark", "measured", "paper");
    for r in rows {
        let _ = writeln!(
            s,
            "  {:12} {:>10.2} {:>10.2}",
            r.bench.label(),
            r.ckc,
            r.paper_ckc
        );
    }
    s
}

/// One Figure 7/8 cell: every design's stats for a benchmark × language
/// model, with identical logical work.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Language model.
    pub lang: LangModel,
    /// `(design, stats)` for every swept design, in sweep order (all
    /// registered designs by default; a `--design` filter narrows it).
    pub designs: Vec<(HwDesign, SimStats)>,
}

impl SweepCell {
    fn stats(&self, design: HwDesign) -> &SimStats {
        let (_, stats) = self
            .designs
            .iter()
            .find(|(d, _)| *d == design)
            .expect("design present");
        stats
    }

    /// Cycles of `design`.
    pub fn cycles(&self, design: HwDesign) -> u64 {
        self.stats(design).cycles
    }

    /// Speedup of `design` over the Intel x86 baseline.
    pub fn speedup(&self, design: HwDesign) -> f64 {
        self.cycles(HwDesign::IntelX86) as f64 / self.cycles(design) as f64
    }

    /// Discrete events processed across every design's run of this cell.
    pub fn events_processed(&self) -> u64 {
        self.designs.iter().map(|(_, s)| s.events.total()).sum()
    }

    /// Simulated cycles summed across every design's run of this cell.
    pub fn sim_cycles(&self) -> u64 {
        self.designs.iter().map(|(_, s)| s.cycles).sum()
    }

    /// Persist-ordering stall cycles of `design`, normalized to Intel x86
    /// (the Figure 8 metric).
    pub fn stall_ratio(&self, design: HwDesign) -> f64 {
        let intel = self.stats(HwDesign::IntelX86).persist_stall_cycles() as f64;
        let d = self.stats(design).persist_stall_cycles() as f64;
        if intel == 0.0 {
            0.0
        } else {
            d / intel
        }
    }
}

/// The Figure 7/8 sweep, the workhorse that Figures 7, 8 and the summary
/// all read: every benchmark × `designs` × the subset of `langs` legal on
/// every swept design (a [`SweepCell`] holds one language model's stats
/// for *all* designs, so a model that cannot run on one of them — the
/// log-free Native model off eADR — is skipped; `swctl` validates explicit
/// filters before calling, so a skip here is never silent). The (language
/// model × benchmark) cells [`fan_out`] — each cell regenerates its own
/// workload from the shared seed and owns its machines, so the cells are
/// independent — and each cell's design sweep fans out further inside
/// [`design_sweep_of`].
pub fn full_sweep_matrix(
    scale: Scale,
    designs: &[HwDesign],
    langs: &[LangModel],
) -> Vec<SweepCell> {
    let mut pairs = Vec::new();
    for &lang in langs {
        if !designs.iter().all(|&d| lang.legal_on(d)) {
            continue;
        }
        for &bench in &BenchmarkId::ALL {
            pairs.push((lang, bench));
        }
    }
    fan_out(&pairs, |&(lang, bench)| {
        let proto_design = *designs.first().unwrap_or(&HwDesign::StrandWeaver);
        let proto = scale.experiment(bench, lang, proto_design);
        SweepCell {
            bench,
            lang,
            designs: design_sweep_of(designs, bench, lang, &proto),
        }
    })
}

/// The designs the cells were swept over, in sweep order. The report
/// columns derive from this, so a registered design (or a `--design`
/// filter) shows up without touching the formatters.
fn swept_designs(cells: &[SweepCell]) -> Vec<HwDesign> {
    cells
        .first()
        .map(|c| c.designs.iter().map(|(d, _)| *d).collect())
        .unwrap_or_default()
}

/// Figures 7 and 8 share one table: a block per language model, a row per
/// benchmark and a column per design; `value` formats one cell for a
/// column `w` characters wide.
fn sweep_table(
    title: &str,
    cells: &[SweepCell],
    designs: &[HwDesign],
    value: impl Fn(&SweepCell, HwDesign, usize) -> String,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    for &lang in &LangModel::ALL {
        if !cells.iter().any(|c| c.lang == lang) {
            continue;
        }
        let _ = writeln!(s, "  [{}]", lang.label());
        let _ = write!(s, "  {:12}", "benchmark");
        for d in designs {
            let _ = write!(s, " {:>w$}", d.label(), w = col_width(*d));
        }
        let _ = writeln!(s);
        for cell in cells.iter().filter(|c| c.lang == lang) {
            let _ = write!(s, "  {:12}", cell.bench.label());
            for &d in designs {
                let _ = write!(s, " {}", value(cell, d, col_width(d)));
            }
            let _ = writeln!(s);
        }
    }
    s
}

/// Figure 7: speedup over Intel x86 per benchmark, language model, design.
pub fn fig7_report(cells: &[SweepCell]) -> String {
    sweep_table(
        "Figure 7 — Speedup over the Intel x86 design",
        cells,
        &swept_designs(cells),
        |cell, d, w| format!("{:>w$.2}x", cell.speedup(d), w = w - 1),
    )
}

/// Column width for a design's figure column: wide enough for its label
/// and for a `{:>8.2}x` value.
fn col_width(d: HwDesign) -> usize {
    d.label().len().max(9)
}

/// Figure 8: persist-ordering CPU stalls, normalized to Intel x86. The
/// non-atomic design is the no-ordering bound and is omitted, as in the
/// paper.
pub fn fig8_report(cells: &[SweepCell]) -> String {
    let designs: Vec<HwDesign> = swept_designs(cells)
        .into_iter()
        .filter(|d| *d != HwDesign::NonAtomic)
        .collect();
    sweep_table(
        "Figure 8 — Persist-ordering CPU stalls (normalized to Intel x86)",
        cells,
        &designs,
        |cell, d, w| format!("{:>w$.2}", cell.stall_ratio(d)),
    )
}

/// The Figure 9 strand-buffer-unit shapes `(buffers, entries per buffer)`.
pub const FIG9_SHAPES: [(usize, usize); 5] = [(2, 2), (4, 2), (2, 4), (4, 4), (8, 8)];

/// The four microbenchmarks swept by Figures 9 and 10.
const MICROBENCHES: [BenchmarkId; 4] = [
    BenchmarkId::Queue,
    BenchmarkId::Hashmap,
    BenchmarkId::ArraySwap,
    BenchmarkId::RbTree,
];

/// A labelled numeric matrix — benchmark rows × configuration columns with
/// a geometric-mean footer. Figures 9 and 10 share this shape; it renders
/// as the figures' plain-text table or serializes for `--json`.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Report heading.
    pub title: String,
    /// One label per column.
    pub col_labels: Vec<String>,
    /// `(row label, one value per column)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Geometric mean of each column across the rows.
    pub geomean: Vec<f64>,
    /// Discrete events processed across every run behind the matrix
    /// (baseline and measured), for events/sec accounting.
    pub events_processed: u64,
    /// Simulated cycles summed across every run behind the matrix.
    pub sim_cycles: u64,
}

impl MatrixReport {
    fn from_rows(title: &str, col_labels: Vec<String>, rows: Vec<(String, Vec<f64>)>) -> Self {
        let geomean = (0..col_labels.len())
            .map(|i| geomean(&rows.iter().map(|(_, vals)| vals[i]).collect::<Vec<_>>()))
            .collect();
        Self {
            title: title.to_string(),
            col_labels,
            rows,
            geomean,
            events_processed: 0,
            sim_cycles: 0,
        }
    }

    /// Plain-text table in the figures' house style.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.title);
        let _ = write!(s, "  {:12}", "benchmark");
        for c in &self.col_labels {
            let _ = write!(s, " {c:>9}");
        }
        let _ = writeln!(s);
        let mut row = |label: &str, vals: &[f64]| {
            let _ = write!(s, "  {label:12}");
            for v in vals {
                let _ = write!(s, " {v:>8.2}x");
            }
            let _ = writeln!(s);
        };
        for (label, vals) in &self.rows {
            row(label, vals);
        }
        row("geomean", &self.geomean);
        s
    }

    /// JSON object (`swctl fig9 --json`, `swctl fig10 --json`).
    pub fn to_json(&self) -> Json {
        let f64s = |xs: &[f64]| Json::Arr(xs.iter().map(|v| Json::F64(*v)).collect());
        Json::obj([
            ("title", Json::Str(self.title.clone())),
            (
                "columns",
                Json::Arr(
                    self.col_labels
                        .iter()
                        .map(|c| Json::Str(c.clone()))
                        .collect(),
                ),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(l, vals)| {
                            Json::obj([("label", Json::Str(l.clone())), ("values", f64s(vals))])
                        })
                        .collect(),
                ),
            ),
            ("geomean", f64s(&self.geomean)),
            ("events_processed", Json::U64(self.events_processed)),
            ("sim_cycles", Json::U64(self.sim_cycles)),
        ])
    }
}

/// Figure 9 data: sensitivity to the strand-buffer-unit configuration,
/// speedup over Intel x86 per microbenchmark. `measured` picks the design
/// on the y axis (the paper measures StrandWeaver; designs without strand
/// buffers are flat across the shapes) and `lang` the language model (the
/// paper's figure uses SFR; the `swctl --lang` filter swaps it). The
/// caller validates `lang` legality on both `measured` and the Intel
/// baseline.
pub fn fig9_matrix(scale: Scale, measured: HwDesign, lang: LangModel) -> MatrixReport {
    let cols = FIG9_SHAPES
        .into_iter()
        .map(|(b, e)| format!("({b},{e})"))
        .collect();
    let mut events_processed = 0u64;
    let mut sim_cycles = 0u64;
    let rows = MICROBENCHES
        .into_iter()
        .map(|bench| {
            let intel = scale
                .experiment(bench, lang, HwDesign::IntelX86)
                .run_timing();
            events_processed += intel.events.total();
            sim_cycles += intel.cycles;
            let vals = FIG9_SHAPES
                .into_iter()
                .map(|(b, e)| {
                    let stats = scale
                        .experiment(bench, lang, measured)
                        .strand_buffers(b, e)
                        .run_timing();
                    events_processed += stats.events.total();
                    sim_cycles += stats.cycles;
                    intel.cycles as f64 / stats.cycles as f64
                })
                .collect();
            (bench.label().to_string(), vals)
        })
        .collect();
    let mut m = MatrixReport::from_rows(
        &format!(
            "Figure 9 — Sensitivity to (strand buffers, entries per buffer), {}, {}",
            lang.label().to_uppercase(),
            measured.label()
        ),
        cols,
        rows,
    );
    m.events_processed = events_processed;
    m.sim_cycles = sim_cycles;
    m
}

/// Figure 10 data: speedup over Intel x86 as operations per region vary,
/// for the `measured` design under `lang` (the paper measures StrandWeaver
/// under SFR). The caller validates `lang` legality on both `measured` and
/// the Intel baseline.
pub fn fig10_matrix(scale: Scale, measured: HwDesign, lang: LangModel) -> MatrixReport {
    let ops_axis = [2usize, 4, 8, 16, 32];
    let cols = ops_axis.into_iter().map(|o| format!("{o} ops")).collect();
    let mut events_processed = 0u64;
    let mut sim_cycles = 0u64;
    let rows = MICROBENCHES
        .into_iter()
        .map(|bench| {
            let vals = ops_axis
                .into_iter()
                .map(|ops| {
                    // Hold total logical work constant across the axis.
                    let at_ops = Scale {
                        regions: (scale.regions * scale.ops_per_region / ops).max(scale.threads),
                        ops_per_region: ops,
                        ..scale
                    };
                    let sw = at_ops.experiment(bench, lang, measured).run_timing();
                    let intel = at_ops
                        .experiment(bench, lang, HwDesign::IntelX86)
                        .run_timing();
                    events_processed += sw.events.total() + intel.events.total();
                    sim_cycles += sw.cycles + intel.cycles;
                    intel.cycles as f64 / sw.cycles as f64
                })
                .collect();
            (bench.label().to_string(), vals)
        })
        .collect();
    let mut m = MatrixReport::from_rows(
        &format!(
            "Figure 10 — Speedup vs. operations per failure-atomic {}, {}",
            lang.label().to_uppercase(),
            measured.label()
        ),
        cols,
        rows,
    );
    m.events_processed = events_processed;
    m.sim_cycles = sim_cycles;
    m
}

/// Figure 2: litmus outcomes under the strand persistency model.
pub fn fig2_report() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 2 — Strand persistency litmus tests");
    for l in litmus::all() {
        let out = l.run(MemoryModel::StrandWeaver);
        let _ = writeln!(
            s,
            "  {:28} reachable states: {:3}  forbidden hit: {}  required missing: {}  => {}",
            l.name,
            out.reachable.len(),
            out.violations.len(),
            out.missing.len(),
            if out.passed() { "PASS" } else { "FAIL" }
        );
    }
    s
}

/// Figure 1 companion: the motivating ordering example — under an epoch
/// model the independent persist C serializes behind A; under strands it
/// does not.
pub fn fig1_report() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 1(e,f) — desired order A -> B with C independent");
    let strand = litmus::fig1_ef_strand();
    let out = strand.run(MemoryModel::StrandWeaver);
    let _ = writeln!(
        s,
        "  strand persistency: C-before-A state reachable: {} (concurrency preserved)",
        out.reachable.contains(&vec![0, 0, 1])
    );
    // The same intent under an epoch model: C after the barrier.
    let mut p = strandweaver::model::Program::new(1);
    use strandweaver::model::OpKind;
    p.push(0, OpKind::store(litmus::loc_a(), 1));
    p.push(0, OpKind::Sfence);
    p.push(0, OpKind::store(litmus::loc_b(), 1));
    p.push(0, OpKind::store(litmus::loc_c(), 1));
    let epoch = strandweaver::model::litmus::Litmus {
        name: "fig1f-epoch".into(),
        program: p,
        observe: vec![litmus::loc_a(), litmus::loc_b(), litmus::loc_c()],
        forbidden: vec![],
        required: vec![],
        vmo_filter: None,
    };
    let out = epoch.run(MemoryModel::IntelX86);
    let _ = writeln!(
        s,
        "  epoch persistency:  C-before-A state reachable: {} (C serialized after A)",
        out.reachable.contains(&vec![0, 0, 1])
    );
    s
}

/// Geometric mean of `xs` (1.0 for none).
fn geomean(xs: &[f64]) -> f64 {
    xs.iter().product::<f64>().powf(1.0 / xs.len() as f64)
}

/// Largest of `xs` (`f64::MIN` for none).
fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::MIN, f64::max)
}

/// The headline numbers of Section VI-B, computed once from the sweep for
/// both the text and the JSON summary.
struct Headline {
    over_intel_avg: f64,
    over_intel_max: f64,
    over_hops_avg: f64,
    over_hops_max: f64,
    /// StrandWeaver's persist-stall cycles relative to Intel x86's.
    stall_ratio: f64,
    /// Slowdown against the non-atomic (no-ordering) bound, in percent.
    non_atomic_gap_pct: f64,
    eadr_over_intel_avg: f64,
    eadr_over_intel_max: f64,
    /// Slowdown against the eADR persistent-cache bound, in percent.
    eadr_gap_pct: f64,
}

impl Headline {
    fn of(cells: &[SweepCell]) -> Self {
        let sw = HwDesign::StrandWeaver;
        // Per-cell cycles of `num` over cycles of `den`.
        let ratio = |num: HwDesign, den: HwDesign| -> Vec<f64> {
            cells
                .iter()
                .map(|c| c.cycles(num) as f64 / c.cycles(den) as f64)
                .collect()
        };
        let gap_pct = |bound: HwDesign| (geomean(&ratio(sw, bound)) - 1.0) * 100.0;
        let over_intel = ratio(HwDesign::IntelX86, sw);
        let over_hops = ratio(HwDesign::Hops, sw);
        let eadr = ratio(HwDesign::IntelX86, HwDesign::Eadr);
        let stall: Vec<f64> = cells.iter().map(|c| c.stall_ratio(sw)).collect();
        Headline {
            over_intel_avg: geomean(&over_intel),
            over_intel_max: max(&over_intel),
            over_hops_avg: geomean(&over_hops),
            over_hops_max: max(&over_hops),
            stall_ratio: geomean(&stall),
            non_atomic_gap_pct: gap_pct(HwDesign::NonAtomic),
            eadr_over_intel_avg: geomean(&eadr),
            eadr_over_intel_max: max(&eadr),
            eadr_gap_pct: gap_pct(HwDesign::Eadr),
        }
    }
}

/// Headline numbers (Section VI-B): average/max speedups of StrandWeaver
/// over Intel x86 and HOPS, stall reduction, distance to non-atomic.
pub fn summary_report(cells: &[SweepCell]) -> String {
    let h = Headline::of(cells);
    let mut s = String::new();
    let _ = writeln!(s, "Headline numbers (paper values in parentheses)");
    let _ = writeln!(
        s,
        "  StrandWeaver over Intel x86: {:.2}x avg (1.45x), {:.2}x max (1.97x)",
        h.over_intel_avg, h.over_intel_max
    );
    let _ = writeln!(
        s,
        "  StrandWeaver over HOPS:      {:.2}x avg (1.20x), {:.2}x max (1.55x)",
        h.over_hops_avg, h.over_hops_max
    );
    let _ = writeln!(
        s,
        "  Persist-stall cycles vs Intel: {:.1}% of baseline (paper: 62.4% fewer)",
        h.stall_ratio * 100.0
    );
    let _ = writeln!(
        s,
        "  Slowdown vs non-atomic bound: {:.1}% (paper: 3.1-5.7%)",
        h.non_atomic_gap_pct
    );
    let _ = writeln!(
        s,
        "  eADR (battery-backed caches) over Intel x86: {:.2}x avg, {:.2}x max",
        h.eadr_over_intel_avg, h.eadr_over_intel_max
    );
    let _ = writeln!(
        s,
        "  StrandWeaver within {:.1}% of the eADR persistent-cache bound",
        h.eadr_gap_pct
    );
    s
}

/// Table II as JSON (`swctl table2 --json`).
pub fn table2_json(rows: &[Table2Row]) -> Json {
    Json::obj([(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("benchmark", Json::Str(r.bench.label().to_string())),
                        ("ckc", Json::F64(r.ckc)),
                        ("paper_ckc", Json::F64(r.paper_ckc)),
                        ("cycles", Json::U64(r.cycles)),
                        ("events_processed", Json::U64(r.events_processed)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// The Figure 7/8 sweep as JSON: one object per cell with raw cycles and
/// the derived speedup / stall-ratio metrics per design
/// (`swctl fig7 --json`, `swctl fig8 --json`).
pub fn sweep_json(cells: &[SweepCell]) -> Json {
    Json::obj([(
        "cells",
        Json::Arr(
            cells
                .iter()
                .map(|cell| {
                    Json::obj([
                        ("benchmark", Json::Str(cell.bench.label().to_string())),
                        ("lang", Json::Str(cell.lang.label().to_string())),
                        (
                            "designs",
                            Json::Arr(
                                cell.designs
                                    .iter()
                                    .map(|(design, stats)| {
                                        Json::obj([
                                            ("design", Json::Str(design.label().to_string())),
                                            ("cycles", Json::U64(stats.cycles)),
                                            ("events_processed", Json::U64(stats.events.total())),
                                            (
                                                "persist_stall_cycles",
                                                Json::U64(stats.persist_stall_cycles()),
                                            ),
                                            (
                                                "speedup_over_intel",
                                                Json::F64(cell.speedup(*design)),
                                            ),
                                            ("stall_ratio", Json::F64(cell.stall_ratio(*design))),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// One Native-bound row: cycles of one benchmark on the three runs that
/// decompose the eADR bound — Intel/TXN (the software+hardware baseline),
/// eADR/TXN (hardware only: persist-at-visibility caches, log retained),
/// and eADR/Native (hardware plus the log deleted).
#[derive(Debug, Clone)]
pub struct NativeBoundRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Cycles under TXN on the Intel x86 design.
    pub intel_txn: u64,
    /// Cycles under TXN on eADR (same logging, no flush/fence lowering).
    pub eadr_txn: u64,
    /// Cycles under log-free Native on eADR.
    pub eadr_native: u64,
    /// Discrete events processed across the row's three runs.
    pub events_processed: u64,
}

impl NativeBoundRow {
    /// Total eADR+Native speedup over the Intel/TXN baseline.
    pub fn total(&self) -> f64 {
        self.intel_txn as f64 / self.eadr_native as f64
    }

    /// The hardware share: what eADR buys while the log is kept.
    pub fn hardware(&self) -> f64 {
        self.intel_txn as f64 / self.eadr_txn as f64
    }

    /// The software share: what deleting the log buys on top, on eADR.
    pub fn log_deletion(&self) -> f64 {
        self.eadr_txn as f64 / self.eadr_native as f64
    }
}

/// Runs the Native-bound decomposition for every benchmark: Intel/TXN vs
/// eADR/TXN vs eADR/Native, with identical logical work. TXN is the
/// logged comparison point because Native shares its `sync_cost`, so the
/// eADR/TXN → eADR/Native delta isolates the logging code itself.
pub fn native_bound(scale: Scale) -> Vec<NativeBoundRow> {
    BenchmarkId::ALL
        .iter()
        .map(|&bench| {
            let intel = scale
                .experiment(bench, LangModel::Txn, HwDesign::IntelX86)
                .run_timing();
            let eadr = scale
                .experiment(bench, LangModel::Txn, HwDesign::Eadr)
                .run_timing();
            let native = scale
                .experiment(bench, LangModel::Native, HwDesign::Eadr)
                .run_timing();
            NativeBoundRow {
                bench,
                intel_txn: intel.cycles,
                eadr_txn: eadr.cycles,
                eadr_native: native.cycles,
                events_processed: intel.events.total()
                    + eadr.events.total()
                    + native.events.total(),
            }
        })
        .collect()
}

/// Geometric means of the Native-bound rows' hardware, log-free and total
/// speedups.
fn native_geomeans(rows: &[NativeBoundRow]) -> [f64; 3] {
    [
        NativeBoundRow::hardware,
        NativeBoundRow::log_deletion,
        NativeBoundRow::total,
    ]
    .map(|speedup| geomean(&rows.iter().map(speedup).collect::<Vec<_>>()))
}

/// Formats the Native-bound decomposition (the paper bounds eADR at 2.40x
/// over Intel x86; this splits that bound into its hardware and software
/// halves).
pub fn native_bound_report(rows: &[NativeBoundRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Native on eADR — decomposing the persistent-cache bound (speedup over Intel x86/TXN)"
    );
    let _ = writeln!(
        s,
        "  {:12} {:>10} {:>10} {:>10}",
        "benchmark", "hardware", "log-free", "total"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:12} {:>9.2}x {:>9.2}x {:>9.2}x",
            r.bench.label(),
            r.hardware(),
            r.log_deletion(),
            r.total()
        );
    }
    let [hw, lf, tot] = native_geomeans(rows);
    let _ = writeln!(
        s,
        "  {:12} {:>9.2}x {:>9.2}x {:>9.2}x",
        "geomean", hw, lf, tot
    );
    s
}

/// The Native-bound decomposition as JSON (the `native_on_eadr` section of
/// `swctl summary --json`).
pub fn native_bound_json(rows: &[NativeBoundRow]) -> Json {
    let [hw, lf, tot] = native_geomeans(rows);
    Json::obj([
        ("lang", Json::Str(LangModel::Native.label().to_string())),
        ("design", Json::Str(HwDesign::Eadr.label().to_string())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("benchmark", Json::Str(r.bench.label().to_string())),
                            ("intel_txn_cycles", Json::U64(r.intel_txn)),
                            ("eadr_txn_cycles", Json::U64(r.eadr_txn)),
                            ("eadr_native_cycles", Json::U64(r.eadr_native)),
                            ("events_processed", Json::U64(r.events_processed)),
                            ("hardware_speedup", Json::F64(r.hardware())),
                            ("log_free_speedup", Json::F64(r.log_deletion())),
                            ("total_speedup", Json::F64(r.total())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("hardware_speedup_geomean", Json::F64(hw)),
        ("log_free_speedup_geomean", Json::F64(lf)),
        ("total_speedup_geomean", Json::F64(tot)),
    ])
}

/// StrandWeaver's geometric-mean speedup over Intel x86 per language
/// model, `None` for a model absent from the sweep.
fn lang_speedups(cells: &[SweepCell]) -> impl Iterator<Item = (LangModel, Option<f64>)> + '_ {
    LangModel::ALL.into_iter().map(|lang| {
        let xs: Vec<f64> = cells
            .iter()
            .filter(|c| c.lang == lang)
            .map(|c| c.speedup(HwDesign::StrandWeaver))
            .collect();
        (lang, (!xs.is_empty()).then(|| geomean(&xs)))
    })
}

/// The headline numbers as JSON (`swctl summary --json`); the
/// Native-bound decomposition lands under `native_on_eadr`.
pub fn summary_json(cells: &[SweepCell], native: &[NativeBoundRow]) -> Json {
    let h = Headline::of(cells);
    // Models absent from the sweep (Native is not legal on the full
    // design matrix) are skipped rather than reported as an empty mean.
    let per_lang = lang_speedups(cells)
        .filter_map(|(lang, geo)| {
            geo.map(|geo| {
                Json::obj([
                    ("lang", Json::Str(lang.label().to_string())),
                    ("speedup_geomean", Json::F64(geo)),
                ])
            })
        })
        .collect();
    Json::obj([
        ("speedup_over_intel_geomean", Json::F64(h.over_intel_avg)),
        ("speedup_over_intel_max", Json::F64(h.over_intel_max)),
        ("speedup_over_hops_geomean", Json::F64(h.over_hops_avg)),
        ("speedup_over_hops_max", Json::F64(h.over_hops_max)),
        ("stall_ratio_vs_intel_geomean", Json::F64(h.stall_ratio)),
        (
            "slowdown_vs_non_atomic_pct",
            Json::F64(h.non_atomic_gap_pct),
        ),
        (
            "eadr_speedup_over_intel_geomean",
            Json::F64(h.eadr_over_intel_avg),
        ),
        (
            "eadr_speedup_over_intel_max",
            Json::F64(h.eadr_over_intel_max),
        ),
        ("slowdown_vs_eadr_pct", Json::F64(h.eadr_gap_pct)),
        (
            "events_processed",
            Json::U64(
                cells.iter().map(SweepCell::events_processed).sum::<u64>()
                    + native.iter().map(|r| r.events_processed).sum::<u64>(),
            ),
        ),
        ("per_lang", Json::Arr(per_lang)),
        ("native_on_eadr", native_bound_json(native)),
    ])
}

/// Per-language-model average speedups (Section VI-B "sensitivity to
/// language-level persistency model": SFR 1.50x > TXN 1.45x > ATLAS 1.40x).
/// Models absent from the sweep — the log-free Native model cannot run on
/// the StrandWeaver/Intel designs this report normalizes over — are noted
/// with a pointer to the Native-bound decomposition instead of a mean.
pub fn lang_sensitivity_report(cells: &[SweepCell]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Per-language-model average speedup of StrandWeaver over Intel x86"
    );
    for (lang, geo) in lang_speedups(cells) {
        match geo {
            Some(geo) => {
                let _ = writeln!(s, "  {:6} {:.2}x", lang.label(), geo);
            }
            // Absent because it cannot run here (vs. filtered out by the
            // caller): only the former deserves a note.
            None if !lang.legal_on(HwDesign::StrandWeaver) => {
                let _ = writeln!(
                    s,
                    "  {:6} (eADR-only; see the Native-on-eADR decomposition)",
                    lang.label()
                );
            }
            None => {}
        }
    }
    s
}
