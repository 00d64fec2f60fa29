//! `figures`: the `swctl summary` sweep — 8 benchmarks × {txn, sfr, atlas}
//! × 6 designs plus the Native-on-eADR rows — at a given workload seed.
//!
//! `Target::Summary` always runs seed 1234, so the pass composes the same
//! calls (`design_sweep_of` per cell, on the same thread fan-out as
//! `full_sweep_matrix`, then the native rows and the summary renderers)
//! with the seed threaded through. At seed 1234 its text is byte-identical
//! to `swctl summary`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use strandweaver::experiment::{design_sweep_of, host_is_multicore, Experiment};
use strandweaver::{BenchmarkId, HwDesign, LangModel, SimStats};
use sw_bench::{NativeBoundRow, Scale, SweepCell};

use crate::layers;
use crate::span::{Recorder, TracedPass};
use crate::{fnv1a, host, Bench, PassOutput, Traced};

/// The sweep's default seed (the one `swctl summary` runs).
pub const DEFAULT_SEED: u64 = 1234;

/// The `swctl summary` default scale.
pub const SCALE: Scale = Scale {
    threads: 8,
    regions: 240,
    ops_per_region: 4,
};

/// Scale of the set-up warm-up pass.
const WARMUP: Scale = Scale {
    threads: 2,
    regions: 12,
    ops_per_region: 2,
};

/// Golden per-run outputs and whole-pass digests, recorded at [`SCALE`].
pub const REFERENCE_PATH: &str = "perfbench/reference/figures.txt";

/// One timing run: its identity and its simulated outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub lang: LangModel,
    pub bench: BenchmarkId,
    pub design: HwDesign,
    pub cycles: u64,
    pub events: u64,
}

impl Run {
    fn new(lang: LangModel, bench: BenchmarkId, design: HwDesign, stats: &SimStats) -> Self {
        Run {
            lang,
            bench,
            design,
            cycles: stats.cycles,
            events: stats.events.total(),
        }
    }

    fn key(&self) -> String {
        format!("{} {} {}", self.lang, self.bench, self.design)
    }
}

/// The (language model, benchmark) cells of the summary sweep, in
/// `full_sweep_matrix` order.
fn sweep_pairs() -> Vec<(LangModel, BenchmarkId)> {
    LangModel::ALL
        .into_iter()
        .filter(|l| HwDesign::ALL.iter().all(|&d| l.legal_on(d)))
        .flat_map(|l| BenchmarkId::ALL.into_iter().map(move |b| (l, b)))
        .collect()
}

/// The three runs of a Native-bound row, in `native_bound` order.
const NATIVE_RUNS: [(LangModel, HwDesign); 3] = [
    (LangModel::Txn, HwDesign::IntelX86),
    (LangModel::Txn, HwDesign::Eadr),
    (LangModel::Native, HwDesign::Eadr),
];

/// Every timing run of the summary, in report order.
fn jobs() -> Vec<(LangModel, BenchmarkId, HwDesign)> {
    let sweep = sweep_pairs()
        .into_iter()
        .flat_map(|(l, b)| HwDesign::ALL.into_iter().map(move |d| (l, b, d)));
    let native = BenchmarkId::ALL
        .into_iter()
        .flat_map(|b| NATIVE_RUNS.into_iter().map(move |(l, d)| (l, b, d)));
    sweep.chain(native).collect()
}

fn experiment(
    scale: Scale,
    seed: u64,
    bench: BenchmarkId,
    lang: LangModel,
    design: HwDesign,
) -> Experiment {
    Experiment::new(bench, lang, design)
        .threads(scale.threads)
        .total_regions(scale.regions)
        .ops_per_region(scale.ops_per_region)
        .seed(seed)
}

/// The sweep cells plus the native rows and every run's outputs.
struct Summary {
    cells: Vec<SweepCell>,
    native: Vec<NativeBoundRow>,
    runs: Vec<Run>,
}

impl Summary {
    /// Builds the summary from per-run stats in [`jobs`] order.
    fn from_stats(stats: Vec<SimStats>) -> Self {
        let jobs = jobs();
        let runs: Vec<Run> = jobs
            .iter()
            .zip(&stats)
            .map(|(&(l, b, d), s)| Run::new(l, b, d, s))
            .collect();
        let mut stats = stats.into_iter();
        let cells = sweep_pairs()
            .into_iter()
            .map(|(lang, bench)| SweepCell {
                bench,
                lang,
                designs: HwDesign::ALL
                    .into_iter()
                    .map(|d| (d, stats.next().expect("one stat per job")))
                    .collect(),
            })
            .collect();
        let native = native_rows(&runs[runs.len() - 3 * BenchmarkId::ALL.len()..]);
        Summary {
            cells,
            native,
            runs,
        }
    }

    /// The `swctl summary` text and its `--json` form.
    fn render(&self) -> (String, String) {
        let mut text = sw_bench::summary_report(&self.cells);
        text.push_str(&sw_bench::lang_sensitivity_report(&self.cells));
        text.push_str(&sw_bench::native_bound_report(&self.native));
        let json = sw_bench::summary_json(&self.cells, &self.native).render();
        (text, json)
    }
}

fn native_rows(runs: &[Run]) -> Vec<NativeBoundRow> {
    runs.chunks(3)
        .map(|r| NativeBoundRow {
            bench: r[0].bench,
            intel_txn: r[0].cycles,
            eadr_txn: r[1].cycles,
            eadr_native: r[2].cycles,
            events_processed: r.iter().map(|x| x.events).sum(),
        })
        .collect()
}

/// The untraced summary: the sweep on `full_sweep_matrix`'s fan-out (one
/// thread per cell, one per design inside it), then the native rows.
fn summary(scale: Scale, seed: u64) -> Summary {
    let cell = |(lang, bench): (LangModel, BenchmarkId)| {
        let proto = experiment(scale, seed, bench, lang, HwDesign::ALL[0]);
        design_sweep_of(&HwDesign::ALL, bench, lang, &proto)
    };
    let pairs = sweep_pairs();
    let per_cell: Vec<Vec<(HwDesign, SimStats)>> = if host_is_multicore() {
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs.iter().map(|&p| s.spawn(move || cell(p))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep cell thread panicked"))
                .collect()
        })
    } else {
        pairs.into_iter().map(cell).collect()
    };
    let mut stats: Vec<SimStats> = per_cell.into_iter().flatten().map(|(_, s)| s).collect();
    for bench in BenchmarkId::ALL {
        for (lang, design) in NATIVE_RUNS {
            stats.push(experiment(scale, seed, bench, lang, design).run_timing());
        }
    }
    Summary::from_stats(stats)
}

/// The six headline numbers of the summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    pub over_intel_avg: f64,
    pub over_intel_max: f64,
    pub over_hops_avg: f64,
    pub over_hops_max: f64,
    /// Persist-stall cycles as a percentage of Intel x86's.
    pub stall_pct: f64,
    /// Slowdown against the non-atomic bound, in percent.
    pub non_atomic_gap_pct: f64,
}

/// The paper values printed beside the headline numbers: 1.45x/1.97x over
/// Intel x86, 1.20x/1.55x over HOPS, 62.4% fewer stall cycles (37.6% of
/// baseline); the non-atomic gap is the range 3.1–5.7%.
pub const PAPER: Headline = Headline {
    over_intel_avg: 1.45,
    over_intel_max: 1.97,
    over_hops_avg: 1.20,
    over_hops_max: 1.55,
    stall_pct: 37.6,
    non_atomic_gap_pct: f64::NAN,
};
const PAPER_GAP: (f64, f64) = (3.1, 5.7);

/// The headline numbers, by `summary_report`'s formulas.
pub fn headline(cells: &[SweepCell]) -> Headline {
    let geo = |xs: &[f64]| xs.iter().product::<f64>().powf(1.0 / xs.len() as f64);
    let max = |xs: &[f64]| xs.iter().cloned().fold(f64::MIN, f64::max);
    let sw = HwDesign::StrandWeaver;
    let over_intel: Vec<f64> = cells.iter().map(|c| c.speedup(sw)).collect();
    let over_hops: Vec<f64> = cells
        .iter()
        .map(|c| c.cycles(HwDesign::Hops) as f64 / c.cycles(sw) as f64)
        .collect();
    let below_na: Vec<f64> = cells
        .iter()
        .map(|c| c.cycles(sw) as f64 / c.cycles(HwDesign::NonAtomic) as f64)
        .collect();
    let stall: Vec<f64> = cells.iter().map(|c| c.stall_ratio(sw)).collect();
    Headline {
        over_intel_avg: geo(&over_intel),
        over_intel_max: max(&over_intel),
        over_hops_avg: geo(&over_hops),
        over_hops_max: max(&over_hops),
        stall_pct: geo(&stall) * 100.0,
        non_atomic_gap_pct: (geo(&below_na) - 1.0) * 100.0,
    }
}

/// Mean relative error, in percent, of the six headline numbers against
/// [`PAPER`]. The non-atomic gap counts 0 inside the paper's range and
/// otherwise its distance to the nearer end, relative to that end.
pub fn paper_error_pct(h: &Headline) -> f64 {
    let rel = |got: f64, want: f64| (got - want).abs() / want;
    let (lo, hi) = PAPER_GAP;
    let gap = if h.non_atomic_gap_pct < lo {
        rel(h.non_atomic_gap_pct, lo)
    } else if h.non_atomic_gap_pct > hi {
        rel(h.non_atomic_gap_pct, hi)
    } else {
        0.0
    };
    let errs = [
        rel(h.over_intel_avg, PAPER.over_intel_avg),
        rel(h.over_intel_max, PAPER.over_intel_max),
        rel(h.over_hops_avg, PAPER.over_hops_avg),
        rel(h.over_hops_max, PAPER.over_hops_max),
        rel(h.stall_pct, PAPER.stall_pct),
        gap,
    ];
    errs.iter().sum::<f64>() / errs.len() as f64 * 100.0
}

/// Golden outputs at [`SCALE`]: every run of some seeds, and whole-pass
/// digests of more.
#[derive(Debug, Default)]
pub struct Reference {
    runs: BTreeMap<u64, Vec<(String, u64, u64)>>,
    digests: BTreeMap<u64, u64>,
}

impl Reference {
    /// Parses the reference file; a missing file is an empty reference.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = Reference::default();
        for (n, line) in text.lines().enumerate() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("{REFERENCE_PATH}:{}: bad number", n + 1);
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match f.as_slice() {
                [] => {}
                [c, ..] if c.starts_with('#') => {}
                ["digest", seed, d] => {
                    let d = u64::from_str_radix(d, 16).map_err(|_| bad())?;
                    r.digests.insert(num(seed)?, d);
                }
                ["run", seed, lang, bench, design, cycles, events] => {
                    r.runs.entry(num(seed)?).or_default().push((
                        format!("{lang} {bench} {design}"),
                        num(cycles)?,
                        num(events)?,
                    ));
                }
                _ => return Err(format!("{REFERENCE_PATH}:{}: unrecognised line", n + 1)),
            }
        }
        Ok(r)
    }

    /// Runs of a pass at `seed` that disagree with the reference, and
    /// whether the reference covers `seed` at all.
    fn failed(&self, seed: u64, runs: &[Run], digest: u64) -> (u64, bool) {
        if let Some(golden) = self.runs.get(&seed) {
            let bad = runs.len().abs_diff(golden.len())
                + runs
                    .iter()
                    .zip(golden)
                    .filter(|(r, (k, c, e))| r.key() != *k || r.cycles != *c || r.events != *e)
                    .count();
            return (bad as u64, true);
        }
        match self.digests.get(&seed) {
            Some(&d) if d != digest => (runs.len() as u64, true),
            Some(_) => (0, true),
            None => (0, false),
        }
    }
}

/// Digest of the simulated outputs: every run's cycles and events.
fn digest(runs: &[Run]) -> u64 {
    let mut s = String::new();
    for r in runs {
        s.push_str(&format!("{} {} {}\n", r.key(), r.cycles, r.events));
    }
    fnv1a(&[s.as_bytes()])
}

/// The figures workload.
pub struct Figures {
    seed: u64,
    reference: Reference,
    /// Runs of the first untraced pass: the replica and later passes must
    /// reproduce them.
    first: Option<Vec<Run>>,
}

impl Figures {
    pub fn new(seed: u64) -> Result<Self, String> {
        let text = std::fs::read_to_string(REFERENCE_PATH).unwrap_or_default();
        Ok(Figures {
            seed,
            reference: Reference::parse(&text)?,
            first: None,
        })
    }
}

impl Bench for Figures {
    /// The sweep fans out a thread per cell and per design.
    fn threads(&self) -> usize {
        host::nproc()
    }

    fn settings(&self) -> String {
        format!(
            "scale {}x{}x{}, seed {}, timing runs {}",
            SCALE.threads,
            SCALE.regions,
            SCALE.ops_per_region,
            self.seed,
            jobs().len()
        )
    }

    fn setup(&mut self) {
        std::hint::black_box(summary(WARMUP, self.seed).render());
    }

    fn pass(&mut self) -> PassOutput {
        let s = summary(SCALE, self.seed);
        std::hint::black_box(s.render());
        let digest = digest(&s.runs);
        let (failed, covered) = self.reference.failed(self.seed, &s.runs, digest);
        let mut problems = Vec::new();
        let mut notes = Vec::new();
        if !covered {
            notes.push(format!(
                "{REFERENCE_PATH} holds no golden outputs for seed {}; checked for determinism only",
                self.seed
            ));
        }
        if failed > 0 {
            problems.push(format!("{failed} timing runs differ from {REFERENCE_PATH}"));
        }
        if self.first.is_none() {
            self.first = Some(s.runs.clone());
        }
        PassOutput {
            digest,
            attempted: s.runs.len() as u64,
            failed,
            sim_events: s.runs.iter().map(|r| r.events).sum(),
            rounds: 0,
            requests: 0,
            paper_error_pct: Some(paper_error_pct(&headline(&s.cells))),
            problems,
            notes,
        }
    }

    fn traced(&mut self, epoch: Instant) -> Traced {
        let jobs = jobs();
        let workers = host::nproc().min(jobs.len()).max(1);
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::new());
        let dims = (SCALE.threads, SCALE.regions, SCALE.ops_per_region);
        let seed = self.seed;
        let t0 = Instant::now();
        let recs: Vec<Recorder> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (jobs, next, results) = (&jobs, &next, &results);
                    s.spawn(move || {
                        let mut rec = Recorder::new(epoch, w + 1);
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let Some(&(lang, bench, design)) = jobs.get(i) else {
                                break rec;
                            };
                            let stats = rec.span("figures.run", |rec| {
                                layers::timing_run(rec, bench, lang, design, dims, seed)
                            });
                            results.lock().expect("results lock").push((i, stats));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replica worker panicked"))
                .collect()
        });
        let mut rec = Recorder::new(epoch, 0);
        for r in recs {
            rec.absorb(r);
        }
        let mut results = results.into_inner().expect("results lock");
        results.sort_by_key(|(i, _)| *i);
        let summary = Summary::from_stats(results.into_iter().map(|(_, s)| s).collect());
        let (text, json) = rec.span("render", |_| summary.render());
        rec.counts.render_bytes += (text.len() + json.len()) as u64;
        let wall_s = t0.elapsed().as_secs_f64();

        let mut mismatches = Vec::new();
        let first = self.first.as_deref().unwrap_or_default();
        if summary.runs.len() != first.len() {
            mismatches.push(format!(
                "replica ran {} timing runs, the run reported {}",
                summary.runs.len(),
                first.len()
            ));
        }
        for (a, b) in summary.runs.iter().zip(first) {
            if a != b {
                mismatches.push(format!(
                    "{}: replica {} cycles / {} events, run {} / {}",
                    a.key(),
                    a.cycles,
                    a.events,
                    b.cycles,
                    b.events
                ));
            }
        }
        Traced {
            pass: TracedPass {
                rec,
                perf: Default::default(),
                wall_s,
                workers,
            },
            serve: Default::default(),
            mismatches,
        }
    }
}

/// Writes the reference file: every run of `full_seeds` and the digest of
/// every seed in `digest_seeds`, at [`SCALE`].
pub fn record_reference(full_seeds: &[u64], digest_seeds: &[u64]) -> Result<(), String> {
    let mut out = format!(
        "# figures reference at scale {}x{}x{}: `run <seed> <lang> <bench> <design> <cycles> <events>`\n\
         # and `digest <seed> <fnv1a-64 of every run's \"<lang> <bench> <design> <cycles> <events>\" line>`.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference\n",
        SCALE.threads, SCALE.regions, SCALE.ops_per_region
    );
    let mut seeds: Vec<u64> = full_seeds.iter().chain(digest_seeds).copied().collect();
    seeds.sort_unstable();
    seeds.dedup();
    for seed in seeds {
        let s = summary(SCALE, seed);
        out.push_str(&format!("digest {seed} {:016x}\n", digest(&s.runs)));
        if full_seeds.contains(&seed) {
            for r in &s.runs {
                out.push_str(&format!(
                    "run {seed} {} {} {}\n",
                    r.key(),
                    r.cycles,
                    r.events
                ));
            }
        }
        eprintln!("recorded seed {seed}");
    }
    std::fs::write(REFERENCE_PATH, out).map_err(|e| format!("{REFERENCE_PATH}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact() -> Headline {
        Headline {
            non_atomic_gap_pct: 4.0,
            ..PAPER
        }
    }

    #[test]
    fn paper_error_is_zero_on_the_paper_values() {
        assert_eq!(paper_error_pct(&exact()), 0.0);
    }

    /// One hand-built summary cell: SW at 100 cycles, Intel x86 at 145,
    /// HOPS at 120, non-atomic at 96 (a 4.2% gap), and SW stalling 37.6%
    /// of Intel's persist-stall cycles. Only the two maxima miss the paper.
    #[test]
    fn paper_error_of_a_hand_built_summary() {
        let stats = |cycles, stall_fence| SimStats {
            cycles,
            cores: vec![strandweaver::sim::CoreStats {
                stall_fence,
                ..Default::default()
            }],
            ..Default::default()
        };
        let cell = SweepCell {
            bench: BenchmarkId::Queue,
            lang: LangModel::Txn,
            designs: vec![
                (HwDesign::IntelX86, stats(145, 1000)),
                (HwDesign::StrandWeaver, stats(100, 376)),
                (HwDesign::Hops, stats(120, 500)),
                (HwDesign::NonAtomic, stats(96, 0)),
            ],
        };
        let h = headline(&[cell]);
        assert!((h.over_intel_avg - 1.45).abs() < 1e-12);
        assert!((h.over_hops_max - 1.2).abs() < 1e-12);
        assert!((h.stall_pct - 37.6).abs() < 1e-9);
        assert!((h.non_atomic_gap_pct - 100.0 * (100.0 / 96.0 - 1.0)).abs() < 1e-9);
        let want = ((1.97 - 1.45) / 1.97 + (1.55 - 1.2) / 1.55) / 6.0 * 100.0;
        assert!((paper_error_pct(&h) - want).abs() < 1e-9);
    }

    #[test]
    fn paper_error_averages_relative_errors_of_six_numbers() {
        // 10% off on the Intel average, gap 1.1 points below the range.
        let h = Headline {
            over_intel_avg: 1.45 * 1.1,
            non_atomic_gap_pct: 2.0,
            ..exact()
        };
        let want = (0.1 + 1.1 / 3.1) / 6.0 * 100.0;
        assert!((paper_error_pct(&h) - want).abs() < 1e-9);
        // Anywhere inside 3.1–5.7% the gap counts zero; above, it counts
        // against the upper end.
        for gap in [3.1, 4.4, 5.7] {
            let h = Headline {
                non_atomic_gap_pct: gap,
                ..exact()
            };
            assert_eq!(paper_error_pct(&h), 0.0);
        }
        let h = Headline {
            non_atomic_gap_pct: 11.4,
            ..exact()
        };
        assert!((paper_error_pct(&h) - 100.0 / 6.0).abs() < 1e-9);
    }

    /// At seed 1234 the composed sweep is `swctl summary`: it reproduces
    /// the committed CI-scale output byte for byte.
    #[test]
    fn composed_summary_matches_the_committed_ci_output() {
        let ci = Scale {
            threads: 2,
            regions: 24,
            ops_per_region: 2,
        };
        let expected = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../expected/summary.txt"),
        )
        .expect("expected/summary.txt is committed");
        let (text, _) = summary(ci, DEFAULT_SEED).render();
        assert_eq!(text, expected);
    }

    #[test]
    fn job_list_covers_the_sweep_and_native_rows() {
        // 3 logged models legal everywhere x 8 benchmarks x 6 designs,
        // plus 3 runs per benchmark for the Native-on-eADR rows.
        assert_eq!(sweep_pairs().len(), 24);
        assert_eq!(jobs().len(), 24 * 6 + 8 * 3);
    }

    #[test]
    fn reference_counts_each_differing_run() {
        let run = |cycles| Run {
            lang: LangModel::Txn,
            bench: BenchmarkId::Queue,
            design: HwDesign::StrandWeaver,
            cycles,
            events: 7,
        };
        let r = Reference::parse(
            "# comment\nrun 5 txn queue strandweaver 10 7\nrun 5 txn queue strandweaver 11 7\ndigest 6 ff\n",
        )
        .expect("parses");
        assert_eq!(r.failed(5, &[run(10), run(11)], 0), (0, true));
        assert_eq!(r.failed(5, &[run(10), run(12)], 0), (1, true));
        assert_eq!(r.failed(5, &[run(10)], 0), (1, true));
        assert_eq!(r.failed(6, &[run(1), run(2)], 0xff), (0, true));
        assert_eq!(r.failed(6, &[run(1), run(2)], 0xfe), (2, true));
        assert_eq!(r.failed(7, &[run(1)], 0), (0, false));
        assert!(Reference::parse("bogus line").is_err());
    }
}
