//! `perfbench`: the repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <figures|campaigns|serve|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --record-reference
//! ```
//!
//! A run repeats untraced passes of one workload for `--seconds`, each
//! after a set-up warm-up, and reports the medians of the host-cost
//! metrics. With `--trace 1` it then runs one traced pass: a replica of
//! the same layer calls, each inside a span, that splits the time by
//! layer and must reproduce the untraced reports' counters. The last
//! stdout line is the result as JSON.

mod campaigns;
mod figures;
mod host;
mod layers;
mod serve;
mod span;

use std::time::Instant;

use strandweaver::trace::Json;

use crate::span::{Metric, ServeNumbers, TracedPass};

const USAGE: &str = "usage: perfbench --workload <figures|campaigns|serve|all> [--seed N] \
                     [--seconds S] [--trace 0|1]\n       perfbench --record-reference";

/// What one untraced pass of a workload produced.
pub struct PassOutput {
    /// FNV-1a digest of the pass's simulated outputs and rendered reports.
    pub digest: u64,
    /// Operations attempted: timing runs, campaign rounds, or serve cells.
    pub attempted: u64,
    /// Operations whose outputs failed their check.
    pub failed: u64,
    /// Simulated discrete events (figures only; 0 where not surfaced).
    pub sim_events: u64,
    /// Campaign rounds completed.
    pub rounds: u64,
    /// Simulated requests offered.
    pub requests: u64,
    pub paper_error_pct: Option<f64>,
    /// Failed checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Informational remarks.
    pub notes: Vec<String>,
}

/// What a traced pass produced.
pub struct Traced {
    pub pass: TracedPass,
    pub serve: ServeNumbers,
    /// Replica counts or outputs that differ from the untraced run's.
    pub mismatches: Vec<String>,
}

/// A workload: set-up, untraced passes, and the traced replica.
pub trait Bench {
    /// The settings every result is recorded with.
    fn settings(&self) -> String;
    /// Hardware threads a pass keeps busy.
    fn threads(&self) -> usize {
        1
    }
    /// The set-up before a pass: the same entry points at a toy scale.
    fn setup(&mut self);
    /// One untraced pass through the public entry points.
    fn pass(&mut self) -> PassOutput;
    /// One traced replica of the last untraced pass.
    fn traced(&mut self, epoch: Instant) -> Traced;
}

/// 64-bit FNV-1a over the concatenation of `parts`.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every counter of the replica that differs from the report's.
pub fn compare_counts(replica: &[(&str, u64)], report: &[(&str, u64)]) -> Vec<String> {
    let mut out = Vec::new();
    for &(name, want) in report {
        match replica.iter().find(|(n, _)| *n == name) {
            Some(&(_, got)) if got == want => {}
            Some(&(_, got)) => out.push(format!("{name}: replica {got}, report {want}")),
            None => out.push(format!("{name}: replica has no such counter")),
        }
    }
    out
}

/// Failed over attempted operations.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    span::ratio(failed as f64, attempted as f64)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` gives them (with the median for n < 2).
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |k: f64| {
        let pos = k * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (q(1.0), med, q(3.0))
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            a.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.record && a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn workload(name: &str, seed: Option<u64>) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "figures" => Box::new(figures::Figures::new(
            seed.unwrap_or(figures::DEFAULT_SEED),
        )?),
        "campaigns" => Box::new(campaigns::Campaigns::new(
            seed.unwrap_or(campaigns::DEFAULT_SEED),
        )),
        "serve" => Box::new(serve::Serve::new(seed.unwrap_or(serve::DEFAULT_SEED))),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

/// Host numbers of one untraced pass, as measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Calibration-kernel time around the pass over the nominal host's.
    slowdown: f64,
    out: PassOutput,
}

/// The result of one run: the last stdout line, as JSON.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(name: &str, bench: &mut dyn Bench, seconds: f64, trace: bool) -> RunResult {
    let nproc = host::nproc();
    println!("perfbench {name}: {}, nproc {nproc}", bench.settings());
    let mut calibrator = host::Calibrator::new(bench.threads());
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss_reset = true;
    loop {
        let calibration_before = calibrator.run();
        let t = Instant::now();
        bench.setup();
        let setup_s = t.elapsed().as_secs_f64();
        rss_reset &= host::reset_peak_rss();
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let out = bench.pass();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu0;
        let peak_rss_mb = host::peak_rss_mb();
        let slowdown = (calibration_before + calibrator.run()) / 2.0 / host::NOMINAL_CALIBRATION_S;
        println!(
            "  pass {}: digest {:016x}  setup {setup_s:.3} s  wall {wall_s:.3} s  cpu {cpu_s:.2} s  \
             peak rss {peak_rss_mb:.1} MB  host slowdown {slowdown:.3}  failed {}/{}",
            passes.len() + 1,
            out.digest,
            out.failed,
            out.attempted
        );
        passes.push(Pass {
            setup_s,
            wall_s,
            cpu_s,
            peak_rss_mb,
            slowdown,
            out,
        });
        // Start another pass only if it (and the traced pass, when asked
        // for) still fits in the run.
        let per_pass = setup_s + wall_s + 2.0 * calibration_before;
        let reserve = if trace { 1.5 * per_pass } else { 0.0 };
        if start.elapsed().as_secs_f64() + per_pass + reserve > seconds {
            break;
        }
    }

    let first = passes[0].out.digest;
    let mut problems: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        attempted += p.out.attempted;
        failed += p.out.failed;
        if p.out.digest != first {
            failed += p.out.attempted - p.out.failed;
            problems.push(format!("pass {} digest differs from pass 1", i + 1));
        }
        problems.extend(p.out.problems.iter().cloned());
        for n in &p.out.notes {
            if !notes.contains(n) {
                notes.push(n.clone());
            }
        }
    }
    if !rss_reset {
        notes.push("the kernel refused to reset VmHWM; peak_rss_mb spans earlier passes".into());
    }

    // Times are reported in seconds of the nominal host: measured times
    // over the run's median calibration slowdown. (One calibration is
    // noisier than a pass, so the run's samples are pooled.)
    let col = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let host = quartiles(&col(&|p| p.slowdown)).1;
    let per_s = |f: &dyn Fn(&PassOutput) -> u64| col(&|p| f(&p.out) as f64 * host / p.wall_s);
    let e2e: Vec<(Metric, (f64, f64, f64), bool)> = {
        let entry = |name: &'static str, unit: &'static str, xs: Vec<f64>, applies: bool| {
            let q = quartiles(&xs);
            (
                Metric {
                    name,
                    value: q.1,
                    unit,
                },
                q,
                applies,
            )
        };
        let first = &passes[0].out;
        vec![
            entry("wall_s", "s", col(&|p| p.wall_s / host), true),
            entry("cpu_s", "s", col(&|p| p.cpu_s / host), true),
            entry("peak_rss_mb", "MB", col(&|p| p.peak_rss_mb), true),
            entry("setup_s", "s", col(&|p| p.setup_s / host), true),
            entry(
                "sim_events_per_s",
                "events/s",
                per_s(&|o| o.sim_events),
                first.sim_events > 0,
            ),
            entry(
                "rounds_per_s",
                "rounds/s",
                per_s(&|o| o.rounds),
                first.rounds > 0,
            ),
            entry(
                "requests_per_s",
                "req/s",
                per_s(&|o| o.requests),
                first.requests > 0,
            ),
            entry(
                "paper_error_pct",
                "%",
                col(&|p| p.out.paper_error_pct.unwrap_or(0.0)),
                first.paper_error_pct.is_some(),
            ),
            entry(
                "failed_frac",
                "ratio",
                vec![failed_frac(failed, attempted)],
                true,
            ),
            entry("wall_raw_s", "s", col(&|p| p.wall_s), true),
            entry("host_slowdown", "ratio", col(&|p| p.slowdown), true),
        ]
    };
    println!(
        "  end to end, median of {} passes [q1 .. q3] (nproc {nproc}):",
        passes.len()
    );
    for (m, (q1, _, q3), applies) in &e2e {
        if *applies {
            println!(
                "    {:<18} {:>14.6} {:<9} [{q1:.6} .. {q3:.6}]",
                m.name, m.value, m.unit
            );
        } else {
            println!(
                "    {:<18} {:>14} {:<9} (not measured by this workload)",
                m.name, "n/a", m.unit
            );
        }
    }
    // The traced pass is timed raw, so its base is the raw wall.
    let untraced_wall = e2e[9].0.value;

    let mut metrics: Vec<Metric> = e2e.iter().take(4).map(|(m, _, _)| m.clone()).collect();
    if trace {
        sw_perf::set_global_enabled(true);
        let _ = sw_perf::global_take();
        let epoch = Instant::now();
        let mut traced = bench.traced(epoch);
        traced.pass.perf.merge(&sw_perf::global_take());
        sw_perf::set_global_enabled(false);
        problems.extend(traced.mismatches.iter().map(|m| format!("replica: {m}")));
        let layer = span::per_layer(&traced.pass, untraced_wall, &traced.serve);
        print_layers(&traced.pass, &layer);
        write_spans(name, bench.settings(), nproc, &traced.pass);
        metrics = layer;
        metrics.extend(e2e.iter().skip(4).map(|(m, _, applies)| Metric {
            value: if *applies { m.value } else { 0.0 },
            ..m.clone()
        }));
    }
    for n in &notes {
        println!("  note: {n}");
    }
    for p in &problems {
        println!("  FAILED: {p}");
    }
    RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Prints the per-layer split and the dominant layer.
fn print_layers(t: &TracedPass, metrics: &[Metric]) {
    let mut by_layer: Vec<(&str, f64)> = Vec::new();
    for s in t.rec.spans() {
        if let Some(layer) = span::layer_of(s.name) {
            match by_layer.iter_mut().find(|(l, _)| *l == layer) {
                Some(e) => e.1 += s.self_ns as f64 / 1e9,
                None => by_layer.push((layer, s.self_ns as f64 / 1e9)),
            }
        }
    }
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = by_layer.iter().map(|(_, s)| s).sum();
    println!(
        "  traced pass: wall {:.3} s on {} thread(s), layer self time by layer:",
        t.wall_s, t.workers
    );
    for (layer, s) in &by_layer {
        println!(
            "    {layer:<8} {s:>10.3} s  {:>5.1}%",
            span::ratio(*s, total) * 100.0
        );
    }
    if let Some((layer, _)) = by_layer.first() {
        println!("  dominant layer: {layer}");
    }
    println!("  per layer:");
    for m in metrics {
        println!("    {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Writes the traced pass's spans, with the run's settings, under the
/// build directory.
fn write_spans(name: &str, settings: String, nproc: usize, t: &TracedPass) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir).join(format!("perfbench-spans-{name}.json"));
    let doc = Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("settings", Json::Str(settings)),
        ("nproc", Json::U64(nproc as u64)),
        ("wall_s", Json::F64(t.wall_s)),
        ("spans", t.rec.spans_json()),
    ]);
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc.render())) {
        Ok(()) => println!("  spans: {}", path.display()),
        Err(e) => println!("  note: spans not written to {}: {e}", path.display()),
    }
}

fn result_json(r: &RunResult) -> String {
    let metrics = Json::Obj(
        r.metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::F64(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failed)),
        ("metrics", metrics),
    ])
    .render()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.record {
        let digests: Vec<u64> = (0..=32).chain([figures::DEFAULT_SEED]).collect();
        if let Err(e) = figures::record_reference(&[figures::DEFAULT_SEED], &digests) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["figures", "campaigns", "serve"],
        w => vec![w],
    };
    for name in names {
        let mut bench = match workload(name, args.seed) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                std::process::exit(2);
            }
        };
        let result = run(name, bench.as_mut(), args.seconds, args.trace);
        println!("{}", result_json(&result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_check_names_every_differing_count() {
        let report = [("rounds", 155), ("faults injected", 40)];
        assert!(compare_counts(&[("rounds", 155), ("faults injected", 40)], &report).is_empty());
        let bad = compare_counts(&[("rounds", 154), ("faults injected", 40)], &report);
        assert_eq!(bad, vec!["rounds: replica 154, report 155".to_string()]);
        let missing = compare_counts(&[("rounds", 155)], &report);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].starts_with("faults injected"));
    }

    #[test]
    fn failed_frac_counts_failed_over_attempted() {
        assert_eq!(failed_frac(0, 168), 0.0);
        assert_eq!(failed_frac(42, 168), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn digests_are_order_sensitive() {
        assert_ne!(fnv1a(&[b"ab"]), fnv1a(&[b"ba"]));
        assert_eq!(fnv1a(&[b"a", b"b"]), fnv1a(&[b"ab"]));
    }

    #[test]
    fn args_reject_bad_values() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), 10.0, true));
        assert!(parse("--workload serve --trace 2").is_err());
        assert!(parse("--workload serve --seconds -1").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload serve --bogus 1").is_err());
    }
}
