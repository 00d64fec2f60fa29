//! `swctl` — command-line driver for the StrandWeaver reproduction.
//!
//! Run it without arguments for the usage text: every subcommand with
//! exactly the flags it honours, printed from the one command table in
//! [`sw_bench::cli`]. A flag a subcommand cannot honour exits 2 with
//! `<cmd> does not take <flag>`, and so does a flag a mode switch
//! overrides (`chaos --sweep --design …`); an unknown flag exits 2 with
//! `unknown flag: <flag>`. The log-free `native` model is legal only on
//! eADR-class designs; every subcommand rejects an illegal
//! `--lang`/`--design` pair with exit code 2.
//!
//! `trace` writes a Chrome/Perfetto trace-event file (load it at
//! `ui.perfetto.dev`); `--jsonl` switches to flat JSON-lines. `--json`
//! emits machine-readable results instead of the formatted report.
//!
//! `faults` runs the fault-injection campaign: each sampled crash image is
//! perturbed (torn entry, bit flip, or poisoned line) and recovery must
//! detect every injection, salvage around it, and reconverge when itself
//! interrupted. `faults --heap` retargets the campaign at the persistent
//! allocator's journal metadata: Strict must reject corrupt/poisoned pool
//! records before mutating anything and Salvage must quarantine exactly
//! the damaged pools.
//!
//! `heap` prints end-of-run heap-pool occupancy (arena, carved, live,
//! free, fragmentation, journal) plus the run's alloc/free counters;
//! `heap --verify` runs the allocator leak smoke instead: sampled crash
//! states must recover with every rooted block live and every unreachable
//! in-flight allocation reclaimed — zero leaks.
//!
//! `serve` drives the benchmark as a fault-tolerant open-loop service:
//! seeded Poisson/bursty arrivals at `--load` × calibrated capacity, a
//! bounded per-shard admission queue with a pluggable shed policy,
//! per-shard circuit breakers tripped by persist-retry exhaustion or
//! MCEs, Salvage recovery on quarantine while survivors keep serving,
//! and failover on spare-pool exhaustion. Every mid-serve crash/recover
//! leg is checked for durable-set equality and PMO linear extension.
//!
//! `chaos` runs the *online* device-fault campaign: the memory path takes
//! randomized transient write failures (retried with backoff), permanent
//! media errors (remapped to spare lines), and read poison (delivered as
//! machine checks) while the run is live, and every round checks for
//! silent corruption, PMO-order violations, and crash-recovery
//! reconvergence. `chaos --sweep` additionally requires that at least one
//! retry healed and one line was remapped somewhere in the sweep.
//!
//! Every campaign failure (crash, faults, heap `--verify`, chaos, serve)
//! prints a one-line `swctl` reproducer — seed, mode switch and every
//! non-default knob included — that replays the failing run exactly, and
//! exits 1.

use strandweaver::experiment::{
    chaos_sweep, ChaosCampaignReport, ChaosSweepReport, FaultCampaignReport, HeapReport,
    HeapSmokeReport,
};
use strandweaver::trace::{chrome_trace, jsonl, RingRecorder};
use strandweaver::BenchmarkId;
use sw_bench::cli::{self, Args, CliError};
use sw_bench::{Scale, Target};
use sw_serve::ServeReport;
use sw_trace::Json;

/// Unwraps a strict-parse result, exiting 2 the way the parser's error
/// asks: named message verbatim, or the full usage text.
fn or_exit<T>(r: Result<T, CliError>) -> T {
    r.unwrap_or_else(|e| {
        match e {
            CliError::Message(m) => eprintln!("{m}"),
            CliError::Usage => eprintln!("{}", cli::usage()),
        }
        std::process::exit(2)
    })
}

/// A report a workload subcommand prints: text under its banner, or one
/// JSON line under `--json`.
trait Report {
    fn json(&self) -> Json;
    fn text(&self) -> String;
}

macro_rules! report {
    ($($t:ty),*) => {$(impl Report for $t {
        fn json(&self) -> Json { self.to_json() }
        fn text(&self) -> String { self.render() }
    })*};
}

report!(FaultCampaignReport, HeapReport, HeapSmokeReport);
report!(ChaosCampaignReport, ChaosSweepReport, ServeReport);

/// The crash campaign reports nothing beyond its banner (and takes no
/// `--json`).
impl Report for () {
    fn json(&self) -> Json {
        Json::Null
    }
    fn text(&self) -> String {
        String::new()
    }
}

/// Prints a verdict the way every campaign does: the report (one JSON
/// line under `--json`, else text under `<bench>: <passed>`), or
/// `<bench>: <failed> — <error>` and exit 1.
fn verdict<R: Report>(
    args: &Args,
    bench: BenchmarkId,
    passed: &str,
    failed: &str,
    result: Result<R, String>,
) {
    match result {
        Ok(r) if args.has("--json") => println!("{}", r.json().render()),
        Ok(r) => print!("{bench}: {passed}\n{}", r.text()),
        Err(e) => {
            println!("{bench}: {failed} — {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // SW_PERF=1 turns on the ambient profiler for any subcommand: every
    // Machine the run constructs self-profiles, and the aggregate phase
    // table prints to stderr on exit — stdout stays byte-identical.
    let profiling = std::env::var("SW_PERF")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if profiling {
        sw_perf::set_global_enabled(true);
    }
    dispatch();
    if profiling {
        let snap = sw_perf::global_take();
        if !snap.is_empty() {
            eprint!("{}", snap.render_table());
        }
    }
}

fn dispatch() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = or_exit(cli::parse(&argv));
    match args.command() {
        "bench" => {
            let filters = or_exit(args.target_filters(&Target::BENCH));
            let label = args.value("--label").unwrap_or("local");
            let warmup = or_exit(args.num("--warmup", 1));
            let repeat = or_exit(args.count("--repeat", 3));
            let report = sw_bench::run_bench(Scale::from_env(), &filters, label, warmup, repeat);
            let path = args
                .value("--out")
                .map_or_else(|| format!("BENCH_{label}.json"), str::to_string);
            std::fs::write(&path, report.to_json().render()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            print!("{}", report.render());
            println!("wrote {path}");
        }
        "benchcmp" => {
            let tolerance = or_exit(args.num("--tolerance", 25.0));
            let scale_wall = or_exit(args.num("--scale-wall", 1.0));
            let floors = or_exit(args.floors());
            let load = |path: &str| -> sw_bench::BenchReport {
                let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                });
                sw_bench::perf_report::parse(&body).unwrap_or_else(|e| {
                    eprintln!("cannot parse {path}: {e}");
                    std::process::exit(1);
                })
            };
            let (cur, base) = (load(&args.operands()[0]), load(&args.operands()[1]));
            match sw_bench::compare_reports(&cur, &base, tolerance, scale_wall, &floors) {
                Ok(summary) => {
                    println!("perf gate: ok (tolerance +{tolerance:.0}%)");
                    print!("{summary}");
                }
                Err(e) => {
                    eprintln!("perf gate: FAIL — {e}");
                    std::process::exit(1);
                }
            }
        }
        // Only the workload subcommands name a `<benchmark>`.
        _ if args.operands().is_empty() => {
            let t = Target::from_label(args.command()).expect("every other command is a target");
            let filters = or_exit(args.target_filters(&[t]));
            let out = t.run(Scale::from_env(), &filters);
            if args.has("--json") {
                println!("{}", out.json.expect("tabular target").render());
            } else {
                print!("{}", out.text);
            }
        }
        _ => workload(&args),
    }
}

/// The subcommands that run one `<benchmark>` cell: one preamble builds
/// the cell and reads `--rounds`, and the campaigns share [`verdict`].
fn workload(args: &Args) {
    let e = or_exit(args.experiment());
    let rounds = or_exit(args.rounds());
    let bench = e.bench;
    let cell = format!("{bench} lang={} design={}", e.lang, e.design);
    match args.command() {
        "run" => {
            let json = args.has("--json");
            let stats = if json { e.with_metrics() } else { e }.run_timing();
            if json {
                println!("{}", stats.to_json().render());
                return;
            }
            println!(
                "{cell} redo={}: {} cycles, {} clwbs, ckc {:.2}, persist stalls {}, lock stalls {}",
                args.has("--redo"),
                stats.cycles,
                stats.total_clwbs(),
                stats.ckc(),
                stats.persist_stall_cycles(),
                stats.lock_stall_cycles(),
            );
            if args.has("--stats") {
                print!("{}", stats.report());
            }
        }
        "crash" => verdict(
            args,
            bench,
            &format!("{rounds} crash states recovered consistently"),
            "INCONSISTENT",
            e.run_crash_campaign(rounds),
        ),
        "faults" => {
            let result = if args.has("--heap") {
                e.run_heap_fault_campaign(rounds)
            } else {
                e.run_fault_campaign(rounds)
            };
            verdict(
                args,
                bench,
                "fault campaign passed",
                "FAULT CAMPAIGN FAILED",
                result,
            );
        }
        "heap" if args.has("--verify") => verdict(
            args,
            bench,
            "allocator smoke passed",
            "ALLOCATOR SMOKE FAILED",
            e.run_heap_smoke(rounds),
        ),
        "heap" => {
            // A benchmark without a churn mode is a usage error (exit 2).
            let report = e.run_heap_report(args.has("--churn"));
            let report = or_exit(report.map_err(CliError::Message));
            verdict(args, bench, "heap occupancy", "", Ok(report));
        }
        "chaos" if args.has("--sweep") => verdict(
            args,
            bench,
            "chaos sweep passed",
            "CHAOS SWEEP FAILED",
            chaos_sweep(&e, rounds),
        ),
        "chaos" => verdict(
            args,
            bench,
            "chaos campaign passed",
            "CHAOS CAMPAIGN FAILED",
            e.run_chaos_campaign(rounds),
        ),
        "serve" => {
            let cfg = or_exit(args.serve_config());
            let result = if args.has("--sweep") {
                sw_serve::serve_sweep(&cfg)
            } else {
                sw_serve::serve_report(&cfg)
            };
            verdict(args, bench, "serve ok", "SERVE FAILED", result);
        }
        "trace" => {
            let rec = RingRecorder::new(1 << 20);
            let stats = e.traced(rec.clone()).with_metrics().run_timing();
            let path = args.value("--out").unwrap_or("trace.json");
            let events = rec.events();
            let body = if args.has("--jsonl") {
                jsonl(&events)
            } else {
                chrome_trace(&events).render()
            };
            std::fs::write(path, body).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "{cell}: {} cycles, {} events recorded ({} dropped) -> {path}",
                stats.cycles,
                rec.recorded(),
                rec.dropped(),
            );
        }
        "perf" => {
            let stats = e.with_profiling().run_timing();
            let snap = stats
                .perf
                .as_ref()
                .expect("profiled run carries a snapshot");
            println!(
                "{cell}: {} cycles, {} events processed",
                stats.cycles,
                stats.events.total(),
            );
            print!("{}", snap.render_table());
        }
        other => unreachable!("{other} has a <benchmark> row but no arm"),
    }
}
