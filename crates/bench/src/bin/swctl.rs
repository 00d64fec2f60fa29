//! `swctl` — command-line driver for the StrandWeaver reproduction.
//!
//! ```text
//! swctl run    <benchmark> [--lang txn|sfr|atlas|native] [--design <d>] [--redo]
//!              [--threads N] [--regions N] [--ops N] [--sq N] [--pq N]
//!              [--stats] [--json] [--seed N]
//! swctl crash  <benchmark> [--rounds N] [--design <d>] [--lang ...] [--redo]
//! swctl faults <benchmark> [--rounds N] [--heap] [--json] [crash flags]
//! swctl chaos  <benchmark> [--rounds N] [--sweep] [--json] [crash flags]
//! swctl heap   <benchmark> [--churn] [--verify] [--json] [crash flags]
//! swctl serve  <benchmark> [--sweep] [--shards N] [--requests N] [--load F]
//!              [--arrival poisson|bursty] [--shed-policy drop-tail|deadline|token-bucket]
//!              [--queue-depth N] [--deadline-factor N] [--no-faults] [--lang ...]
//!              [--design <d>] [--redo] [--threads N] [--regions N] [--ops N]
//!              [--seed N] [--json]   (no --sq/--pq: exit 2)
//! swctl trace  <benchmark> [--out <file.json>] [--jsonl] [run flags]
//! swctl litmus | fig1 | fig2 | table1
//! swctl table2 [--json]
//! swctl summary [--json] [--lang <l>]
//! swctl fig7|fig8 [--json] [--design <d>]
//! swctl fig9|fig10 [--json] [--design <d>] [--lang <l>]
//! ```
//!
//! The log-free `native` model is legal only on eADR-class designs;
//! every subcommand rejects an illegal `--lang`/`--design` pair with
//! exit code 2.
//!
//! `trace` writes a Chrome/Perfetto trace-event file (load it at
//! `ui.perfetto.dev`); `--jsonl` switches to flat JSON-lines. `--json`
//! emits machine-readable results instead of the formatted report.
//! Unknown flags are an error on every subcommand.
//!
//! `faults` runs the fault-injection campaign: each sampled crash image is
//! perturbed (torn entry, bit flip, or poisoned line) and recovery must
//! detect every injection, salvage around it, and reconverge when itself
//! interrupted. A failure prints a one-line reproducer (seed + flags) and
//! exits 1. `--seed N` pins the whole campaign for replay.
//!
//! `faults --heap` retargets the campaign at the persistent allocator's
//! journal metadata: Strict must reject corrupt/poisoned pool records
//! before mutating anything and Salvage must quarantine exactly the
//! damaged pools.
//!
//! `heap` prints end-of-run heap-pool occupancy (arena, carved, live,
//! free, fragmentation, journal) plus the run's alloc/free counters;
//! `--churn` uses the allocator-churn workload variant (hashmap,
//! nstore-*), and `--verify` runs the allocator leak smoke instead:
//! sampled crash states must recover with every rooted block live and
//! every unreachable in-flight allocation reclaimed — zero leaks.
//!
//! `serve` drives the benchmark as a fault-tolerant open-loop service:
//! seeded Poisson/bursty arrivals at `--load` × calibrated capacity, a
//! bounded per-shard admission queue with a pluggable shed policy,
//! per-shard circuit breakers tripped by persist-retry exhaustion or
//! MCEs, Salvage recovery on quarantine while survivors keep serving,
//! and failover on spare-pool exhaustion. Reports p50/p99/p999 latency
//! plus goodput/shed/timeout/failover counts; `--sweep` walks every
//! legal design × lang pair across an offered-load grid. Every
//! mid-serve crash/recover leg is checked for durable-set equality and
//! PMO linear extension; violations embed a seeded reproducer.
//!
//! `chaos` runs the *online* device-fault campaign: the memory path takes
//! randomized transient write failures (retried with backoff), permanent
//! media errors (remapped to spare lines), and read poison (delivered as
//! machine checks) while the run is live, and every round checks for
//! silent corruption, PMO-order violations, and crash-recovery
//! reconvergence. `--sweep` runs it on every legal design × lang pair and
//! additionally requires that at least one retry healed and one line was
//! remapped somewhere in the sweep. Failures embed a seeded reproducer.

use strandweaver::experiment::Experiment;
use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_bench::cli::{self, CliError, Flags};
use sw_bench::{Scale, Target, TargetFilters};
use sw_serve::{ArrivalKind, ServeConfig, ShedPolicy};

/// Unwraps a strict-parse result, exiting 2 the way the shared parser's
/// error asks: named message verbatim, or the full usage text.
fn or_exit<T>(r: Result<T, CliError>) -> T {
    r.unwrap_or_else(|e| match e {
        CliError::Message(m) => {
            eprintln!("{m}");
            std::process::exit(2);
        }
        CliError::Usage => usage(),
    })
}

fn parse_bench(s: &str) -> Option<BenchmarkId> {
    cli::parse_bench(s)
}

fn parse_design(s: &str) -> HwDesign {
    or_exit(cli::parse_design(s))
}

fn parse_lang(s: &str) -> LangModel {
    or_exit(cli::parse_lang(s))
}

fn check_legal(lang: LangModel, design: HwDesign) {
    or_exit(cli::check_legal(lang, design));
}

fn usage() -> ! {
    eprintln!(
        "usage: swctl <command>\n\
         \n  run <benchmark>    simulate one cell (flags: --lang --design --redo --threads --regions --ops --sq --pq --stats --json --seed)\
         \n  crash <benchmark>  crash-consistency campaign (flags as above plus --rounds)\
         \n  faults <benchmark> fault-injection campaign: inject torn/bitflip/poison damage into\
         \n                     sampled crash images and verify detection, salvage, and convergence\
         \n                     (crash flags plus --json; --heap targets allocator-journal metadata;\
         \n                     failures print a seeded reproducer)\
         \n  heap <benchmark>   end-of-run heap-pool occupancy and alloc/free counters (crash flags\
         \n                     plus --json; --churn enables allocator churn where supported;\
         \n                     --verify runs the allocator leak smoke: crash, recover, reclaim,\
         \n                     assert zero leaks)\
         \n  serve <benchmark>  fault-tolerant open-loop serving layer: seeded arrivals, bounded\
         \n                     admission queue, per-shard circuit breakers, Salvage recovery on\
         \n                     quarantine, failover on spare exhaustion; reports p50/p99/p999 and\
         \n                     goodput/shed/timeout/failover (flags: --lang --design --redo --threads\
         \n                     --regions --ops --seed --json --shards --requests --load --arrival\
         \n                     --shed-policy --queue-depth --deadline-factor --no-faults; --sweep\
         \n                     walks legal design x lang across a load grid; --sq/--pq are rejected)\
         \n  chaos <benchmark>  online device-fault chaos campaign: live transient/permanent/poison\
         \n                     faults with retry, remap, and MCE delivery; checks silent corruption,\
         \n                     PMO order, and crash reconvergence (crash flags plus --json;\
         \n                     --sweep covers every legal design x lang pair)\
         \n  trace <benchmark>  simulate with event tracing, write a Perfetto timeline (--out FILE, --jsonl)\
         \n  litmus             run the Figure 2 litmus suite\
         \n  table1|table2|fig1|fig2|fig7|fig8|fig9|fig10|summary  regenerate a table/figure (--json where tabular)\
         \n                     fig7/fig8 take --design <d> to sweep only Intel + <d>;\
         \n                     fig9/fig10 take --design <d> to measure <d> instead of strandweaver\
         \n                     and --lang <l> to measure <l> instead of sfr;\
         \n                     summary takes --lang <l> to sweep only that model\
         \n                     (illegal lang x design pairs are rejected: native needs eadr)\
         \n  bench              time every simulation-heavy target, write BENCH_<label>.json\
         \n                     (--label <s> --warmup N --repeat N --out FILE --design <d> --lang <l>)\
         \n  perf <benchmark>   one profiled run, print the per-phase wall-time table (run flags)\
         \n  benchcmp <cur> <base>  compare two BENCH_*.json reports; exit 1 past the tolerance\
         \n                     (--tolerance PCT, default 25; --scale-wall X multiplies <cur>;\
         \n                      --floor <target>:<events_per_sec> absolute minimum, repeatable)\
         \n\nSW_PERF=1 profiles any subcommand and prints the phase table to stderr.\
         \n\nbenchmarks: {}\ndesigns: {}\nlangs: {}",
        BenchmarkId::ALL.map(|b| b.label()).join(" "),
        HwDesign::ALL.map(|d| d.label()).join(" "),
        LangModel::ALL.map(|l| l.label()).join(" "),
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> Flags {
    or_exit(cli::parse_flags(args))
}

fn experiment(bench: BenchmarkId, f: &Flags) -> Experiment {
    let mut e = Experiment::new(bench, f.lang, f.design)
        .threads(f.threads)
        .total_regions(f.regions)
        .ops_per_region(f.ops);
    if let Some(seed) = f.seed {
        e = e.seed(seed);
    }
    if let Some(sq) = f.sq {
        e.sim.store_queue_entries = sq.max(1);
    }
    if let Some(pq) = f.pq {
        e.sim.persist_queue_entries = pq.max(1);
    }
    if f.redo {
        e.redo()
    } else {
        e
    }
}

/// Flags accepted by the table/figure subcommands.
struct FigureFlags {
    json: bool,
    design: Option<HwDesign>,
    lang: Option<LangModel>,
}

/// Strict flag parser for the table/figure subcommands: `--json` where the
/// output is tabular, `--design <d>` where a figure can be narrowed to one
/// design, `--lang <l>` where it can be narrowed to one language model,
/// nothing else. Anything unrecognized is an error.
fn parse_figure_flags(
    args: &[String],
    json_ok: bool,
    design_ok: bool,
    lang_ok: bool,
) -> FigureFlags {
    let mut f = FigureFlags {
        json: false,
        design: None,
        lang: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" if json_ok => f.json = true,
            "--design" if design_ok => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--design needs a value");
                    std::process::exit(2)
                });
                f.design = Some(parse_design(v));
            }
            "--lang" if lang_ok => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--lang needs a value");
                    std::process::exit(2)
                });
                f.lang = Some(parse_lang(v));
            }
            other => {
                eprintln!("unknown flag for this subcommand: {other}");
                std::process::exit(2);
            }
        }
    }
    f
}

/// Validates the lang × design legality contract a figure target assumes
/// before [`Target::run`] is called (fig9/fig10 normalize the measured
/// design to the Intel baseline; the summary sweeps every design).
fn check_target_legal(t: Target, filters: &TargetFilters) {
    match t {
        Target::Fig9 | Target::Fig10 => {
            let measured = filters.design.unwrap_or(HwDesign::StrandWeaver);
            let lang = filters.lang.unwrap_or(LangModel::Sfr);
            check_legal(lang, HwDesign::IntelX86);
            check_legal(lang, measured);
        }
        Target::Summary => {
            if let Some(lang) = filters.lang {
                for d in HwDesign::ALL {
                    check_legal(lang, d);
                }
            }
        }
        _ => {}
    }
}

/// Flags of the `bench` subcommand.
struct BenchFlags {
    label: String,
    warmup: usize,
    repeat: usize,
    out: Option<String>,
    filters: TargetFilters,
}

fn parse_bench_flags(args: &[String]) -> BenchFlags {
    let mut f = BenchFlags {
        label: "local".to_string(),
        warmup: 1,
        repeat: 3,
        out: None,
        filters: TargetFilters::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    std::process::exit(2)
                })
                .clone()
        };
        match a.as_str() {
            "--label" => f.label = next("--label"),
            "--warmup" => f.warmup = next("--warmup").parse().unwrap_or_else(|_| usage()),
            "--repeat" => f.repeat = next("--repeat").parse().unwrap_or_else(|_| usage()),
            "--out" => f.out = Some(next("--out")),
            "--design" => f.filters.design = Some(parse_design(&next("--design"))),
            "--lang" => f.filters.lang = Some(parse_lang(&next("--lang"))),
            other => {
                eprintln!("unknown flag for bench: {other}");
                std::process::exit(2);
            }
        }
    }
    if f.repeat == 0 {
        eprintln!("--repeat must be at least 1");
        std::process::exit(2);
    }
    // The summary target sweeps every design, so a lang filter must be
    // legal everywhere (this also covers the fig9/10 measured design).
    if let Some(lang) = f.filters.lang {
        for d in HwDesign::ALL {
            check_legal(lang, d);
        }
    }
    f
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "run" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            let f = parse_flags(&args[2..]);
            let mut e = experiment(bench, &f);
            if f.json {
                e = e.with_metrics();
            }
            let stats = e.run_timing();
            if f.json {
                println!("{}", stats.to_json().render());
                return;
            }
            println!(
                "{bench} lang={} design={} redo={}: {} cycles, {} clwbs, ckc {:.2}, \
                 persist stalls {}, lock stalls {}",
                f.lang,
                f.design,
                f.redo,
                stats.cycles,
                stats.total_clwbs(),
                stats.ckc(),
                stats.persist_stall_cycles(),
                stats.lock_stall_cycles(),
            );
            if f.stats {
                print!("{}", stats.report());
            }
        }
        "crash" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            let f = parse_flags(&args[2..]);
            match experiment(bench, &f).run_crash_campaign(f.rounds) {
                Ok(()) => println!("{bench}: {} crash states recovered consistently", f.rounds),
                Err(e) => {
                    println!("{bench}: INCONSISTENT — {e}");
                    std::process::exit(1);
                }
            }
        }
        "faults" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            // `--heap` retargets the campaign at allocator metadata; strip
            // it before the shared strict parser.
            let mut rest: Vec<String> = args[2..].to_vec();
            let heap = cli::take_switch(&mut rest, "--heap");
            let f = parse_flags(&rest);
            let e = experiment(bench, &f);
            let result = if heap {
                e.run_heap_fault_campaign(f.rounds)
            } else {
                e.run_fault_campaign(f.rounds)
            };
            match result {
                Ok(report) => {
                    if f.json {
                        println!("{}", report.to_json().render());
                    } else {
                        print!("{bench}: fault campaign passed\n{}", report.render());
                    }
                }
                Err(e) => {
                    println!("{bench}: FAULT CAMPAIGN FAILED — {e}");
                    std::process::exit(1);
                }
            }
        }
        "heap" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            // `heap`-only switches, stripped before the strict parser.
            let mut rest: Vec<String> = args[2..].to_vec();
            let churn = cli::take_switch(&mut rest, "--churn");
            let verify = cli::take_switch(&mut rest, "--verify");
            let f = parse_flags(&rest);
            if verify {
                match experiment(bench, &f).run_heap_smoke(f.rounds) {
                    Ok(report) => {
                        if f.json {
                            println!("{}", report.to_json().render());
                        } else {
                            print!("{bench}: allocator smoke passed\n{}", report.render());
                        }
                    }
                    Err(e) => {
                        println!("{bench}: ALLOCATOR SMOKE FAILED — {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                match experiment(bench, &f).run_heap_report(churn) {
                    Ok(report) => {
                        if f.json {
                            println!("{}", report.to_json().render());
                        } else {
                            print!("{bench}: heap occupancy\n{}", report.render());
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        "chaos" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            // `--sweep` is chaos-only; strip it before the shared strict
            // parser so the other subcommands keep rejecting it.
            let mut rest: Vec<String> = args[2..].to_vec();
            let sweep = cli::take_switch(&mut rest, "--sweep");
            let f = parse_flags(&rest);
            if sweep {
                match strandweaver::experiment::chaos_sweep(&experiment(bench, &f), f.rounds) {
                    Ok(report) => {
                        if f.json {
                            println!("{}", report.to_json().render());
                        } else {
                            print!("{bench}: chaos sweep passed\n{}", report.render());
                        }
                    }
                    Err(e) => {
                        println!("{bench}: CHAOS SWEEP FAILED — {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                match experiment(bench, &f).run_chaos_campaign(f.rounds) {
                    Ok(report) => {
                        if f.json {
                            println!("{}", report.to_json().render());
                        } else {
                            print!("{bench}: chaos campaign passed\n{}", report.render());
                        }
                    }
                    Err(e) => {
                        println!("{bench}: CHAOS CAMPAIGN FAILED — {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "serve" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            // Serve-only flags, stripped before the shared strict parser.
            let mut rest: Vec<String> = args[2..].to_vec();
            let sweep = cli::take_switch(&mut rest, "--sweep");
            let no_faults = cli::take_switch(&mut rest, "--no-faults");
            let shards = or_exit(cli::take_value(&mut rest, "--shards"));
            let requests = or_exit(cli::take_value(&mut rest, "--requests"));
            let load = or_exit(cli::take_value(&mut rest, "--load"));
            let arrival = or_exit(cli::take_value(&mut rest, "--arrival"));
            let shed = or_exit(cli::take_value(&mut rest, "--shed-policy"));
            let queue_depth = or_exit(cli::take_value(&mut rest, "--queue-depth"));
            let deadline = or_exit(cli::take_value(&mut rest, "--deadline-factor"));
            or_exit(cli::reject_flags(&rest, "serve", &["--sq", "--pq"]));
            let f = parse_flags(&rest);

            let mut cfg = ServeConfig::new(bench, f.lang, f.design);
            cfg.redo = f.redo;
            cfg.threads = f.threads;
            cfg.regions = f.regions;
            cfg.ops = f.ops;
            cfg.faults = !no_faults;
            if let Some(seed) = f.seed {
                cfg.seed = seed;
            }
            if let Some(v) = shards {
                cfg.shards = v.parse().unwrap_or_else(|_| usage());
            }
            if let Some(v) = requests {
                cfg.requests = v.parse().unwrap_or_else(|_| usage());
            }
            if let Some(v) = load {
                cfg.offered_load = v.parse().unwrap_or_else(|_| usage());
            }
            if let Some(v) = queue_depth {
                cfg.queue_depth = v.parse().unwrap_or_else(|_| usage());
            }
            if let Some(v) = deadline {
                cfg.deadline_factor = v.parse().unwrap_or_else(|_| usage());
            }
            if let Some(v) = arrival {
                cfg.arrival = ArrivalKind::from_label(&v).unwrap_or_else(|| {
                    or_exit(Err(CliError::Message(format!(
                        "unknown arrival '{v}' (valid: {})",
                        ArrivalKind::ALL.map(|k| k.label()).join(" ")
                    ))))
                });
            }
            if let Some(v) = shed {
                cfg.shed = ShedPolicy::from_label(&v).unwrap_or_else(|| {
                    or_exit(Err(CliError::Message(format!(
                        "unknown shed policy '{v}' (valid: {})",
                        ShedPolicy::ALL.map(|p| p.label()).join(" ")
                    ))))
                });
            }
            if cfg.shards == 0 || cfg.requests == 0 || cfg.offered_load <= 0.0 {
                eprintln!("--shards, --requests, and --load must be positive");
                std::process::exit(2);
            }

            let result = if sweep {
                sw_serve::serve_sweep(&cfg)
            } else {
                sw_serve::serve_report(&cfg)
            };
            match result {
                Ok(report) => {
                    if f.json {
                        println!("{}", report.to_json().render());
                    } else {
                        print!("{bench}: serve ok\n{}", report.render());
                    }
                }
                Err(e) => {
                    println!("{bench}: SERVE FAILED — {e}");
                    std::process::exit(1);
                }
            }
        }
        "trace" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            let f = parse_flags(&args[2..]);
            let rec = strandweaver::trace::RingRecorder::new(1 << 20);
            let stats = experiment(bench, &f)
                .traced(rec.clone())
                .with_metrics()
                .run_timing();
            let path = f.out.as_deref().unwrap_or("trace.json");
            let events = rec.events();
            let body = if f.jsonl {
                strandweaver::trace::jsonl(&events)
            } else {
                strandweaver::trace::chrome_trace(&events).render()
            };
            std::fs::write(path, body).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "{bench} lang={} design={}: {} cycles, {} events recorded ({} dropped) -> {path}",
                f.lang,
                f.design,
                stats.cycles,
                rec.recorded(),
                rec.dropped(),
            );
        }
        "perf" => {
            let Some(bench) = args.get(1).and_then(|s| parse_bench(s)) else {
                usage()
            };
            let f = parse_flags(&args[2..]);
            let stats = experiment(bench, &f).with_profiling().run_timing();
            let snap = stats
                .perf
                .as_ref()
                .expect("profiled run carries a snapshot");
            println!(
                "{bench} lang={} design={}: {} cycles, {} events processed",
                f.lang,
                f.design,
                stats.cycles,
                stats.events.total(),
            );
            print!("{}", snap.render_table());
        }
        "bench" => {
            let bf = parse_bench_flags(&args[1..]);
            let report = sw_bench::run_bench(
                Scale::from_env(),
                &bf.filters,
                &bf.label,
                bf.warmup,
                bf.repeat,
            );
            let path = bf.out.unwrap_or_else(|| format!("BENCH_{}.json", bf.label));
            std::fs::write(&path, report.to_json().render()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            print!("{}", report.render());
            println!("wrote {path}");
        }
        "benchcmp" => {
            let (mut cur, mut base) = (None, None);
            let mut tolerance = 25.0f64;
            let mut scale_wall = 1.0f64;
            let mut floors: Vec<(String, f64)> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut next = |name: &str| -> String {
                    it.next()
                        .unwrap_or_else(|| {
                            eprintln!("{name} needs a value");
                            std::process::exit(2)
                        })
                        .clone()
                };
                match a.as_str() {
                    "--tolerance" => {
                        tolerance = next("--tolerance").parse().unwrap_or_else(|_| usage())
                    }
                    "--scale-wall" => {
                        scale_wall = next("--scale-wall").parse().unwrap_or_else(|_| usage())
                    }
                    "--floor" => {
                        let spec = next("--floor");
                        let Some((target, value)) = spec.split_once(':') else {
                            eprintln!("--floor expects <target>:<events_per_sec>");
                            std::process::exit(2);
                        };
                        let value: f64 = value.parse().unwrap_or_else(|_| usage());
                        floors.push((target.to_string(), value));
                    }
                    p if !p.starts_with('-') && cur.is_none() => cur = Some(p.to_string()),
                    p if !p.starts_with('-') && base.is_none() => base = Some(p.to_string()),
                    other => {
                        eprintln!("unknown flag for benchcmp: {other}");
                        std::process::exit(2);
                    }
                }
            }
            let (Some(cur), Some(base)) = (cur, base) else {
                usage()
            };
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
            match sw_bench::compare_reports(
                &load(&cur),
                &load(&base),
                tolerance,
                scale_wall,
                &floors,
            ) {
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
        other => {
            let Some(t) = Target::from_label(other) else {
                usage()
            };
            let f = parse_figure_flags(&args[1..], t.json_ok(), t.design_ok(), t.lang_ok());
            let filters = TargetFilters {
                design: f.design,
                lang: f.lang,
            };
            check_target_legal(t, &filters);
            let out = t.run(Scale::from_env(), &filters);
            if f.json {
                println!("{}", out.json.expect("tabular target").render());
            } else {
                print!("{}", out.text);
            }
        }
    }
}
