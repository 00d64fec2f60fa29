//! `serve`: `serve_sweep` on `nstore-bal` at 2×24×2 — 19 legal design ×
//! lang pairs × loads 0.5/0.9/1.3, 600 requests a cell, faults on.
//!
//! Its cost is many small crash → recover → check legs, and it is the only
//! workload that runs the open-loop engine.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use strandweaver::experiment::order_extends_pmo;
use strandweaver::faults::DeviceFaultSchedule;
use strandweaver::lang::recovery::RecoveryPolicy;
use strandweaver::pmem::LineAddr;
use strandweaver::workloads::driver::DriverParams;
use strandweaver::{BenchmarkId, HwDesign, LangModel, Machine, SimConfig};
use sw_perf::PerfSnapshot;
use sw_serve::{ServeConfig, ServeReport, SWEEP_LOADS};

use crate::layers::{self, check, crash_image, drive_run, reconverges, simulate};
use crate::span::{ratio, Recorder, ServeNumbers, TracedPass};
use crate::{compare_counts, fnv1a, Bench, PassOutput, Traced};

/// Default seed (the `swctl serve` default).
pub const DEFAULT_SEED: u64 = 1234;
const BENCH: BenchmarkId = BenchmarkId::NStoreBal;

fn config(seed: u64, (threads, regions, ops): (usize, usize, usize), requests: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(BENCH, LangModel::Txn, HwDesign::StrandWeaver).seed(seed);
    cfg.threads = threads;
    cfg.regions = regions;
    cfg.ops = ops;
    cfg.requests = requests;
    cfg
}

const SCALE: (usize, usize, usize) = (2, 24, 2);
const REQUESTS: u64 = 600;
/// The set-up warm-up: one default cell with a tenth of the requests.
const WARMUP_REQUESTS: u64 = 60;

/// Cells of the sweep that break the serving bar: requests unaccounted
/// for, or silent corruptions.
fn bad_cells(report: &ServeReport) -> Vec<String> {
    report
        .cells
        .iter()
        .filter(|c| {
            c.completed + c.shed + c.timeouts + c.unavailable + c.failed != c.offered
                || c.silent_corruptions != 0
        })
        .map(|c| {
            format!(
                "{} x {} @ {}: accounting or corruption",
                c.design, c.lang, c.offered_load
            )
        })
        .collect()
}

fn numbers(report: &ServeReport) -> ServeNumbers {
    let cells = &report.cells;
    let mut p99: Vec<u64> = cells.iter().map(|c| c.p99).collect();
    p99.sort_unstable();
    let sum = |f: fn(&sw_serve::ServeCellReport) -> u64| cells.iter().map(f).sum::<u64>();
    ServeNumbers {
        cells: cells.len() as u64,
        goodput_ratio: ratio(sum(|c| c.completed) as f64, sum(|c| c.offered) as f64),
        p99_cycles: p99.get(p99.len() / 2).copied().unwrap_or(0) as f64,
        shed: sum(|c| c.shed),
        timeouts: sum(|c| c.timeouts),
        unavailable: sum(|c| c.unavailable),
    }
}

/// The serve workload.
pub struct Serve {
    seed: u64,
    last: Option<ServeReport>,
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        Serve { seed, last: None }
    }

    fn cells() -> usize {
        let pairs = HwDesign::ALL
            .iter()
            .flat_map(|&d| LangModel::ALL.iter().filter(move |l| l.legal_on(d)))
            .count();
        pairs * SWEEP_LOADS.len()
    }
}

impl Bench for Serve {
    fn settings(&self) -> String {
        format!(
            "bench {BENCH}, scale {}x{}x{}, seed {}, {} cells x {REQUESTS} requests, faults on",
            SCALE.0,
            SCALE.1,
            SCALE.2,
            self.seed,
            Serve::cells()
        )
    }

    fn setup(&mut self) {
        let r = sw_serve::serve_report(&config(self.seed, SCALE, WARMUP_REQUESTS));
        std::hint::black_box(r.map(|r| r.render()).ok());
    }

    fn pass(&mut self) -> PassOutput {
        let cells = Serve::cells() as u64;
        let report = sw_serve::serve_sweep(&config(self.seed, SCALE, REQUESTS));
        match report {
            Ok(report) => {
                let text = report.render() + &report.to_json().render();
                let problems = bad_cells(&report);
                let out = PassOutput {
                    digest: fnv1a(&[text.as_bytes()]),
                    attempted: cells,
                    failed: problems.len() as u64,
                    sim_events: 0,
                    rounds: 0,
                    requests: report.cells.iter().map(|c| c.offered).sum(),
                    paper_error_pct: None,
                    problems,
                    notes: Vec::new(),
                };
                self.last = Some(report);
                out
            }
            Err(e) => PassOutput {
                digest: fnv1a(&[e.as_bytes()]),
                attempted: cells,
                failed: cells,
                sim_events: 0,
                rounds: 0,
                requests: 0,
                paper_error_pct: None,
                problems: vec![format!("serve sweep: {e}")],
                notes: Vec::new(),
            },
        }
    }

    fn traced(&mut self, epoch: Instant) -> Traced {
        let mut rec = Recorder::new(epoch, 0);
        let t0 = Instant::now();
        let mut mismatches = Vec::new();
        let Some(report) = self.last.take() else {
            return Traced {
                pass: TracedPass {
                    rec,
                    perf: Default::default(),
                    wall_s: 0.0,
                    workers: 1,
                },
                serve: Default::default(),
                mismatches: vec!["no untraced serve report to replicate".into()],
            };
        };
        // The engine's request loop is private to sw-serve, so each cell
        // runs twice back to back: the real `serve_cell` in an opaque
        // `serve.cell` span, then the replica of its layer calls. The
        // difference of the two is the engine's time.
        let base = config(self.seed, SCALE, REQUESTS);
        let mut perf = PerfSnapshot::default();
        for cell in &report.cells {
            let mut cfg = base.clone();
            cfg.design = cell.design;
            cfg.lang = cell.lang;
            cfg.offered_load = cell.offered_load;
            let real = rec.span("serve.cell", |_| sw_serve::serve_cell(&cfg));
            let _ = sw_perf::global_take();
            if real.as_ref() != Ok(cell) {
                mismatches.push(format!(
                    "{} x {} @ {}: serve_cell differs from the sweep's cell",
                    cell.design, cell.lang, cell.offered_load
                ));
            }
            let r = rec.span("serve.replica", |rec| {
                serve_cell(rec, &cfg, cell.recovery_legs)
            });
            perf.merge(&sw_perf::global_take());
            if let Err(e) = r {
                mismatches.push(format!("replica {} x {}: {e}", cell.design, cell.lang));
            }
        }
        let text = rec.span("render", |_| report.render() + &report.to_json().render());
        rec.counts.render_bytes += text.len() as u64;
        let wall_s = t0.elapsed().as_secs_f64();

        let c = &rec.counts;
        let sum =
            |f: fn(&sw_serve::ServeCellReport) -> u64| report.cells.iter().map(f).sum::<u64>();
        mismatches.extend(compare_counts(
            &[
                ("recovery legs", c.legs),
                ("durable-set checks", c.durable_set_checks),
                ("pmo edges checked", c.check_pmo_edges),
                ("reconvergences", c.reconverged),
            ],
            &[
                ("recovery legs", sum(|c| c.recovery_legs)),
                ("durable-set checks", sum(|c| c.durable_set_checks)),
                ("pmo edges checked", sum(|c| c.pmo_edges_checked)),
                (
                    "reconvergences",
                    sum(|c| c.reconverged_strict + c.reconverged_salvage),
                ),
            ],
        ));
        let serve = numbers(&report);
        self.last = Some(report);
        Traced {
            pass: TracedPass {
                rec,
                perf,
                wall_s,
                workers: 1,
            },
            serve,
            mismatches,
        }
    }
}

/// One cell's layer calls as `serve_cell` makes them: the calibration
/// timing run, the recovery context (probe, its PMO and clean run, the
/// driven run), then `legs` mid-serve crash/recover legs.
fn serve_cell(rec: &mut Recorder, cfg: &ServeConfig, legs: u64) -> Result<(), String> {
    let dims = (cfg.threads, cfg.regions, cfg.ops);
    layers::timing_run(rec, cfg.bench, cfg.lang, cfg.design, dims, cfg.seed);

    let (pmo, traces, probe_layout) = layers::probe(rec, cfg.design, cfg.lang);
    let probe_run = |rec: &mut Recorder, faults: Option<DeviceFaultSchedule>| {
        let mut sim = SimConfig::default().with_cores(1);
        if let Some(s) = faults {
            sim = sim.with_device_faults(s);
        }
        simulate(rec, || {
            Machine::new(sim, cfg.design, probe_layout.clone(), traces.clone())
        })
    };
    let clean = probe_run(rec, None);
    let clean_set: BTreeSet<LineAddr> = clean.pm_write_order.iter().copied().collect();
    let scale = clean.pm_write_order.len() as u64;
    let params = DriverParams::new(cfg.design, cfg.lang)
        .threads(cfg.threads)
        .total_regions(cfg.regions)
        .ops_per_region(cfg.ops)
        .seed(cfg.seed);
    let (_, out) = drive_run(rec, cfg.bench, &params);
    let exec = rec.new_exec();
    let layout = &out.layout;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5e12_7e5e_12c0_4e12);

    for leg in 0..legs {
        let leg_seed = cfg
            .seed
            .wrapping_add(leg.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ 0x5e12_0000;
        let faulted = probe_run(rec, Some(DeviceFaultSchedule::random(leg_seed, scale)));
        let edges = check(rec, || {
            let set: BTreeSet<LineAddr> = faulted.pm_write_order.iter().copied().collect();
            if set != clean_set {
                return Err("silent corruption: durable line set diverged".into());
            }
            order_extends_pmo(&pmo, &faulted.pm_write_order)
        })?;
        rec.counts.durable_set_checks += 1;
        rec.counts.check_pmo_edges += edges as u64;

        let (crash, _) = crash_image(rec, exec, &out, cfg.design, &mut rng);
        reconverges(rec, &crash, layout, RecoveryPolicy::Strict, &mut rng)?;
        let mut damaged = crash.clone();
        let victim = rng.gen_range(0..cfg.threads);
        let log_line = layout.log_region(victim).base.line().raw();
        damaged.poison_line(LineAddr(log_line + 1 + rng.gen_range(0..4)));
        reconverges(rec, &damaged, layout, RecoveryPolicy::Salvage, &mut rng)?;
        rec.counts.legs += 1;
    }
    Ok(())
}
