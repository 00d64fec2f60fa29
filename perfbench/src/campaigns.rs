//! `campaigns`: every campaign loop on `queue` at 8×240×4 — `chaos_sweep`
//! over all 19 legal design × lang cells, then the crash, log-fault and
//! heap-fault campaigns on txn × strandweaver.
//!
//! Each round's `crash_image` recomputes `Pmo::compute` over the driven
//! run while the simulator only replays a small probe, so PMO, crash
//! sampling and recovery carry this workload.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use strandweaver::experiment::{
    chaos_sweep, order_extends_pmo, ChaosSweepReport, Experiment, FaultCampaignReport,
};
use strandweaver::faults::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultClass, FaultInjector,
    FaultPlan, FaultTrigger, InjectedFault, InjectedHeapFault, WriteDecision,
};
use strandweaver::lang::harness::{
    check_prefix_consistency, check_replay_consistency, check_salvage_consistency, CrashOutcome,
};
use strandweaver::lang::recovery::{RecoveryFault, RecoveryPolicy};
use strandweaver::lang::{Consistency, SlotState};
use strandweaver::pmem::{HeapSlotState, LineAddr, RemapTable};
use strandweaver::workloads::driver::{DriverOutput, DriverParams};
use strandweaver::workloads::Workload;
use strandweaver::{BenchmarkId, HwDesign, LangModel, Machine};

use crate::layers::{self, check, crash_image, drive_run, reconverges, recover, simulate};
use crate::span::{Recorder, TracedPass};
use crate::{compare_counts, fnv1a, Bench, PassOutput, Traced};

/// Default seed: the chaos sweep runs on it, the three campaigns on it
/// plus 41 (so the defaults are the `swctl` smoke seeds 1 and 42).
pub const DEFAULT_SEED: u64 = 1;
const CAMPAIGN_SEED_OFFSET: u64 = 41;
const BENCH: BenchmarkId = BenchmarkId::Queue;
const SCALE: (usize, usize, usize) = (8, 240, 4);
const CHAOS_ROUNDS: usize = 5;
const CAMPAIGN_ROUNDS: usize = 20;
/// The set-up warm-up: every loop once, at a toy scale.
const WARMUP: (usize, usize, usize) = (2, 12, 2);

fn experiment(scale: (usize, usize, usize), seed: u64) -> Experiment {
    Experiment::new(BENCH, LangModel::Txn, HwDesign::StrandWeaver)
        .threads(scale.0)
        .total_regions(scale.1)
        .ops_per_region(scale.2)
        .seed(seed)
}

/// Chaos cells of the sweep, in `chaos_sweep` order.
fn chaos_cells() -> Vec<(HwDesign, LangModel)> {
    HwDesign::ALL
        .into_iter()
        .flat_map(|d| LangModel::ALL.into_iter().map(move |l| (d, l)))
        .filter(|&(d, l)| l.legal_on(d))
        .collect()
}

/// What the untraced pass's reports say, for the replica to match.
#[derive(Default)]
struct ReportCounts {
    rounds: u64,
    reconverged: u64,
    pmo_edges: u64,
    injected: u64,
    detected: u64,
}

impl ReportCounts {
    fn pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rounds", self.rounds),
            ("reconvergences", self.reconverged),
            ("pmo edges checked", self.pmo_edges),
            ("faults injected", self.injected),
            ("faults detected", self.detected),
        ]
    }
}

struct Reports {
    chaos: Result<ChaosSweepReport, String>,
    crash: Result<(), String>,
    faults: Result<FaultCampaignReport, String>,
    heap: Result<FaultCampaignReport, String>,
}

impl Reports {
    fn run(scale: (usize, usize, usize), seed: u64, chaos_rounds: usize, rounds: usize) -> Self {
        let exp = experiment(scale, seed + CAMPAIGN_SEED_OFFSET);
        Reports {
            chaos: chaos_sweep(&experiment(scale, seed), chaos_rounds),
            crash: exp.run_crash_campaign(rounds),
            faults: exp.run_fault_campaign(rounds),
            heap: exp.run_heap_fault_campaign(rounds),
        }
    }

    /// The reports as `swctl` prints them, text and `--json`.
    fn render(&self) -> String {
        let mut s = String::new();
        match &self.chaos {
            Ok(r) => s.push_str(&(r.render() + &r.to_json().render())),
            Err(e) => s.push_str(&format!("error: {e}\n")),
        }
        match &self.crash {
            Ok(()) => s.push_str("crash campaign: consistent\n"),
            Err(e) => s.push_str(&format!("error: {e}\n")),
        }
        for r in [&self.faults, &self.heap] {
            match r {
                Ok(r) => s.push_str(&(r.render() + &r.to_json().render())),
                Err(e) => s.push_str(&format!("error: {e}\n")),
            }
        }
        s
    }

    /// Failed rounds and the reasons, by the campaigns' own bars.
    fn failures(&self) -> (u64, Vec<String>) {
        let mut failed = 0;
        let mut why = Vec::new();
        match &self.chaos {
            Ok(r) => {
                for c in r.cells.iter().filter(|c| c.silent_corruptions != 0) {
                    failed += c.rounds as u64;
                    why.push(format!(
                        "chaos {} x {}: silent corruptions",
                        c.design, c.lang
                    ));
                }
            }
            Err(e) => {
                failed += (chaos_cells().len() * CHAOS_ROUNDS) as u64;
                why.push(format!("chaos sweep: {e}"));
            }
        }
        if let Err(e) = &self.crash {
            failed += CAMPAIGN_ROUNDS as u64;
            why.push(format!("crash campaign: {e}"));
        }
        for (name, r) in [("fault", &self.faults), ("heap fault", &self.heap)] {
            match r {
                Ok(r) if r.fully_detected() => {}
                Ok(_) => {
                    failed += CAMPAIGN_ROUNDS as u64;
                    why.push(format!("{name} campaign: not fully detected"));
                }
                Err(e) => {
                    failed += CAMPAIGN_ROUNDS as u64;
                    why.push(format!("{name} campaign: {e}"));
                }
            }
        }
        (failed, why)
    }

    fn counts(&self) -> ReportCounts {
        let mut c = ReportCounts::default();
        if let Ok(r) = &self.chaos {
            for cell in &r.cells {
                c.rounds += cell.rounds as u64;
                c.reconverged += (cell.reconverged_strict + cell.reconverged_salvage) as u64;
                c.pmo_edges += cell.pmo_edges_checked as u64;
            }
        }
        if self.crash.is_ok() {
            c.rounds += CAMPAIGN_ROUNDS as u64;
        }
        for r in [&self.faults, &self.heap].into_iter().flatten() {
            c.rounds += r.rounds as u64;
            c.reconverged += r.reconverged as u64;
            c.injected += r.injected() as u64;
            c.detected += r.detected() as u64;
        }
        c
    }
}

/// The campaigns workload.
pub struct Campaigns {
    seed: u64,
    /// The last untraced pass's reports: what the replica must match.
    last: Option<Reports>,
}

impl Campaigns {
    pub fn new(seed: u64) -> Self {
        Campaigns { seed, last: None }
    }
}

impl Bench for Campaigns {
    fn settings(&self) -> String {
        format!(
            "bench {BENCH}, scale {}x{}x{}, chaos seed {} x {} rounds x {} cells, \
             campaign seed {} x {} rounds x 3",
            SCALE.0,
            SCALE.1,
            SCALE.2,
            self.seed,
            CHAOS_ROUNDS,
            chaos_cells().len(),
            self.seed + CAMPAIGN_SEED_OFFSET,
            CAMPAIGN_ROUNDS
        )
    }

    fn setup(&mut self) {
        std::hint::black_box(Reports::run(WARMUP, self.seed, 1, 2).render());
    }

    fn pass(&mut self) -> PassOutput {
        let reports = Reports::run(SCALE, self.seed, CHAOS_ROUNDS, CAMPAIGN_ROUNDS);
        let text = reports.render();
        let (failed, problems) = reports.failures();
        let counts = reports.counts();
        self.last = Some(reports);
        PassOutput {
            digest: fnv1a(&[text.as_bytes()]),
            attempted: (chaos_cells().len() * CHAOS_ROUNDS + 3 * CAMPAIGN_ROUNDS) as u64,
            failed,
            sim_events: 0,
            rounds: counts.rounds,
            requests: 0,
            paper_error_pct: None,
            problems,
            notes: Vec::new(),
        }
    }

    fn traced(&mut self, epoch: Instant) -> Traced {
        let mut rec = Recorder::new(epoch, 0);
        let t0 = Instant::now();
        let mut mismatches = Vec::new();
        for (design, lang) in chaos_cells() {
            let mut cell = experiment(SCALE, self.seed);
            cell.design = design;
            cell.lang = lang;
            if let Err(e) = chaos_campaign(&mut rec, &cell, CHAOS_ROUNDS) {
                mismatches.push(format!("replica chaos {design} x {lang}: {e}"));
            }
        }
        let exp = experiment(SCALE, self.seed + CAMPAIGN_SEED_OFFSET);
        let results = [
            ("crash", crash_campaign(&mut rec, &exp, CAMPAIGN_ROUNDS)),
            ("fault", fault_campaign(&mut rec, &exp, CAMPAIGN_ROUNDS)),
            (
                "heap fault",
                heap_fault_campaign(&mut rec, &exp, CAMPAIGN_ROUNDS),
            ),
        ];
        for (name, r) in results {
            if let Err(e) = r {
                mismatches.push(format!("replica {name} campaign: {e}"));
            }
        }
        // The replica builds no report objects; rendering is timed on the
        // untraced pass's reports, which hold the same values.
        if let Some(reports) = &self.last {
            let text = rec.span("render", |_| reports.render());
            rec.counts.render_bytes += text.len() as u64;
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let c = &rec.counts;
        let replica = ReportCounts {
            rounds: c.rounds,
            reconverged: c.reconverged,
            pmo_edges: c.check_pmo_edges,
            injected: c.injected,
            detected: c.detected,
        };
        let reported = self.last.as_ref().map(Reports::counts).unwrap_or_default();
        mismatches.extend(compare_counts(&replica.pairs(), &reported.pairs()));
        Traced {
            pass: TracedPass {
                rec,
                perf: Default::default(),
                wall_s,
                workers: 1,
            },
            serve: Default::default(),
            mismatches,
        }
    }
}

/// `run_chaos_campaign`, composed from its public layer calls.
fn chaos_campaign(rec: &mut Recorder, exp: &Experiment, rounds: usize) -> Result<(), String> {
    let (design, lang, seed) = (exp.design, exp.lang, exp.seed);
    let (pmo, traces, probe_layout) = layers::probe(rec, design, lang);
    let probe_run = |rec: &mut Recorder, faults: Option<DeviceFaultSchedule>| {
        let mut cfg = exp.sim.clone().with_cores(1);
        if let Some(s) = faults {
            cfg = cfg.with_device_faults(s);
        }
        simulate(rec, || {
            Machine::new(cfg, design, probe_layout.clone(), traces.clone())
        })
    };
    let clean = probe_run(rec, None);
    let clean_set: BTreeSet<LineAddr> = clean.pm_write_order.iter().copied().collect();
    let scale = clean.pm_write_order.len() as u64;

    let params = DriverParams::new(design, lang)
        .threads(exp.threads)
        .total_regions(exp.total_regions)
        .ops_per_region(exp.ops_per_region)
        .seed(seed);
    let (_, out) = drive_run(rec, BENCH, &params);
    let exec = rec.new_exec();
    let layout = &out.layout;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4a0_5eed);
    for round in 0..rounds {
        rec.span("round", |rec| -> Result<(), String> {
            rec.counts.rounds += 1;
            let round_seed = seed.wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let faulted = probe_run(rec, Some(DeviceFaultSchedule::random(round_seed, scale)));
            let edges = check(rec, || {
                let set: BTreeSet<LineAddr> = faulted.pm_write_order.iter().copied().collect();
                if set != clean_set {
                    return Err("silent corruption: persisted line set diverged".into());
                }
                order_extends_pmo(&pmo, &faulted.pm_write_order)
            })?;
            rec.counts.check_pmo_edges += edges as u64;

            let (crash, _) = crash_image(rec, exec, &out, design, &mut rng);
            reconverges(rec, &crash, layout, RecoveryPolicy::Strict, &mut rng)?;
            let mut damaged = crash.clone();
            let victim = rng.gen_range(0..exp.threads);
            let log_line = layout.log_region(victim).base.line().raw();
            damaged.poison_line(LineAddr(log_line + 1 + rng.gen_range(0..4)));
            reconverges(rec, &damaged, layout, RecoveryPolicy::Salvage, &mut rng)?;

            rec.span("faults", |_| remap_legs(&mut rng))
        })?;
    }

    let mce_line = layout.heap_base().line().raw();
    let (_, strict) = drive_run(rec, BENCH, &params.mce(mce_line, RecoveryPolicy::Strict));
    let (_, salvage) = drive_run(rec, BENCH, &params.mce(mce_line, RecoveryPolicy::Salvage));
    check(rec, || mce_holds(&strict, &salvage))
}

/// Chaos legs 3 and 3b: a torn remap-table encoding decodes to a prefix of
/// the full mapping, and spare exhaustion surfaces as `RemapExhausted`.
fn remap_legs(rng: &mut SmallRng) -> Result<(), String> {
    let mut sched = DeviceFaultSchedule::none();
    for _ in 0..2 {
        sched.faults.push(DeviceFault {
            class: DeviceFaultClass::PermanentMediaError,
            trigger: FaultTrigger::NthWrite(1 + rng.gen_range(0..12)),
            sticky: true,
        });
    }
    let (spare_base, spare_count) = (sched.spare_base, sched.spare_count);
    let mut unit = DeviceFaultUnit::new(sched);
    for w in 0..24u64 {
        let _ = unit.on_write(0x100 + w, (w + 1) * 8);
    }
    let full: Vec<_> = unit.remap_table().iter().collect();
    let words = unit.remap_table().encode_words();
    let cut = rng.gen_range(0..=words.len());
    let decoded: Vec<_> = RemapTable::decode_words(&words[..cut], spare_base, spare_count)
        .iter()
        .collect();
    if !full.starts_with(&decoded) {
        return Err(format!("remap table torn at word {cut} is not a prefix"));
    }

    let mut tiny = DeviceFaultSchedule::none();
    tiny.spare_count = 1;
    for l in [0x200u64, 0x201] {
        tiny.faults.push(DeviceFault {
            class: DeviceFaultClass::PermanentMediaError,
            trigger: FaultTrigger::OnLine(l),
            sticky: true,
        });
    }
    let mut unit = DeviceFaultUnit::new(tiny);
    let first = unit.on_write(0x200, 8);
    let second = unit.on_write(0x201, 16);
    let consumed = matches!(
        first,
        WriteDecision::Proceed {
            remapped: Some((_, true)),
            ..
        }
    );
    let surfaced = matches!(second, WriteDecision::RemapExhausted { line: 0x201 });
    if !consumed || !surfaced || unit.stats().spares_exhausted != 1 {
        return Err("spare exhaustion did not surface as RemapExhausted".into());
    }
    Ok(())
}

/// The chaos MCE leg: `Strict` aborts on a consumed poisoned line and
/// `Salvage` quarantines exactly the faulting threads.
fn mce_holds(strict: &DriverOutput, salvage: &DriverOutput) -> Result<(), String> {
    if !strict.mce_events.is_empty() && !strict.aborted {
        return Err("strict policy consumed a poisoned line without aborting".into());
    }
    if salvage.aborted {
        return Err("salvage policy aborted instead of continuing".into());
    }
    if salvage
        .mce_events
        .iter()
        .any(|e| !salvage.quarantined.contains(&e.thread))
    {
        return Err("salvage failed to quarantine a faulting thread".into());
    }
    Ok(())
}

/// The campaign's driven run, with an execution id for the PMO counters.
fn driven(rec: &mut Recorder, exp: &Experiment) -> (Box<dyn Workload>, DriverOutput, u64) {
    let params = DriverParams::new(exp.design, exp.lang)
        .threads(exp.threads)
        .total_regions(exp.total_regions)
        .ops_per_region(exp.ops_per_region)
        .seed(exp.seed);
    let (w, out) = drive_run(rec, exp.bench, &params);
    let exec = rec.new_exec();
    (w, out, exec)
}

/// The model's consistency contract on a recovered image.
fn contract(
    lang: LangModel,
    workload: &dyn Workload,
    outcome: &CrashOutcome,
    out: &DriverOutput,
) -> Result<(), String> {
    match lang.consistency() {
        Consistency::ReplayCommitted => {
            check_replay_consistency(outcome, &out.baseline, &out.regions)?;
            workload
                .check(&outcome.image)
                .map_err(|e| format!("structural check: {e}"))
        }
        Consistency::DurablePrefix => {
            check_prefix_consistency(outcome, &out.baseline, &out.regions)
        }
    }
}

/// `run_crash_campaign`, composed from its public layer calls.
fn crash_campaign(rec: &mut Recorder, exp: &Experiment, rounds: usize) -> Result<(), String> {
    let (workload, out, exec) = driven(rec, exp);
    let mut rng = SmallRng::seed_from_u64(exp.seed ^ 0xc0ffee);
    for _ in 0..rounds {
        rec.span("round", |rec| {
            rec.counts.rounds += 1;
            let (mut image, persisted) = crash_image(rec, exec, &out, exp.design, &mut rng);
            let report = rec.span("recover", |rec| {
                let r = strandweaver::lang::recovery::recover(&mut image, out.ctx.mem().layout());
                rec.counts.recover_writes += (r.rolled_back_stores + r.replayed_redo) as u64;
                r
            });
            let outcome = CrashOutcome {
                image,
                report,
                persisted_stores: persisted,
            };
            check(rec, || {
                contract(exp.lang, workload.as_ref(), &outcome, &out)
            })
        })?;
    }
    Ok(())
}

/// `fault_matches` of the log-fault campaign: recovery reported the
/// injected fault at its exact location, by the resulting slot state.
fn fault_matches(f: &InjectedFault, d: &RecoveryFault) -> bool {
    match (&f.resulting, d) {
        (SlotState::Torn, RecoveryFault::TornEntry { tid, slot })
        | (SlotState::Corrupt, RecoveryFault::ChecksumMismatch { tid, slot }) => {
            *tid == f.tid && *slot == f.slot
        }
        (SlotState::Poisoned, RecoveryFault::PoisonedLine { tid, line }) => {
            *tid == f.tid && *line == f.line
        }
        _ => false,
    }
}

/// As [`fault_matches`], for allocator-metadata faults.
fn heap_fault_matches(f: &InjectedHeapFault, d: &RecoveryFault) -> bool {
    match (&f.resulting, d) {
        (HeapSlotState::Torn, RecoveryFault::HeapTorn { pool, slot })
        | (HeapSlotState::Corrupt, RecoveryFault::HeapCorrupt { pool, slot }) => {
            *pool == f.pool && *slot == f.slot
        }
        (HeapSlotState::Poisoned, RecoveryFault::HeapPoisoned { pool, line }) => {
            *pool == f.pool && *line == f.line
        }
        _ => false,
    }
}

/// `Strict` must reject exactly the fatal injections.
fn strict_verdict(fatal: bool, accepted: bool) -> Result<(), String> {
    match (fatal, accepted) {
        (true, false) | (false, true) => Ok(()),
        (false, false) => Err("strict rejected a tear-only injection".into()),
        (true, true) => Err("strict accepted a fatal injection".into()),
    }
}

/// The round's injector: classes rotate, seeds decorrelate per round.
fn injector_for(seed: u64, round: usize) -> FaultInjector {
    let class = FaultClass::ALL[round % FaultClass::ALL.len()];
    let inj_seed = seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    FaultInjector::new(FaultPlan::single(class), inj_seed)
}

/// `run_fault_campaign`, composed from its public layer calls.
fn fault_campaign(rec: &mut Recorder, exp: &Experiment, rounds: usize) -> Result<(), String> {
    let (workload, out, exec) = driven(rec, exp);
    let layout = &out.layout;
    let mut rng = SmallRng::seed_from_u64(exp.seed ^ 0xfa017);
    for round in 0..rounds {
        rec.span("round", |rec| -> Result<(), String> {
            rec.counts.rounds += 1;
            let (crash, persisted) = crash_image(rec, exec, &out, exp.design, &mut rng);
            let mut injector = injector_for(exp.seed, round);
            let mut damaged = crash.clone();
            let injected = rec.span("faults", |_| injector.inject(&mut damaged, layout));
            rec.counts.injected += injected.len() as u64;

            if injected.is_empty() {
                let (image, outcome) = recover(rec, &crash, layout, RecoveryPolicy::Strict);
                let outcome = outcome.map_err(|e| format!("strict false positive: {e}"))?;
                let as_crash = CrashOutcome {
                    image,
                    report: outcome.report,
                    persisted_stores: persisted,
                };
                check(rec, || {
                    contract(exp.lang, workload.as_ref(), &as_crash, &out)
                })?;
                return reconverges(rec, &crash, layout, RecoveryPolicy::Strict, &mut rng);
            }

            let fatal = injected.iter().any(|f| f.is_fatal());
            let (_, strict) = recover(rec, &damaged, layout, RecoveryPolicy::Strict);
            check(rec, || strict_verdict(fatal, strict.is_ok()))?;

            let (image, outcome) = recover(rec, &damaged, layout, RecoveryPolicy::Salvage);
            let outcome = outcome.map_err(|e| format!("salvage recovery errored: {e}"))?;
            let detected = check(rec, || {
                for f in &injected {
                    if !outcome.faults.iter().any(|d| fault_matches(f, d)) {
                        return Err(format!(
                            "injected {} fault went undetected",
                            f.class.label()
                        ));
                    }
                    if !outcome.salvaged_threads.contains(&f.tid) {
                        return Err(format!("thread {} was not salvaged", f.tid));
                    }
                }
                if matches!(exp.lang.consistency(), Consistency::ReplayCommitted) {
                    check_salvage_consistency(&image, &outcome, &out.baseline, &out.regions)?;
                }
                Ok(injected.len())
            })?;
            rec.counts.detected += detected as u64;
            reconverges(rec, &damaged, layout, RecoveryPolicy::Salvage, &mut rng)
        })?;
    }
    Ok(())
}

/// `run_heap_fault_campaign`, composed from its public layer calls.
fn heap_fault_campaign(rec: &mut Recorder, exp: &Experiment, rounds: usize) -> Result<(), String> {
    let (_, out, exec) = driven(rec, exp);
    let layout = &out.layout;
    let mut rng = SmallRng::seed_from_u64(exp.seed ^ 0x4ea9);
    for round in 0..rounds {
        rec.span("round", |rec| -> Result<(), String> {
            rec.counts.rounds += 1;
            let (crash, _) = crash_image(rec, exec, &out, exp.design, &mut rng);
            let mut injector = injector_for(exp.seed, round);
            let mut damaged = crash.clone();
            let injected = rec.span("faults", |_| injector.inject_heap(&mut damaged, layout));
            rec.counts.injected += injected.len() as u64;

            if injected.is_empty() {
                let (_, strict) = recover(rec, &crash, layout, RecoveryPolicy::Strict);
                return strict
                    .map(|_| ())
                    .map_err(|e| format!("strict false positive: {e}"));
            }

            let fatal = injected.iter().any(|f| f.is_fatal());
            let (_, strict) = recover(rec, &damaged, layout, RecoveryPolicy::Strict);
            check(rec, || strict_verdict(fatal, strict.is_ok()))?;

            let (_, outcome) = recover(rec, &damaged, layout, RecoveryPolicy::Salvage);
            let outcome = outcome.map_err(|e| format!("salvage recovery errored: {e}"))?;
            let detected = check(rec, || {
                for f in &injected {
                    if !outcome.faults.iter().any(|d| heap_fault_matches(f, d)) {
                        let class = f.class.heap_label();
                        return Err(format!("injected {class} fault went undetected"));
                    }
                    if f.is_fatal() && !outcome.salvaged_pools.contains(&f.pool) {
                        return Err(format!("pool {} was not quarantined", f.pool));
                    }
                }
                if let Some(p) = outcome
                    .salvaged_pools
                    .iter()
                    .find(|&&p| !injected.iter().any(|f| f.pool == p && f.is_fatal()))
                {
                    return Err(format!("pool {p} was quarantined without fatal damage"));
                }
                Ok(injected.len())
            })?;
            rec.counts.detected += detected as u64;
            reconverges(rec, &damaged, layout, RecoveryPolicy::Salvage, &mut rng)
        })?;
    }
    Ok(())
}
