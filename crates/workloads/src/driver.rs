//! Multi-threaded workload driver.
//!
//! The driver interleaves the logical threads at failure-atomic-region
//! granularity (a legal TSO witness, since regions are lock-serialized),
//! runs the coordinated batched-commit protocol for the SFR/ATLAS models,
//! and returns the recorded execution, ISA traces, baseline image, and
//! per-region write sets.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sw_lang::harness;
use sw_lang::{
    coordinated_commit, FuncCtx, HwDesign, LangModel, LogStrategy, MceError, RecoveryPolicy,
    RegionRecord, RuntimeConfig, ThreadRuntime,
};
use sw_pmem::{PmImage, PmLayout};

use crate::Workload;

/// Log entries per thread.
pub const LOG_ENTRIES: u64 = 4096;

/// Driver parameters.
#[derive(Debug, Clone, Copy)]
pub struct DriverParams {
    /// Hardware persistency design to lower onto.
    pub design: HwDesign,
    /// Language-level persistency model.
    pub lang: LangModel,
    /// Write-ahead-logging strategy (undo is the paper's design; redo is
    /// the Section VII extension).
    pub strategy: LogStrategy,
    /// Logical threads (cores).
    pub threads: usize,
    /// Total failure-atomic regions across all threads.
    pub total_regions: usize,
    /// Logical operations per region (the Figure 10 axis).
    pub ops_per_region: usize,
    /// RNG seed.
    pub seed: u64,
    /// Record the formal-model program and the per-region write sets,
    /// which crash sampling and crash-consistency checking need; off for
    /// timing-only runs.
    pub record: bool,
    /// Commit every thread's batched log when any log reaches this many
    /// live entries.
    pub coordination_threshold: u64,
    /// Commit all outstanding entries at the end of the run.
    pub clean_shutdown: bool,
    /// Arm a poisoned PM line before the operation phase: the first load
    /// touching it trips an MCE, resolved under `mce_policy` at the next
    /// region boundary.
    pub mce_line: Option<u64>,
    /// How a tripped MCE is resolved: `Strict` aborts the run with the
    /// structured error; `Salvage` quarantines the faulting thread and
    /// continues scheduling the rest.
    pub mce_policy: RecoveryPolicy,
}

impl DriverParams {
    /// Defaults: 8 threads, 400 regions of 1 op, recording on.
    pub fn new(design: HwDesign, lang: LangModel) -> Self {
        Self {
            design,
            lang,
            strategy: LogStrategy::Undo,
            threads: 8,
            total_regions: 400,
            ops_per_region: 1,
            seed: 42,
            record: true,
            coordination_threshold: 512,
            clean_shutdown: false,
            mce_line: None,
            mce_policy: RecoveryPolicy::Strict,
        }
    }

    /// Sets the thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the total region count.
    pub fn total_regions(mut self, n: usize) -> Self {
        self.total_regions = n;
        self
    }

    /// Sets the operations per region.
    pub fn ops_per_region(mut self, n: usize) -> Self {
        self.ops_per_region = n.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables recording (timing-only runs).
    pub fn timing_only(mut self) -> Self {
        self.record = false;
        self
    }

    /// Enables a clean shutdown (final commits) at the end of the run.
    pub fn clean_shutdown(mut self) -> Self {
        self.clean_shutdown = true;
        self
    }

    /// Switches to redo logging (the Section VII extension).
    pub fn redo(mut self) -> Self {
        self.strategy = LogStrategy::Redo;
        self
    }

    /// Arms a poisoned PM line, resolved under `policy` when consumed.
    pub fn mce(mut self, line: u64, policy: RecoveryPolicy) -> Self {
        self.mce_line = Some(line);
        self.mce_policy = policy;
        self
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct DriverOutput {
    /// The executed context: memory, formal execution, ISA traces, stats.
    pub ctx: FuncCtx,
    /// Persisted image at the end of setup (phase baseline).
    pub baseline: PmImage,
    /// Per-region write sets (empty unless requested).
    pub regions: Vec<RegionRecord>,
    /// The layout used.
    pub layout: PmLayout,
    /// Machine-check traps delivered during the run, in delivery order.
    pub mce_events: Vec<MceError>,
    /// Threads quarantined by the `Salvage` policy (ascending).
    pub quarantined: Vec<usize>,
    /// `true` when a `Strict`-policy MCE aborted the run early (the
    /// remaining regions were not executed).
    pub aborted: bool,
}

/// Runs `workload` under `params`.
pub fn drive(workload: &mut dyn Workload, params: &DriverParams) -> DriverOutput {
    let layout = PmLayout::new(params.threads, LOG_ENTRIES);
    let mut ctx = FuncCtx::new(layout.clone(), params.threads);
    ctx.set_record_program(false);
    workload.setup(&mut ctx);
    let baseline = harness::baseline(&mut ctx);
    // Timing runs measure the steady-state operation phase: setup's ISA
    // trace is discarded, and the simulator is pre-warmed with the
    // baseline's lines (see `Machine::preload_l2`).
    ctx.reset_traces();
    ctx.set_record_program(params.record);

    let mut rts: Vec<ThreadRuntime> = (0..params.threads)
        .map(|t| {
            let mut cfg = RuntimeConfig::new(params.design, params.lang);
            cfg.strategy = params.strategy;
            cfg.record_regions = params.record;
            // Self-commit only as a last-resort safety valve; batched
            // commits are coordinated by the driver.
            cfg.commit_threshold = Some(LOG_ENTRIES - 64);
            ThreadRuntime::new(&layout, t, cfg)
        })
        .collect();

    // A threshold of 0 would fire the coordination check after every
    // region even when every log is empty; normalize to "at least one
    // live entry" so the protocol only runs when there is work.
    let threshold = params.coordination_threshold.max(1);
    let coordinates = params.strategy == LogStrategy::Undo && params.lang.batches_commits();
    if let Some(line) = params.mce_line {
        ctx.arm_mce([line]);
    }
    let mut mce_events = Vec::new();
    let mut quarantined: Vec<usize> = Vec::new();
    let mut aborted = false;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    for r in 0..params.total_regions {
        // Round-robin with a random start per round keeps the interleaving
        // fair without starving any thread. Quarantined threads are
        // skipped; the RNG is always consumed so the schedule of healthy
        // threads is unchanged by when a quarantine happened.
        let mut t = (r + rng.gen_range(0..params.threads)) % params.threads;
        if quarantined.len() >= params.threads {
            break; // every thread quarantined: nothing left to schedule
        }
        while quarantined.contains(&t) {
            t = (t + 1) % params.threads;
        }
        workload.run_region(&mut ctx, &mut rts[t], &mut rng, params.ops_per_region);
        if let Some(err) = ctx.take_mce() {
            mce_events.push(err);
            match params.mce_policy {
                RecoveryPolicy::Strict => {
                    // Fail-stop: poisoned data was consumed; nothing after
                    // this point can be trusted.
                    aborted = true;
                    break;
                }
                RecoveryPolicy::Salvage => {
                    if !quarantined.contains(&err.thread) {
                        quarantined.push(err.thread);
                        quarantined.sort_unstable();
                    }
                }
            }
        }
        // A batching model may quiesce the heap only after a coordinated
        // commit, so a pool's journal that reaches the checkpoint mark
        // forces one too: under allocator churn the 256-slot journals can
        // fill long before any log holds `threshold` live entries.
        if coordinates
            && (rts.iter().any(|rt| rt.live_log_entries() >= threshold)
                || ctx.heap_state().journal_high_water())
        {
            coordinated_commit(&mut ctx, &mut rts);
            ctx.heap_quiesce();
        } else if !params.lang.batches_commits() {
            // Eager-commit models are durably committed at every region
            // boundary, so quarantined frees can be released here. (A
            // no-op unless the workload churns the allocator.)
            ctx.heap_quiesce();
        }
    }
    if params.clean_shutdown && !aborted {
        if coordinates {
            coordinated_commit(&mut ctx, &mut rts);
        } else {
            for rt in &mut rts {
                rt.shutdown(&mut ctx);
            }
        }
        ctx.heap_quiesce();
    }
    let regions = rts
        .into_iter()
        .flat_map(ThreadRuntime::into_records)
        .collect();
    DriverOutput {
        ctx,
        baseline,
        regions,
        layout,
        mce_events,
        quarantined,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchmarkId;

    #[test]
    fn driver_produces_traces_and_regions() {
        let mut w = BenchmarkId::Queue.instantiate();
        let p = DriverParams::new(HwDesign::StrandWeaver, LangModel::Txn)
            .threads(2)
            .total_regions(10);
        let out = drive(w.as_mut(), &p);
        assert_eq!(out.regions.len(), 10);
        assert_eq!(out.ctx.traces().len(), 2);
        assert!(out.ctx.traces().iter().all(|t| !t.is_empty()));
        assert!(out.ctx.stats().clwbs > 0);
    }

    #[test]
    fn timing_only_skips_program_recording() {
        let mut w = BenchmarkId::Queue.instantiate();
        let p = DriverParams::new(HwDesign::IntelX86, LangModel::Sfr)
            .threads(2)
            .total_regions(6)
            .timing_only();
        let out = drive(w.as_mut(), &p);
        assert!(out.regions.is_empty());
    }

    #[test]
    fn batched_models_coordinate_commits() {
        let mut w = BenchmarkId::Queue.instantiate();
        let mut p = DriverParams::new(HwDesign::StrandWeaver, LangModel::Sfr)
            .threads(2)
            .total_regions(40);
        p.coordination_threshold = 8;
        let out = drive(w.as_mut(), &p);
        // A coordination ran: the global-cut word was published.
        let cut_addr = out.layout.lock_addr(sw_lang::GLOBAL_CUT_LOCK);
        assert!(out.ctx.mem().load(cut_addr) > 0);
    }

    /// Degenerate thresholds: 0 (normalized to 1) and 1 both coordinate
    /// after every region that logs anything. The run must terminate, must
    /// not re-commit an already-empty log (the protocol's early return),
    /// and must stay crash-consistent.
    #[test]
    fn degenerate_coordination_thresholds_terminate_and_stay_consistent() {
        for threshold in [0u64, 1] {
            let mut w = BenchmarkId::Queue.instantiate();
            let mut p = DriverParams::new(HwDesign::StrandWeaver, LangModel::Sfr)
                .threads(2)
                .total_regions(24)
                .clean_shutdown();
            p.coordination_threshold = threshold;
            let out = drive(w.as_mut(), &p);
            // Every region committed; after the shutdown commit no live
            // entries remain anywhere (a double commit would have tripped
            // the log's commit-of-empty assertions or re-published cuts).
            assert_eq!(out.regions.len(), 24, "threshold {threshold}");
            let pmo =
                sw_model::Pmo::compute(&out.ctx.execution(), HwDesign::StrandWeaver.memory_model());
            let mut rng = SmallRng::seed_from_u64(threshold ^ 0x5eed);
            for _ in 0..20 {
                let outcome = harness::crash_and_recover(&out.ctx, &out.baseline, &pmo, &mut rng);
                harness::check_replay_consistency(&outcome, &out.baseline, &out.regions)
                    .unwrap_or_else(|e| panic!("threshold {threshold}: {e}"));
            }
        }
    }

    /// A poisoned heap line consumed under `Strict` fail-stops the run
    /// with a structured MCE record; under `Salvage` the faulting thread
    /// is quarantined and the remaining threads finish the run.
    #[test]
    fn mce_policies_abort_or_quarantine() {
        let layout = PmLayout::new(2, 4096);
        let poisoned = layout.heap_base().line().raw();

        let mut w = BenchmarkId::Queue.instantiate();
        let p = DriverParams::new(HwDesign::StrandWeaver, LangModel::Txn)
            .threads(2)
            .total_regions(10)
            .mce(poisoned, RecoveryPolicy::Strict);
        let out = drive(w.as_mut(), &p);
        assert!(out.aborted, "strict policy must fail-stop");
        assert_eq!(out.mce_events.len(), 1);
        assert_eq!(out.mce_events[0].line, poisoned);
        assert!(out.regions.len() < 10, "abort skips remaining regions");
        assert!(out.quarantined.is_empty());

        let mut w = BenchmarkId::Queue.instantiate();
        let p = DriverParams::new(HwDesign::StrandWeaver, LangModel::Txn)
            .threads(2)
            .total_regions(10)
            .mce(poisoned, RecoveryPolicy::Salvage);
        let out = drive(w.as_mut(), &p);
        assert!(!out.aborted, "salvage continues");
        assert_eq!(out.mce_events.len(), 1);
        assert_eq!(out.quarantined, vec![out.mce_events[0].thread]);
        assert_eq!(out.regions.len(), 10, "healthy threads finish the run");
    }

    /// The log-free Native model never coordinates (nothing to commit) and
    /// drives cleanly end to end on eADR-class hardware.
    #[test]
    fn native_drives_without_coordination() {
        let mut w = BenchmarkId::Queue.instantiate();
        let mut p = DriverParams::new(HwDesign::Eadr, LangModel::Native)
            .threads(2)
            .total_regions(20)
            .clean_shutdown();
        p.coordination_threshold = 1; // would fire every region if logged
        let out = drive(w.as_mut(), &p);
        assert_eq!(out.regions.len(), 20);
        // No commit protocol ran: the global-cut word was never published.
        let cut_addr = out.layout.lock_addr(sw_lang::GLOBAL_CUT_LOCK);
        assert_eq!(out.ctx.mem().load(cut_addr), 0);
    }
}
