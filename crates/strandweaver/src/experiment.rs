//! End-to-end experiment runner: workload → runtime lowering → ISA traces
//! → timing simulation, plus crash-consistency campaigns.

use std::collections::{BTreeSet, HashMap};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sw_faults::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultClass, FaultInjector,
    FaultPlan, FaultTrigger, InjectedFault, InjectedHeapFault, OnlineFaultStats, WriteDecision,
};
use sw_lang::harness::{
    check_prefix_consistency, check_replay_consistency, check_salvage_consistency,
    crash_and_recover, crash_image, recovery_reconverges, CrashOutcome,
};
use sw_lang::recovery::{
    recover_with_policy, recover_with_policy_traced, PolicyOutcome, RecoveryFault, RecoveryPolicy,
};
use sw_lang::{
    Consistency, FuncCtx, HwDesign, LangModel, LogStrategy, RuntimeConfig, SlotState, ThreadRuntime,
};
use sw_model::isa::{IsaTrace, LockId};
use sw_model::{Pmo, StoreId};
use sw_pmem::{HeapSlotState, LineAddr, PmImage, PmLayout, RemapTable};
use sw_sim::{Machine, SimConfig, SimStats};
use sw_trace::{MetricsRegistry, MetricsSnapshot, NullSink, TraceEvent, TraceSink};
use sw_workloads::driver::{drive, DriverOutput, DriverParams};
use sw_workloads::{BenchmarkId, Workload};

/// Configuration of one experiment cell (a benchmark under a language
/// model on a hardware design).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Benchmark to run.
    pub bench: BenchmarkId,
    /// Language-level persistency model.
    pub lang: LangModel,
    /// Hardware design.
    pub design: HwDesign,
    /// Write-ahead-logging strategy.
    pub strategy: LogStrategy,
    /// Threads (= cores).
    pub threads: usize,
    /// Total failure-atomic regions.
    pub total_regions: usize,
    /// Operations per region (Figure 10 axis).
    pub ops_per_region: usize,
    /// RNG seed (shared by the workload generator so every design replays
    /// the same logical work).
    pub seed: u64,
    /// Machine configuration.
    pub sim: SimConfig,
    /// Trace recorder installed into the machine by [`run_timing`]
    /// (`None` = tracing disabled, the zero-overhead default).
    ///
    /// [`run_timing`]: Experiment::run_timing
    pub trace: Option<sw_trace::RingRecorder>,
    /// When `true`, [`run_timing`] enables the machine's metrics registry
    /// and the returned [`SimStats`] carries a populated snapshot.
    ///
    /// [`run_timing`]: Experiment::run_timing
    pub metrics: bool,
    /// When `true`, [`run_timing`] installs a self-profiler and the
    /// returned [`SimStats`] carries a `perf` snapshot. Profiling never
    /// changes simulated results; the ambient `sw_perf::set_global_enabled`
    /// switch covers machines built without this flag.
    ///
    /// [`run_timing`]: Experiment::run_timing
    pub profile: bool,
}

impl Experiment {
    /// A cell with the paper's machine (Table I) and default scale.
    pub fn new(bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Self {
        Self {
            bench,
            lang,
            design,
            strategy: LogStrategy::Undo,
            threads: 8,
            total_regions: 240,
            ops_per_region: 4,
            seed: 1234,
            sim: SimConfig::table_i(),
            trace: None,
            metrics: false,
            profile: false,
        }
    }

    /// Sets the region count.
    pub fn total_regions(mut self, n: usize) -> Self {
        self.total_regions = n;
        self
    }

    /// Sets the thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets operations per region.
    pub fn ops_per_region(mut self, n: usize) -> Self {
        self.ops_per_region = n;
        self
    }

    /// Sets the RNG seed (workload generation, crash sampling, and fault
    /// injection all derive from it, so a campaign replays exactly).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the strand-buffer-unit shape (Figure 9 axis).
    pub fn strand_buffers(mut self, buffers: usize, entries: usize) -> Self {
        self.sim = self.sim.with_strand_buffers(buffers, entries);
        self
    }

    /// Switches to redo logging (the Section VII extension).
    pub fn redo(mut self) -> Self {
        self.strategy = LogStrategy::Redo;
        self
    }

    /// Installs a trace recorder: the timing run will emit typed events
    /// into `recorder` (clone a handle to keep reading it afterwards).
    pub fn traced(mut self, recorder: sw_trace::RingRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Enables the metrics registry for the timing run.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Enables self-profiling for the timing run ([`SimStats::perf`]).
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self
    }

    /// The driver parameters of this cell: its design, language model,
    /// scale, seed and log strategy. Callers chain run-specific switches
    /// (`timing_only`, `clean_shutdown`, `mce`, …) on top.
    pub fn driver_params(&self) -> DriverParams {
        let mut params = DriverParams::new(self.design, self.lang)
            .threads(self.threads)
            .total_regions(self.total_regions)
            .ops_per_region(self.ops_per_region)
            .seed(self.seed);
        params.strategy = self.strategy;
        params
    }

    /// Drives this cell's workload under [`driver_params`] to the run the
    /// campaigns crash, returning the workload (for its structural
    /// checks) with the run and the run's persist memory order — computed
    /// once here, and sampled by every crash round over the run.
    ///
    /// [`driver_params`]: Experiment::driver_params
    pub fn drive(&self) -> (Box<dyn Workload>, DriverOutput, Pmo) {
        let mut workload = self.bench.instantiate();
        let out = drive(workload.as_mut(), &self.driver_params());
        let pmo = self.pmo_of(&out);
        (workload, out, pmo)
    }

    /// The persist memory order of `out`, a run of this cell, under the
    /// cell's design.
    fn pmo_of(&self, out: &DriverOutput) -> Pmo {
        Pmo::compute(&out.ctx.execution(), self.design.memory_model())
    }

    /// Runs the timing simulation and returns machine statistics.
    pub fn run_timing(&self) -> SimStats {
        let sink = self
            .trace
            .clone()
            .map(|rec| Box::new(rec) as Box<dyn sw_trace::TraceSink>);
        self.run_timing_with_sink(sink)
    }

    /// As [`run_timing`], but installing an explicit trace sink (overriding
    /// the [`trace`] field). The overhead microbenchmark uses this to
    /// compare the sink-disabled path against [`sw_trace::NullSink`].
    ///
    /// [`run_timing`]: Experiment::run_timing
    /// [`trace`]: Experiment::trace
    pub fn run_timing_with_sink(&self, sink: Option<Box<dyn sw_trace::TraceSink>>) -> SimStats {
        let mut workload = self.bench.instantiate();
        let out = drive(
            workload.as_mut(),
            &self.driver_params().timing_only().clean_shutdown(),
        );
        let layout = out.layout.clone();
        let warm: Vec<sw_pmem::LineAddr> = out.baseline.written_lines().collect();
        let traces = out.ctx.into_traces();
        let mut machine = Machine::new(
            self.sim.clone().with_cores(self.threads),
            self.design,
            layout,
            traces,
        );
        machine.preload_l2(warm);
        if let Some(sink) = sink {
            machine.set_trace_sink(sink);
        }
        if self.metrics {
            machine.enable_metrics();
        }
        if self.profile {
            machine.enable_profiler();
        }
        machine.run()
    }

    /// Runs a crash-consistency campaign: execute the workload, then sample
    /// `rounds` formally-allowed crash states, recover each, and check the
    /// model's consistency contract — all-or-nothing region replay plus the
    /// workload's structural invariants for the logged models, or
    /// store-order prefix durability for the log-free Native model (whose
    /// crash states legitimately expose mid-region data, so structural
    /// invariants only hold at region boundaries).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found (expected for
    /// [`HwDesign::NonAtomic`]).
    pub fn run_crash_campaign(&self, rounds: usize) -> Result<(), String> {
        let (workload, out, pmo) = self.drive();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xc0ffee);
        for round in 0..rounds {
            let outcome = crash_and_recover(&out.ctx, &out.baseline, &pmo, &mut rng);
            self.check_contract(workload.as_ref(), &out, &outcome)
                .map_err(|e| self.campaign_failure(Campaign::Crash, rounds, round, e))?;
        }
        Ok(())
    }

    /// Checks the consistency contract of [`run_crash_campaign`] on one
    /// recovered crash state of `out`.
    ///
    /// [`run_crash_campaign`]: Experiment::run_crash_campaign
    fn check_contract(
        &self,
        workload: &dyn Workload,
        out: &DriverOutput,
        outcome: &CrashOutcome,
    ) -> Result<(), String> {
        match self.lang.consistency() {
            // The replay check needs globally consistent commit cuts, which
            // eager TXN commits and the coordinated batched commits both
            // provide.
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

    /// Runs a fault-injection campaign: sample `rounds` crash states and,
    /// in each, inject one fault — rotating through [`FaultClass::ALL`] —
    /// into a published log slot, then check the hardened recovery end to
    /// end:
    ///
    /// * **Detection** — [`RecoveryPolicy::Salvage`] recovery must report
    ///   every injected fault at its exact location (thread + slot or
    ///   line), and quarantine the damaged thread.
    /// * **Strict fail-fast** — [`RecoveryPolicy::Strict`] must refuse the
    ///   image *iff* the injection is fatal (corrupt or poisoned; an
    ///   injected tear is indistinguishable from a natural one, so it
    ///   stays benign).
    /// * **Salvage consistency** — the surviving threads' data must still
    ///   satisfy the replay contract
    ///   ([`check_salvage_consistency`](sw_lang::harness::check_salvage_consistency)).
    /// * **Convergence** — recovery interrupted by a second crash and
    ///   re-run must land on the identical image
    ///   ([`recovery_reconverges`](sw_lang::harness::recovery_reconverges)).
    ///
    /// Rounds whose crash image holds no published log entry (log-free
    /// models, or crashes before any append persisted) become *controls*:
    /// `Strict` recovery must succeed there, reproduce the ordinary
    /// crash-consistency contract, and reconverge — an error would be a
    /// false positive of the damage detector.
    ///
    /// The whole campaign derives from [`seed`](Experiment::seed): the
    /// same cell replays the same injections. With a
    /// [`traced`](Experiment::traced) recorder installed, injections and
    /// detections emit `FaultInjected` / `CorruptionDetected` /
    /// `RegionSalvaged` events.
    ///
    /// # Errors
    ///
    /// Returns the first campaign violation, with a copy-pasteable
    /// `swctl faults` reproducer (seed included) embedded.
    pub fn run_fault_campaign(&self, rounds: usize) -> Result<FaultCampaignReport, String> {
        self.injection_campaign::<LogSlots>(rounds)
    }

    /// Runs the allocator-metadata fault campaign: sample `rounds` crash
    /// states and, in each, inject one fault — rotating through
    /// [`FaultClass::ALL`] — into a published allocator-journal record of
    /// some heap pool, then require:
    ///
    /// * `Strict` recovery rejects every fatal injection (corrupt or
    ///   poisoned metadata) *before mutating anything*, and accepts
    ///   injected tears — a torn journal record is indistinguishable from
    ///   a crash mid-publication and is reclaimed, not fatal;
    /// * `Salvage` recovery reports every injected fault at its exact
    ///   location (pool + slot or line) and quarantines **only** the
    ///   pools holding fatal damage — an over-quarantine throws away
    ///   healthy pools and fails the campaign;
    /// * recovery reconverges when interrupted mid-repair.
    ///
    /// A round with no published record is a control, checked exactly as
    /// in [`run_fault_campaign`](Experiment::run_fault_campaign). The
    /// report reuses [`FaultCampaignReport`]; its `salvaged` tallies
    /// count quarantined *pools* (so injected tears detect without
    /// salvaging). Workload churn is not required: every workload's setup
    /// carves are journaled, so each crash image holds published records.
    pub fn run_heap_fault_campaign(&self, rounds: usize) -> Result<FaultCampaignReport, String> {
        self.injection_campaign::<HeapJournal>(rounds)
    }

    /// The round loop shared by every injection target: crash → inject →
    /// recover (`Strict`, then `Salvage`) → check → reconverge.
    fn injection_campaign<T: FaultTarget>(
        &self,
        rounds: usize,
    ) -> Result<FaultCampaignReport, String> {
        let (workload, out, pmo) = self.drive();
        let layout = &out.layout;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ T::SALT);
        let mut sink = self.sink();
        let fail = |round: usize, e: String| self.campaign_failure(T::CAMPAIGN, rounds, round, e);

        let mut registry = MetricsRegistry::new();
        let [injected_ctr, detected_ctr, salvaged_ctr, strict_ctr, control_ctr] =
            T::COUNTERS.map(|name| registry.counter(name));

        let mut per_class: Vec<(FaultClass, ClassTally)> = FaultClass::ALL
            .iter()
            .map(|&c| (c, ClassTally::default()))
            .collect();
        let mut control_rounds = 0usize;
        let mut strict_rejections = 0usize;
        let mut reconverged = 0usize;

        for round in 0..rounds {
            let (crash, persisted) = crash_image(&pmo, &out.baseline, &mut rng);
            let idx = round % FaultClass::ALL.len();
            // Per-round injector seed: deterministic, round-decorrelated.
            let inj_seed = self.seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut injector =
                FaultInjector::new(FaultPlan::single(FaultClass::ALL[idx]), inj_seed);
            let mut damaged = crash.clone();
            let injected = T::inject(&mut injector, &mut damaged, layout);
            for (i, f) in injected.iter().enumerate() {
                sink.record(i as u64, f.event);
            }

            if injected.is_empty() {
                // Control round: nothing was injected, so Strict recovery
                // must accept the image — a rejection here is a detector
                // false positive — and the recovered state must meet the
                // ordinary crash-consistency contract.
                control_rounds += 1;
                registry.inc(control_ctr);
                let mut image = crash.clone();
                let outcome = recover_with_policy(&mut image, layout, RecoveryPolicy::Strict)
                    .map_err(|e| {
                        fail(
                            round,
                            format!("strict false positive on uninjected image: {e}"),
                        )
                    })?;
                let as_crash = CrashOutcome {
                    image,
                    report: outcome.report,
                    persisted_stores: persisted,
                };
                self.check_contract(workload.as_ref(), &out, &as_crash)
                    .map_err(|e| fail(round, e))?;
                recovery_reconverges(&crash, layout, RecoveryPolicy::Strict, &mut rng)
                    .map_err(|e| fail(round, e))?;
                reconverged += 1;
                continue;
            }

            per_class[idx].1.injected += injected.len();
            registry.add(injected_ctr, injected.len() as u64);

            // Strict must reject exactly the fatal injections; injected
            // tears look like natural ones and must stay benign.
            let fatal = injected.iter().find(|f| f.fatal);
            match (
                recover_with_policy(&mut damaged.clone(), layout, RecoveryPolicy::Strict),
                fatal,
            ) {
                (Err(_), Some(_)) => {
                    strict_rejections += 1;
                    registry.inc(strict_ctr);
                }
                (Ok(_), None) => {}
                (Err(e), None) => {
                    return Err(fail(
                        round,
                        format!("strict rejected a tear-only injection: {e}"),
                    ))
                }
                (Ok(_), Some(f)) => {
                    return Err(fail(
                        round,
                        format!("strict accepted an image with a fatal injected {}", f.site),
                    ))
                }
            }

            // Salvage must pinpoint every injected fault and quarantine
            // each owner the target says must go.
            let mut image = damaged.clone();
            let outcome = recover_with_policy_traced(
                &mut image,
                layout,
                RecoveryPolicy::Salvage,
                sink.as_mut(),
            )
            .map_err(|e| fail(round, format!("salvage recovery errored: {e}")))?;
            let quarantined = T::quarantined(&outcome);
            for f in &injected {
                if !f.expected.is_some_and(|d| outcome.faults.contains(&d)) {
                    return Err(fail(
                        round,
                        format!(
                            "injected {} went undetected; recovery reported {:?}",
                            f.site, outcome.faults
                        ),
                    ));
                }
                per_class[idx].1.detected += 1;
                registry.inc(detected_ctr);
                if let Some(owner) = f.quarantine {
                    if !quarantined.contains(&owner) {
                        return Err(fail(
                            round,
                            format!(
                                "injected {} was not quarantined (quarantined: {quarantined:?})",
                                f.site
                            ),
                        ));
                    }
                    per_class[idx].1.salvaged += 1;
                }
            }
            registry.add(salvaged_ctr, quarantined.len() as u64);
            T::check_survivors(self, &out, &image, &outcome, &injected)
                .map_err(|e| fail(round, e))?;
            recovery_reconverges(&damaged, layout, RecoveryPolicy::Salvage, &mut rng)
                .map_err(|e| fail(round, e))?;
            reconverged += 1;
        }

        Ok(FaultCampaignReport {
            rounds,
            control_rounds,
            strict_rejections,
            per_class,
            reconverged,
            metrics: registry.snapshot(),
        })
    }

    /// Runs this cell to a clean shutdown and reports end-of-run heap-pool
    /// occupancy plus the run's allocator activity counters — the backend
    /// of `swctl heap`. With `churn`, the workload variant that exercises
    /// run-time `heap_alloc`/`heap_free` is used (an error names the
    /// benchmark if it has no churn mode).
    pub fn run_heap_report(&self, churn: bool) -> Result<HeapReport, String> {
        let mut workload = if churn {
            self.bench.instantiate_churn().ok_or_else(|| {
                format!(
                    "benchmark {} has no allocator-churn mode (churn: hashmap, nstore-*)",
                    self.bench
                )
            })?
        } else {
            self.bench.instantiate()
        };
        let out = drive(
            workload.as_mut(),
            &self.driver_params().clean_shutdown().metrics(),
        );
        let snapshot = out.ctx.metrics_snapshot();
        let hs = out.ctx.heap_state();
        let pools = (0..hs.pool_count())
            .map(|p| {
                let pa = hs.pool(p);
                PoolOccupancy {
                    pool: p,
                    arena_lines: pa.arena_lines(),
                    carved_lines: pa.frontier(),
                    live_blocks: pa.live_count(),
                    live_lines: pa.live_lines(),
                    free_lines: pa.free_lines(),
                    largest_free_lines: pa.largest_free_lines(),
                    fragmentation: pa.fragmentation(),
                    journal_next_slot: pa.next_slot,
                    checkpoints: pa.stats.checkpoints,
                }
            })
            .collect();
        Ok(HeapReport {
            pools,
            carves: snapshot.counter("alloc.carves").unwrap_or(0),
            allocs: snapshot.counter("alloc.allocs").unwrap_or(0),
            frees: snapshot.counter("alloc.frees").unwrap_or(0),
            checkpoints: snapshot.counter("alloc.checkpoints").unwrap_or(0),
        })
    }

    /// Runs the allocator leak smoke — the backend of `swctl heap
    /// --verify` and the CI allocator stage. The cell's churn workload
    /// runs to a crash; each of `rounds` sampled crash states must:
    ///
    /// * pass `Strict` recovery (false-positive control: natural crash
    ///   damage never looks like corruption);
    /// * rebuild every heap pool undamaged from its PM metadata;
    /// * hold **no use-after-free**: every block reachable from the
    ///   workload's persistent roots is live in the rebuilt allocator;
    /// * reach **zero leaks** after reclamation: every live dynamic block
    ///   left unreachable by the crash (an allocation whose publishing
    ///   store never persisted) is reclaimed, deterministically so (a
    ///   second rebuild + reclaim finds the identical set).
    pub fn run_heap_smoke(&self, rounds: usize) -> Result<HeapSmokeReport, String> {
        use sw_pmem::BlockKind;
        let mut workload = self.bench.instantiate_churn().ok_or_else(|| {
            format!(
                "benchmark {} has no allocator-churn mode (churn: hashmap, nstore-*)",
                self.bench
            )
        })?;
        let out = drive(workload.as_mut(), &self.driver_params());
        let pmo = self.pmo_of(&out);
        let layout = &out.layout;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x4eaf);
        let fail =
            |round: usize, e: String| self.campaign_failure(Campaign::HeapSmoke, rounds, round, e);

        let mut reclaimed_blocks = 0u64;
        let mut rounds_with_leaks = 0usize;
        let mut rooted_blocks = 0u64;
        for round in 0..rounds {
            let (crash, _) = crash_image(&pmo, &out.baseline, &mut rng);
            let mut image = crash.clone();
            recover_with_policy(&mut image, layout, RecoveryPolicy::Strict).map_err(|e| {
                fail(
                    round,
                    format!("strict false positive on a natural crash image: {e}"),
                )
            })?;
            let (mut hs, rec) = sw_lang::HeapState::rebuild(&image, layout);
            let damaged = rec.damaged_pools();
            if !damaged.is_empty() {
                return Err(fail(
                    round,
                    format!("natural crash image damaged heap pools {damaged:?}"),
                ));
            }
            let roots = workload.heap_roots(&image);
            let live: std::collections::HashSet<u64> = (0..hs.pool_count())
                .flat_map(|p| {
                    hs.pool(p)
                        .live_blocks()
                        .map(|(off, _, _)| layout.pool_line_addr(p, off).raw())
                        .collect::<Vec<_>>()
                })
                .collect();
            for r in &roots {
                if !live.contains(&r.raw()) {
                    return Err(fail(
                        round,
                        format!(
                            "use-after-free: rooted block {:#x} is not live in the \
                             rebuilt allocator",
                            r.raw()
                        ),
                    ));
                }
            }
            let reclaimed = hs.reclaim_unreachable(layout, &roots);
            // Zero leaks and exact accounting after reclamation.
            let rooted: std::collections::HashSet<u64> = roots.iter().map(|a| a.raw()).collect();
            for p in 0..hs.pool_count() {
                let leaked = hs
                    .pool(p)
                    .live_blocks()
                    .filter(|&(off, _, kind)| {
                        kind == BlockKind::Dynamic
                            && !rooted.contains(&layout.pool_line_addr(p, off).raw())
                    })
                    .count();
                if leaked != 0 {
                    return Err(fail(
                        round,
                        format!("pool {p} still leaks {leaked} blocks after reclamation"),
                    ));
                }
                if !hs.pool(p).accounting_exact() {
                    return Err(fail(
                        round,
                        format!("pool {p} accounting does not balance after reclamation"),
                    ));
                }
            }
            // Reclamation is volatile-only, so it must be reproducible
            // from the same image.
            let (mut hs2, _) = sw_lang::HeapState::rebuild(&image, layout);
            let again = hs2.reclaim_unreachable(layout, &roots);
            if again != reclaimed {
                return Err(fail(
                    round,
                    format!("reclamation is not deterministic: {reclaimed:?} then {again:?}"),
                ));
            }
            reclaimed_blocks += reclaimed.len() as u64;
            rounds_with_leaks += usize::from(!reclaimed.is_empty());
            rooted_blocks += roots.len() as u64;
        }
        Ok(HeapSmokeReport {
            rounds,
            reclaimed_blocks,
            rounds_with_leaks,
            rooted_blocks,
        })
    }

    /// Runs the online-fault chaos campaign on this cell: `rounds` rounds
    /// of randomized device faults × crash points × recovery policies.
    ///
    /// Each round, seeded from [`seed`](Experiment::seed):
    ///
    /// 1. **Online faults vs. the PMO oracle** — the cell's
    ///    [`ProbeOracle`] replays under a random [`DeviceFaultSchedule`]
    ///    (transient write failures with retry, permanent media errors
    ///    with remap, read poison): no write silently lost or invented,
    ///    and retries delay, never reorder.
    /// 2. **Crash × recovery** — one [crash leg](Experiment::crash_leg)
    ///    over the multi-threaded driven run (its formally-sampled crash
    ///    images include ones where a mid-retry persist never reached
    ///    media: an un-acknowledged write is simply absent from the
    ///    persisted set).
    /// 3. **Remap-table crash consistency** — a standalone fault unit
    ///    takes permanent errors, and its remap encoding cut at a random
    ///    word (a crash mid-publication) must decode to a prefix of the
    ///    full mapping — never a mix.
    ///
    /// Once per campaign, a poisoned heap line is armed for the
    /// multi-threaded driven run: if a load consumes it, the
    /// machine-check must abort the run under
    /// [`RecoveryPolicy::Strict`] and quarantine exactly the faulting
    /// thread under [`RecoveryPolicy::Salvage`].
    ///
    /// # Errors
    ///
    /// The first violation, with a copy-pasteable `swctl chaos` reproducer
    /// (seed included) embedded.
    pub fn run_chaos_campaign(&self, rounds: usize) -> Result<ChaosCampaignReport, String> {
        if !self.lang.legal_on(self.design) {
            return Err(format!(
                "language model '{}' is not legal on design '{}'",
                self.lang, self.design
            ));
        }
        let fail =
            |round: usize, e: String| self.campaign_failure(Campaign::Chaos, rounds, round, e);

        let oracle = ProbeOracle::new(self);
        let (_, out, pmo) = self.drive();

        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xc4a0_5eed);
        let mut online = OnlineFaultStats::default();
        let mut pmo_edges_checked = 0usize;
        let mut reconverged = 0usize;
        let mut remap_prefix_checks = 0usize;

        for round in 0..rounds {
            // --- Leg 1: online faults vs. the PMO oracle. ---
            let round_seed = self
                .seed
                .wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let probe = oracle.check(round_seed).map_err(|e| fail(round, e))?;
            pmo_edges_checked += probe.pmo_edges;
            if let Some(s) = probe.online {
                online.merge(&s);
            }

            // --- Leg 2: crash points × recovery policies. ---
            self.crash_leg(&out, &pmo, &mut rng)
                .map_err(|e| fail(round, e))?;
            reconverged += 1;

            // --- Leg 3: remap-table crash-prefix consistency. ---
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
                return Err(fail(
                    round,
                    format!(
                        "remap table torn at word {cut}/{} decoded to {decoded:?}, \
                         not a prefix of {full:?}",
                        words.len()
                    ),
                ));
            }
            remap_prefix_checks += 1;

            // --- Leg 3b: spare exhaustion must surface, not saturate. ---
            // A one-spare device taking two permanent errors: the second
            // retirement must return the typed `RemapExhausted` outcome
            // and count it, never park the line silently.
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
            if !matches!(
                unit.on_write(0x200, 8),
                WriteDecision::Proceed {
                    remapped: Some((_, true)),
                    ..
                }
            ) {
                return Err(fail(
                    round,
                    "first retirement failed to consume the spare".into(),
                ));
            }
            if !matches!(
                unit.on_write(0x201, 16),
                WriteDecision::RemapExhausted { line: 0x201 }
            ) {
                return Err(fail(
                    round,
                    "spare exhaustion saturated silently instead of surfacing \
                     a RemapExhausted outcome"
                        .into(),
                ));
            }
            let exhausted = unit.stats();
            if exhausted.spares_exhausted != 1 {
                return Err(fail(
                    round,
                    format!(
                        "spares_exhausted counted {} events, expected 1",
                        exhausted.spares_exhausted
                    ),
                ));
            }
            online.spares_exhausted += exhausted.spares_exhausted;
        }

        // --- MCE leg: poisoned-read delivery under both policies. ---
        let mce_line = out.layout.heap_base().line().raw();
        let mce_run = |policy| {
            let params = self.driver_params().mce(mce_line, policy);
            drive(self.bench.instantiate().as_mut(), &params)
        };
        let strict_run = mce_run(RecoveryPolicy::Strict);
        let salvage_run = mce_run(RecoveryPolicy::Salvage);
        let mce_fail = |e: String| self.campaign_failure(Campaign::Chaos, rounds, rounds, e);
        if !strict_run.mce_events.is_empty() && !strict_run.aborted {
            return Err(mce_fail(
                "strict policy consumed a poisoned line without aborting".into(),
            ));
        }
        if salvage_run.aborted {
            return Err(mce_fail(
                "salvage policy aborted instead of continuing".into(),
            ));
        }
        for e in &salvage_run.mce_events {
            if !salvage_run.quarantined.contains(&e.thread) {
                return Err(mce_fail(format!(
                    "salvage failed to quarantine thread {} after {e}",
                    e.thread
                )));
            }
        }

        Ok(ChaosCampaignReport {
            design: self.design,
            lang: self.lang,
            rounds,
            online,
            pmo_edges_checked,
            reconverged_strict: reconverged,
            reconverged_salvage: reconverged,
            remap_prefix_checks,
            mce_traps: strict_run.mce_events.len() + salvage_run.mce_events.len(),
            mce_strict_aborted: strict_run.aborted,
            mce_quarantined: salvage_run.quarantined.clone(),
            silent_corruptions: 0,
        })
    }

    /// One crash leg over `out`, this cell's [driven](Experiment::drive)
    /// run, whose persist memory order is `pmo`: sample a formal crash
    /// image, require interrupted-and-rerun `Strict` recovery to
    /// reconverge, then poison one log line of a random thread and require
    /// `Salvage` to reconverge. The chaos campaign's second leg and the
    /// serving layer's quarantine leg.
    ///
    /// # Errors
    ///
    /// Which reconvergence failed, and how.
    pub fn crash_leg<R: Rng>(
        &self,
        out: &DriverOutput,
        pmo: &Pmo,
        rng: &mut R,
    ) -> Result<(), String> {
        let (crash, _) = crash_image(pmo, &out.baseline, rng);
        recovery_reconverges(&crash, &out.layout, RecoveryPolicy::Strict, rng)
            .map_err(|e| format!("strict reconvergence: {e}"))?;
        let mut damaged = crash;
        let victim = rng.gen_range(0..self.threads);
        let log_line = out.layout.log_region(victim).base.line().raw();
        damaged.poison_line(LineAddr(log_line + 1 + rng.gen_range(0..4)));
        recovery_reconverges(&damaged, &out.layout, RecoveryPolicy::Salvage, rng)
            .map_err(|e| format!("salvage reconvergence: {e}"))
    }

    /// Where campaign-side events go: a handle on the installed recorder,
    /// or [`NullSink`] when tracing is off.
    fn sink(&self) -> Box<dyn TraceSink> {
        match &self.trace {
            Some(rec) => Box::new(rec.clone()),
            None => Box::new(NullSink),
        }
    }

    /// The copy-pasteable `swctl` invocation replaying `campaign` on this
    /// cell exactly (the seed pins workload generation, crash sampling,
    /// and fault injection). Of the campaigns only chaos simulates the
    /// machine (its probe runs on [`sim`](Experiment::sim)), so only its
    /// reproducer carries `--sq`/`--pq`, where they differ from Table I.
    pub fn repro_cmd(&self, campaign: Campaign, rounds: usize) -> String {
        let (subcommand, switch) = campaign.command();
        let mut cmd = format!(
            "swctl {subcommand} {}{switch} --lang {} --design {} --threads {} --regions {} \
             --ops {} --rounds {rounds} --seed {}",
            self.bench,
            self.lang,
            self.design,
            self.threads,
            self.total_regions,
            self.ops_per_region,
            self.seed,
        );
        if matches!(self.strategy, LogStrategy::Redo) {
            cmd.push_str(" --redo");
        }
        if campaign == Campaign::Chaos {
            let table_i = SimConfig::table_i();
            if self.sim.store_queue_entries != table_i.store_queue_entries {
                cmd.push_str(&format!(" --sq {}", self.sim.store_queue_entries));
            }
            if self.sim.persist_queue_entries != table_i.persist_queue_entries {
                cmd.push_str(&format!(" --pq {}", self.sim.persist_queue_entries));
            }
        }
        cmd
    }

    /// Formats a campaign failure with its minimal reproducer attached.
    fn campaign_failure(
        &self,
        campaign: Campaign,
        rounds: usize,
        round: usize,
        detail: String,
    ) -> String {
        format!(
            "round {round}: {detail}\n  seed {}: reproduce with `{}`",
            self.seed,
            self.repro_cmd(campaign, rounds)
        )
    }
}

/// A seeded campaign whose failures embed a `swctl` reproducer
/// ([`Experiment::repro_cmd`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// [`Experiment::run_crash_campaign`].
    Crash,
    /// [`Experiment::run_fault_campaign`].
    Faults,
    /// [`Experiment::run_heap_fault_campaign`].
    HeapFaults,
    /// [`Experiment::run_heap_smoke`].
    HeapSmoke,
    /// [`Experiment::run_chaos_campaign`].
    Chaos,
}

impl Campaign {
    /// The `swctl` subcommand that runs it, and its mode switch (empty,
    /// or with a leading space).
    fn command(self) -> (&'static str, &'static str) {
        match self {
            Campaign::Crash => ("crash", ""),
            Campaign::Faults => ("faults", ""),
            Campaign::HeapFaults => ("faults", " --heap"),
            Campaign::HeapSmoke => ("heap", " --verify"),
            Campaign::Chaos => ("chaos", ""),
        }
    }
}

/// What an injection campaign aims at. The round loop
/// ([`Experiment::run_fault_campaign`] and
/// [`Experiment::run_heap_fault_campaign`] share it) is the same for every
/// target; a target supplies only what differs.
trait FaultTarget {
    /// Counter names in registration order (which fixes the JSON key
    /// order): injected, detected, quarantined, strict rejections,
    /// control rounds.
    const COUNTERS: [&'static str; 5];
    /// Salt of the campaign's crash-sampling RNG seed.
    const SALT: u64;
    /// The campaign its failures reproduce.
    const CAMPAIGN: Campaign;
    /// Places the injector's plan into `img`.
    fn inject(injector: &mut FaultInjector, img: &mut PmImage, layout: &PmLayout) -> Vec<Placed>;
    /// The threads or pools `Salvage` quarantined.
    fn quarantined(outcome: &PolicyOutcome) -> &[usize];
    /// Checks what a `Salvage` recovery of an injected image left behind.
    fn check_survivors(
        cell: &Experiment,
        out: &DriverOutput,
        image: &PmImage,
        outcome: &PolicyOutcome,
        placed: &[Placed],
    ) -> Result<(), String>;
}

/// One injected fault, as the shared round loop sees it.
struct Placed {
    /// What recovery must report for it. Matching goes by the *resulting*
    /// slot state, not the injected class: a bit flip that lands next to
    /// a legitimately-zero word classifies — and is correctly reported —
    /// as a tear.
    expected: Option<RecoveryFault>,
    /// `true` when it must fail `Strict` recovery.
    fatal: bool,
    /// The thread or pool `Salvage` must quarantine for it, if any.
    quarantine: Option<usize>,
    /// Its `FaultInjected` trace event.
    event: TraceEvent,
    /// Its class and exact location, for failure messages.
    site: String,
}

/// Published workload-log slots: every damaged thread is quarantined
/// (torn ones too), and the survivors must still meet the replay contract.
struct LogSlots;

impl FaultTarget for LogSlots {
    const COUNTERS: [&'static str; 5] = [
        "faults.injected",
        "faults.detected",
        "faults.salvaged",
        "faults.strict_rejections",
        "faults.control_rounds",
    ];
    const SALT: u64 = 0xfa017;
    const CAMPAIGN: Campaign = Campaign::Faults;

    fn inject(injector: &mut FaultInjector, img: &mut PmImage, layout: &PmLayout) -> Vec<Placed> {
        let placed = |f: &InjectedFault| {
            let (tid, slot, line) = (f.tid, f.slot, f.line);
            Placed {
                expected: match f.resulting {
                    SlotState::Torn => Some(RecoveryFault::TornEntry { tid, slot }),
                    SlotState::Corrupt => Some(RecoveryFault::ChecksumMismatch { tid, slot }),
                    SlotState::Poisoned => Some(RecoveryFault::PoisonedLine { tid, line }),
                    _ => None,
                },
                fatal: f.is_fatal(),
                quarantine: Some(tid),
                event: f.event(),
                site: format!(
                    "{} fault (thread {tid}, slot {slot}, line {line})",
                    f.class.label()
                ),
            }
        };
        injector.inject(img, layout).iter().map(placed).collect()
    }

    fn quarantined(outcome: &PolicyOutcome) -> &[usize] {
        &outcome.salvaged_threads
    }

    fn check_survivors(
        cell: &Experiment,
        out: &DriverOutput,
        image: &PmImage,
        outcome: &PolicyOutcome,
        _: &[Placed],
    ) -> Result<(), String> {
        // Natural tears may salvage additional threads; the contract check
        // already excludes every salvaged thread's data.
        match cell.lang.consistency() {
            Consistency::ReplayCommitted => {
                check_salvage_consistency(image, outcome, &out.baseline, &out.regions)
            }
            Consistency::DurablePrefix => Ok(()),
        }
    }
}

/// Published allocator-journal records: only pools holding fatal damage
/// are quarantined (a torn record is reclaimed as in-flight work), and no
/// healthy pool may be.
struct HeapJournal;

impl FaultTarget for HeapJournal {
    const COUNTERS: [&'static str; 5] = [
        "alloc_faults.injected",
        "alloc_faults.detected",
        "alloc_faults.salvaged_pools",
        "alloc_faults.strict_rejections",
        "alloc_faults.control_rounds",
    ];
    const SALT: u64 = 0x4ea9;
    const CAMPAIGN: Campaign = Campaign::HeapFaults;

    fn inject(injector: &mut FaultInjector, img: &mut PmImage, layout: &PmLayout) -> Vec<Placed> {
        let placed = |f: &InjectedHeapFault| {
            let (pool, slot, line) = (f.pool, f.slot, f.line);
            Placed {
                expected: match f.resulting {
                    HeapSlotState::Torn => Some(RecoveryFault::HeapTorn { pool, slot }),
                    HeapSlotState::Corrupt => Some(RecoveryFault::HeapCorrupt { pool, slot }),
                    HeapSlotState::Poisoned => Some(RecoveryFault::HeapPoisoned { pool, line }),
                    _ => None,
                },
                fatal: f.is_fatal(),
                quarantine: f.is_fatal().then_some(pool),
                event: f.event(),
                site: format!(
                    "{} fault (pool {pool}, slot {slot}, line {line})",
                    f.class.heap_label()
                ),
            }
        };
        injector
            .inject_heap(img, layout)
            .iter()
            .map(placed)
            .collect()
    }

    fn quarantined(outcome: &PolicyOutcome) -> &[usize] {
        &outcome.salvaged_pools
    }

    fn check_survivors(
        _: &Experiment,
        _: &DriverOutput,
        _: &PmImage,
        outcome: &PolicyOutcome,
        placed: &[Placed],
    ) -> Result<(), String> {
        // Exact quarantine: a salvaged pool must hold injected fatal
        // damage — quarantining a healthy pool discards good data.
        let healthy = outcome
            .salvaged_pools
            .iter()
            .find(|&&pool| !placed.iter().any(|f| f.quarantine == Some(pool)));
        match healthy {
            Some(pool) => Err(format!(
                "pool {pool} was quarantined without fatal damage (injected: {:?})",
                placed.iter().map(|f| &f.site).collect::<Vec<_>>()
            )),
            None => Ok(()),
        }
    }
}

/// The online-fault oracle of one cell, built once and checked once per
/// fault schedule. It holds a single-threaded lowered probe — six regions
/// of four stores under the cell's `(design, lang, strategy)` — with its
/// formal PMO, the cell's machine configuration (on one core), and the
/// probe's fault-free acceptance order. A faulted replay must persist
/// exactly the lines of that order, in an order that is a linear
/// extension of the PMO: a retry may delay a persist but must never
/// reorder it. The
/// chaos campaign and the serving layer's recovery legs both check
/// against it.
#[derive(Debug)]
pub struct ProbeOracle {
    design: HwDesign,
    sim: SimConfig,
    layout: PmLayout,
    traces: Vec<IsaTrace>,
    pmo: Pmo,
    clean_order: Vec<LineAddr>,
}

/// What one [`ProbeOracle::check`] verified.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCheck {
    /// Transitively ordered *store* pairs on distinct lines the faulted
    /// acceptance order was verified against (see [`order_extends_pmo`]):
    /// one pair of lines counts once per ordered pair of their stores.
    pub pmo_edges: usize,
    /// The faulted run's online-fault activity (`None` when no fault unit
    /// was consulted).
    pub online: Option<OnlineFaultStats>,
}

impl ProbeOracle {
    /// Builds the probe for `cell` and runs it fault-free.
    pub fn new(cell: &Experiment) -> Self {
        let layout = PmLayout::new(1, 512);
        let heap = layout.heap_base();
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut cfg = RuntimeConfig::new(cell.design, cell.lang);
        cfg.strategy = cell.strategy;
        let mut rt = ThreadRuntime::new(&layout, 0, cfg);
        for r in 0..6u64 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            for k in 0..4u64 {
                rt.store(&mut ctx, heap.offset_words((r * 4 + k) * 8), r * 10 + k);
            }
            rt.region_end(&mut ctx);
        }
        rt.shutdown(&mut ctx);
        let mut oracle = ProbeOracle {
            design: cell.design,
            sim: cell.sim.clone().with_cores(1),
            layout,
            pmo: Pmo::compute(&ctx.execution(), cell.design.memory_model()),
            traces: ctx.into_traces(),
            clean_order: Vec::new(),
        };
        oracle.clean_order = oracle.run(None).pm_write_order;
        oracle
    }

    /// The probe's formal persist memory order.
    pub fn pmo(&self) -> &Pmo {
        &self.pmo
    }

    /// The fault-free run's PM acceptance order.
    pub fn clean_order(&self) -> &[LineAddr] {
        &self.clean_order
    }

    /// Replays the probe under [`DeviceFaultSchedule::random`] drawn from
    /// `seed` at the fault-free run's scale, then requires the durable
    /// line set to equal the fault-free one (no write silently lost or
    /// invented) and the acceptance order to extend the PMO.
    ///
    /// # Errors
    ///
    /// The diverging lines, or the violated PMO edge.
    pub fn check(&self, seed: u64) -> Result<ProbeCheck, String> {
        let scale = self.clean_order.len() as u64;
        let faulted = self.run(Some(DeviceFaultSchedule::random(seed, scale)));
        let clean: BTreeSet<LineAddr> = self.clean_order.iter().copied().collect();
        let set: BTreeSet<LineAddr> = faulted.pm_write_order.iter().copied().collect();
        if set != clean {
            let missing: Vec<_> = clean.difference(&set).collect();
            let extra: Vec<_> = set.difference(&clean).collect();
            return Err(format!(
                "silent corruption: durable line set diverged under online faults \
                 (missing {missing:?}, extra {extra:?})"
            ));
        }
        let pmo_edges = order_extends_pmo(&self.pmo, &faulted.pm_write_order)
            .map_err(|e| format!("persist order under retries: {e}"))?;
        Ok(ProbeCheck {
            pmo_edges,
            online: faulted.online_faults,
        })
    }

    /// Runs the probe traces, with `faults` installed when given.
    fn run(&self, faults: Option<DeviceFaultSchedule>) -> SimStats {
        let mut cfg = self.sim.clone();
        if let Some(schedule) = faults {
            cfg = cfg.with_device_faults(schedule);
        }
        Machine::new(cfg, self.design, self.layout.clone(), self.traces.clone()).run()
    }
}

/// Checks that a machine's PM acceptance order respects the PMO: every
/// transitively ordered pair of *stores* on distinct lines must be
/// accepted in order. Only lines accepted exactly once map one-to-one onto
/// formal stores (same-line stores share flushes), so pairs touching
/// multiply-accepted lines are skipped. Returns the number of store pairs
/// verified — one pair of lines counts once per ordered pair of their
/// stores — or the first violation in (source id, target id) order.
///
/// Each store's acceptance position is looked up once; then one forward
/// search over direct edges runs from each store that has a position,
/// reusing one visited buffer. The cost is O(order + P·(V+E)) for P such
/// stores, V stores and E direct edges, with no closure built.
///
/// Public so other harnesses can hold their acceptance orders to the same
/// linear-extension bar as [`ProbeOracle`].
pub fn order_extends_pmo(pmo: &Pmo, order: &[LineAddr]) -> Result<usize, String> {
    // Per line: its first acceptance position and how often it was
    // accepted.
    let mut accepted: HashMap<LineAddr, (usize, usize)> = HashMap::new();
    for (pos, &line) in order.iter().enumerate() {
        accepted.entry(line).or_insert((pos, 0)).1 += 1;
    }
    let line = |s: StoreId| pmo.store(s).addr.line();
    let pos: Vec<Option<usize>> = pmo
        .stores()
        .map(|(_, info)| match accepted.get(&info.addr.line()) {
            Some(&(p, 1)) => Some(p),
            _ => None,
        })
        .collect();
    // `seen[s] == Some(i)` once the search from `i` has reached `s`.
    let mut seen: Vec<Option<StoreId>> = vec![None; pmo.num_stores()];
    let mut stack = Vec::new();
    let mut checked = 0;
    for (i, _) in pmo.stores() {
        let Some(pa) = pos[i.0] else { continue };
        let la = line(i);
        let mut violated: Option<(StoreId, usize)> = None;
        stack.push(i);
        while let Some(s) = stack.pop() {
            for &j in pmo.direct_successors(s) {
                if seen[j.0] == Some(i) {
                    continue;
                }
                seen[j.0] = Some(i);
                stack.push(j);
                let Some(pb) = pos[j.0] else { continue };
                if line(j) == la {
                    continue;
                }
                if pa < pb {
                    checked += 1;
                } else if violated.is_none_or(|(v, _)| j < v) {
                    violated = Some((j, pb));
                }
            }
        }
        if let Some((j, pb)) = violated {
            let lb = line(j);
            return Err(format!(
                "PMO edge {la} -> {lb} violated by acceptance order ({pa} >= {pb})"
            ));
        }
    }
    Ok(checked)
}

/// What [`Experiment::run_chaos_campaign`] measured on one
/// (design × language model) cell.
#[derive(Debug, Clone)]
pub struct ChaosCampaignReport {
    /// Hardware design of the cell.
    pub design: HwDesign,
    /// Language model of the cell.
    pub lang: LangModel,
    /// Campaign rounds executed.
    pub rounds: usize,
    /// Accumulated online-fault activity across all probe rounds
    /// (all-zero on designs that bypass the PM controller write path,
    /// e.g. battery-backed eADR).
    pub online: OnlineFaultStats,
    /// Transitively ordered store pairs on distinct lines the faulted
    /// acceptance orders were verified against (summed
    /// [`ProbeCheck::pmo_edges`]).
    pub pmo_edges_checked: usize,
    /// Rounds whose interrupted `Strict` recovery reconverged.
    pub reconverged_strict: usize,
    /// Rounds whose interrupted `Salvage` recovery (on a freshly poisoned
    /// log line) reconverged.
    pub reconverged_salvage: usize,
    /// Rounds whose torn remap-table encoding decoded to a mapping prefix.
    pub remap_prefix_checks: usize,
    /// Machine-check traps delivered across the two MCE runs.
    pub mce_traps: usize,
    /// `true` when the `Strict` MCE run fail-stopped (always true when a
    /// trap fired).
    pub mce_strict_aborted: bool,
    /// Threads the `Salvage` MCE run quarantined.
    pub mce_quarantined: Vec<usize>,
    /// Silent corruptions observed (always 0 on `Ok` — a nonzero count
    /// fails the campaign instead).
    pub silent_corruptions: usize,
}

impl ChaosCampaignReport {
    /// One human-readable summary line for sweep tables.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<14} {:<7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5}",
            self.design.to_string(),
            self.lang.to_string(),
            self.online.retries_succeeded,
            self.online.lines_remapped,
            self.online.reads_poisoned,
            self.reconverged_strict,
            self.reconverged_salvage,
            self.pmo_edges_checked,
            self.mce_traps,
        )
    }

    /// Renders the human-readable campaign report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos campaign: {} x {}, {} rounds, {} silent corruptions",
            self.design, self.lang, self.rounds, self.silent_corruptions
        );
        for (k, v) in self.online.entries() {
            let _ = writeln!(s, "  faults.online.{k} = {v}");
        }
        let _ = writeln!(
            s,
            "  pmo edges checked {}, reconverged strict {}/{} salvage {}/{}, \
             remap prefixes {}/{}",
            self.pmo_edges_checked,
            self.reconverged_strict,
            self.rounds,
            self.reconverged_salvage,
            self.rounds,
            self.remap_prefix_checks,
            self.rounds,
        );
        let _ = writeln!(
            s,
            "  mce traps {} (strict aborted: {}, quarantined: {:?})",
            self.mce_traps, self.mce_strict_aborted, self.mce_quarantined
        );
        s
    }

    /// Machine-readable form of the campaign report.
    pub fn to_json(&self) -> sw_trace::Json {
        use sw_trace::Json;
        let online = Json::Obj(
            self.online
                .entries()
                .iter()
                .map(|&(k, v)| (format!("faults.online.{k}"), Json::U64(v)))
                .collect(),
        );
        Json::obj([
            ("design", Json::Str(self.design.to_string())),
            ("lang", Json::Str(self.lang.to_string())),
            ("rounds", Json::U64(self.rounds as u64)),
            (
                "silent_corruptions",
                Json::U64(self.silent_corruptions as u64),
            ),
            ("online", online),
            (
                "pmo_edges_checked",
                Json::U64(self.pmo_edges_checked as u64),
            ),
            (
                "reconverged_strict",
                Json::U64(self.reconverged_strict as u64),
            ),
            (
                "reconverged_salvage",
                Json::U64(self.reconverged_salvage as u64),
            ),
            (
                "remap_prefix_checks",
                Json::U64(self.remap_prefix_checks as u64),
            ),
            ("mce_traps", Json::U64(self.mce_traps as u64)),
            ("mce_strict_aborted", Json::Bool(self.mce_strict_aborted)),
            (
                "mce_quarantined",
                Json::Arr(
                    self.mce_quarantined
                        .iter()
                        .map(|&t| Json::U64(t as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// What [`chaos_sweep`] measured across every legal
/// (design × language model) pair.
#[derive(Debug, Clone)]
pub struct ChaosSweepReport {
    /// Per-cell reports, designs in presentation order.
    pub cells: Vec<ChaosCampaignReport>,
    /// Online-fault activity aggregated across all cells.
    pub online: OnlineFaultStats,
}

impl ChaosSweepReport {
    /// Renders the sweep table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<14} {:<7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5}",
            "design", "lang", "retries", "remaps", "poison", "rc-str", "rc-sal", "edges", "mce"
        );
        for cell in &self.cells {
            let _ = writeln!(s, "{}", cell.summary_line());
        }
        let _ = writeln!(
            s,
            "total: {} retry successes, {} remaps, {} reads poisoned, 0 silent corruptions",
            self.online.retries_succeeded, self.online.lines_remapped, self.online.reads_poisoned,
        );
        s
    }

    /// Machine-readable form of the sweep report.
    pub fn to_json(&self) -> sw_trace::Json {
        use sw_trace::Json;
        Json::obj([
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(ChaosCampaignReport::to_json)
                        .collect(),
                ),
            ),
            (
                "online",
                Json::Obj(
                    self.online
                        .entries()
                        .iter()
                        .map(|&(k, v)| (format!("faults.online.{k}"), Json::U64(v)))
                        .collect(),
                ),
            ),
            ("silent_corruptions", Json::U64(0)),
        ])
    }
}

/// Runs the chaos campaign on every legal (design × language model) pair
/// at `scale`'s benchmark and sizes, then enforces the sweep-wide
/// acceptance bar: zero silent corruptions (any would have errored a
/// cell), at least one successful transient retry, and at least one
/// permanent-error remap somewhere in the sweep — proof the fault classes
/// actually fired and healed rather than being silently skipped.
///
/// # Errors
///
/// The first failing cell's error (reproducer embedded), or a sweep-level
/// message when a fault class never fired.
pub fn chaos_sweep(scale: &Experiment, rounds: usize) -> Result<ChaosSweepReport, String> {
    let mut cells = Vec::new();
    let mut online = OnlineFaultStats::default();
    for design in HwDesign::ALL {
        for lang in LangModel::ALL {
            if !lang.legal_on(design) {
                continue;
            }
            let mut cell = scale.clone();
            cell.design = design;
            cell.lang = lang;
            cell.trace = None;
            let report = cell
                .run_chaos_campaign(rounds)
                .map_err(|e| format!("{design} x {lang}: {e}"))?;
            online.merge(&report.online);
            cells.push(report);
        }
    }
    if online.retries_succeeded == 0 {
        return Err("chaos sweep: no transient write fault ever retried successfully".into());
    }
    if online.lines_remapped == 0 {
        return Err("chaos sweep: no permanent media error was ever remapped".into());
    }
    Ok(ChaosSweepReport { cells, online })
}

/// Per-fault-class tally of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Faults injected.
    pub injected: usize,
    /// Faults recovery reported at the exact injected location.
    pub detected: usize,
    /// Faults whose owning thread the `Salvage` policy quarantined.
    pub salvaged: usize,
}

/// What [`Experiment::run_fault_campaign`] measured.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    /// Campaign rounds executed.
    pub rounds: usize,
    /// Rounds where the crash image held no published log entry, run as
    /// uninjected controls (the `Strict` false-positive check).
    pub control_rounds: usize,
    /// Injected rounds the `Strict` policy refused (every fatal one).
    pub strict_rejections: usize,
    /// Tallies per fault class, in [`FaultClass::ALL`] order.
    pub per_class: Vec<(FaultClass, ClassTally)>,
    /// Rounds whose interrupted re-recovery converged (all of them, or the
    /// campaign would have errored).
    pub reconverged: usize,
    /// Campaign counters (`faults.injected`, `faults.detected`,
    /// `faults.salvaged`, `faults.strict_rejections`,
    /// `faults.control_rounds`).
    pub metrics: MetricsSnapshot,
}

impl FaultCampaignReport {
    /// Total faults injected across classes.
    pub fn injected(&self) -> usize {
        self.per_class.iter().map(|(_, t)| t.injected).sum()
    }

    /// Total faults detected at their exact location.
    pub fn detected(&self) -> usize {
        self.per_class.iter().map(|(_, t)| t.detected).sum()
    }

    /// `true` when every injected fault was detected (the campaign's
    /// headline requirement).
    pub fn fully_detected(&self) -> bool {
        self.injected() == self.detected()
    }

    /// Renders the human-readable campaign table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} rounds ({} injected, {} controls), {} strict rejections, \
             {} reconverged",
            self.rounds,
            self.rounds - self.control_rounds,
            self.control_rounds,
            self.strict_rejections,
            self.reconverged,
        );
        let _ = writeln!(
            s,
            "{:<10} {:>9} {:>9} {:>9}",
            "class", "injected", "detected", "salvaged"
        );
        for (class, t) in &self.per_class {
            let _ = writeln!(
                s,
                "{:<10} {:>9} {:>9} {:>9}",
                class.label(),
                t.injected,
                t.detected,
                t.salvaged
            );
        }
        let _ = writeln!(
            s,
            "detection: {}/{} ({})",
            self.detected(),
            self.injected(),
            if self.fully_detected() {
                "complete"
            } else {
                "INCOMPLETE"
            },
        );
        s
    }

    /// Machine-readable form of the campaign report.
    pub fn to_json(&self) -> sw_trace::Json {
        use sw_trace::Json;
        Json::obj([
            ("rounds", Json::U64(self.rounds as u64)),
            ("control_rounds", Json::U64(self.control_rounds as u64)),
            (
                "strict_rejections",
                Json::U64(self.strict_rejections as u64),
            ),
            ("reconverged", Json::U64(self.reconverged as u64)),
            ("injected", Json::U64(self.injected() as u64)),
            ("detected", Json::U64(self.detected() as u64)),
            ("fully_detected", Json::Bool(self.fully_detected())),
            (
                "per_class",
                Json::Arr(
                    self.per_class
                        .iter()
                        .map(|(class, t)| {
                            Json::obj([
                                ("class", Json::Str(class.label().to_string())),
                                ("injected", Json::U64(t.injected as u64)),
                                ("detected", Json::U64(t.detected as u64)),
                                ("salvaged", Json::U64(t.salvaged as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// End-of-run occupancy of one heap pool ([`Experiment::run_heap_report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOccupancy {
    /// Pool index.
    pub pool: usize,
    /// Arena capacity in cache lines.
    pub arena_lines: u64,
    /// Lines consumed by the setup-time carve frontier.
    pub carved_lines: u64,
    /// Live blocks (carves + dynamic allocations).
    pub live_blocks: u64,
    /// Lines held by live blocks.
    pub live_lines: u64,
    /// Lines on the buddy free lists.
    pub free_lines: u64,
    /// Largest contiguous free block, in lines.
    pub largest_free_lines: u64,
    /// External fragmentation: `1 - largest_free / free` (0 when empty).
    pub fragmentation: f64,
    /// Next allocator-journal slot (journal occupancy).
    pub journal_next_slot: u64,
    /// Checkpoints this pool wrote.
    pub checkpoints: u64,
}

/// What [`Experiment::run_heap_report`] measured — `swctl heap`.
#[derive(Debug, Clone)]
pub struct HeapReport {
    /// Per-pool occupancy, pool order.
    pub pools: Vec<PoolOccupancy>,
    /// Setup-time frontier carves across pools.
    pub carves: u64,
    /// Run-time dynamic allocations across pools.
    pub allocs: u64,
    /// Run-time frees across pools.
    pub frees: u64,
    /// Journal checkpoints across pools.
    pub checkpoints: u64,
}

impl HeapReport {
    /// Renders the human-readable occupancy table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} carves, {} allocs, {} frees, {} checkpoints",
            self.carves, self.allocs, self.frees, self.checkpoints
        );
        let _ = writeln!(
            s,
            "{:<5} {:>11} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6} {:>8}",
            "pool",
            "arena_lines",
            "carved",
            "blocks",
            "lines",
            "free",
            "largest",
            "frag",
            "journal"
        );
        for p in &self.pools {
            let _ = writeln!(
                s,
                "{:<5} {:>11} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6.3} {:>8}",
                p.pool,
                p.arena_lines,
                p.carved_lines,
                p.live_blocks,
                p.live_lines,
                p.free_lines,
                p.largest_free_lines,
                p.fragmentation,
                p.journal_next_slot,
            );
        }
        s
    }

    /// Machine-readable form of the occupancy report.
    pub fn to_json(&self) -> sw_trace::Json {
        use sw_trace::Json;
        Json::obj([
            ("carves", Json::U64(self.carves)),
            ("allocs", Json::U64(self.allocs)),
            ("frees", Json::U64(self.frees)),
            ("checkpoints", Json::U64(self.checkpoints)),
            (
                "pools",
                Json::Arr(
                    self.pools
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("pool", Json::U64(p.pool as u64)),
                                ("arena_lines", Json::U64(p.arena_lines)),
                                ("carved_lines", Json::U64(p.carved_lines)),
                                ("live_blocks", Json::U64(p.live_blocks)),
                                ("live_lines", Json::U64(p.live_lines)),
                                ("free_lines", Json::U64(p.free_lines)),
                                ("largest_free_lines", Json::U64(p.largest_free_lines)),
                                ("fragmentation", Json::F64(p.fragmentation)),
                                ("journal_next_slot", Json::U64(p.journal_next_slot)),
                                ("checkpoints", Json::U64(p.checkpoints)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What [`Experiment::run_heap_smoke`] measured — `swctl heap --verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSmokeReport {
    /// Crash states audited.
    pub rounds: usize,
    /// In-flight allocations reclaimed across all rounds (leaks that
    /// recovery repaired; zero remain afterwards by construction of the
    /// passing check).
    pub reclaimed_blocks: u64,
    /// Rounds in which at least one leak was found and reclaimed.
    pub rounds_with_leaks: usize,
    /// Blocks reachable from persistent roots across all rounds.
    pub rooted_blocks: u64,
}

impl HeapSmokeReport {
    /// Renders the human-readable smoke summary.
    pub fn render(&self) -> String {
        format!(
            "{} crash states: {} rooted blocks verified live, {} leaked \
             allocations reclaimed ({} rounds leaked), zero leaks remain\n",
            self.rounds, self.rooted_blocks, self.reclaimed_blocks, self.rounds_with_leaks
        )
    }

    /// Machine-readable form of the smoke report.
    pub fn to_json(&self) -> sw_trace::Json {
        use sw_trace::Json;
        Json::obj([
            ("rounds", Json::U64(self.rounds as u64)),
            ("reclaimed_blocks", Json::U64(self.reclaimed_blocks)),
            (
                "rounds_with_leaks",
                Json::U64(self.rounds_with_leaks as u64),
            ),
            ("rooted_blocks", Json::U64(self.rooted_blocks)),
            ("zero_leaks", Json::Bool(true)),
        ])
    }
}

/// Runs one benchmark × language model across every registered hardware
/// design with identical logical work, returning `(design, stats)` pairs
/// in the paper's presentation order. The Figure 7 generator calls this
/// per cell.
pub fn design_sweep(
    bench: BenchmarkId,
    lang: LangModel,
    scale: &Experiment,
) -> Vec<(HwDesign, SimStats)> {
    design_sweep_of(&HwDesign::ALL, bench, lang, scale)
}

/// As [`design_sweep`], restricted to `designs` (the `swctl --design`
/// filter). Designs run concurrently — each cell drives its own workload
/// copy and owns its machine, so the only shared state is the read-only
/// scale template.
pub fn design_sweep_of(
    designs: &[HwDesign],
    bench: BenchmarkId,
    lang: LangModel,
    scale: &Experiment,
) -> Vec<(HwDesign, SimStats)> {
    // The trace recorder handle is single-threaded (`Rc` inside), so the
    // whole `Experiment` cannot cross a thread boundary; capture only the
    // plain scale fields and run every sweep cell untraced.
    let strategy = scale.strategy;
    let threads = scale.threads;
    let total_regions = scale.total_regions;
    let ops_per_region = scale.ops_per_region;
    let seed = scale.seed;
    let sim = &scale.sim;
    let metrics = scale.metrics;
    let profile = scale.profile;
    fan_out(designs, |&design| {
        let e = Experiment {
            bench,
            lang,
            design,
            strategy,
            threads,
            total_regions,
            ops_per_region,
            seed,
            sim: sim.clone(),
            trace: None,
            metrics,
            profile,
        };
        (design, e.run_timing())
    })
}

/// Maps `f` over `items` in order: one scoped thread per item when
/// [`host_is_multicore`], inline otherwise. On a single hardware thread
/// the spawns only add scheduler overhead (sweep cells are pure compute),
/// and the results are identical either way. The design sweep and
/// `sw-bench`'s figure sweep both fan out through this.
pub fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if !host_is_multicore() {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items.iter().map(|item| s.spawn(move || f(item))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    })
}

/// `true` when the host offers more than one hardware thread, i.e. when
/// fanning sweep cells out across OS threads can actually overlap work
/// (see [`fan_out`]).
pub fn host_is_multicore() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Experiment {
        Experiment::new(bench, lang, design)
            .threads(2)
            .total_regions(24)
    }

    #[test]
    fn timing_run_produces_cycles_and_clwbs() {
        let stats = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).run_timing();
        assert!(stats.cycles > 0);
        assert!(stats.total_clwbs() > 0);
        assert!(!stats.pm_write_order.is_empty());
    }

    #[test]
    fn strandweaver_beats_intel_on_queue() {
        let sw = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).run_timing();
        let intel = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::IntelX86).run_timing();
        assert!(
            intel.cycles > sw.cycles,
            "intel {} should be slower than strandweaver {}",
            intel.cycles,
            sw.cycles
        );
    }

    #[test]
    fn crash_campaign_passes_for_recoverable_designs() {
        // Eadr is recoverable with zero runtime fences: strict persistency
        // makes every crash state a prefix of the execution order.
        for design in [HwDesign::StrandWeaver, HwDesign::IntelX86, HwDesign::Eadr] {
            small(BenchmarkId::Queue, LangModel::Txn, design)
                .run_crash_campaign(15)
                .unwrap_or_else(|e| panic!("{design}: {e}"));
        }
    }

    #[test]
    fn native_crash_campaign_passes_on_eadr() {
        small(BenchmarkId::Queue, LangModel::Native, HwDesign::Eadr)
            .run_crash_campaign(15)
            .unwrap();
    }

    #[test]
    fn crash_campaign_catches_non_atomic() {
        let e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::NonAtomic).total_regions(40);
        assert!(
            e.run_crash_campaign(150).is_err(),
            "non-atomic must eventually corrupt"
        );
    }

    #[test]
    fn crash_campaign_failures_embed_a_reproducer() {
        let e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::NonAtomic)
            .total_regions(40)
            .seed(77);
        let err = e.run_crash_campaign(150).unwrap_err();
        assert!(err.contains("seed 77"), "{err}");
        assert!(
            err.contains("swctl crash queue --lang txn --design non-atomic"),
            "{err}"
        );
        assert!(err.contains("--rounds 150 --seed 77"), "{err}");
    }

    #[test]
    fn fault_campaign_detects_every_injection() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_fault_campaign(9)
            .expect("campaign must pass on recoverable hardware");
        assert!(
            report.injected() > 0,
            "sampled crash states should expose live log entries"
        );
        assert!(report.fully_detected(), "{}", report.render());
        assert_eq!(report.reconverged, report.rounds);
        assert_eq!(
            report.metrics.counter("faults.injected"),
            Some(report.injected() as u64)
        );
        assert_eq!(
            report.metrics.counter("faults.detected"),
            Some(report.detected() as u64)
        );
    }

    #[test]
    fn heap_report_accounts_pools_and_counters() {
        let report = small(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_report(false)
            .expect("hashmap always has a heap report");
        assert!(report.carves > 0, "setup carves via the allocator");
        let p0 = &report.pools[0];
        assert!(p0.live_blocks > 0 && p0.carved_lines > 0);
        assert!(p0.live_lines + p0.free_lines <= p0.arena_lines);
        assert!((0.0..=1.0).contains(&p0.fragmentation));
        // Plain mode serves inserts from the pre-carved arena: no
        // dynamic allocator traffic. Churn mode allocates and frees.
        assert_eq!(report.allocs, 0);
        assert_eq!(report.frees, 0);
        let churn = small(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_report(true)
            .expect("hashmap has a churn mode");
        assert!(churn.allocs > 0, "churn inserts allocate nodes");
        assert!(churn.frees > 0, "relocating updates free displaced nodes");
        // JSON form carries the pools array.
        let json = report.to_json().render();
        assert!(json.contains("\"pools\":["), "{json}");
        assert!(json.contains("\"fragmentation\":"), "{json}");
    }

    #[test]
    fn heap_report_errors_on_churn_free_benchmarks() {
        let err = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_report(true)
            .unwrap_err();
        assert!(err.contains("no allocator-churn mode"), "{err}");
    }

    #[test]
    fn heap_smoke_reclaims_native_leaks_to_zero() {
        // Native on eADR has no logs: a crash can persist an allocation's
        // journal record while the publishing store is still in flight,
        // leaking the block. The smoke must find and reclaim such leaks.
        let report = small(BenchmarkId::Hashmap, LangModel::Native, HwDesign::Eadr)
            .total_regions(40)
            .run_heap_smoke(60)
            .expect("smoke must pass");
        assert!(report.rooted_blocks > 0);
        assert!(
            report.reclaimed_blocks > 0,
            "log-free churn must leak across {} rounds: {}",
            report.rounds,
            report.render()
        );
    }

    #[test]
    fn heap_smoke_is_leak_free_for_logged_models() {
        // Undo logging rolls the allocator journal back with everything
        // else: a recovered image never holds an unreachable committed
        // allocation.
        let report = small(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_smoke(25)
            .expect("smoke must pass");
        assert!(report.rooted_blocks > 0);
        assert_eq!(
            report.reclaimed_blocks,
            0,
            "transactional churn cannot leak: {}",
            report.render()
        );
    }

    #[test]
    fn heap_fault_campaign_detects_every_injection() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_fault_campaign(9)
            .expect("allocator campaign must pass on recoverable hardware");
        assert!(
            report.injected() > 0,
            "setup carves guarantee published allocator-journal records"
        );
        assert!(report.fully_detected(), "{}", report.render());
        assert_eq!(report.control_rounds, 0);
        assert_eq!(report.reconverged, report.rounds);
        // Every fatal (bitflip-corrupt, poison) round both rejected under
        // Strict and quarantined exactly one pool under Salvage.
        let fatal_detected: usize = report.per_class.iter().map(|(_, t)| t.salvaged).sum();
        assert_eq!(report.strict_rejections, fatal_detected);
        assert!(fatal_detected > 0, "{}", report.render());
        assert_eq!(
            report.metrics.counter("alloc_faults.injected"),
            Some(report.injected() as u64)
        );
    }

    #[test]
    fn heap_fault_campaign_works_on_log_free_native() {
        // Native writes no workload log, but setup still journals its
        // heap carves: the allocator campaign has targets everywhere.
        let report = small(BenchmarkId::Queue, LangModel::Native, HwDesign::Eadr)
            .run_heap_fault_campaign(6)
            .expect("allocator metadata is model-independent");
        assert!(report.injected() > 0);
        assert!(report.fully_detected(), "{}", report.render());
    }

    #[test]
    fn heap_fault_campaign_replays_from_its_seed() {
        let run = || {
            small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
                .seed(31)
                .run_heap_fault_campaign(6)
                .expect("campaign")
        };
        assert_eq!(run().per_class, run().per_class);
    }

    #[test]
    fn fault_campaign_on_log_free_native_is_all_controls() {
        // The Native model writes no log entries, so there is nothing to
        // inject into: every round is an uninjected `Strict` control.
        let report = small(BenchmarkId::Queue, LangModel::Native, HwDesign::Eadr)
            .run_fault_campaign(6)
            .expect("log-free campaign is a pure false-positive check");
        assert_eq!(report.control_rounds, report.rounds);
        assert_eq!(report.injected(), 0);
        assert_eq!(report.strict_rejections, 0);
    }

    #[test]
    fn fault_campaign_replays_from_its_seed() {
        let run = || {
            small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
                .seed(99)
                .run_fault_campaign(6)
                .expect("campaign")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.per_class, b.per_class);
        assert_eq!(a.control_rounds, b.control_rounds);
        assert_eq!(a.strict_rejections, b.strict_rejections);
    }

    #[test]
    fn fault_campaign_report_renders_and_serializes() {
        let report = small(BenchmarkId::ArraySwap, LangModel::Sfr, HwDesign::IntelX86)
            .run_fault_campaign(6)
            .expect("campaign");
        let text = report.render();
        assert!(text.contains("bitflip"), "{text}");
        let json = report.to_json().render();
        for key in ["per_class", "fully_detected", "faults.injected"] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn traced_fault_campaign_emits_injection_and_detection_events() {
        let rec = sw_trace::RingRecorder::new(1 << 16);
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .traced(rec.clone())
            .run_fault_campaign(6)
            .expect("campaign");
        let events = rec.events();
        let count = |kind: &str| events.iter().filter(|e| e.event.kind() == kind).count();
        assert_eq!(count("fault_injected"), report.injected());
        assert!(count("corruption_detected") >= report.detected());
        assert!(count("region_salvaged") > 0);
    }

    #[test]
    fn traced_run_records_events_and_metrics() {
        let rec = sw_trace::RingRecorder::new(1 << 18);
        let stats = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .traced(rec.clone())
            .with_metrics()
            .run_timing();
        assert!(!rec.is_empty(), "traced run recorded events");
        assert!(!stats.metrics.is_empty(), "metrics snapshot populated");
        assert_eq!(
            stats.metrics.counter("pm.writes_accepted"),
            Some(stats.pm_write_order.len() as u64)
        );
    }

    #[test]
    fn design_sweep_covers_all_designs() {
        let scale = small(
            BenchmarkId::ArraySwap,
            LangModel::Sfr,
            HwDesign::StrandWeaver,
        );
        let results = design_sweep(BenchmarkId::ArraySwap, LangModel::Sfr, &scale);
        assert_eq!(results.len(), HwDesign::ALL.len());
        assert!(results.iter().all(|(_, s)| s.cycles > 0));
        // Parallel execution must preserve the presentation order.
        let order: Vec<HwDesign> = results.iter().map(|(d, _)| *d).collect();
        assert_eq!(order, HwDesign::ALL.to_vec());
    }

    #[test]
    fn filtered_sweep_runs_only_requested_designs() {
        let scale = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
        let designs = [HwDesign::IntelX86, HwDesign::Eadr];
        let results = design_sweep_of(&designs, BenchmarkId::Queue, LangModel::Txn, &scale);
        let order: Vec<HwDesign> = results.iter().map(|(d, _)| *d).collect();
        assert_eq!(order, designs.to_vec());
    }

    #[test]
    fn chaos_campaign_heals_faults_and_respects_pmo() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_chaos_campaign(3)
            .expect("campaign must pass on recoverable hardware");
        assert!(report.online.retries_succeeded >= 1, "{}", report.render());
        assert!(report.online.lines_remapped >= 1, "{}", report.render());
        assert!(report.pmo_edges_checked > 0);
        assert_eq!(report.reconverged_strict, 3);
        assert_eq!(report.reconverged_salvage, 3);
        assert_eq!(report.remap_prefix_checks, 3);
        assert_eq!(report.silent_corruptions, 0);
        // The armed heap line is hot in the queue workload: the MCE must
        // fire, fail-stop under Strict, and quarantine under Salvage.
        assert!(report.mce_traps >= 1, "{}", report.render());
        assert!(report.mce_strict_aborted);
        assert!(!report.mce_quarantined.is_empty());
    }

    #[test]
    fn chaos_campaign_replays_from_its_seed() {
        let run = || {
            small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
                .seed(42)
                .run_chaos_campaign(3)
                .expect("campaign")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.online, b.online);
        assert_eq!(a.pmo_edges_checked, b.pmo_edges_checked);
        assert_eq!(a.mce_traps, b.mce_traps);
        assert_eq!(a.mce_quarantined, b.mce_quarantined);
    }

    #[test]
    fn chaos_campaign_rejects_illegal_cells() {
        let err = small(
            BenchmarkId::Queue,
            LangModel::Native,
            HwDesign::StrandWeaver,
        )
        .run_chaos_campaign(1)
        .unwrap_err();
        assert!(err.contains("not legal"), "{err}");
    }

    #[test]
    fn chaos_failures_embed_a_reproducer() {
        let e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).seed(123);
        let msg = e.campaign_failure(Campaign::Chaos, 5, 2, "boom".into());
        assert!(msg.contains("round 2: boom"), "{msg}");
        assert!(
            msg.contains("swctl chaos queue --lang txn --design strandweaver"),
            "{msg}"
        );
        assert!(msg.contains("--rounds 5 --seed 123"), "{msg}");
    }

    #[test]
    fn chaos_campaign_report_renders_and_serializes() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_chaos_campaign(2)
            .expect("campaign");
        let text = report.render();
        assert!(text.contains("faults.online.retries_succeeded"), "{text}");
        let json = report.to_json().render();
        for key in [
            "faults.online.lines_remapped",
            "silent_corruptions",
            "mce_strict_aborted",
        ] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn traced_run_with_faults_emits_device_events() {
        let mut sched = DeviceFaultSchedule::none();
        for w in [1u64, 3] {
            sched.faults.push(DeviceFault {
                class: DeviceFaultClass::TransientWriteFail,
                trigger: FaultTrigger::NthWrite(w),
                sticky: false,
            });
        }
        sched.faults.push(DeviceFault {
            class: DeviceFaultClass::PermanentMediaError,
            trigger: FaultTrigger::NthWrite(2),
            sticky: true,
        });
        let rec = sw_trace::RingRecorder::new(1 << 18);
        let mut e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .traced(rec.clone())
            .with_metrics();
        e.sim = e.sim.clone().with_device_faults(sched);
        let stats = e.run_timing();
        let events = rec.events();
        let count = |kind: &str| events.iter().filter(|e| e.event.kind() == kind).count();
        assert!(count("device_fault") >= 2, "transient + permanent classes");
        assert!(count("persist_retried") >= 1);
        assert!(count("line_remapped") >= 1);
        let online = stats.online_faults.expect("fault unit installed");
        assert_eq!(
            stats.metrics.counter("faults.online.persist_retries"),
            Some(online.retries_succeeded)
        );
        assert_eq!(
            stats.metrics.counter("faults.online.lines_remapped"),
            Some(online.lines_remapped)
        );
    }

    /// The probe oracle of a small strandweaver cell, plus the positions
    /// in its fault-free order of two lines a PMO edge orders, each
    /// accepted exactly once.
    fn probe_with_edge() -> (ProbeOracle, usize, usize) {
        let oracle = ProbeOracle::new(&small(
            BenchmarkId::Queue,
            LangModel::Txn,
            HwDesign::StrandWeaver,
        ));
        let (pmo, order) = (oracle.pmo(), oracle.clean_order());
        let once = |l: LineAddr| order.iter().filter(|&&x| x == l).count() == 1;
        let pos = |l: LineAddr| order.iter().position(|&x| x == l).unwrap();
        let edge = (0..pmo.num_stores())
            .flat_map(|i| (0..pmo.num_stores()).map(move |j| (StoreId(i), StoreId(j))))
            .map(|(a, b)| (a, b, pmo.store(a).addr.line(), pmo.store(b).addr.line()))
            .find(|&(a, b, la, lb)| la != lb && pmo.ordered_before(a, b) && once(la) && once(lb))
            .map(|(_, _, la, lb)| (pos(la), pos(lb)))
            .expect("the probe orders two once-accepted lines");
        (oracle, edge.0, edge.1)
    }

    #[test]
    fn order_extends_pmo_rejects_a_swapped_edge() {
        let (oracle, a, b) = probe_with_edge();
        let mut order = oracle.clean_order().to_vec();
        assert!(order_extends_pmo(oracle.pmo(), &order).is_ok());
        order.swap(a, b);
        let err = order_extends_pmo(oracle.pmo(), &order).unwrap_err();
        assert!(err.contains("violated by acceptance order"), "{err}");
    }

    #[test]
    fn order_extends_pmo_skips_edges_of_lines_accepted_twice() {
        let (oracle, a, _) = probe_with_edge();
        let clean = oracle.clean_order();
        let checked = order_extends_pmo(oracle.pmo(), clean).unwrap();
        // Moving the edge's source line to the end breaks the edge ...
        let mut moved: Vec<LineAddr> = clean.to_vec();
        let line = moved.remove(a);
        moved.push(line);
        assert!(order_extends_pmo(oracle.pmo(), &moved).is_err());
        // ... unless the line is accepted twice: it then maps onto no
        // single store, so its edges are skipped, not checked.
        moved.push(line);
        let skipped = order_extends_pmo(oracle.pmo(), &moved).expect("edges skipped");
        assert!(skipped < checked, "{skipped} of {checked} edges checked");
    }

    #[test]
    fn chaos_sweep_covers_every_legal_cell() {
        let scale = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
        let report = chaos_sweep(&scale, 1).expect("sweep");
        let legal = HwDesign::ALL
            .iter()
            .flat_map(|&d| LangModel::ALL.iter().filter(move |l| l.legal_on(d)))
            .count();
        assert_eq!(report.cells.len(), legal);
        assert!(report.online.retries_succeeded >= 1);
        assert!(report.online.lines_remapped >= 1);
        let text = report.render();
        assert!(text.contains("0 silent corruptions"), "{text}");
        let json = report.to_json().render();
        assert!(json.contains("\"cells\""), "{json}");
    }
}

#[cfg(test)]
mod redo_experiment_tests {
    use super::*;

    #[test]
    fn redo_workloads_run_and_recover() {
        for bench in [
            BenchmarkId::Queue,
            BenchmarkId::Hashmap,
            BenchmarkId::RbTree,
        ] {
            let mut e = Experiment::new(bench, LangModel::Txn, HwDesign::StrandWeaver)
                .threads(2)
                .total_regions(20)
                .redo();
            e.ops_per_region = 2;
            e.run_crash_campaign(10)
                .unwrap_or_else(|err| panic!("{bench}: {err}"));
        }
    }

    #[test]
    fn redo_beats_undo_under_strands() {
        // The Section VII claim: per-region drains disappear under redo, so
        // redo should be at least as fast as undo on StrandWeaver hardware.
        let mk = |redo: bool| {
            let e = Experiment::new(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
                .threads(2)
                .total_regions(40);
            if redo { e.redo() } else { e }.run_timing()
        };
        let undo = mk(false);
        let redo = mk(true);
        assert!(
            redo.cycles <= undo.cycles,
            "redo {} should not be slower than undo {}",
            redo.cycles,
            undo.cycles
        );
    }
}
