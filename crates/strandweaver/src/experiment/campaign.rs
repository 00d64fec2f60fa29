//! The seeded campaigns over one cell — crash, fault injection (log and
//! allocator journal), allocator smoke and chaos — and [`CrashLegs`], the
//! crash leg every chaos round and every serve quarantine runs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sw_faults::{FaultClass, FaultInjector, FaultPlan, InjectedFault, InjectedHeapFault};
use sw_lang::harness::{
    check_prefix_consistency, check_replay_consistency, check_salvage_consistency,
    crash_and_recover, crash_image, recovery_reconverges, CrashOutcome,
};
use sw_lang::recovery::{
    recover_with_policy, recover_with_policy_traced, PolicyOutcome, RecoveryFault, RecoveryPolicy,
};
use sw_lang::{Consistency, SlotState};
use sw_model::Pmo;
use sw_pmem::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultTrigger,
    HeapSlotState, LineAddr, OnlineFaultStats, PmImage, PmLayout, PoolStats, RemapTable,
    WriteDecision,
};
use sw_trace::{MetricsSnapshot, NullSink, TraceEvent, TraceSink};
use sw_workloads::driver::{drive, DriverOutput};
use sw_workloads::{BenchmarkId, Workload};

use super::{
    Campaign, ChaosCampaignReport, ClassTally, Experiment, FaultCampaignReport, HeapReport,
    HeapSmokeReport, PoolOccupancy, ProbeCheck, ProbeOracle,
};

impl Experiment {
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
    /// [`HwDesign::NonAtomic`](sw_lang::HwDesign::NonAtomic)).
    pub fn run_crash_campaign(&self, rounds: usize) -> Result<(), String> {
        let (workload, out, pmo) = self.drive();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ Campaign::Crash.salt());
        let fail = self.campaign_failure(Campaign::Crash, rounds);
        for round in 0..rounds {
            let outcome = crash_and_recover(&out.ctx, &out.baseline, &pmo, &mut rng);
            self.check_contract(workload.as_ref(), &out, &outcome)
                .map_err(|e| fail(round, e))?;
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
    ///   ([`check_salvage_consistency`]).
    /// * **Convergence** — recovery interrupted by a second crash and
    ///   re-run must land on the identical image
    ///   ([`recovery_reconverges`]).
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
        let mut rng = SmallRng::seed_from_u64(self.seed ^ T::CAMPAIGN.salt());
        let mut sink = self.sink();
        let fail = self.campaign_failure(T::CAMPAIGN, rounds);

        let mut per_class: Vec<(FaultClass, ClassTally)> = FaultClass::ALL
            .iter()
            .map(|&c| (c, ClassTally::default()))
            .collect();
        let mut control_rounds = 0usize;
        let mut strict_rejections = 0usize;
        let mut quarantined_owners = 0usize;
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

            // Strict must reject exactly the fatal injections; injected
            // tears look like natural ones and must stay benign.
            let fatal = injected.iter().find(|f| f.fatal);
            match (
                recover_with_policy(&mut damaged.clone(), layout, RecoveryPolicy::Strict),
                fatal,
            ) {
                (Err(_), Some(_)) => strict_rejections += 1,
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
            quarantined_owners += quarantined.len();
            T::check_survivors(self, &out, &image, &outcome, &injected)
                .map_err(|e| fail(round, e))?;
            recovery_reconverges(&damaged, layout, RecoveryPolicy::Salvage, &mut rng)
                .map_err(|e| fail(round, e))?;
            reconverged += 1;
        }

        let mut report = FaultCampaignReport {
            rounds,
            control_rounds,
            strict_rejections,
            per_class,
            reconverged,
            metrics: MetricsSnapshot::default(),
        };
        let totals = [
            report.injected(),
            report.detected(),
            quarantined_owners,
            strict_rejections,
            control_rounds,
        ];
        report.metrics.counters = T::COUNTERS
            .iter()
            .zip(totals)
            .map(|(name, n)| (name.to_string(), n as u64))
            .collect();
        Ok(report)
    }

    /// Where campaign-side events go: a handle on the installed recorder,
    /// or [`NullSink`] when tracing is off.
    fn sink(&self) -> Box<dyn TraceSink> {
        match &self.trace {
            Some(rec) => Box::new(rec.clone()),
            None => Box::new(NullSink),
        }
    }

    /// This cell's allocator-churn workload: the variant of the benchmark
    /// that exercises run-time `heap_alloc`/`heap_free`.
    ///
    /// # Errors
    ///
    /// Names the benchmark and every benchmark that has a churn mode when
    /// this one has none.
    pub fn churn_workload(&self) -> Result<Box<dyn Workload>, String> {
        self.bench.instantiate_churn().ok_or_else(|| {
            let churn: Vec<_> = BenchmarkId::ALL
                .into_iter()
                .filter(|b| b.instantiate_churn().is_some())
                .map(BenchmarkId::label)
                .collect();
            format!(
                "benchmark {} has no allocator-churn mode (churn: {})",
                self.bench,
                churn.join(", ")
            )
        })
    }

    /// Runs this cell to a clean shutdown and reports end-of-run heap-pool
    /// occupancy plus the run's allocator activity counters — the backend
    /// of `swctl heap`. With `churn`, the [churn workload] runs.
    ///
    /// # Errors
    ///
    /// With `churn`, on a benchmark that has no churn mode.
    ///
    /// [churn workload]: Experiment::churn_workload
    pub fn run_heap_report(&self, churn: bool) -> Result<HeapReport, String> {
        let mut workload = if churn {
            self.churn_workload()?
        } else {
            self.bench.instantiate()
        };
        let out = drive(workload.as_mut(), &self.driver_params().clean_shutdown());
        let hs = out.ctx.heap_state();
        let total = |count: fn(&PoolStats) -> u64| -> u64 {
            (0..hs.pool_count()).map(|p| count(&hs.pool(p).stats)).sum()
        };
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
            carves: total(|s| s.carves),
            allocs: total(|s| s.allocs),
            frees: total(|s| s.frees),
            checkpoints: total(|s| s.checkpoints),
        })
    }

    /// Runs the allocator leak smoke — the backend of `swctl heap
    /// --verify` and the CI allocator stage. The cell's [churn workload]
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
    ///
    /// [churn workload]: Experiment::churn_workload
    pub fn run_heap_smoke(&self, rounds: usize) -> Result<HeapSmokeReport, String> {
        use sw_pmem::BlockKind;
        let mut workload = self.churn_workload()?;
        let out = drive(workload.as_mut(), &self.driver_params());
        let pmo = self.pmo_of(&out);
        let layout = &out.layout;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ Campaign::HeapSmoke.salt());
        let fail = self.campaign_failure(Campaign::HeapSmoke, rounds);

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
    /// 2. **Crash × recovery** — over the multi-threaded driven run (its
    ///    formally-sampled crash images include ones where a mid-retry
    ///    persist never reached media: an un-acknowledged write is simply
    ///    absent from the persisted set). Legs 1 and 2 are one
    ///    [`CrashLegs::run`], the leg a serve quarantine runs too.
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
        let fail = self.campaign_failure(Campaign::Chaos, rounds);
        let mut legs = CrashLegs::new(self, self.seed ^ Campaign::Chaos.salt());

        let mut online = OnlineFaultStats::default();
        let mut pmo_edges_checked = 0usize;
        let mut reconverged = 0usize;
        let mut remap_prefix_checks = 0usize;

        for round in 0..rounds {
            // --- Legs 1–2: online faults vs. the PMO oracle, then crash
            // points × recovery policies. ---
            let round_seed = self
                .seed
                .wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let probe = legs.run(round_seed).map_err(|e| fail(round, e))?;
            pmo_edges_checked += probe.pmo_edges;
            if let Some(s) = probe.online {
                online.merge(&s);
            }
            reconverged += 1;

            // --- Leg 3: remap-table crash-prefix consistency. ---
            let rng = &mut legs.rng;
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
        let mce_line = legs.out.layout.heap_base().line().raw();
        let mce_run = |policy| {
            let params = self.driver_params().mce(mce_line, policy);
            drive(self.bench.instantiate().as_mut(), &params)
        };
        let strict_run = mce_run(RecoveryPolicy::Strict);
        let salvage_run = mce_run(RecoveryPolicy::Salvage);
        let mce_fail = |e: String| fail(rounds, e);
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
}

/// The crash leg every chaos round and every serve quarantine runs, over
/// state built once per cell: the cell's [`ProbeOracle`], its
/// [driven](Experiment::drive) multi-threaded run with that run's persist
/// memory order, and a seeded RNG that every leg draws from in turn.
#[derive(Debug)]
pub struct CrashLegs {
    oracle: ProbeOracle,
    out: DriverOutput,
    pmo: Pmo,
    rng: SmallRng,
}

impl CrashLegs {
    /// Builds the probe oracle and the driven run of `cell`, with an RNG
    /// seeded from `rng_seed`.
    pub fn new(cell: &Experiment, rng_seed: u64) -> Self {
        // Driving before the probe is built is the order sw-serve used, and
        // it measured cheaper: the other order cost the serve sweep about
        // a tenth more CPU (2×24×2, alternating release runs).
        let (_, out, pmo) = cell.drive();
        let oracle = ProbeOracle::new(cell);
        CrashLegs {
            oracle,
            out,
            pmo,
            rng: SmallRng::seed_from_u64(rng_seed),
        }
    }

    /// Runs one leg. First the probe replays under the random fault
    /// schedule of `probe_seed` ([`ProbeOracle::check`]). Then a formal
    /// crash image of the driven run is sampled: interrupted-and-rerun
    /// `Strict` recovery of it must reconverge, and so must `Salvage`
    /// recovery of a copy with one log line of a random thread poisoned.
    ///
    /// # Errors
    ///
    /// The probe's divergence, or which reconvergence failed and how.
    pub fn run(&mut self, probe_seed: u64) -> Result<ProbeCheck, String> {
        let probe = self.oracle.check(probe_seed)?;
        let (layout, rng) = (&self.out.layout, &mut self.rng);
        let (crash, _) = crash_image(&self.pmo, &self.out.baseline, rng);
        recovery_reconverges(&crash, layout, RecoveryPolicy::Strict, rng)
            .map_err(|e| format!("strict reconvergence: {e}"))?;
        let mut damaged = crash;
        let victim = rng.gen_range(0..layout.threads());
        let log_line = layout.log_region(victim).base.line().raw();
        damaged.poison_line(LineAddr(log_line + 1 + rng.gen_range(0..4)));
        recovery_reconverges(&damaged, layout, RecoveryPolicy::Salvage, rng)
            .map_err(|e| format!("salvage reconvergence: {e}"))?;
        Ok(probe)
    }
}

/// What an injection campaign aims at. The round loop
/// ([`Experiment::run_fault_campaign`] and
/// [`Experiment::run_heap_fault_campaign`] share it) is the same for every
/// target; a target supplies only what differs.
trait FaultTarget {
    /// The report's `metrics` counter names, in JSON key order: injected,
    /// detected, quarantined owners, strict rejections, control rounds.
    const COUNTERS: [&'static str; 5];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::small;
    use sw_lang::{HwDesign, LangModel};

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
        let cell = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
        let err = cell.run_heap_report(true).unwrap_err();
        assert_eq!(
            err,
            "benchmark queue has no allocator-churn mode \
             (churn: hashmap, nstore-rd, nstore-bal, nstore-wr)"
        );
        assert_eq!(cell.run_heap_smoke(1).unwrap_err(), err);
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
}
