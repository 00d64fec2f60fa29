//! End-to-end experiment runner: workload → runtime lowering → ISA traces
//! → timing simulation, plus crash-consistency campaigns.
//!
//! [`Experiment`] is one cell (a benchmark under a language model on a
//! hardware design). Its timing run lives here; the rest is split by
//! concern:
//!
//! * `campaign` — the seeded campaigns over a cell (crash, log and
//!   allocator fault injection, allocator smoke, chaos) and
//!   [`CrashLegs`], the crash leg chaos and `sw-serve` share;
//! * `oracle` — [`ProbeOracle`] and [`order_extends_pmo`], which hold a
//!   machine's persist order to the formal PMO (paper Eq. 1–4);
//! * `report` — what each campaign measured, rendered as text and JSON;
//! * `sweep` — the design and chaos sweeps and [`fan_out`]'s pool.

mod campaign;
mod oracle;
mod report;
mod sweep;

pub use campaign::CrashLegs;
pub use oracle::{order_extends_pmo, ProbeCheck, ProbeOracle};
pub use report::{
    ChaosCampaignReport, ChaosSweepReport, ClassTally, FaultCampaignReport, HeapReport,
    HeapSmokeReport, PoolOccupancy,
};
pub use sweep::{chaos_sweep, design_sweep_of, fan_out, host_is_multicore};

use sw_lang::{HwDesign, LangModel, LogStrategy};
use sw_model::Pmo;
use sw_sim::{Machine, SimConfig, SimStats};
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
        machine.run()
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

    /// The failure formatter of `campaign` run for `rounds` rounds on this
    /// cell: maps a round and what went wrong in it to a message with the
    /// campaign's minimal reproducer attached.
    fn campaign_failure(
        &self,
        campaign: Campaign,
        rounds: usize,
    ) -> impl Fn(usize, String) -> String + '_ {
        move |round, detail| {
            format!(
                "round {round}: {detail}\n  seed {}: reproduce with `{}`",
                self.seed,
                self.repro_cmd(campaign, rounds)
            )
        }
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

    /// The salt XORed into the cell seed to seed the campaign's RNG, so
    /// the campaigns of one cell draw apart.
    fn salt(self) -> u64 {
        match self {
            Campaign::Crash => 0xc0ffee,
            Campaign::Faults => 0xfa017,
            Campaign::HeapFaults => 0x4ea9,
            Campaign::HeapSmoke => 0x4eaf,
            Campaign::Chaos => 0xc4a0_5eed,
        }
    }
}

/// A small cell for unit tests: two threads, 24 regions.
#[cfg(test)]
fn small(bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Experiment {
    Experiment::new(bench, lang, design)
        .threads(2)
        .total_regions(24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_pmem::{DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger};

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

    #[test]
    fn chaos_failures_embed_a_reproducer() {
        let e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).seed(123);
        let msg = e.campaign_failure(Campaign::Chaos, 5)(2, "boom".into());
        assert!(msg.contains("round 2: boom"), "{msg}");
        assert!(
            msg.contains("swctl chaos queue --lang txn --design strandweaver"),
            "{msg}"
        );
        assert!(msg.contains("--rounds 5 --seed 123"), "{msg}");
    }
}
