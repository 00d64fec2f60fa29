//! The cycle-stepped multicore machine core.
//!
//! The machine replays one ISA trace per core under a chosen hardware
//! design and reports cycle counts and stall breakdowns. Everything
//! design-specific — fence admission and retirement semantics, CLWB
//! enqueue policy, persist scheduling, drain conditions — lives behind the
//! [`PersistEngine`] trait ([`crate::engines`]);
//! this module owns the design-agnostic substrate: the cycle loop, caches
//! and coherence, locks, observability, and the PM/DRAM controllers. The
//! front-end issue stage is in [`crate::pipeline`], the store-queue and
//! write-back drains in [`crate::writeback`].
//!
//! [`Machine`] stores its [`HwDesign`], and [`Machine::run`] matches it
//! once: the cycle loop (`run_on`, `tick`, the front-end and the
//! store-queue drain) is monomorphized over that design's engine, so the
//! engine calls per core per cycle are statically dispatched and
//! inlinable. Everything else (observability, coherence, locks, the
//! flush action, the write-back and strand-buffer drains) is compiled
//! once for all designs.
//!
//! Each cycle:
//!
//! 1. sleeping cores whose wake time has come wake;
//! 2. the PM controller drains its ADR write queue (which can change the
//!    cause a persist-full stall charges);
//! 3. coherence steals whose snoop-buffer drain condition is met resolve,
//!    rousing their owner and requester;
//! 4. every awake core's back-end runs — the design's persist engine
//!    issues and retires CLWBs, then the store queue retires stores and
//!    write-backs drain;
//! 5. every awake core's front-end issues at most one trace operation,
//!    honoring the engine's fence semantics and queue capacities; right
//!    after it the core retires if it has drained, or falls asleep if its
//!    visit changed nothing.
//!
//! A tick visits only the awake cores, in index order, from a bitset over
//! the cores. A core that is done leaves the set, and so does a core that
//! *sleeps*: after a visit in which neither its back-end nor its front-end
//! changed anything, it sleeps until its wake time, the earliest of its
//! own timers (the end of its compute latency, its in-flight load and
//! store, its persist structures' earliest acknowledgement) and, while its
//! back-end holds work, of the PM controller's (the next write-queue drain
//! or fault-retry admission). Until then each visit would change nothing
//! again and charge the same stall or `mem_busy` cycle: only its own
//! front-end feeds its back-end, and the controller refuses what it
//! refused until one of those timers fires. Three actions of other cores
//! change what a sleeper's visit would do, and each rouses it: a resolved
//! coherence steal (the owner's L1 loses the line, the requester's access
//! gets its completion cycle), an `Unlock` of the lock it waits on first
//! in line, and a change of the cause a persist-full stall charges
//! ([`Machine::stall_persist_full`] reads it from PM state, which only a
//! drain or an offer changes). A core with no wake time — a lock waiter
//! with an idle back-end, an access held by a steal — sleeps until one of
//! those. Waking charges the note of the visit the core fell asleep after
//! ([`TickNote`]) once for every cycle it was not visited; an `Unlock`
//! charges a waiter above the releaser through the cycle before (its
//! front-end runs later in the same tick and takes the lock) and one below
//! through the release cycle (it has had its turn this tick). The sleep is
//! decided right after the core's own front-end, so an `Unlock` later in
//! the same tick still rouses it. A core whose wake is at most one cycle
//! ahead stays awake. The trace reports a sleeper's note as its stall.
//!
//! When a tick makes no architectural progress and leaves every core
//! asleep, nothing can happen before the earliest sleeper's wake or the
//! next write-queue drain, the one event that comes without a core's
//! visit, and the clock jumps straight there; the sleepers charge the
//! skipped cycles when they wake, so `SimStats` stay bit-identical to
//! single-stepping, faults included. With
//! `SimConfig::skip_ahead` off the clock never jumps and only sleeps
//! without a wake time apply, which makes it the single-stepping reference
//! of the equivalence tests. The visits that remain cost O(1) unless that
//! core's state changed:
//!
//! - the strand buffer unit and the flush engine keep their count of
//!   waiting CLWBs and their earliest pending completion current at push,
//!   issue and retire: the issue walk runs only while a CLWB waits,
//!   `tick_retire` returns at once before the earliest completion (and,
//!   for strand buffers, while no barrier has reached a buffer head), and
//!   a sleeping core's wake reads the completion instead of rescanning;
//! - a core waiting on a lock carries a queued flag instead of searching
//!   the lock's waiter ring.
//!
//! The one per-tick walk left is the store-queue lookup of a CLWB held
//! for an elder same-line store (at most `store_queue_entries` entries),
//! and a sleeping core skips it; a per-line count of queued stores did not
//! measurably shorten the figures sweep. Each cached answer keeps the scan
//! it replaced as a `debug_assert!` reference, and every tick that changed
//! anything asserts for each sleeping core what makes skipping it exact (a
//! tick that changed nothing cannot break it), so debug builds (every
//! tier-1 test) cross-check the caches and the sleeping as they run;
//! property tests in `strand_buffer.rs` and `persist.rs` drive them with
//! random operation sequences, the tests below compare skip-ahead against
//! single-stepping on each way a sleeper is roused,
//! `tests/dispatch_equivalence.rs` does so on random traces over tiny
//! write queues and persist structures with device faults, and
//! `tests/metrics_ledger.rs` on driven runs at two and eight cores, with
//! and without faults.
//!
//! Deadlock freedom follows the paper's argument: CLWBs wait for elder
//! same-line stores *before* entering the strand buffer unit (at the
//! persist-queue head, at HOPS's issue, or behind them in the store queue
//! of the design without a persist queue), never inside it, so strand
//! buffers always drain, which unblocks snoop stalls, which unblocks store
//! retirement.

use sw_model::isa::{FenceKind, IsaTrace, LockId};
use sw_model::HwDesign;
use sw_perf::{Lap, Phase, Profiler};
use sw_pmem::{LineAddr, PmLayout};
use sw_trace::{
    CounterId, GaugeId, HistogramId, MetricsRegistry, StallKind, TraceEvent, TraceSink,
};

use crate::cache::{Directory, LineSet};
use crate::config::SimConfig;
use crate::core::{Core, CoreSet, PendingAccess, Sleep, Writeback};
use crate::engines::{Eadr, Hops, Intel, NoPersistQueue, NonAtomic, PersistEngine, StrandWeaver};
use crate::memctrl::{DramController, PmController, WriteOutcome};
#[cfg(debug_assertions)]
use crate::persist::{ClwbState, FlushSlot};
use crate::ring::Ring;
use crate::stats::{EventCounts, SimStats};
use crate::strand_buffer::Sbu;

/// The one metric counter no simulator tally holds (see
/// [`MachineMetrics::persist_retries`]).
const PERSIST_RETRIES: &str = "faults.online.persist_retries";

/// Short fence mnemonic used in trace exports.
fn fence_label(kind: FenceKind) -> &'static str {
    match kind {
        FenceKind::PersistBarrier => "pb",
        FenceKind::NewStrand => "ns",
        FenceKind::JoinStrand => "js",
        FenceKind::Sfence => "sfence",
        FenceKind::Ofence => "ofence",
        FenceKind::Dfence => "dfence",
    }
}

#[derive(Debug)]
pub(crate) struct LockState {
    pub(crate) holder: Option<usize>,
    pub(crate) waiters: Ring<usize>,
}

impl LockState {
    fn new(waiter_capacity: usize) -> Self {
        Self {
            holder: None,
            waiters: Ring::new(waiter_capacity, 0),
        }
    }
}

/// What a core's frontend charged on its last visit. Exactly one note per
/// visit (the frontend returns after its first stall or wait), recorded
/// so a sleeping core's wake can replay the same accounting across every
/// cycle it slept, and read back as the trace's stall intervals. A
/// sleeping core keeps the note of the visit it fell asleep after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TickNote {
    /// Nothing charged (core done, idling below `busy_until`, or out of
    /// trace while its back-end drains).
    Idle,
    /// One `mem_busy` cycle (load outstanding).
    MemBusy,
    /// One stall cycle for the given cause.
    Stalled(StallKind),
}

#[derive(Debug)]
struct Steal {
    line: LineAddr,
    owner: usize,
    requester: usize,
    write: bool,
    /// Strand-buffer drain targets recorded at the owner when the steal
    /// arrived (the snoop-buffer tail indexes of Section IV).
    targets: Option<crate::strand_buffer::DrainTargets>,
}

/// Metric IDs registered by [`Machine::enable_metrics`], kept alongside
/// the registry so hot-path updates are plain vector writes.
///
/// Every other counter is a second report of a count the simulator already
/// tallies, so [`Machine::run`] reads it from that tally when the run
/// ends (see [`Machine::counter_ledger`]); only the gauges, the
/// histograms and `persist_retries` are updated in the cycle loop.
#[derive(Debug)]
struct MachineMetrics {
    reg: MetricsRegistry,
    /// Fault episodes an acceptance closed: successful retries plus sticky
    /// episodes that escalated to a remap. No tally holds that sum.
    persist_retries: CounterId,
    pm_queue_depth: GaugeId,
    pq_depth: Vec<GaugeId>,
    sb_occupancy: Vec<GaugeId>,
    pq_depth_hist: HistogramId,
    sb_occupancy_hist: HistogramId,
}

/// The simulated machine for one hardware design.
///
/// [`Machine::run`] runs the cycle loop over the design's
/// [`PersistEngine`], so every design-dispatch point in it is a static
/// call.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: SimConfig,
    /// The design whose engine [`Machine::run`] runs.
    design: HwDesign,
    layout: PmLayout,
    pub(crate) cycle: u64,
    pub(crate) cores: Vec<Core>,
    pub(crate) pm: PmController,
    dram: DramController,
    /// Lines present somewhere in the (effectively unbounded) shared L2.
    l2: LineSet,
    pub(crate) dir: Directory,
    /// Lock table indexed by `LockId`, grown on first touch.
    pub(crate) locks: Vec<LockState>,
    steals: Vec<Steal>,
    /// Optional event sink; `None` keeps every emit site to one branch.
    trace: Option<Box<dyn TraceSink>>,
    metrics: Option<MachineMetrics>,
    /// Self-profiler timing the tick phases; `None` is the disabled path
    /// (one branch per phase boundary, no clock reads).
    prof: Option<Box<Profiler>>,
    /// The discrete-event totals the cycle loop counts itself; the rest of
    /// [`EventCounts`] is read from other tallies when the run ends.
    pub(crate) events: EventCounts,
    /// Stall interval currently open in the trace, per core.
    stall_active: Vec<Option<StallKind>>,
    /// Persist order recorded at store retirement — populated only when
    /// the design persists at coherence visibility (eADR).
    pub(crate) visibility_order: Vec<LineAddr>,
    /// Set by any state mutation during the current tick; a tick that
    /// leaves it clear and every core asleep lets the clock jump.
    pub(crate) progress: bool,
    /// Per-core accounting note of the core's last visit (see
    /// [`TickNote`]).
    pub(crate) tick_note: Vec<TickNote>,
    /// The cores a tick visits: neither done nor asleep.
    awake: CoreSet,
    /// Cores not yet done.
    running: usize,
    /// No sleeper wakes by itself before this cycle.
    next_wake: u64,
    /// The cause a persist-full stall charges now (see
    /// [`Machine::stall_persist_full`]), kept current at each drain and
    /// offer.
    persist_full_cause: StallKind,
    /// The cycle at which an accepted write last closed a fault-retry
    /// episode (see [`Machine::rouse_after_episode`]).
    episode_closed_at: Option<u64>,
}

impl Machine {
    /// Builds a machine for `design` and one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if more traces than configured cores are supplied, or if the
    /// core count exceeds the directory's owner encoding (254).
    pub fn new(cfg: SimConfig, design: HwDesign, layout: PmLayout, traces: Vec<IsaTrace>) -> Self {
        assert!(traces.len() <= cfg.cores, "more traces than cores");
        assert!(
            cfg.cores < 255,
            "directory owner encoding supports at most 254 cores"
        );
        let mut cores: Vec<Core> = traces.into_iter().map(|t| Core::new(&cfg, t)).collect();
        while cores.len() < cfg.cores {
            cores.push(Core::new(&cfg, Vec::new()));
        }
        let mut pm = PmController::new(
            cfg.pm_write_queue,
            cfg.pm_write_ack_cycles,
            cfg.pm_drain_interval,
            cfg.pm_read_cycles,
            cfg.pm_read_interval,
        );
        // An empty schedule installs nothing: `DeviceFaultSchedule::none()`
        // must be observationally identical to no fault layer at all.
        if let Some(schedule) = cfg.device_faults.clone() {
            if !schedule.is_empty() {
                pm.install_faults(schedule);
            }
        }
        let dram = DramController::new(cfg.dram_cycles);
        let n = cores.len();
        Self {
            cfg,
            design,
            cycle: 0,
            cores,
            pm,
            dram,
            l2: LineSet::for_layout(&layout),
            dir: Directory::for_layout(&layout),
            layout,
            locks: Vec::new(),
            steals: Vec::new(),
            trace: None,
            metrics: None,
            prof: sw_perf::global_enabled().then(|| Box::new(Profiler::new())),
            events: EventCounts::default(),
            stall_active: vec![None; n],
            visibility_order: Vec::new(),
            progress: false,
            tick_note: vec![TickNote::Idle; n],
            awake: CoreSet::below(n),
            running: n,
            next_wake: u64::MAX,
            persist_full_cause: StallKind::PersistQueueFull,
            episode_closed_at: None,
        }
    }

    /// Attaches a trace sink; every subsequent event is recorded into it.
    /// Pass a cloned [`sw_trace::RingRecorder`] handle to read the events
    /// back after [`Machine::run`] consumes the machine.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Enables the metrics registry; its snapshot lands in
    /// [`SimStats::metrics`] when the run finishes.
    pub fn enable_metrics(&mut self) {
        let mut reg = MetricsRegistry::new();
        // Every counter is registered up front, in ledger order (which
        // fixes the JSON key order), so snapshots carry explicit zeros for
        // counts a design or a fault-free run never produces.
        for (name, _) in self.counter_ledger() {
            reg.counter(&name);
        }
        let persist_retries = reg.counter(PERSIST_RETRIES);
        let pm_queue_depth = reg.gauge("pm.write_queue_depth");
        let pq_depth = (0..self.cores.len())
            .map(|i| reg.gauge(&format!("core{i}.pq_depth")))
            .collect();
        let sb_occupancy = (0..self.cores.len())
            .map(|i| reg.gauge(&format!("core{i}.sb_occupancy")))
            .collect();
        let pq_depth_hist = reg.histogram("pq.depth");
        let sb_occupancy_hist = reg.histogram("sb.occupancy");
        self.metrics = Some(MachineMetrics {
            reg,
            persist_retries,
            pm_queue_depth,
            pq_depth,
            sb_occupancy,
            pq_depth_hist,
            sb_occupancy_hist,
        });
    }

    /// Every metric counter in registration order, each with its value
    /// read from the tally that owns the count: the per-core
    /// [`CoreStats`](crate::CoreStats), the run's [`EventCounts`] and the
    /// fault unit's online stats. [`PERSIST_RETRIES`] carries `None`: the
    /// cycle loop counts it in the registry itself.
    fn counter_ledger(&self) -> Vec<(String, Option<u64>)> {
        let ev = &self.events;
        let fences = self.cores.iter().map(|c| c.stats.fences).sum();
        let f = self.pm.online_stats().unwrap_or_default();
        let device_faults =
            f.transient_failures + f.lines_remapped + f.spares_exhausted + f.reads_poisoned;
        let named = |(name, value): (&str, Option<u64>)| (name.to_string(), value);
        let head = [
            ("pm.writes_accepted", Some(ev.pm_writes)),
            ("pm.persists_visible", Some(ev.persists_visible)),
            // Every enqueue is dequeued again before its core finishes.
            ("pq.enqueues", Some(ev.pq_events / 2)),
            ("sb.enqueues", Some(ev.sb_enqueues)),
            ("fence.retires", Some(fences)),
        ];
        let stalls = StallKind::ALL.map(|cause| {
            let cycles = self.cores.iter().map(|c| c.stats.stall_cycles(cause));
            (format!("stalls.{}", cause.label()), Some(cycles.sum()))
        });
        let faults = [
            ("faults.online.device_faults", Some(device_faults)),
            (PERSIST_RETRIES, None),
            ("faults.online.lines_remapped", Some(f.lines_remapped)),
            ("faults.online.reads_poisoned", Some(f.reads_poisoned)),
            ("faults.online.spares_exhausted", Some(f.spares_exhausted)),
        ];
        let head = head.into_iter().map(named);
        head.chain(stalls)
            .chain(faults.into_iter().map(named))
            .collect()
    }

    /// Installs a self-profiler for this machine regardless of the
    /// ambient [`sw_perf::set_global_enabled`] flag, for tests that must
    /// not flip process-global state (everything else profiles through
    /// that flag, which `SW_PERF=1` sets); the snapshot lands in
    /// [`SimStats::perf`] when the run finishes. Profiling only reads the
    /// monotonic clock — simulated results are bit-identical with and
    /// without it.
    pub fn enable_profiler(&mut self) {
        self.prof = Some(Box::new(Profiler::new()));
    }

    /// `true` when any observability consumer is attached. The disabled
    /// path costs exactly this check at each note site.
    #[inline]
    pub(crate) fn observing(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Closes the current profiling lap, attributing it to `phase`. One
    /// branch when profiling is off; one clock read when on.
    #[inline]
    fn lap(&mut self, lap: &mut Lap, phase: Phase) {
        if let Some(prof) = self.prof.as_mut() {
            lap.mark(prof, phase);
        }
    }

    #[inline]
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(self.cycle, event);
        }
    }

    /// The lock table entry for `l`, grown on first touch.
    pub(crate) fn lock_state(&mut self, l: LockId) -> &mut LockState {
        let idx = l.0 as usize;
        if idx >= self.locks.len() {
            let cores = self.cfg.cores;
            self.locks.resize_with(idx + 1, || LockState::new(cores));
        }
        &mut self.locks[idx]
    }

    /// Records that core `i` spent this cycle stalled for `cause`: bumps
    /// the core's stall counter and sets the per-cycle note that becomes a
    /// begin/end trace interval (and the record a sleeper's wake replays).
    #[inline]
    pub(crate) fn stall(&mut self, i: usize, cause: StallKind) {
        self.cores[i].stats.record_stall(cause);
        self.tick_note[i] = TickNote::Stalled(cause);
    }

    /// Records that core `i` stalled at a persist-admission point whose
    /// structure is full, attributing the cycle to the *root* cause: a
    /// fault-retry backoff at the PM controller, device write-queue
    /// back-pressure, or — absent both — the design's own persist
    /// structure. All three feed [`CoreStats::persist_stall_cycles`], so
    /// the Figure 8 aggregate is unchanged; the breakdown stays honest
    /// under faults. The cause is read from PM state, which only a drain
    /// and an offer change; [`Machine::refresh_persist_full_cause`] keeps
    /// it current at both and wakes the cores asleep on the old one.
    ///
    /// [`CoreStats::persist_stall_cycles`]: crate::stats::CoreStats::persist_stall_cycles
    #[inline]
    pub(crate) fn stall_persist_full(&mut self, i: usize) {
        debug_assert_eq!(self.persist_full_cause, self.pm_stall_cause());
        self.stall(i, self.persist_full_cause);
    }

    /// The persist-full stall cause the PM state gives.
    fn pm_stall_cause(&self) -> StallKind {
        if self.pm.retry_pending() {
            StallKind::RetryWait
        } else if self.pm.write_queue_full() {
            StallKind::PmWriteQueueFull
        } else {
            StallKind::PersistQueueFull
        }
    }

    /// Re-reads the persist-full stall cause after a drain or an offer.
    /// When it changed, every core asleep on a persist-full stall (whose
    /// note is the old cause, which was current when it fell asleep)
    /// wakes, charged the old cause through the cycle before: from this
    /// tick on its visit charges the new one (a drain comes before every
    /// visit of the tick, and an offer before every front-end).
    fn refresh_persist_full_cause(&mut self) {
        let cause = self.pm_stall_cause();
        let was = std::mem::replace(&mut self.persist_full_cause, cause);
        if cause != was {
            for i in 0..self.cores.len() {
                if self.tick_note[i] == TickNote::Stalled(was) {
                    self.rouse(i, self.cycle);
                }
            }
        }
    }

    /// Records the result of offering a write to the PM controller:
    /// acceptance flows into the usual accept accounting (plus retry /
    /// remap events when the acceptance closes a fault episode), a device
    /// fault emits a `DeviceFault` event on first failure. Returns the
    /// acknowledgement cycle when accepted.
    pub(crate) fn note_pm_outcome(&mut self, line: LineAddr, outcome: WriteOutcome) -> Option<u64> {
        let ack = match outcome {
            WriteOutcome::Accepted {
                ack_at,
                retried,
                remapped,
            } => {
                if retried.is_some() || remapped.is_some() {
                    self.note_fault_recovery(line, retried, remapped);
                }
                if retried.is_some() {
                    self.rouse_after_episode();
                }
                self.note_pm_accept(line);
                Some(ack_at)
            }
            // A refusal changes no PM state.
            WriteOutcome::QueueFull | WriteOutcome::RetryWait { .. } => return None,
            WriteOutcome::RemapExhausted { line } => {
                // The device failed the line permanently: surface the
                // typed event so the layer above can fail the device
                // over (the write itself parks, exactly like RetryWait
                // at u64::MAX).
                self.emit(TraceEvent::SparesExhausted { line: line.0 });
                None
            }
            WriteOutcome::Faulted { attempts, .. } => {
                if attempts == 1 {
                    // First failure of the episode: the fault itself.
                    self.emit(TraceEvent::DeviceFault {
                        line: line.0,
                        class: "transient",
                    });
                }
                None
            }
        };
        self.refresh_persist_full_cause();
        ack
    }

    /// An accepted write closed a line's fault-retry episode: a write of
    /// that line that another core holds is admissible from now on, and
    /// a wake that core computed counted at most the back-off's end. So
    /// every sleeper whose back-end holds work wakes at once: one above
    /// the accepting core offers later this tick, one below it (whose
    /// back-end turn has passed) in the next. Through [`Machine::pm_wake`]
    /// a core that settles later this tick with back-end work stays
    /// awake for the next cycle.
    fn rouse_after_episode(&mut self) {
        self.episode_closed_at = Some(self.cycle);
        for j in 0..self.cores.len() {
            if !self.cores[j].backend_idle() {
                self.rouse(j, self.cycle);
            }
        }
    }

    /// Records an acceptance that closed a fault episode: a successful
    /// retry, a newly created remap, or a write following an existing
    /// redirect.
    fn note_fault_recovery(
        &mut self,
        line: LineAddr,
        retried: Option<u32>,
        remapped: Option<(LineAddr, bool)>,
    ) {
        if let Some(attempts) = retried {
            if let Some(m) = self.metrics.as_mut() {
                m.reg.inc(m.persist_retries);
            }
            self.emit(TraceEvent::PersistRetried {
                line: line.0,
                attempts,
            });
        }
        if let Some((spare, newly)) = remapped {
            if newly {
                self.emit(TraceEvent::DeviceFault {
                    line: line.0,
                    class: "permanent",
                });
                self.emit(TraceEvent::LineRemapped {
                    from: line.0,
                    to: spare.0,
                });
            }
        }
    }

    /// Records a poisoned PM read (MCE-style uncorrectable error).
    pub(crate) fn note_read_poisoned(&mut self, line: LineAddr) {
        self.emit(TraceEvent::DeviceFault {
            line: line.0,
            class: "read_poison",
        });
    }

    /// Records that core `i` spent this cycle waiting on an outstanding
    /// load (one `mem_busy` cycle, replayed across the cycles it sleeps).
    #[inline]
    pub(crate) fn note_mem_busy_wait(&mut self, i: usize) {
        self.cores[i].stats.mem_busy += 1;
        self.tick_note[i] = TickNote::MemBusy;
    }

    /// Records a persist-queue occupancy change on core `i`.
    pub(crate) fn note_pq(&mut self, i: usize, enqueue: bool) {
        self.events.pq_events += 1;
        if !self.observing() {
            return;
        }
        let depth = self.cores[i].pq.len() as u32;
        if let Some(m) = self.metrics.as_mut() {
            m.reg.set(m.pq_depth[i], depth.into());
            m.reg.observe(m.pq_depth_hist, depth.into());
        }
        let core = i as u32;
        self.emit(if enqueue {
            TraceEvent::PqEnqueue { core, depth }
        } else {
            TraceEvent::PqDequeue { core, depth }
        });
    }

    /// Records an append to core `i`'s ongoing strand buffer.
    pub(crate) fn note_sb_enqueue(&mut self, i: usize) {
        self.events.sb_enqueues += 1;
        if self.observing() {
            let buffer = self.cores[i].sbu.as_ref().map_or(0, Sbu::ongoing_index);
            self.note_sb_occupancy(i, buffer, true);
        }
    }

    /// Records a retirement from strand buffer `buffer` of core `i`.
    pub(crate) fn note_sb_retired(&mut self, i: usize, buffer: usize) {
        if self.observing() {
            self.note_sb_occupancy(i, buffer, false);
        }
    }

    /// Updates the occupancy gauge and histogram after an append to or a
    /// retirement from strand buffer `buffer` of core `i`, and emits the
    /// event.
    fn note_sb_occupancy(&mut self, i: usize, buffer: usize, enqueue: bool) {
        let Some(sbu) = self.cores[i].sbu.as_ref() else {
            return;
        };
        let occupancy = sbu.buffer_len(buffer) as u32;
        let total = sbu.len() as u64;
        if let Some(m) = self.metrics.as_mut() {
            m.reg.set(m.sb_occupancy[i], total);
            m.reg.observe(m.sb_occupancy_hist, occupancy.into());
        }
        let (core, buffer) = (i as u32, buffer as u32);
        self.emit(if enqueue {
            TraceEvent::SbEnqueue {
                core,
                buffer,
                occupancy,
            }
        } else {
            TraceEvent::SbRetire {
                core,
                buffer,
                occupancy,
            }
        });
    }

    /// Records an ADR PM controller acceptance of `line` — the durability
    /// point of controller-ordered designs.
    pub(crate) fn note_pm_accept(&mut self, line: LineAddr) {
        if !self.observing() {
            return;
        }
        let queue_depth = self.pm.write_queue_len() as u32;
        if let Some(m) = self.metrics.as_mut() {
            m.reg.set(m.pm_queue_depth, queue_depth.into());
        }
        self.emit(TraceEvent::AdrAccept {
            line: line.0,
            queue_depth,
        });
    }

    /// Records a store becoming durable at coherence visibility — the
    /// durability point of battery-backed (eADR) designs.
    pub(crate) fn note_persist_visible(&mut self, i: usize, line: LineAddr) {
        self.emit(TraceEvent::PersistVisible {
            core: i as u32,
            line: line.0,
        });
    }

    /// Records that a fence's issue condition was satisfied on core `i`.
    pub(crate) fn note_fence_retire(&mut self, i: usize, kind: FenceKind) {
        self.emit(TraceEvent::FenceRetire {
            core: i as u32,
            kind: fence_label(kind),
        });
    }

    /// Turns this cycle's stall notes into `StallBegin` / `StallEnd`
    /// interval events. A sleeping core's note is the one it charges every
    /// cycle it sleeps.
    fn reconcile_stalls(&mut self) {
        for i in 0..self.cores.len() {
            let now = match self.tick_note[i] {
                TickNote::Stalled(cause) => Some(cause),
                TickNote::Idle | TickNote::MemBusy => None,
            };
            if now == self.stall_active[i] {
                continue;
            }
            if let Some(prev) = self.stall_active[i] {
                self.emit(TraceEvent::StallEnd {
                    core: i as u32,
                    cause: prev,
                });
            }
            if let Some(cause) = now {
                self.emit(TraceEvent::StallBegin {
                    core: i as u32,
                    cause,
                });
            }
            self.stall_active[i] = now;
        }
    }

    /// Preloads lines into the shared L2 (e.g. the lines a setup phase
    /// wrote), so a steady-state timing run does not pay cold-device
    /// latencies for data that would be cache-resident after warmup.
    pub fn preload_l2<I: IntoIterator<Item = LineAddr>>(&mut self, lines: I) {
        for line in lines {
            self.l2.insert(line);
        }
    }

    /// Runs to completion and returns the statistics.
    ///
    /// This is the simulator's one `match` on the design: it picks the
    /// engine the cycle loop runs over, so a design without an arm here
    /// fails to compile.
    ///
    /// # Panics
    ///
    /// Panics on a deadlock — a tick made no progress and no event is
    /// scheduled — naming spare-pool exhaustion when the fault unit parked
    /// a line for good, and if the configured cycle bound is exceeded (a
    /// modelling bug).
    pub fn run(mut self) -> SimStats {
        match self.design {
            HwDesign::IntelX86 => self.run_on::<Intel>(),
            HwDesign::Hops => self.run_on::<Hops>(),
            HwDesign::NoPersistQueue => self.run_on::<NoPersistQueue>(),
            HwDesign::StrandWeaver => self.run_on::<StrandWeaver>(),
            HwDesign::NonAtomic => self.run_on::<NonAtomic>(),
            HwDesign::Eadr => self.run_on::<Eadr>(),
        }
        let cycles = self
            .cores
            .iter()
            .map(|c| c.stats.done_cycle)
            .max()
            .unwrap_or(0);
        // Close any stall interval still open when the machine drained.
        if self.trace.is_some() {
            for i in 0..self.cores.len() {
                if let Some(cause) = self.stall_active[i].take() {
                    self.emit(TraceEvent::StallEnd {
                        core: i as u32,
                        cause,
                    });
                }
            }
        }
        // Event totals other tallies already own, then every metric
        // counter but the retries the loop counted itself.
        self.events.frontend_ops = self.cores.iter().map(|c| c.stats.ops).sum();
        self.events.store_retires = self.cores.iter().map(|c| c.stats.stores).sum();
        self.events.pm_writes = self.pm.write_order.len() as u64;
        self.events.persists_visible = self.visibility_order.len() as u64;
        let ledger = self.counter_ledger();
        if let Some(m) = self.metrics.as_mut() {
            for (name, value) in ledger {
                if let Some(value) = value {
                    let id = m.reg.counter(&name);
                    m.reg.add(id, value);
                }
            }
        }
        let pm_write_order = if self.design.persists_at_visibility() {
            std::mem::take(&mut self.visibility_order)
        } else {
            std::mem::take(&mut self.pm.write_order)
        };
        let perf = self.prof.take().map(|p| p.snapshot());
        if let Some(snap) = &perf {
            // Sweep-cell worker threads all merge into the ambient
            // aggregate, so `SW_PERF=1` can attribute a whole sweep
            // without plumbing a handle per machine.
            if sw_perf::global_enabled() {
                sw_perf::global_merge(snap);
            }
            for p in snap.phases.clone() {
                self.emit(TraceEvent::PerfPhase {
                    phase: p.phase,
                    nanos: p.nanos,
                    calls: p.calls,
                });
            }
        }
        SimStats {
            cycles,
            cores: self.cores.into_iter().map(|c| c.stats).collect(),
            pm_write_order,
            metrics: self
                .metrics
                .as_ref()
                .map(|m| m.reg.snapshot())
                .unwrap_or_default(),
            events: self.events,
            online_faults: self.pm.online_stats(),
            perf,
        }
    }

    /// Attaches `E`'s persist structures to every core, then steps the
    /// cycle loop until every core is done.
    fn run_on<E: PersistEngine>(&mut self) {
        for core in &mut self.cores {
            E::setup_core(core, &self.cfg);
        }
        while self.running > 0 {
            self.progress = false;
            self.tick::<E>();
            assert!(
                self.cycle < self.cfg.max_cycles,
                "simulation exceeded cycle bound"
            );
            if !self.progress && self.awake.next_from(0).is_none() {
                self.skip_to_next_wake();
            }
        }
    }

    pub(crate) fn is_persistent_line(&self, line: LineAddr) -> bool {
        self.layout.is_persistent(line.base())
    }

    fn tick<E: PersistEngine>(&mut self) {
        // Phase boundaries mirror the statement order below; the lap chain
        // costs one clock read per boundary when profiling, one branch on
        // the `prof` discriminant when not. The phases never reorder or
        // gate any simulation work, so results are bit-identical either
        // way.
        let mut lap = Lap::begin(self.prof.is_some());
        if self.cycle >= self.next_wake {
            self.wake_due();
        }
        if self.pm.tick(self.cycle) > 0 {
            self.progress = true;
            self.refresh_persist_full_cause();
        }
        self.lap(&mut lap, Phase::Memctrl);
        self.process_steals();
        self.lap(&mut lap, Phase::Coherence);
        // Only awake cores are visited: a sleeper's visit would change
        // nothing (see `settle`). `progress` is taken per core, so each
        // core's visit can tell whether it changed anything.
        let mut progress = self.progress;
        let mut moved = CoreSet::default();
        let mut next = self.awake.next_from(0);
        while let Some(i) = next {
            self.progress = false;
            E::backend(self, i);
            self.lap(&mut lap, Phase::Engine);
            self.backend_sq::<E>(i);
            self.lap(&mut lap, Phase::StoreQueue);
            self.backend_wb(i);
            self.lap(&mut lap, Phase::Writeback);
            if self.progress {
                moved.insert(i);
                progress = true;
            }
            next = self.awake.next_from(i + 1);
        }
        // Re-read after each core: an unlock can rouse a waiter above the
        // releaser, which then takes the lock in this same pass.
        let mut next = self.awake.next_from(0);
        while let Some(i) = next {
            self.progress = false;
            self.tick_note[i] = TickNote::Idle;
            self.frontend::<E>(i);
            let still = !self.progress && !moved.contains(i);
            self.settle(i, still);
            progress |= self.progress;
            next = self.awake.next_from(i + 1);
        }
        self.progress = progress;
        // A tick that changed nothing cannot break a sleeper's invariant.
        #[cfg(debug_assertions)]
        if progress {
            for i in 0..self.cores.len() {
                if let Some(sleep) = self.cores[i].sleep {
                    self.assert_sleep_holds(i, sleep);
                }
            }
        }
        self.lap(&mut lap, Phase::Frontend);
        if self.trace.is_some() {
            self.reconcile_stalls();
        }
        self.lap(&mut lap, Phase::Observe);
        self.cycle += 1;
        self.lap(&mut lap, Phase::Retire);
    }

    // ------------------------------------------------------------------
    // Sleeping cores.
    // ------------------------------------------------------------------

    /// Settles core `i` right after its front-end, before any higher-index
    /// core acts this tick (so an `Unlock` later in the tick can still
    /// rouse it): retires it once it has issued and drained everything, or
    /// puts it to sleep when its visit changed nothing of its own
    /// (`still`), until its [`Machine::wake_time`] or, with none, until a
    /// rouse. It stays awake when its wake is at most one cycle ahead;
    /// with [`SimConfig::skip_ahead`] off, only a sleep without a wake
    /// time applies.
    fn settle(&mut self, i: usize, still: bool) {
        let core = &mut self.cores[i];
        if core.fully_drained() && self.cycle >= core.busy_until {
            core.done = true;
            core.stats.done_cycle = self.cycle;
            self.awake.remove(i);
            self.running -= 1;
            self.progress = true;
            return;
        }
        if !still {
            return;
        }
        let until = self.wake_time(i);
        if let Some(t) = until {
            if t <= self.cycle + 1 || !self.cfg.skip_ahead {
                return;
            }
            self.next_wake = self.next_wake.min(t);
        }
        self.cores[i].sleep = Some(Sleep {
            since: self.cycle + 1,
            until,
        });
        self.awake.remove(i);
    }

    /// The first cycle after this one at which a visit of core `i` could
    /// change anything unless another core rouses it: the earliest of its
    /// own timers, and, while its back-end holds work, the
    /// [`Machine::pm_wake`]. `None` when nothing is scheduled for it.
    fn wake_time(&self, i: usize) -> Option<u64> {
        let now = self.cycle;
        let core = &self.cores[i];
        let pm = (!core.backend_idle()).then(|| self.pm_wake());
        let mut wake = pm.flatten().unwrap_or(u64::MAX);
        core.timers(|t| {
            if t > now {
                wake = wake.min(t);
            }
        });
        (wake != u64::MAX).then_some(wake)
    }

    /// The first cycle after this one at which the PM controller can admit
    /// a write it refused, if any: the next write-queue drain while the
    /// queue holds anything (one already due counts as the next cycle), or
    /// the end of a fault-retry back-off. A CLWB offers its write one L1
    /// lookup after its cycle, so a line in back-off until `t` admits it
    /// from `t - l1_hit_cycles` on, and a write-back from `t`. Every line's
    /// back-off counts, not only the one that ends first: a back-off
    /// already over admitted all this tick offered, and a line parked for
    /// good admits nothing. A back-off that another write ended this tick
    /// admits from the next cycle what back-ends offered before that
    /// write.
    fn pm_wake(&self) -> Option<u64> {
        let (now, lookup) = (self.cycle, self.cfg.l1_hit_cycles);
        let drain = self.pm.next_drain().map(|t| t.max(now + 1));
        let clwb = self.pm.next_retry_after(now + lookup).map(|t| t - lookup);
        let writeback = self.pm.next_retry_after(now);
        let closed = (self.episode_closed_at == Some(now)).then_some(now + 1);
        [drain, clwb, writeback, closed].into_iter().flatten().min()
    }

    /// Wakes every sleeper whose wake time has come, at the start of a
    /// tick, and finds the next such time.
    fn wake_due(&mut self) {
        let mut next = u64::MAX;
        for i in 0..self.cores.len() {
            match self.cores[i].sleep.and_then(|s| s.until) {
                Some(t) if t <= self.cycle => self.rouse(i, self.cycle),
                Some(t) => next = next.min(t),
                None => {}
            }
        }
        self.next_wake = next;
    }

    /// Wakes core `i` if it sleeps, charging its note once for every cycle
    /// from the first it was not visited up to `through` (exclusive).
    pub(crate) fn rouse(&mut self, i: usize, through: u64) {
        if let Some(sleep) = self.cores[i].sleep.take() {
            self.charge(i, through - sleep.since);
            self.awake.insert(i);
        }
    }

    /// Charges core `i`'s note `n` times: the replay of `n` visits.
    fn charge(&mut self, i: usize, n: u64) {
        match self.tick_note[i] {
            TickNote::Idle => {}
            TickNote::MemBusy => self.cores[i].stats.mem_busy += n,
            TickNote::Stalled(cause) => self.cores[i].stats.record_stall_n(cause, n),
        }
    }

    /// Asserts what makes skipping sleeping core `i` this tick exact: no
    /// timer of its own fires before its wake; the PM controller refuses
    /// every write its back-end would offer until then (the line stays in
    /// fault-retry back-off, or the write queue stays full, through the
    /// last cycle before the wake); and if it waits on a lock, the lock has
    /// a holder or the core is not first in line.
    #[cfg(debug_assertions)]
    fn assert_sleep_holds(&self, i: usize, sleep: Sleep) {
        let core = &self.cores[i];
        let wake = sleep.until.unwrap_or(u64::MAX);
        let at = self.cycle;
        core.timers(|t| {
            assert!(
                t < sleep.since || t >= wake,
                "core {i} sleeps through its timer at {t} (wake {wake}) at cycle {at}"
            );
        });
        let full = self.pm.write_queue_full() && self.pm.next_drain() >= Some(wake);
        for (line, lookup) in self.pm_offers(i) {
            let held = self.pm.backoff_until(line);
            assert!(
                full || held.is_some_and(|t| t >= wake.saturating_add(lookup)),
                "core {i} sleeps through a PM write of {line:?} (back-off {held:?}, wake {wake}) \
                 it could offer at cycle {at}"
            );
        }
        if core.lock_queued {
            let Some(&sw_model::isa::IsaOp::Lock(l)) = core.trace.get(core.pc) else {
                panic!("core {i} is queued on a lock it does not wait for");
            };
            let st = &self.locks[l.0 as usize];
            assert!(
                st.holder.is_some() || st.waiters.front() != Some(&i),
                "core {i} sleeps first in line for free lock {} at cycle {at}",
                l.0
            );
        }
    }

    /// The writes a back-end visit of core `i` would offer the PM
    /// controller, each with the cycles from the visit to the offer: a
    /// strand-buffer CLWB or flush slot ready to issue (one L1 lookup), and
    /// a write-back past its drain targets (none).
    #[cfg(debug_assertions)]
    fn pm_offers(&self, i: usize) -> Vec<(LineAddr, u64)> {
        let (core, lookup) = (&self.cores[i], self.cfg.l1_hit_cycles);
        let sbu = core.sbu.as_ref();
        let mut offers = Vec::new();
        let mut next = sbu.and_then(|sbu| sbu.next_issuable(0, 0));
        while let Some((b, k, line)) = next {
            offers.push((line, lookup));
            next = sbu.and_then(|sbu| sbu.next_issuable(b, k + 1));
        }
        let slots = core.flush.as_ref().map_or(&[][..], |f| f.slots());
        let ready = |s: &&FlushSlot| s.state == ClwbState::Waiting && !core.sq_has_store_to(s.line);
        offers.extend(slots.iter().filter(ready).map(|s| (s.line, lookup)));
        let drained = |w: &&Writeback| w.targets.zip(sbu).is_none_or(|(t, s)| s.drained_past(&t));
        offers.extend(core.wb.iter().filter(drained).map(|w| (w.line, 0)));
        offers
    }

    /// Moves the clock after a tick without progress that left every core
    /// asleep, to the first cycle at which anything can happen: the
    /// earliest sleeper's wake or, if sooner, the next write-queue drain,
    /// which comes whether or not a core waits for it. With neither
    /// scheduled the machine is deadlocked, in both stepping modes; with
    /// [`SimConfig::skip_ahead`] off the clock keeps single-stepping.
    fn skip_to_next_wake(&mut self) {
        let next = self.next_wake.min(self.pm.next_drain().unwrap_or(u64::MAX));
        if next == u64::MAX {
            self.deadlock()
        }
        debug_assert!(
            self.cores
                .iter()
                .all(|c| c.done || c.sleep.is_some_and(|s| s.until.is_none_or(|t| t >= next))),
            "the clock jumps from {} to {next} past a core that is awake or wakes sooner",
            self.cycle
        );
        if self.cfg.skip_ahead {
            self.cycle = next.min(self.cfg.max_cycles);
        }
    }

    /// Panics for a deadlock found at the current cycle. A line the fault
    /// unit parked for good (spare-pool exhaustion) is named as the cause:
    /// the write-back holding it can never drain.
    fn deadlock(&self) -> ! {
        match self.pm.parked_line() {
            Some(line) => panic!(
                "simulation deadlocked at cycle {}: spare pool exhausted, line {line:#x} \
                 failed for good and the write holding it never drains",
                self.cycle
            ),
            None => panic!(
                "simulation deadlocked at cycle {}: no core progressed and nothing is scheduled",
                self.cycle
            ),
        }
    }

    // ------------------------------------------------------------------
    // Coherence.
    // ------------------------------------------------------------------

    /// Begins a fetch of `line` for core `i`. Returns the completion cycle,
    /// or `None` if a coherence steal is in flight (the caller's pending
    /// access resolves later).
    pub(crate) fn start_fetch(&mut self, i: usize, line: LineAddr, write: bool) -> Option<u64> {
        if let Some(owner) = self.dir.dirty_owner(line) {
            if owner != i {
                let targets = self.cores[owner].sbu.as_ref().map(Sbu::drain_targets);
                self.steals.push(Steal {
                    line,
                    owner,
                    requester: i,
                    write,
                    targets,
                });
                return None;
            }
        }
        let latency = if self.l2.contains(line) {
            self.cfg.l2_hit_cycles
        } else {
            self.l2.insert(line);
            if self.is_persistent_line(line) {
                // Cold write-allocations stream from the controller (see
                // DESIGN.md): reads pay the device latency, stores do not.
                if write {
                    self.cfg.l2_hit_cycles
                } else {
                    let r = self.pm.read(line, self.cycle);
                    if r.poisoned {
                        self.note_read_poisoned(line);
                    }
                    r.done_at - self.cycle
                }
            } else {
                self.dram.access(self.cycle) - self.cycle
            }
        };
        self.install(i, line, write);
        Some(self.cycle + latency)
    }

    /// Installs `line` in core `i`'s L1 and handles the eviction.
    fn install(&mut self, i: usize, line: LineAddr, dirty: bool) {
        if dirty && self.is_persistent_line(line) {
            self.dir.set_dirty_owner(line, i);
        }
        if let Some(ev) = self.cores[i].l1.install(line, dirty) {
            if ev.dirty {
                self.dir.clear_dirty_owner(ev.line);
                if self.is_persistent_line(ev.line) {
                    let targets = self.cores[i].sbu.as_ref().map(Sbu::drain_targets);
                    self.cores[i].wb.push(Writeback {
                        line: ev.line,
                        targets,
                    });
                }
                // Volatile dirty evictions drain to DRAM for free.
            }
        }
    }

    fn process_steals(&mut self) {
        if self.steals.is_empty() {
            return;
        }
        // Take the vector (keeping its allocation) so resolution can
        // borrow the machine mutably; unresolved steals are retained in
        // arrival order.
        let mut steals = std::mem::take(&mut self.steals);
        steals.retain(|s| {
            let drained = match (&s.targets, self.cores[s.owner].sbu.as_ref()) {
                (Some(t), Some(sbu)) => sbu.drained_past(t),
                _ => true,
            };
            if !drained {
                return true;
            }
            self.progress = true;
            self.events.steals += 1;
            // Both cores' state changes here, so a sleeper among them
            // wakes to be visited this tick.
            self.rouse(s.owner, self.cycle);
            self.rouse(s.requester, self.cycle);
            let was_dirty = self.cores[s.owner].l1.invalidate(s.line);
            self.dir.clear_dirty_owner(s.line);
            self.l2.insert(s.line);
            self.install(s.requester, s.line, was_dirty || s.write);
            let ready = self.cycle + self.cfg.coherence_transfer_cycles + self.cfg.l1_hit_cycles;
            let core = &mut self.cores[s.requester];
            let matches_pending = |p: &PendingAccess| p.line == s.line && p.ready_at.is_none();
            if core.load_pending.as_ref().is_some_and(matches_pending) {
                core.load_pending.as_mut().expect("checked").ready_at = Some(ready);
            } else if core.store_pending.as_ref().is_some_and(matches_pending) {
                core.store_pending.as_mut().expect("checked").ready_at = Some(ready);
            }
            false
        });
        self.steals = steals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_model::isa::IsaOp;
    use sw_pmem::Addr;

    fn layout() -> PmLayout {
        PmLayout::new(2, 64)
    }

    fn cfg(cores: usize) -> SimConfig {
        SimConfig::table_i().with_cores(cores)
    }

    fn run(design: HwDesign, traces: Vec<IsaTrace>) -> SimStats {
        let n = traces.len();
        Machine::new(cfg(n), design, layout(), traces).run()
    }

    fn heap(k: u64) -> Addr {
        layout().heap_base().offset_words(8 * k)
    }

    /// `n` log/update pairs lowered the way `sw-lang` lowers them for each
    /// design (straight from the design's `DesignLowering` table), with
    /// distinct log and data lines per pair.
    fn pair_trace(design: HwDesign, n: u64) -> IsaTrace {
        let low = design.lowering();
        let mut t = Vec::new();
        for k in 0..n {
            let log = heap(1000 + 8 * k);
            let data = heap(8 * k);
            t.push(IsaOp::Store(log));
            t.push(IsaOp::Clwb(log));
            if let Some(f) = low.pairwise {
                t.push(IsaOp::Fence(f));
            }
            t.push(IsaOp::Store(data));
            t.push(IsaOp::Clwb(data));
            if let Some(f) = low.after_update {
                t.push(IsaOp::Fence(f));
            }
        }
        if let Some(f) = low.drain {
            t.push(IsaOp::Fence(f));
        }
        t
    }

    #[test]
    fn empty_machine_finishes() {
        let stats = run(HwDesign::StrandWeaver, vec![vec![]]);
        assert_eq!(stats.cores[0].ops, 0);
    }

    #[test]
    fn compute_trace_takes_expected_cycles() {
        let stats = run(HwDesign::StrandWeaver, vec![vec![IsaOp::Compute(100)]]);
        assert!(
            stats.cycles >= 100 && stats.cycles < 110,
            "cycles = {}",
            stats.cycles
        );
    }

    #[test]
    fn single_persist_completes_after_controller_ack() {
        let a = heap(0);
        let t = vec![
            IsaOp::Store(a),
            IsaOp::Clwb(a),
            IsaOp::Fence(FenceKind::JoinStrand),
        ];
        let stats = run(HwDesign::StrandWeaver, vec![t]);
        assert_eq!(stats.total_clwbs(), 1);
        assert!(
            stats.cycles >= SimConfig::table_i().pm_write_ack_cycles,
            "JoinStrand must wait out the controller acknowledgement; cycles = {}",
            stats.cycles
        );
    }

    #[test]
    fn sfence_stalls_until_flush_completes() {
        let a = heap(0);
        let b = heap(8);
        let t = vec![
            IsaOp::Store(a),
            IsaOp::Clwb(a),
            IsaOp::Fence(FenceKind::Sfence),
            IsaOp::Store(b),
            IsaOp::Clwb(b),
            IsaOp::Fence(FenceKind::Sfence),
        ];
        let stats = run(HwDesign::IntelX86, vec![t]);
        assert!(stats.cycles >= 2 * SimConfig::table_i().pm_write_ack_cycles);
        assert!(stats.cores[0].stall_fence > 100);
    }

    #[test]
    fn figure4_running_example() {
        // CLWB(A); PB; CLWB(B); NS; CLWB(C); JS; CLWB(D) — C drains
        // concurrently with A; B waits for A; D waits for all.
        let (a, b, c, d) = (heap(0), heap(8), heap(16), heap(24));
        let mut t = Vec::new();
        for &x in &[a, b, c, d] {
            t.push(IsaOp::Store(x));
        }
        t.extend([
            IsaOp::Clwb(a),
            IsaOp::Fence(FenceKind::PersistBarrier),
            IsaOp::Clwb(b),
            IsaOp::Fence(FenceKind::NewStrand),
            IsaOp::Clwb(c),
            IsaOp::Fence(FenceKind::JoinStrand),
            IsaOp::Clwb(d),
            IsaOp::Fence(FenceKind::JoinStrand),
        ]);
        let stats = run(HwDesign::StrandWeaver, vec![t]);
        assert_eq!(stats.total_clwbs(), 4);
        // A and C overlap; B is serialized after A; D after everything:
        // roughly 3 acks of latency, definitely less than 4 serial acks.
        let ack = SimConfig::table_i().pm_write_ack_cycles;
        assert!(stats.cycles >= 3 * ack, "cycles = {}", stats.cycles);
        assert!(stats.cycles < 4 * ack + 200, "cycles = {}", stats.cycles);
    }

    #[test]
    fn design_performance_ordering_on_pair_workload() {
        let n = 64;
        let cycles: Vec<(HwDesign, u64)> = HwDesign::ALL
            .iter()
            .map(|&d| (d, run(d, vec![pair_trace(d, n)]).cycles))
            .collect();
        let get = |d: HwDesign| cycles.iter().find(|(x, _)| *x == d).expect("present").1;
        let intel = get(HwDesign::IntelX86);
        let hops = get(HwDesign::Hops);
        let nopq = get(HwDesign::NoPersistQueue);
        let sw = get(HwDesign::StrandWeaver);
        let non_atomic = get(HwDesign::NonAtomic);
        let eadr = get(HwDesign::Eadr);
        assert!(sw < hops, "strands beat epochs: sw={sw} hops={hops}");
        assert!(
            hops < intel,
            "delegated ordering beats core stalls: hops={hops} intel={intel}"
        );
        assert!(
            non_atomic <= sw,
            "no ordering is the lower bound: na={non_atomic} sw={sw}"
        );
        assert!(
            nopq <= intel,
            "intermediate design still beats intel: nopq={nopq}"
        );
        assert!(
            eadr <= non_atomic,
            "free durability beats buffered flushes: eadr={eadr} na={non_atomic}"
        );
        // On this store-light microtrace the persist queue's advantage over
        // the store-queue path is marginal (it shows up under store-heavy
        // workloads — see the bench harness); allow a small tolerance.
        assert!(sw <= nopq + nopq / 50, "sw={sw} nopq={nopq}");
    }

    #[test]
    fn strandweaver_outperformance_is_substantial() {
        let n = 64;
        let intel = run(HwDesign::IntelX86, vec![pair_trace(HwDesign::IntelX86, n)]).cycles;
        let sw = run(
            HwDesign::StrandWeaver,
            vec![pair_trace(HwDesign::StrandWeaver, n)],
        )
        .cycles;
        let speedup = intel as f64 / sw as f64;
        assert!(
            speedup > 1.2,
            "expected a material speedup, got {speedup:.2}x"
        );
    }

    #[test]
    fn eadr_persist_order_is_store_visibility_order() {
        let (a, b, c) = (heap(0), heap(8), heap(16));
        let t = vec![
            IsaOp::Store(a),
            IsaOp::Clwb(a), // architectural no-op
            IsaOp::Store(b),
            IsaOp::Clwb(b),
            IsaOp::Store(c),
            IsaOp::Fence(FenceKind::JoinStrand), // degenerates to a SQ drain
        ];
        let stats = run(HwDesign::Eadr, vec![t]);
        assert_eq!(
            stats.pm_write_order,
            vec![a.line(), b.line(), c.line()],
            "persist order is the store visibility order"
        );
        assert_eq!(stats.total_clwbs(), 2, "CLWBs still count as issued");
        assert_eq!(stats.cores[0].stall_pq_full, 0, "no persist structure");
    }

    #[test]
    fn eadr_emits_persist_visible_events() {
        use sw_trace::RingRecorder;
        let t = pair_trace(HwDesign::Eadr, 8);
        let mut m = Machine::new(cfg(1), HwDesign::Eadr, layout(), vec![t]);
        let rec = RingRecorder::new(1 << 16);
        m.set_trace_sink(Box::new(rec.clone()));
        let stats = m.run();
        let visible = rec
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::PersistVisible { .. }))
            .count();
        assert_eq!(
            visible,
            stats.pm_write_order.len(),
            "one PersistVisible per recorded persist"
        );
        assert_eq!(visible, 16, "8 pairs, two persistent stores each");
    }

    #[test]
    fn lock_contention_serializes() {
        let mk = || {
            vec![
                IsaOp::Lock(LockId(0)),
                IsaOp::Compute(500),
                IsaOp::Unlock(LockId(0)),
            ]
        };
        let stats = run(HwDesign::StrandWeaver, vec![mk(), mk()]);
        assert!(
            stats.cycles >= 1000,
            "critical sections serialized; cycles = {}",
            stats.cycles
        );
        assert!(stats.lock_stall_cycles() >= 400);
    }

    /// Four cores contend for lock 0. Core 2 takes it at cycle 0; cores 1,
    /// 3 and 0 queue behind it in that order, core 1 while its store queue
    /// still drains two DRAM-missing stores, and core 2 queues again after
    /// its release. So the releases wake waiters below the releaser (2 → 1,
    /// 3 → 0) and above it (1 → 3, 0 → 2).
    fn lock_handover_traces() -> Vec<IsaTrace> {
        let (lock, unlock) = (IsaOp::Lock(LockId(0)), IsaOp::Unlock(LockId(0)));
        let volatile = |k: u64| IsaOp::Store(layout().volatile_region().base.offset_words(8 * k));
        let persist = |k: u64| {
            let a = heap(8 * k);
            [
                IsaOp::Store(a),
                IsaOp::Clwb(a),
                IsaOp::Fence(FenceKind::JoinStrand),
            ]
        };
        let section = |k: u64, n: u32| {
            let mut t = vec![lock];
            t.extend(persist(k));
            t.extend([IsaOp::Compute(n), unlock]);
            t
        };
        let mut core1: IsaTrace = (0..2).map(volatile).collect();
        core1.extend(section(1, 40));
        let mut core2 = section(2, 200);
        core2.extend(section(4, 10));
        vec![
            [vec![IsaOp::Compute(30)], section(0, 40)].concat(),
            core1,
            core2,
            [vec![IsaOp::Compute(10)], section(3, 40)].concat(),
        ]
    }

    #[test]
    fn lock_waiters_wake_in_either_index_order() {
        let run_with = |skip_ahead: bool, rec: Option<&sw_trace::RingRecorder>| {
            let cfg = cfg(4).with_skip_ahead(skip_ahead);
            let mut m = Machine::new(
                cfg,
                HwDesign::StrandWeaver,
                layout(),
                lock_handover_traces(),
            );
            if let Some(rec) = rec {
                m.set_trace_sink(Box::new(rec.clone()));
            }
            m.run()
        };
        // The values of the simulator that visited every core on every
        // tick: parking must not move any of them.
        let rec = sw_trace::RingRecorder::new(1 << 16);
        for stats in [
            run_with(true, None),
            run_with(false, None),
            run_with(true, Some(&rec)),
        ] {
            let stall_lock: Vec<u64> = stats.cores.iter().map(|c| c.stall_lock).collect();
            let done: Vec<u64> = stats.cores.iter().map(|c| c.done_cycle).collect();
            assert_eq!(stats.cycles, 1162);
            assert_eq!(stall_lock, [667, 231, 697, 454]);
            assert_eq!(done, [930, 465, 1162, 697]);
        }
        let lock_stalls: Vec<(u64, u32, bool)> = rec
            .events()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::StallBegin {
                    core,
                    cause: StallKind::Lock,
                } => Some((e.cycle, core, true)),
                TraceEvent::StallEnd {
                    core,
                    cause: StallKind::Lock,
                } => Some((e.cycle, core, false)),
                _ => None,
            })
            .collect();
        // (cycle, core, begin): core 1 takes the lock at 233 from core 2,
        // core 3 at 465 from core 1, core 0 at 698 from core 3, and core 2
        // at 930 from core 0.
        assert_eq!(
            lock_stalls,
            [
                (2, 1, true),
                (11, 3, true),
                (31, 0, true),
                (233, 1, false),
                (233, 2, true),
                (465, 3, false),
                (698, 0, false),
                (930, 2, false),
            ]
        );
    }

    /// Calls recorded for `phase`.
    fn calls(perf: &sw_perf::PerfSnapshot, phase: Phase) -> u64 {
        let stat = perf.phases.iter().find(|p| p.phase == phase.label());
        stat.map_or(0, |p| p.calls)
    }

    /// Runs `traces` on `design` under `cfg` with skip-ahead on and off,
    /// with a trace recorder and metrics attached, and requires the whole
    /// `SimStats` and the recorded event streams to be equal. With
    /// skip-ahead off only sleeps without a wake time apply, so every timed
    /// sleep, and every rouse of one, is checked against visiting that core
    /// on every cycle. Returns the skip-ahead run's statistics and how many
    /// core visits it made in how many executed ticks.
    fn same_in_both_stepping_modes(
        cfg: SimConfig,
        design: HwDesign,
        traces: Vec<IsaTrace>,
    ) -> (SimStats, u64, u64) {
        let run = |skip_ahead: bool| {
            let cfg = cfg.clone().with_skip_ahead(skip_ahead);
            let mut m = Machine::new(cfg, design, layout(), traces.clone());
            let rec = sw_trace::RingRecorder::new(1 << 20);
            m.set_trace_sink(Box::new(rec.clone()));
            m.enable_metrics();
            if skip_ahead {
                m.enable_profiler();
            }
            let stats = m.run();
            assert_eq!(rec.dropped(), 0, "ring sized for the whole run");
            let events = rec.events();
            let events: Vec<_> = events
                .into_iter()
                .filter(|e| !matches!(e.event, TraceEvent::PerfPhase { .. }))
                .collect();
            (stats, events)
        };
        let (mut on, on_events) = run(true);
        let (off, off_events) = run(false);
        let perf = on.perf.take().expect("profiler installed");
        assert_eq!(on, off);
        assert_eq!(on_events, off_events);
        (
            on,
            calls(&perf, Phase::Engine),
            calls(&perf, Phase::Memctrl),
        )
    }

    /// A resolved coherence steal rouses both cores it moves a line
    /// between. On Intel, whose steals resolve at once (no strand buffers
    /// to drain), the owner sleeps on write-queue back-pressure while its
    /// flush of the stolen line waits; the steal leaves that line clean in
    /// the owner's L1, so the roused flush completes without a PM write.
    /// On StrandWeaver the requester sleeps, with no wake time, on a load
    /// the steal holds until the owner's strand buffer drains.
    #[test]
    fn steals_rouse_a_sleeping_owner_and_a_sleeping_requester() {
        use IsaOp::{Clwb, Compute, Fence, Load, Store};
        let (a, b, c, x) = (heap(0), heap(8), heap(16), heap(24));
        let mut backpressure = cfg(2);
        backpressure.pm_write_queue = 2;
        backpressure.pm_drain_interval = 2000;
        let owner = vec![
            Store(a),
            Store(b),
            Store(c),
            Store(x),
            Clwb(a),
            Clwb(b),
            Clwb(c),
            Clwb(x),
            Fence(FenceKind::Sfence),
            Store(heap(32)),
        ];
        let thief = vec![Compute(1000), Load(x)];
        let (intel, visits, ticks) =
            same_in_both_stepping_modes(backpressure, HwDesign::IntelX86, vec![owner, thief]);
        assert_eq!(intel.events.steals, 1);
        assert_eq!(intel.pm_write_order, [a.line(), b.line(), c.line()]);
        assert!(
            intel.cycles < 2000,
            "the owner finishes before the write queue drains: {}",
            intel.cycles
        );
        assert!(visits < 2 * ticks, "{visits} visits in {ticks} ticks");

        let owner = vec![Store(a), Clwb(a), Store(x), Fence(FenceKind::JoinStrand)];
        let requester = vec![Compute(60), Load(x)];
        let (sw, visits, ticks) =
            same_in_both_stepping_modes(cfg(2), HwDesign::StrandWeaver, vec![owner, requester]);
        assert_eq!(sw.events.steals, 1);
        let ack = SimConfig::table_i().pm_write_ack_cycles;
        assert!(
            sw.cores[1].mem_busy > ack,
            "the load waits out the owner's flush"
        );
        assert!(visits < 2 * ticks, "{visits} visits in {ticks} ticks");
    }

    /// An unlock hands its lock to a sleeping waiter: one whose back-end
    /// still drains a flush, above and below the releaser, which takes the
    /// lock long before the flush is acknowledged; and core 0 of the third
    /// case, which queues at cycle 21 and falls asleep with no wake time at
    /// cycle 22, in the tick core 1 releases the lock. That sleep is decided
    /// right after core 0's front-end, so the release still rouses it: it
    /// stalls cycles 21 and 22 and takes the lock at 23.
    #[test]
    fn unlock_rouses_a_sleeping_waiter() {
        use IsaOp::{Clwb, Compute, Lock, Store, Unlock};
        let p = heap(0);
        let waiter = vec![
            Store(p),
            Clwb(p),
            Compute(20),
            Lock(LockId(0)),
            Unlock(LockId(0)),
        ];
        let holder = vec![Lock(LockId(0)), Compute(100), Unlock(LockId(0))];
        let late = vec![Compute(20), Lock(LockId(0)), Unlock(LockId(0))];
        let brief = vec![Lock(LockId(0)), Compute(20), Unlock(LockId(0))];
        let ack = SimConfig::table_i().pm_write_ack_cycles;
        for (traces, w) in [
            (vec![holder.clone(), waiter.clone()], 1),
            (vec![waiter, holder], 0),
            (vec![late, brief], 0),
        ] {
            let (stats, visits, ticks) =
                same_in_both_stepping_modes(cfg(2), HwDesign::StrandWeaver, traces);
            let stall_lock = stats.cores[w].stall_lock;
            assert!(
                stall_lock > 0 && stall_lock < ack / 2,
                "waiter core {w} stalled {stall_lock} cycles on the lock"
            );
            assert!(visits < 2 * ticks, "{visits} visits in {ticks} ticks");
        }
    }

    /// Two cores whose flushes wait on a full PM write queue, each behind a
    /// pending SFENCE (a fence stall, not a persist-full one), sleep until
    /// the queue drains and take turns at each drain.
    #[test]
    fn write_queue_back_pressure_sleeps_until_the_drain() {
        use IsaOp::{Clwb, Fence, Store};
        let mut backpressure = cfg(2);
        backpressure.pm_write_queue = 2;
        backpressure.pm_drain_interval = 300;
        let flushes = |k: u64| {
            let lines: Vec<Addr> = (0..4).map(|j| heap(8 * (4 * k + j))).collect();
            let mut t: IsaTrace = lines.iter().map(|&l| Store(l)).collect();
            t.extend(lines.iter().map(|&l| Clwb(l)));
            t.extend([Fence(FenceKind::Sfence), Store(heap(8 * (100 + k)))]);
            t
        };
        let (stats, visits, ticks) = same_in_both_stepping_modes(
            backpressure,
            HwDesign::IntelX86,
            vec![flushes(0), flushes(1)],
        );
        assert_eq!(stats.pm_write_order.len(), 8);
        assert!(
            stats.cycles > 5 * 300,
            "one line drains per 300 cycles: {}",
            stats.cycles
        );
        for c in &stats.cores {
            assert!(c.stall_fence > 300, "{c:?}");
        }
        assert!(visits < 2 * ticks, "{visits} visits in {ticks} ticks");
    }

    /// A core asleep on a persist-full stall wakes whenever the stall's
    /// cause changes, and sleeps again on the new one. Core 0 fills its six
    /// flush slots and stalls on its seventh CLWB, with nothing moving in
    /// its own back-end, until its first flush is acknowledged, while core
    /// 1 changes the cause: it fills the PM write queue mid-stall; or it
    /// fills the queue, a drain un-fills it, and core 1 refills it while
    /// core 0 sleeps on its full slots again; or its write faults, which
    /// opens a retry back-off, and its retry closes it.
    #[test]
    fn persist_full_sleepers_wake_when_their_cause_changes() {
        use sw_pmem::{DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger};
        use IsaOp::{Clwb, Compute, Store};
        use StallKind::{PersistQueueFull, PmWriteQueueFull, RetryWait};
        let flushes = |from: u64, n: u64| {
            let lines = move || (from..from + n).map(|k| heap(8 * k));
            lines().map(Store).chain(lines().map(Clwb))
        };
        let mut full: IsaTrace = (0..7).map(|k| Store(heap(8 * k))).collect();
        full.push(Compute(300));
        full.extend((0..7).map(|k| Clwb(heap(8 * k))));
        // Core 1 waits, then flushes `n` fresh lines from `from` on, per batch.
        let traffic = |batches: &[(u32, u64, u64)]| {
            let batch = |&(wait, from, n)| std::iter::once(Compute(wait)).chain(flushes(from, n));
            batches.iter().flat_map(batch).collect::<IsaTrace>()
        };
        let mut queue = cfg(2);
        queue.pm_write_queue = 8;
        queue.pm_drain_interval = 500;
        let mut drains = queue.clone();
        drains.pm_drain_interval = 100;
        let fault = DeviceFault {
            class: DeviceFaultClass::TransientWriteFail,
            trigger: FaultTrigger::NthWrite(7),
            sticky: false,
        };
        let faults = cfg(2).with_device_faults(DeviceFaultSchedule {
            faults: vec![fault],
            ..DeviceFaultSchedule::none()
        });
        for (name, cfg, other, causes) in [
            (
                "fill",
                queue,
                traffic(&[(320, 10, 3)]),
                &[PersistQueueFull, PmWriteQueueFull][..],
            ),
            (
                "drain and refill",
                drains,
                traffic(&[(260, 10, 3), (130, 20, 1)]),
                &[PersistQueueFull, PmWriteQueueFull],
            ),
            (
                "fault and retry",
                faults,
                traffic(&[(320, 10, 1)]),
                &[PersistQueueFull, RetryWait],
            ),
        ] {
            let (stats, visits, ticks) =
                same_in_both_stepping_modes(cfg, HwDesign::IntelX86, vec![full.clone(), other]);
            let core = &stats.cores[0];
            for &cause in causes {
                assert!(
                    core.stall_cycles(cause) > 0,
                    "{name}: no {cause:?} in {core:?}"
                );
            }
            // Awake, core 0 alone would make a visit per stalled cycle.
            assert!(
                visits < 2 * ticks && visits < core.persist_stall_cycles(),
                "{name}: {visits} visits in {ticks} ticks, {core:?}"
            );
        }
    }

    /// A write that closes a fault-retry episode rouses another core whose
    /// write-back holds the same line. The evicting core stores A and two
    /// more lines of A's L1 set, so A's dirty eviction faults and backs
    /// off, and the core falls asleep until the next drain of a write
    /// queue that drains once per 300 cycles. The other core flushes X,
    /// computes, then stores and flushes A, whose write ends the episode
    /// early: the evictor's write-back of A is admissible from then on,
    /// not from the drain. The evictor runs as core 0, below the closing
    /// core (the order that slept through its write), and as core 1.
    #[test]
    fn closing_a_retry_episode_rouses_a_sleeping_write_back() {
        use sw_pmem::{DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger};
        use IsaOp::{Clwb, Compute, Store};
        let (a, x) = (heap(0), heap(8));
        let mut slow = cfg(2);
        slow.pm_drain_interval = 300;
        let slow = slow.with_device_faults(DeviceFaultSchedule {
            faults: vec![DeviceFault {
                class: DeviceFaultClass::TransientWriteFail,
                trigger: FaultTrigger::OnLine(a.line().raw()),
                sticky: false,
            }],
            ..DeviceFaultSchedule::none()
        });
        let evicts = vec![Store(a), Store(heap(256)), Store(heap(512))];
        for wait in [65, 75, 85] {
            let closer = vec![Store(x), Clwb(x), Compute(wait), Store(a), Clwb(a)];
            for (traces, evictor) in [
                (vec![evicts.clone(), closer.clone()], 0),
                (vec![closer, evicts.clone()], 1),
            ] {
                let (stats, _, _) =
                    same_in_both_stepping_modes(slow.clone(), HwDesign::IntelX86, traces);
                let online = stats.online_faults.expect("faults configured");
                assert_eq!(
                    online.transient_failures, 1,
                    "wait {wait}, evictor {evictor}"
                );
                assert_eq!(
                    online.retries_succeeded, 1,
                    "wait {wait}, evictor {evictor}"
                );
                assert!(
                    stats.cores[evictor].done_cycle < 300,
                    "wait {wait}: core {evictor}'s write-back waited for a drain: {stats:?}"
                );
            }
        }
    }

    /// Seventy cores, so the awake set spans two words: each takes lock 0
    /// in turn around a flush, so most of them sleep on the lock while the
    /// holder's flush drains.
    #[test]
    fn seventy_cores_sleep_and_wake_across_words() {
        use IsaOp::{Clwb, Compute, Fence, Lock, Store, Unlock};
        let traces: Vec<IsaTrace> = (0..70u64)
            .map(|k| {
                let p = heap(8 * k);
                vec![
                    Compute(k as u32),
                    Store(p),
                    Lock(LockId(0)),
                    Clwb(p),
                    Fence(FenceKind::JoinStrand),
                    Unlock(LockId(0)),
                    Store(heap(8 * (100 + k))),
                    Clwb(heap(8 * (100 + k))),
                    Fence(FenceKind::JoinStrand),
                ]
            })
            .collect();
        let (stats, visits, ticks) =
            same_in_both_stepping_modes(cfg(70), HwDesign::StrandWeaver, traces);
        assert_eq!(stats.cores.len(), 70);
        assert!(stats.cores[69].stall_lock > 0);
        assert!(visits < 70 * ticks / 4, "{visits} visits in {ticks} ticks");
    }

    #[test]
    fn uncontended_locks_are_cheap() {
        let t = vec![IsaOp::Lock(LockId(1)), IsaOp::Unlock(LockId(1))];
        let stats = run(HwDesign::StrandWeaver, vec![t]);
        assert!(stats.cycles < 20);
        assert_eq!(stats.lock_stall_cycles(), 0);
    }

    #[test]
    fn cross_core_conflicts_run_to_completion() {
        // Two cores hammer the same lines with stores and CLWBs under
        // strand primitives: exercises steals, snoop waits, and the
        // deadlock-freedom argument.
        let mk = |seed: u64| {
            let mut t = Vec::new();
            for k in 0..40u64 {
                let x = heap((seed + k) % 8);
                t.push(IsaOp::Store(x));
                t.push(IsaOp::Clwb(x));
                t.push(IsaOp::Fence(FenceKind::PersistBarrier));
                if k % 4 == 0 {
                    t.push(IsaOp::Fence(FenceKind::NewStrand));
                }
            }
            t.push(IsaOp::Fence(FenceKind::JoinStrand));
            t
        };
        let stats = run(HwDesign::StrandWeaver, vec![mk(0), mk(3)]);
        assert_eq!(stats.total_clwbs(), 80);
    }

    #[test]
    fn hops_ofence_does_not_stall_core() {
        let a = heap(0);
        let t = vec![
            IsaOp::Store(a),
            IsaOp::Clwb(a),
            IsaOp::Fence(FenceKind::Ofence),
            IsaOp::Compute(10),
        ];
        let stats = run(HwDesign::Hops, vec![t]);
        assert_eq!(stats.cores[0].stall_fence, 0, "ofence is lightweight");
    }

    #[test]
    fn pm_loads_pay_device_latency() {
        let a = heap(0);
        let stats = run(HwDesign::StrandWeaver, vec![vec![IsaOp::Load(a)]]);
        assert!(
            stats.cycles >= SimConfig::table_i().pm_read_cycles,
            "cold PM load: cycles = {}",
            stats.cycles
        );
        let warm = run(
            HwDesign::StrandWeaver,
            vec![vec![IsaOp::Load(a), IsaOp::Load(a), IsaOp::Load(a)]],
        );
        // Second and third loads hit L1.
        assert!(warm.cycles < stats.cycles + 20);
    }

    #[test]
    fn volatile_accesses_use_dram() {
        let v = layout().volatile_region().base;
        let stats = run(HwDesign::StrandWeaver, vec![vec![IsaOp::Load(v)]]);
        let t = SimConfig::table_i();
        assert!(stats.cycles >= t.dram_cycles && stats.cycles < t.pm_read_cycles);
    }

    #[test]
    fn store_queue_backpressure_counts_stalls() {
        // More stores than SQ entries to lines that miss: the SQ fills.
        let mut t = Vec::new();
        for k in 0..200u64 {
            t.push(IsaOp::Store(heap(8 * k)));
        }
        let stats = run(HwDesign::StrandWeaver, vec![t]);
        assert!(stats.cores[0].stall_sq_full > 0);
    }

    #[test]
    fn stall_breakdown_bounded_by_done_cycle() {
        // A core records at most one stall cause per cycle, so the four
        // counters can never sum past the cycle it finished at.
        for &design in &HwDesign::ALL {
            let traces = vec![pair_trace(design, 48), pair_trace(design, 48)];
            let stats = Machine::new(cfg(2), design, layout(), traces).run();
            for (i, c) in stats.cores.iter().enumerate() {
                let stalls = c.stall_fence
                    + c.stall_sq_full
                    + c.stall_pq_full
                    + c.stall_lock
                    + c.stall_pm_wq_full
                    + c.stall_retry_wait;
                let done = c.done_cycle;
                assert!(
                    stalls <= done,
                    "{design:?} core{i}: stalls {stalls} > done_cycle {done}"
                );
            }
        }
    }

    /// The stall causes `design` can produce. Every design can stall on
    /// fences, full store queues and contended locks: the design-agnostic
    /// front-end produces those.
    fn stall_causes(design: HwDesign) -> &'static [StallKind] {
        match design {
            // eADR has no persist structure, and without a persist queue
            // CLWB back-pressure surfaces as store-queue pressure: neither
            // can stall on a full persist structure.
            HwDesign::Eadr | HwDesign::NoPersistQueue => {
                &[StallKind::Fence, StallKind::StoreQueueFull, StallKind::Lock]
            }
            HwDesign::IntelX86 | HwDesign::Hops | HwDesign::StrandWeaver | HwDesign::NonAtomic => {
                &StallKind::ALL
            }
        }
    }

    #[test]
    fn stall_causes_outside_the_engine_set_stay_zero() {
        for &design in &HwDesign::ALL {
            let allowed = stall_causes(design);
            for cause in [StallKind::Fence, StallKind::StoreQueueFull, StallKind::Lock] {
                assert!(allowed.contains(&cause), "{design:?} missing {cause:?}");
            }
            let stats = run(design, vec![pair_trace(design, 48)]);
            for cause in StallKind::ALL {
                if !allowed.contains(&cause) {
                    assert_eq!(
                        stats.cores[0].stall_cycles(cause),
                        0,
                        "{design:?} must never stall on {cause:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stall_counters_report_explicit_zeros() {
        // Satellite of the engine refactor: causes a design can never
        // produce still appear in the metrics snapshot, as zeros, instead
        // of being silently absent.
        let mut m = Machine::new(
            cfg(1),
            HwDesign::Eadr,
            layout(),
            vec![pair_trace(HwDesign::Eadr, 8)],
        );
        m.enable_metrics();
        let stats = m.run();
        for cause in StallKind::ALL {
            let name = format!("stalls.{}", cause.label());
            assert!(
                stats.metrics.counter(&name).is_some(),
                "{name} must be registered even if unused"
            );
        }
        assert_eq!(
            stats.metrics.counter("stalls.pq_full"),
            Some(0),
            "eADR has no persist queue"
        );
        assert_eq!(
            stats.metrics.counter("pm.persists_visible"),
            Some(stats.pm_write_order.len() as u64)
        );
    }

    #[test]
    fn metrics_snapshot_matches_run_stats() {
        let mut m = Machine::new(
            cfg(1),
            HwDesign::StrandWeaver,
            layout(),
            vec![pair_trace(HwDesign::StrandWeaver, 16)],
        );
        m.enable_metrics();
        let stats = m.run();
        assert_eq!(
            stats.metrics.counter("pm.writes_accepted"),
            Some(stats.pm_write_order.len() as u64),
            "every controller accept must be counted"
        );
        assert!(stats.metrics.gauge("core0.pq_depth").is_some());
        let h = stats.metrics.histogram("pq.depth").expect("registered");
        assert!(h.count > 0, "persist-queue traffic must be sampled");
    }

    #[test]
    fn disabled_machine_records_no_metrics() {
        let stats = run(
            HwDesign::StrandWeaver,
            vec![pair_trace(HwDesign::StrandWeaver, 4)],
        );
        assert!(stats.metrics.is_empty());
    }

    #[test]
    fn perfetto_round_trip_matches_recorder() {
        use sw_trace::{Json, RingRecorder, TraceEvent};
        let traces = vec![
            pair_trace(HwDesign::StrandWeaver, 32),
            pair_trace(HwDesign::StrandWeaver, 32),
        ];
        let mut m = Machine::new(cfg(2), HwDesign::StrandWeaver, layout(), traces);
        let rec = RingRecorder::new(1 << 20);
        m.set_trace_sink(Box::new(rec.clone()));
        let _ = m.run();
        assert_eq!(rec.dropped(), 0, "ring sized for the whole run");
        let events = rec.events();
        assert!(!events.is_empty());

        let doc = sw_trace::perfetto::chrome_trace(&events);
        let parsed = sw_trace::json::parse(&doc.render()).expect("exporter output is valid JSON");
        let arr = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");

        // Replay the exporter's per-event fan-out against the raw recording:
        // AdrAccept produces two trace objects (instant + counter), an
        // unmatched StallEnd produces none, everything else exactly one.
        let mut open = std::collections::HashSet::new();
        let mut expected = 0usize;
        for te in &events {
            expected += match te.event {
                TraceEvent::AdrAccept { .. } => 2,
                TraceEvent::StallBegin { core, cause } => {
                    open.insert((core, cause));
                    1
                }
                TraceEvent::StallEnd { core, cause } => usize::from(open.remove(&(core, cause))),
                _ => 1,
            };
        }
        expected += open.len(); // dangling closes (none: run() closes all)
        let non_meta = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .count();
        assert_eq!(non_meta, expected);
    }

    #[test]
    fn ckc_reflects_write_intensity() {
        let d = HwDesign::NonAtomic;
        let dense = run(d, vec![pair_trace(d, 64)]);
        let mut sparse_trace = pair_trace(d, 64);
        for _ in 0..64 {
            sparse_trace.push(IsaOp::Compute(500));
        }
        let sparse = run(d, vec![sparse_trace]);
        assert!(dense.ckc() > sparse.ckc());
    }

    fn profiled_run(design: HwDesign, traces: Vec<IsaTrace>) -> SimStats {
        let n = traces.len();
        let mut m = Machine::new(cfg(n), design, layout(), traces);
        m.enable_profiler();
        m.run()
    }

    #[test]
    fn profiled_phase_nanos_sum_to_at_most_wall_time() {
        let stats = profiled_run(
            HwDesign::StrandWeaver,
            vec![pair_trace(HwDesign::StrandWeaver, 32)],
        );
        let perf = stats.perf.expect("profiler installed");
        assert!(
            perf.phase_nanos_total() <= perf.wall_nanos,
            "laps are disjoint sub-intervals of the run: {} > {}",
            perf.phase_nanos_total(),
            perf.wall_nanos
        );
        // Every phase ran at least once per simulated cycle.
        for p in &perf.phases {
            assert!(p.calls > 0, "phase {} never crossed", p.phase);
        }
    }

    #[test]
    fn profiling_does_not_change_simulated_results() {
        for &design in &HwDesign::ALL {
            let plain = run(design, vec![pair_trace(design, 32)]);
            let profiled = profiled_run(design, vec![pair_trace(design, 32)]);
            assert_eq!(plain.cycles, profiled.cycles, "{design:?}");
            assert_eq!(plain.cores, profiled.cores, "{design:?}");
            assert_eq!(plain.pm_write_order, profiled.pm_write_order, "{design:?}");
            assert_eq!(plain.events, profiled.events, "{design:?}");
        }
    }

    #[test]
    fn event_counts_report_explicit_zeros_per_design() {
        let stats_of = |d: HwDesign| run(d, vec![pair_trace(d, 16)]);

        let sw = stats_of(HwDesign::StrandWeaver);
        assert!(sw.events.pq_events > 0, "StrandWeaver moves pq entries");
        assert!(
            sw.events.sb_enqueues > 0,
            "StrandWeaver fills strand buffers"
        );
        assert_eq!(sw.events.persists_visible, 0, "ADR design");

        let intel = stats_of(HwDesign::IntelX86);
        assert_eq!(intel.events.pq_events, 0, "no persist queue on Intel");
        assert_eq!(intel.events.sb_enqueues, 0, "no strand buffers on Intel");
        assert!(intel.events.pm_writes > 0);

        let eadr = stats_of(HwDesign::Eadr);
        assert_eq!(eadr.events.pq_events, 0);
        assert_eq!(eadr.events.sb_enqueues, 0);
        assert!(
            eadr.events.persists_visible > 0,
            "eADR persists at visibility"
        );

        for &d in &HwDesign::ALL {
            let s = stats_of(d);
            assert!(s.events.frontend_ops > 0, "{d:?} ran the trace");
            assert!(s.events.store_retires > 0, "{d:?} retired stores");
            assert!(s.events.total() >= s.events.frontend_ops);
        }
    }

    #[test]
    fn events_are_identical_with_and_without_observability() {
        let d = HwDesign::StrandWeaver;
        let plain = run(d, vec![pair_trace(d, 16)]);
        let mut m = Machine::new(cfg(1), d, layout(), vec![pair_trace(d, 16)]);
        m.enable_metrics();
        let observed = m.run();
        assert_eq!(plain.events, observed.events);
    }

    #[test]
    fn profiled_run_with_observability_exports_perf_events_but_no_counters() {
        use sw_trace::RingRecorder;
        let d = HwDesign::StrandWeaver;
        let mut m = Machine::new(cfg(1), d, layout(), vec![pair_trace(d, 8)]);
        m.enable_profiler();
        m.enable_metrics();
        let rec = RingRecorder::new(1 << 16);
        m.set_trace_sink(Box::new(rec.clone()));
        let stats = m.run();
        let perf = stats.perf.expect("profiler installed");
        assert!(perf.phases.iter().any(|p| p.calls > 0));
        assert!(
            stats
                .metrics
                .counters
                .iter()
                .all(|(n, _)| !n.starts_with("perf.")),
            "the phase table is reported once, in SimStats::perf"
        );
        let perf_events = rec
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::PerfPhase { .. }))
            .count();
        assert_eq!(perf_events, sw_perf::Phase::ALL.len());
    }
}
