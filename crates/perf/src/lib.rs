//! `sw-perf`: self-profiling for the simulator's discrete-event hot path.
//!
//! The crate follows the same discipline as `sw-trace`'s `NullSink`: the
//! instrumentation is always compiled in, and when profiling is disabled
//! every site reduces to a branch on an `Option` discriminant (the
//! `perf_overhead` criterion bench in `sw-bench` checks this). When
//! enabled, the simulator times each phase of `Machine::tick` with the
//! monotonic clock ([`std::time::Instant`]) using a *lap chain*: one clock
//! read per phase boundary, so a cycle with `P` instrumented boundaries
//! costs `P` reads, not `2P`.
//!
//! Three layers:
//!
//! 1. [`Profiler`] — per-machine accumulator with one fixed slot per
//!    [`Phase`] (`nanos`, `calls`) plus the run's wall clock.
//! 2. [`PerfSnapshot`] — a frozen, comparable (`Eq`) copy embedded in
//!    `SimStats` and rendered to JSON / a table.
//! 3. **Ambient enable** — a process-wide flag ([`set_global_enabled`])
//!    that makes every subsequently constructed `Machine` install a
//!    profiler, plus a mutex-guarded aggregate ([`global_merge`] /
//!    [`global_take`]) that sums snapshots across the design-sweep worker
//!    threads without plumbing a handle through every call site.
//!
//! Like the rest of the workspace, serialization goes through the
//! hand-rolled `sw-trace` JSON model (no serde offline).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sw_trace::Json;

/// One instrumented phase of the simulator's per-cycle event loop.
///
/// The slots mirror the statement order of `Machine::tick`: the PM
/// controller drains, coherence steals resolve, then per core the
/// `PersistEngine::backend` hook runs, the store queue retires, the
/// write-back flush engine drains, then per core the frontend issues and
/// the core is settled (retired once drained, or put to sleep), stall
/// intervals reconcile, and the clock advances.
///
/// [`Phase::Engine`], [`Phase::StoreQueue`] and [`Phase::Writeback`] count
/// one call per awake core the tick visits; the tick skips a core that is
/// done or asleep (after a visit that changed nothing, until its next
/// event, or until another core's unlock or coherence steal, or a change
/// of the cause of the persist-full stall it sleeps on, rouses it), so
/// they count far fewer calls than cores × ticks. Every other phase counts
/// one call per executed tick. The clock's jump over cycles at which every
/// core sleeps runs between two ticks, outside every phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `PmController::tick` — write-queue drain pacing (`memctrl.rs`).
    Memctrl,
    /// Cross-core coherence steal resolution (`cache.rs` state moves).
    Coherence,
    /// The per-design `PersistEngine::backend` hook (persist queue,
    /// strand-buffer unit, flush slots — `engines/*`).
    Engine,
    /// Store-queue retirement and persist-op drain (`writeback.rs`).
    StoreQueue,
    /// Dirty-line write-back flush engine (`writeback.rs`).
    Writeback,
    /// Instruction issue: loads, stores, CLWBs, fences (`pipeline.rs`),
    /// and right after each core's issue its done-check and sleep decision.
    Frontend,
    /// Observability reconciliation (stall intervals, queue gauges).
    Observe,
    /// Advancing the clock past the tick.
    Retire,
}

impl Phase {
    /// All phases, in `Machine::tick` statement order.
    pub const ALL: [Phase; 8] = [
        Phase::Memctrl,
        Phase::Coherence,
        Phase::Engine,
        Phase::StoreQueue,
        Phase::Writeback,
        Phase::Frontend,
        Phase::Observe,
        Phase::Retire,
    ];

    /// Short stable label used in exports and the phase table.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Memctrl => "memctrl",
            Phase::Coherence => "coherence",
            Phase::Engine => "engine",
            Phase::StoreQueue => "store_queue",
            Phase::Writeback => "writeback",
            Phase::Frontend => "frontend",
            Phase::Observe => "observe",
            Phase::Retire => "retire",
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PhaseSlot {
    nanos: u64,
    calls: u64,
}

/// Per-machine profiling accumulator.
///
/// Owned by `Machine` as `Option<Box<Profiler>>`; `None` is the disabled
/// path. The wall clock starts at construction and stops at
/// [`Profiler::snapshot`].
#[derive(Debug)]
pub struct Profiler {
    start: Instant,
    slots: [PhaseSlot; Phase::ALL.len()],
}

impl Profiler {
    /// Starts a profiler; the wall clock begins now.
    pub fn new() -> Self {
        Profiler {
            start: Instant::now(),
            slots: [PhaseSlot::default(); Phase::ALL.len()],
        }
    }

    /// Attributes `nanos` to `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        let slot = &mut self.slots[phase as usize];
        slot.nanos += nanos;
        slot.calls += 1;
    }

    /// Freezes the accumulated timings. Every phase appears, including
    /// zero-call ones (the explicit-zeros convention the stall counters
    /// follow).
    pub fn snapshot(&self) -> PerfSnapshot {
        PerfSnapshot {
            wall_nanos: self.start.elapsed().as_nanos() as u64,
            phases: Phase::ALL
                .iter()
                .map(|&p| {
                    let slot = self.slots[p as usize];
                    PhaseStat {
                        phase: p.label(),
                        nanos: slot.nanos,
                        calls: slot.calls,
                    }
                })
                .collect(),
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

/// A lap chain: the timestamp of the previous phase boundary.
///
/// `Lap::begin(false)` yields an inert lap whose [`mark`](Lap::mark) is
/// never reached (the caller gates on its profiler being present), so the
/// disabled path reads no clocks.
#[derive(Debug, Clone, Copy)]
pub struct Lap(Option<Instant>);

impl Lap {
    /// Starts a lap chain; reads the clock only when `enabled`.
    #[inline]
    pub fn begin(enabled: bool) -> Self {
        Lap(if enabled { Some(Instant::now()) } else { None })
    }

    /// Closes the current lap, attributing the elapsed time to `phase`,
    /// and starts the next lap at the same instant (one clock read).
    #[inline]
    pub fn mark(&mut self, prof: &mut Profiler, phase: Phase) {
        if let Some(t0) = self.0 {
            let now = Instant::now();
            prof.record(phase, now.saturating_duration_since(t0).as_nanos() as u64);
            self.0 = Some(now);
        }
    }
}

/// Wall time and calls attributed to one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Stable phase label ([`Phase::label`]).
    pub phase: &'static str,
    /// Wall nanoseconds spent inside the phase.
    pub nanos: u64,
    /// Times the phase boundary was crossed.
    pub calls: u64,
}

/// A frozen profile: run wall time plus the per-phase breakdown.
///
/// Derives `Eq` so `SimStats` (which embeds it) can keep deriving `Eq`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Wall nanoseconds from profiler construction to snapshot. For a
    /// merged snapshot this is the *sum* over runs (CPU-time-like when
    /// sweep cells ran on worker threads).
    pub wall_nanos: u64,
    /// Per-phase attribution, in [`Phase::ALL`] order; merged snapshots
    /// keep one entry per label.
    pub phases: Vec<PhaseStat>,
}

impl PerfSnapshot {
    /// Sum of nanoseconds attributed to phases. Laps are disjoint
    /// subintervals of the run, so this never exceeds
    /// [`wall_nanos`](PerfSnapshot::wall_nanos) for an unmerged snapshot.
    pub fn phase_nanos_total(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Share of phase-attributed time spent in `phase`, in percent
    /// (0 when nothing was attributed at all).
    pub fn pct(&self, phase: &str) -> f64 {
        let total = self.phase_nanos_total();
        if total == 0 {
            return 0.0;
        }
        let nanos = self
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0, |p| p.nanos);
        nanos as f64 * 100.0 / total as f64
    }

    /// Whether any time or calls were attributed.
    pub fn is_empty(&self) -> bool {
        self.wall_nanos == 0 && self.phases.iter().all(|p| p.nanos == 0 && p.calls == 0)
    }

    /// Accumulates `other` into `self`, matching phases by label and
    /// appending labels `self` has not seen.
    pub fn merge(&mut self, other: &PerfSnapshot) {
        self.wall_nanos += other.wall_nanos;
        for theirs in &other.phases {
            match self.phases.iter_mut().find(|p| p.phase == theirs.phase) {
                Some(ours) => {
                    ours.nanos += theirs.nanos;
                    ours.calls += theirs.calls;
                }
                None => self.phases.push(*theirs),
            }
        }
    }

    /// JSON object: `{"wall_nanos":…,"phases":[{"phase":…,"nanos":…,
    /// "calls":…,"pct":…},…]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wall_nanos".to_string(), Json::U64(self.wall_nanos)),
            (
                "phases".to_string(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("phase".to_string(), Json::Str(p.phase.to_string())),
                                ("nanos".to_string(), Json::U64(p.nanos)),
                                ("calls".to_string(), Json::U64(p.calls)),
                                ("pct".to_string(), Json::F64(self.pct(p.phase))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Fixed-width table of the per-phase breakdown.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>14} {:>12} {:>7}\n",
            "phase", "nanos", "calls", "pct"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<12} {:>14} {:>12} {:>6.1}%\n",
                p.phase,
                p.nanos,
                p.calls,
                self.pct(p.phase)
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>14}   (wall {} ns)\n",
            "total",
            self.phase_nanos_total(),
            self.wall_nanos
        ));
        out
    }
}

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL_AGGREGATE: Mutex<Option<PerfSnapshot>> = Mutex::new(None);

/// Turns ambient profiling on or off. While on, every `Machine` built
/// afterwards installs a profiler and merges its snapshot into the global
/// aggregate when the run finishes.
pub fn set_global_enabled(on: bool) {
    GLOBAL_ENABLED.store(on, Ordering::SeqCst);
}

/// Whether ambient profiling is on.
pub fn global_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::SeqCst)
}

/// Adds `snap` to the process-wide aggregate (thread-safe; design-sweep
/// worker threads all land here).
pub fn global_merge(snap: &PerfSnapshot) {
    let mut agg = GLOBAL_AGGREGATE.lock().expect("perf aggregate poisoned");
    agg.get_or_insert_with(PerfSnapshot::default).merge(snap);
}

/// Takes and resets the process-wide aggregate (empty snapshot if nothing
/// was merged since the last take).
pub fn global_take() -> PerfSnapshot {
    GLOBAL_AGGREGATE
        .lock()
        .expect("perf aggregate poisoned")
        .take()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_are_unique() {
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::ALL.len());
    }

    #[test]
    fn snapshot_reports_every_phase_with_explicit_zeros() {
        let mut prof = Profiler::new();
        prof.record(Phase::Engine, 10);
        let snap = prof.snapshot();
        assert_eq!(snap.phases.len(), Phase::ALL.len());
        let frontend = snap.phases.iter().find(|p| p.phase == "frontend").unwrap();
        assert_eq!((frontend.nanos, frontend.calls), (0, 0));
        let engine = snap.phases.iter().find(|p| p.phase == "engine").unwrap();
        assert_eq!((engine.nanos, engine.calls), (10, 1));
    }

    #[test]
    fn lap_chain_attributes_disjoint_intervals() {
        let mut prof = Profiler::new();
        let mut lap = Lap::begin(true);
        std::hint::black_box(0u64);
        lap.mark(&mut prof, Phase::Memctrl);
        std::hint::black_box(0u64);
        lap.mark(&mut prof, Phase::Frontend);
        let snap = prof.snapshot();
        assert_eq!(snap.phases.iter().map(|p| p.calls).sum::<u64>(), 2);
        // Laps are sub-intervals of the profiler's lifetime.
        assert!(snap.phase_nanos_total() <= snap.wall_nanos);
    }

    #[test]
    fn disabled_lap_records_nothing() {
        let mut prof = Profiler::new();
        let mut lap = Lap::begin(false);
        lap.mark(&mut prof, Phase::Memctrl);
        assert_eq!(
            prof.snapshot().phases.iter().map(|p| p.calls).sum::<u64>(),
            0
        );
    }

    #[test]
    fn merge_sums_by_label() {
        let mut a = PerfSnapshot {
            wall_nanos: 100,
            phases: vec![PhaseStat {
                phase: "engine",
                nanos: 60,
                calls: 3,
            }],
        };
        let b = PerfSnapshot {
            wall_nanos: 50,
            phases: vec![
                PhaseStat {
                    phase: "engine",
                    nanos: 40,
                    calls: 2,
                },
                PhaseStat {
                    phase: "frontend",
                    nanos: 10,
                    calls: 1,
                },
            ],
        };
        a.merge(&b);
        assert_eq!(a.wall_nanos, 150);
        assert_eq!(a.phases.len(), 2);
        assert_eq!(a.phases[0].nanos, 100);
        assert_eq!(a.phases[0].calls, 5);
        assert!((a.pct("engine") - 100.0 * 100.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn json_carries_phases_and_pct() {
        let mut prof = Profiler::new();
        prof.record(Phase::Writeback, 25);
        prof.record(Phase::Writeback, 75);
        let rendered = prof.snapshot().to_json().render();
        assert!(rendered.contains("\"phase\":\"writeback\""));
        assert!(rendered.contains("\"calls\":2"));
        let parsed = sw_trace::json::parse(&rendered).expect("perf json parses back");
        let phases = parsed.get("phases").and_then(Json::as_arr).unwrap();
        assert_eq!(phases.len(), Phase::ALL.len());
    }

    #[test]
    fn global_aggregate_round_trips() {
        // Serialized against other tests by taking before and after.
        let _ = global_take();
        assert!(!global_enabled());
        let snap = PerfSnapshot {
            wall_nanos: 7,
            phases: vec![PhaseStat {
                phase: "engine",
                nanos: 7,
                calls: 1,
            }],
        };
        global_merge(&snap);
        global_merge(&snap);
        let agg = global_take();
        assert_eq!(agg.wall_nanos, 14);
        assert!(global_take().is_empty());
    }
}
